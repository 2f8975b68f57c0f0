"""GENET — the learning-based ABR baseline.

GENET (Xia et al., SIGCOMM 2022) is a Pensieve-style neural ABR policy whose
training is made to converge reliably through automatic curriculum
generation.  Training a policy-gradient agent from scratch to
state-of-the-art quality is not feasible within this repository's CPU/time
budget, so the baseline reproduces GENET's *outcome* (a well-converged neural
ABR policy) through a two-phase recipe, documented in DESIGN.md:

1. **Imitation warm start** — the actor is behaviour-cloned from MPC
   demonstrations collected on the training traces (playing the role of the
   easy-to-learn starting curriculum).
2. **Curriculum policy-gradient refinement** (optional) — REINFORCE with a
   learned value baseline over traces ordered from easy to hard, which is
   GENET's core idea.  It is disabled by default because at this scale the
   warm start already converges and additional on-policy updates mostly add
   variance; benchmarks that want the full pipeline can enable it.

The resulting policy is an MLP actor(+critic) over the flattened ABR
observation with the same interfaces as the rule-based baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ...nn import Adam, MLP, Tensor, clip_grad_norm, cross_entropy
from ...utils import seeded_rng
from ..env import ABREnvironment, ABRObservation, normalize_observation, observe
from ..simulator import StreamingSession
from .mpc import MPCPolicy


class GenetPolicy:
    """MLP actor-critic bitrate policy."""

    name = "GENET"

    def __init__(self, observation_size: int, num_actions: int, hidden: int = 64,
                 seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.observation_size = observation_size
        self.num_actions = num_actions
        self.actor = MLP(observation_size, [hidden, hidden], num_actions, rng=rng)
        self.critic = MLP(observation_size, [hidden], 1, rng=rng)
        self._rng = seeded_rng(seed)

    # -- inference -------------------------------------------------------- #
    def action_probabilities(self, flat_observation: np.ndarray) -> np.ndarray:
        flat = normalize_observation(flat_observation)
        logits = self.actor(Tensor(flat[None, :]))
        return logits.softmax(axis=-1).data[0]

    def act(self, observation: ABRObservation, greedy: bool = True) -> int:
        probs = self.action_probabilities(observation.flatten())
        if greedy:
            return int(np.argmax(probs))
        return int(self._rng.choice(self.num_actions, p=probs))

    def select_bitrate(self, session: StreamingSession) -> int:
        return self.act(observe(session), greedy=True)

    def reset(self) -> None:
        """The policy is stateless across chunks."""


@dataclass
class GenetTrainResult:
    """Diagnostics of the GENET training pipeline."""

    imitation_losses: List[float] = field(default_factory=list)
    episode_returns: List[float] = field(default_factory=list)


def _trace_difficulty(trace) -> float:
    """Curriculum key: more variable and scarcer bandwidth is harder."""
    bandwidth = trace.bandwidth_mbps
    return float(bandwidth.std() / max(bandwidth.mean(), 1e-6) + 1.0 / max(bandwidth.mean(), 1e-6))


def _collect_demonstrations(env: ABREnvironment, teacher, max_traces: Optional[int] = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Roll the teacher policy over the training traces, recording (obs, action)."""
    observations: List[np.ndarray] = []
    actions: List[int] = []
    traces = env.traces if max_traces is None else env.traces[:max_traces]
    for index, trace in enumerate(traces):
        session = StreamingSession(env.video, trace, config=env.config, seed=index)
        while not session.finished:
            obs = observe(session)
            action = teacher.select_bitrate(session)
            observations.append(normalize_observation(obs.flatten()))
            actions.append(action)
            session.download_chunk(action)
    return np.stack(observations), np.asarray(actions, dtype=np.int64)


def train_genet(env: ABREnvironment, imitation_epochs: int = 30, rl_episodes: int = 0,
                lr: float = 3e-3, rl_lr: float = 3e-4, gamma: float = 0.95,
                entropy_weight: float = 0.005, hidden: int = 64, batch_size: int = 64,
                teacher: Optional[object] = None, seed: int = 0
                ) -> tuple[GenetPolicy, GenetTrainResult]:
    """Train a GENET policy (imitation warm start + optional curriculum RL)."""
    if imitation_epochs < 1 and rl_episodes < 1:
        raise ValueError("at least one training phase must be enabled")
    rng = seeded_rng(seed)
    policy = GenetPolicy(env.observation_size, env.num_actions, hidden=hidden, seed=seed)
    result = GenetTrainResult()

    # ---------------- Phase 1: imitation warm start ---------------------- #
    if imitation_epochs > 0:
        teacher = teacher or MPCPolicy(horizon=5)
        demos_x, demos_y = _collect_demonstrations(env, teacher)
        optimizer = Adam(policy.actor.parameters(), lr=lr)
        indices = np.arange(len(demos_x))
        for _ in range(imitation_epochs):
            rng.shuffle(indices)
            for start in range(0, len(indices), batch_size):
                batch = indices[start:start + batch_size]
                logits = policy.actor(Tensor(demos_x[batch]))
                loss = cross_entropy(logits, demos_y[batch])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                result.imitation_losses.append(float(loss.data))

    # ---------------- Phase 2: curriculum policy-gradient ---------------- #
    if rl_episodes > 0:
        optimizer = Adam(policy.actor.parameters() + policy.critic.parameters(), lr=rl_lr)
        order = np.argsort([_trace_difficulty(t) for t in env.traces])
        for episode in range(rl_episodes):
            unlocked = max(1, int(np.ceil((episode + 1) / rl_episodes * len(order))))
            trace_index = int(order[int(rng.integers(0, unlocked))])
            observation = env.reset(trace_index=trace_index)
            obs_list: List[np.ndarray] = []
            act_list: List[int] = []
            rew_list: List[float] = []
            done = False
            while not done:
                flat = normalize_observation(observation.flatten())
                probs = policy.actor(Tensor(flat[None, :])).softmax(axis=-1).data[0]
                action = int(rng.choice(policy.num_actions, p=probs))
                observation, reward, done, _ = env.step(action)
                obs_list.append(flat)
                act_list.append(action)
                rew_list.append(reward * 0.1)  # reward scaling for stability
            returns = np.zeros(len(rew_list))
            running = 0.0
            for i in reversed(range(len(rew_list))):
                running = rew_list[i] + gamma * running
                returns[i] = running
            result.episode_returns.append(float(np.sum(rew_list)) * 10.0)

            obs_batch = Tensor(np.stack(obs_list))
            actions_arr = np.asarray(act_list, dtype=np.int64)
            values = policy.critic(obs_batch)
            advantages = returns - values.data[:, 0]
            logits = policy.actor(obs_batch)
            log_probs = logits.log_softmax(axis=-1)
            picked = log_probs[np.arange(len(actions_arr)), actions_arr]
            policy_loss = -(picked * Tensor(advantages)).mean()
            probs_tensor = logits.softmax(axis=-1)
            entropy = -(probs_tensor * log_probs).sum(axis=-1).mean()
            value_error = values[:, 0] - Tensor(returns)
            value_loss = (value_error * value_error).mean()
            loss = policy_loss + 0.5 * value_loss - entropy_weight * entropy
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(policy.actor.parameters() + policy.critic.parameters(), 1.0)
            optimizer.step()

    return policy, result
