"""DD-LRNA: data-driven low-rank networking adaptation (§4.3).

This module implements both halves of the scheme:

* **Data-driven adaptation pipelines** — a standard supervised loop for
  prediction tasks (:func:`adapt_prediction`) and an offline, return-
  conditioned loop for decision-making tasks (:func:`adapt_decision`) that
  trains on an :class:`~repro.core.experience.ExperiencePool` collected once
  from existing algorithms, eliminating environment interaction.
* **Low-rank adaptation** — the LLM inside each adapter is frozen and LoRA
  matrices (plus the encoder and head) carry all gradient updates; the
  adapters set this up in their constructors, so the trainers here simply
  optimize ``adapter.trainable_parameters()``.

The module also holds the deployment side: :class:`ReturnConditionedPolicy`,
the one return-conditioning rule used at inference time (aim at a target
return, subtract the rewards as the episode unfolds, read the rolling
window), and its two tasks, :class:`NetLLMABRPolicy` for the ABR simulator
and :class:`NetLLMCJSScheduler` for the CJS simulator.  The window a policy
prepares is the payload the serving runtimes take, so the served clients of
:mod:`repro.serve.clients` are these policies with the engine answering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..abr.env import normalize_observation, observe
from ..abr.simulator import StreamingSession
from ..cjs.env import (
    MAX_CANDIDATES,
    PARALLELISM_FRACTIONS,
    decision_from_action,
    encode_observation,
    ordered_candidates,
)
from ..cjs.simulator import SchedulingContext, SchedulingDecision
from ..nn import Adam, Tensor, clip_grad_norm, cross_entropy, no_grad
from ..utils import Timer, seeded_rng
from .adapter import DecisionAdapter, VPAdapter, DecisionBatch
from .experience import ExperiencePool, Trajectory


@dataclass
class AdaptationResult:
    """Diagnostics of one DD-LRNA fine-tuning run."""

    losses: List[float] = field(default_factory=list)
    iterations: int = 0
    wall_seconds: float = 0.0
    trainable_fraction: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")


def _adapt(adapter, batch_loss: Callable[[np.random.Generator], Tensor],
           iterations: int, lr: float, seed: int,
           grad_clip: float) -> AdaptationResult:
    """The one DD-LRNA fine-tuning loop: ``iterations`` clipped Adam steps
    on the adapter's trainable parameters, each minimizing ``batch_loss(rng)``
    — the task's loss on a batch it draws from the seeded ``rng``."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = seeded_rng(seed)
    parameters = adapter.trainable_parameters()
    optimizer = Adam(parameters, lr=lr)
    result = AdaptationResult(trainable_fraction=adapter.trainable_fraction())
    timer = Timer()
    adapter.train()
    timer.start("update")
    for _ in range(iterations):
        loss = batch_loss(rng)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(parameters, grad_clip)
        optimizer.step()
        result.losses.append(float(loss.data))
        result.iterations += 1
    timer.stop("update")
    adapter.eval()
    result.wall_seconds = timer.total("update")
    return result


# ---------------------------------------------------------------------- #
# Prediction tasks (SL pipeline)
# ---------------------------------------------------------------------- #
def adapt_prediction(adapter: VPAdapter, samples: Sequence, iterations: int = 200,
                     batch_size: int = 16, lr: float = 2e-3, seed: int = 0,
                     grad_clip: float = 5.0) -> AdaptationResult:
    """Fine-tune a :class:`VPAdapter` on supervised (input, label) samples.

    The loss is mean squared error in the normalized residual space, which is
    equivalent to the paper's regression loss (equation 1 with MSE).
    """
    if not samples:
        raise ValueError("samples must not be empty")

    def batch_loss(rng: np.random.Generator) -> Tensor:
        indices = rng.integers(0, len(samples), size=min(batch_size, len(samples)))
        batch = [samples[i] for i in indices]
        histories = np.stack([s.history for s in batch])
        futures = np.stack([s.future for s in batch])
        if adapter.use_saliency and batch[0].saliency is not None:
            saliencies = np.stack([s.saliency for s in batch])
        else:
            saliencies = None
        predictions = adapter.forward(histories, saliencies)
        diff = (predictions - Tensor(futures)) * (1.0 / 60.0)
        return (diff * diff).mean()

    return _adapt(adapter, batch_loss, iterations, lr, seed, grad_clip)


# ---------------------------------------------------------------------- #
# Decision-making tasks (offline, return-conditioned pipeline)
# ---------------------------------------------------------------------- #
def adapt_decision(adapter: DecisionAdapter, pool: ExperiencePool, iterations: int = 300,
                   batch_size: int = 16, lr: float = 2e-3, seed: int = 0,
                   grad_clip: float = 5.0) -> AdaptationResult:
    """Fine-tune a :class:`DecisionAdapter` on an offline experience pool.

    Every iteration samples a batch of context windows and minimizes the sum
    of cross-entropy losses over the action components (equation 4 with CE),
    i.e. the model learns the distribution of actions conditioned on states
    and returns-to-go.
    """

    def batch_loss(rng: np.random.Generator) -> Tensor:
        returns, states, actions = pool.sample_windows(
            batch_size, adapter.context_window, rng=rng)
        batch = DecisionBatch(returns=returns, states=states, actions=actions)
        logits_list = adapter.forward(batch)
        loss = None
        for component, logits in enumerate(logits_list):
            component_loss = cross_entropy(logits, actions[..., component])
            loss = component_loss if loss is None else loss + component_loss
        return loss

    return _adapt(adapter, batch_loss, iterations, lr, seed, grad_clip)


# ---------------------------------------------------------------------- #
# Experience collection (the RL_Collect API of Figure 9)
# ---------------------------------------------------------------------- #
def collect_abr_experience(policies: Dict[str, object], video, traces,
                           pool: Optional[ExperiencePool] = None,
                           sim_config=None, seed: int = 0) -> ExperiencePool:
    """Collect ABR trajectories by streaming every trace with every policy."""
    from ..abr.env import ABRObservation

    state_dim = ABRObservation.flat_size(video.num_bitrates)
    if pool is None:
        # NOT `pool or ...`: an empty pool is falsy (len == 0), and replacing a
        # caller-provided pool would silently drop the collected trajectories.
        pool = ExperiencePool(state_dim=state_dim, action_dims=(video.num_bitrates,))
    with no_grad():
        _collect_abr_rollouts(policies, video, traces, pool, sim_config, seed)
    return pool


def _collect_abr_rollouts(policies, video, traces, pool, sim_config, seed: int) -> None:
    """Rollout loop of :func:`collect_abr_experience` (runs under no_grad)."""
    for name, policy in policies.items():
        for index, trace in enumerate(traces):
            session = StreamingSession(video, trace, config=sim_config, seed=seed + index)
            if hasattr(policy, "reset"):
                policy.reset()
            states: List[np.ndarray] = []
            while not session.finished:
                states.append(normalize_observation(observe(session).flatten()))
                session.download_chunk(policy.select_bitrate(session))
            result = session.result
            pool.add(Trajectory(states=np.stack(states),
                                actions=np.asarray([r.bitrate_index for r in result.records]),
                                rewards=result.per_chunk_qoe(), policy_name=name))


def collect_cjs_experience(policies: Dict[str, object], workloads, num_executors: int,
                           pool: Optional[ExperiencePool] = None) -> ExperiencePool:
    """Collect CJS trajectories by scheduling every workload with every policy."""
    from ..cjs.env import collect_trajectory, observation_size

    if pool is None:
        # NOT `pool or ...`: an empty pool is falsy (len == 0), and replacing a
        # caller-provided pool would silently drop the collected trajectories.
        pool = ExperiencePool(state_dim=observation_size(),
                              action_dims=(MAX_CANDIDATES, len(PARALLELISM_FRACTIONS)))
    with no_grad():
        for name, policy in policies.items():
            for jobs in workloads:
                trajectory = collect_trajectory(policy, jobs, num_executors)
                states = np.stack([t.observation for t in trajectory.transitions])
                actions = np.stack([[t.candidate_index, t.parallelism_bucket]
                                    for t in trajectory.transitions])
                rewards = np.asarray([t.reward for t in trajectory.transitions])
                pool.add(Trajectory(states=states, actions=actions, rewards=rewards,
                                    policy_name=name))
    return pool


# ---------------------------------------------------------------------- #
# Deployment-side policies driving the simulators with the adapted LLM
# ---------------------------------------------------------------------- #
class ReturnConditionedPolicy:
    """The deployment half of return conditioning, shared by ABR and CJS.

    The policy aims at a target return (``target_return_scale`` times the
    best return in the experience pool, the decision-transformer recipe),
    subtracts every reward as the episode earns it, and keeps the rolling
    (return-to-go, state, action) window the adapter reads.  One decision is
    :meth:`answer` of the window ``prepare`` builds, then :meth:`commit` of
    the chosen action.  The window is the serving runtime's payload
    (``serve/runtimes.py``), so a served client only changes :meth:`answer`.
    """

    name = "NetLLM"

    def __init__(self, adapter: DecisionAdapter, pool: ExperiencePool,
                 target_return_scale: float) -> None:
        self.adapter = adapter
        self.return_scale = pool.return_scale
        self.target_return = pool.best_return * target_return_scale
        self.reset()

    def reset(self) -> None:
        self._returns: List[float] = []
        self._states: List[np.ndarray] = []
        self._actions: List[List[int]] = []
        self._remaining_return = self.target_return
        self._rewards_seen = 0

    def _window(self, rewards: Sequence[float], observation: np.ndarray,
                **extra: np.ndarray) -> Dict[str, np.ndarray]:
        """Subtract ``rewards`` from the return to go, append the step (its
        action a placeholder for the one about to be chosen) and return the
        latest ``context_window`` steps with ``extra`` as the payload."""
        for reward in rewards:
            self._remaining_return -= reward
        self._rewards_seen += len(rewards)
        self._returns.append(self._remaining_return)
        self._states.append(observation)
        self._actions.append([0] * len(self.adapter.action_dims))
        window = self.adapter.context_window
        returns = np.asarray(self._returns[-window:], dtype=np.float64)[:, None]
        return {"returns": returns / self.return_scale,
                "states": np.stack(self._states[-window:]),
                "actions": np.asarray(self._actions[-window:], dtype=np.int64),
                **extra}

    def answer(self, payload: Dict[str, np.ndarray]) -> Tuple[int, ...]:
        """The greedy action for a window built by ``prepare``."""
        return self.adapter.act(**payload)

    def commit(self, action: Sequence[int]) -> Tuple[int, ...]:
        """Record the action chosen for the latest window and return it."""
        self._actions[-1] = [int(component) for component in action]
        return tuple(self._actions[-1])


class NetLLMABRPolicy(ReturnConditionedPolicy):
    """ABR policy around a trained :class:`DecisionAdapter`: one bitrate per
    chunk in a single LLM inference, each chunk's QoE the reward."""

    def __init__(self, adapter: DecisionAdapter, pool: ExperiencePool,
                 target_return_scale: float = 1.1) -> None:
        super().__init__(adapter, pool, target_return_scale)

    def prepare(self, session: StreamingSession) -> Dict[str, np.ndarray]:
        """Subtract the QoE of the chunks downloaded since the last call and
        return the window for the next chunk's decision."""
        rewards = session.result.per_chunk_qoe()[self._rewards_seen:]
        return self._window(rewards, normalize_observation(observe(session).flatten()))

    def select_bitrate(self, session: StreamingSession) -> int:
        return self.commit(self.answer(self.prepare(session)))[0]


class NetLLMCJSScheduler(ReturnConditionedPolicy):
    """CJS scheduler around a trained :class:`DecisionAdapter`: the reward is
    Decima's cost, minus the active jobs times the time between decisions."""

    def __init__(self, adapter: DecisionAdapter, pool: ExperiencePool,
                 target_return_scale: float = 0.9) -> None:
        # CJS returns are negative (cost); target slightly better than best seen.
        super().__init__(adapter, pool, target_return_scale)

    def prepare(self, context: SchedulingContext) -> Dict[str, np.ndarray]:
        """Subtract the cost accrued since the previous decision and return
        the window, with the mask of the candidates that exist."""
        rewards = []
        if self._states:
            elapsed = max(0.0, context.time - self._last_decision_time)
            rewards.append(-self._last_active_jobs * elapsed)
        self._last_decision_time = context.time
        self._last_active_jobs = len(context.active_jobs())
        valid_mask = np.zeros(MAX_CANDIDATES)
        valid_mask[:len(ordered_candidates(context))] = 1.0
        return self._window(rewards, encode_observation(context), valid_mask=valid_mask)

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        stage_index, bucket = self.commit(self.answer(self.prepare(context)))
        return decision_from_action(context, stage_index, bucket)
