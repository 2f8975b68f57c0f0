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

The module also provides the deployment-side policy wrappers that drive the
ABR simulator and CJS simulator with a trained :class:`DecisionAdapter`,
including the return-conditioning bookkeeping used at inference time
(specify a target return, subtract observed rewards as the episode unfolds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..abr.env import normalize_observation, observe
from ..abr.qoe import chunk_reward
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
            actions: List[int] = []
            rewards: List[float] = []
            while not session.finished:
                observation = observe(session)
                action = policy.select_bitrate(session)
                previous = (video.bitrates_mbps[session.previous_bitrate_index]
                            if session.previous_bitrate_index is not None
                            else video.bitrates_mbps[action])
                record = session.download_chunk(action)
                reward = chunk_reward(record.bitrate_mbps, record.rebuffer_seconds, previous)
                states.append(normalize_observation(observation.flatten()))
                actions.append(action)
                rewards.append(reward)
            pool.add(Trajectory(states=np.stack(states), actions=np.asarray(actions),
                                rewards=np.asarray(rewards), policy_name=name))


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
class NetLLMABRPolicy:
    """ABR policy wrapper around a trained :class:`DecisionAdapter`.

    At inference the policy conditions on a target return (a fraction above
    the best return seen in the experience pool, following the
    decision-transformer recipe), maintains the rolling context window of
    (return-to-go, state, action) and emits one bitrate per chunk in a single
    LLM inference.
    """

    name = "NetLLM"

    def __init__(self, adapter: DecisionAdapter, pool: ExperiencePool,
                 target_return_scale: float = 1.1) -> None:
        self.adapter = adapter
        self.return_scale = pool.return_scale
        self.target_return = pool.best_return * target_return_scale
        self.reset()

    def reset(self) -> None:
        self._returns: List[float] = []
        self._states: List[np.ndarray] = []
        self._actions: List[List[int]] = []
        self._remaining_return = self.target_return
        self._last_chunk_seen = 0

    def _context(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        window = self.adapter.context_window
        returns = np.asarray(self._returns[-window:], dtype=np.float64)[:, None]
        states = np.stack(self._states[-window:])
        actions = np.asarray(self._actions[-window:], dtype=np.int64)
        return returns / self.return_scale, states, actions

    def prepare(self, session: StreamingSession) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Account rewards and build the context window for the next decision.

        Split from :meth:`select_bitrate` so that a serving engine can batch
        the ``adapter.act`` call across many concurrent sessions: call
        :meth:`prepare`, run the (possibly batched) inference on the returned
        context, then :meth:`commit` the chosen bitrate.
        """
        # Account the reward of the chunk downloaded since the previous call.
        records = session.result.records
        while self._last_chunk_seen < len(records):
            record = records[self._last_chunk_seen]
            previous = (records[self._last_chunk_seen - 1].bitrate_mbps
                        if self._last_chunk_seen > 0 else record.bitrate_mbps)
            reward = chunk_reward(record.bitrate_mbps, record.rebuffer_seconds, previous)
            self._remaining_return -= reward
            self._last_chunk_seen += 1

        observation = normalize_observation(observe(session).flatten())
        self._returns.append(self._remaining_return)
        self._states.append(observation)
        self._actions.append([0])  # placeholder for the action about to be chosen
        return self._context()

    def commit(self, action: int) -> int:
        """Record the action chosen for the context built by :meth:`prepare`."""
        self._actions[-1] = [int(action)]
        return int(action)

    def select_bitrate(self, session: StreamingSession) -> int:
        returns, states, actions = self.prepare(session)
        (action,) = self.adapter.act(returns, states, actions)
        return self.commit(action)

    def act(self, observation) -> int:
        """Observation-level interface used by the experience/rollout helpers."""
        raise NotImplementedError("NetLLMABRPolicy drives sessions via select_bitrate")


class NetLLMCJSScheduler:
    """CJS scheduler wrapper around a trained :class:`DecisionAdapter`."""

    name = "NetLLM"

    def __init__(self, adapter: DecisionAdapter, pool: ExperiencePool,
                 target_return_scale: float = 0.9) -> None:
        self.adapter = adapter
        self.return_scale = pool.return_scale
        # CJS returns are negative (cost); target slightly better than best seen.
        self.target_return = pool.best_return * target_return_scale
        self.reset()

    def reset(self) -> None:
        self._returns: List[float] = []
        self._states: List[np.ndarray] = []
        self._actions: List[List[int]] = []
        self._remaining_return = self.target_return
        self._last_decision_time: Optional[float] = None
        self._last_active_jobs = 0

    def _context(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        window = self.adapter.context_window
        returns = np.asarray(self._returns[-window:], dtype=np.float64)[:, None]
        states = np.stack(self._states[-window:])
        actions = np.asarray(self._actions[-window:], dtype=np.int64)
        return returns / self.return_scale, states, actions

    def prepare(self, context: SchedulingContext
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Account cost and build ``(returns, states, actions, valid_mask)``.

        Split from :meth:`schedule` so a serving engine can batch the
        ``adapter.act`` call; follow with :meth:`commit`.
        """
        # Account the cost accrued since the previous decision.
        if self._last_decision_time is not None:
            elapsed = max(0.0, context.time - self._last_decision_time)
            self._remaining_return -= -self._last_active_jobs * elapsed
        self._last_decision_time = context.time
        self._last_active_jobs = len(context.active_jobs())

        observation = encode_observation(context)
        candidates = ordered_candidates(context)
        valid_mask = np.zeros(MAX_CANDIDATES)
        valid_mask[:len(candidates)] = 1.0

        self._returns.append(self._remaining_return)
        self._states.append(observation)
        self._actions.append([0, 0])
        returns, states, actions = self._context()
        return returns, states, actions, valid_mask

    def commit(self, context: SchedulingContext, stage_index: int,
               bucket: int) -> SchedulingDecision:
        """Record the chosen action and translate it into a scheduling decision."""
        self._actions[-1] = [int(stage_index), int(bucket)]
        return decision_from_action(context, int(stage_index), int(bucket))

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        returns, states, actions, valid_mask = self.prepare(context)
        stage_index, bucket = self.adapter.act(returns, states, actions, valid_mask=valid_mask)
        return self.commit(context, stage_index, bucket)
