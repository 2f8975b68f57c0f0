"""DAG job model and the TPC-H-like synthetic workload generator.

A cluster job is a directed acyclic graph of *stages*; each stage consists of
a number of identical tasks with a common task duration, and a stage can only
start once all of its parent stages have finished.  This is the abstraction
used by Decima and by the ``spark-sched-sim`` codebase the paper builds on.

The TPC-H query DAGs used by the paper are not redistributable, so
:class:`TPCHLikeJobGenerator` synthesizes jobs with the same qualitative
shape: a mix of map-reduce diamonds, chains, joins and fan-in trees, between
two and a dozen stages, with heavy-tailed task counts and durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..utils import seeded_rng

# networkx is imported inside the three functions that build or walk a DAG:
# ``repro.serve`` reaches this module through the CJS client and serves whole
# workloads without ever building a job, and the import is a quarter of its
# start-up.  (The ``nx.DiGraph`` annotations are strings, never evaluated.)


@dataclass
class Stage:
    """One execution stage of a job."""

    stage_id: int
    num_tasks: int
    task_duration: float

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError("a stage needs at least one task")
        if self.task_duration <= 0:
            raise ValueError("task duration must be positive")

    @property
    def total_work(self) -> float:
        """Total CPU-seconds of the stage."""
        return self.num_tasks * self.task_duration


@dataclass
class Job:
    """A DAG of stages plus its arrival time."""

    job_id: int
    stages: Dict[int, Stage]
    dag: nx.DiGraph
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        import networkx as nx

        if not nx.is_directed_acyclic_graph(self.dag):
            raise ValueError("job graph must be a DAG")
        missing = set(self.dag.nodes) - set(self.stages)
        if missing:
            raise ValueError(f"DAG nodes without stage definitions: {sorted(missing)}")

    # ------------------------------------------------------------------ #
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_work(self) -> float:
        return sum(stage.total_work for stage in self.stages.values())

    def parents(self, stage_id: int) -> List[int]:
        return list(self.dag.predecessors(stage_id))

    def children(self, stage_id: int) -> List[int]:
        return list(self.dag.successors(stage_id))

    def roots(self) -> List[int]:
        return [node for node in self.dag.nodes if self.dag.in_degree(node) == 0]

    def critical_path_length(self) -> float:
        """Longest work path through the DAG (lower bound on completion time)."""
        import networkx as nx

        order = list(nx.topological_sort(self.dag))
        longest: Dict[int, float] = {}
        for node in order:
            work = self.stages[node].total_work
            parent_best = max((longest[p] for p in self.dag.predecessors(node)), default=0.0)
            longest[node] = parent_best + work
        return max(longest.values()) if longest else 0.0

    def adjacency_matrix(self) -> np.ndarray:
        """Dense adjacency matrix ordered by stage id (for the GNN encoder)."""
        ids = sorted(self.stages)
        index = {stage_id: i for i, stage_id in enumerate(ids)}
        matrix = np.zeros((len(ids), len(ids)))
        for src, dst in self.dag.edges:
            matrix[index[src], index[dst]] = 1.0
        return matrix

    def node_features(self) -> np.ndarray:
        """Per-stage features ``(num_stages, 3)``: tasks, duration, out-degree."""
        ids = sorted(self.stages)
        features = np.zeros((len(ids), 3))
        for row, stage_id in enumerate(ids):
            stage = self.stages[stage_id]
            features[row] = [stage.num_tasks, stage.task_duration, self.dag.out_degree(stage_id)]
        return features


# ---------------------------------------------------------------------- #
# Workload generation
# ---------------------------------------------------------------------- #
_SHAPES = ("chain", "diamond", "fan_in", "map_reduce")


class TPCHLikeJobGenerator:
    """Synthesize jobs whose DAG shapes resemble TPC-H query plans."""

    def __init__(self, seed: int = 0, min_stages: int = 2, max_stages: int = 10,
                 task_scale: float = 1.0) -> None:
        if min_stages < 1 or max_stages < min_stages:
            raise ValueError("invalid stage-count range")
        self._rng = seeded_rng(seed)
        self.min_stages = min_stages
        self.max_stages = max_stages
        self.task_scale = task_scale
        self._next_job_id = 0

    # -- DAG shapes ------------------------------------------------------ #
    def _build_dag(self, num_stages: int) -> nx.DiGraph:
        import networkx as nx

        shape = str(self._rng.choice(_SHAPES))
        graph = nx.DiGraph()
        graph.add_nodes_from(range(num_stages))
        if shape == "chain" or num_stages <= 2:
            for i in range(num_stages - 1):
                graph.add_edge(i, i + 1)
        elif shape == "diamond":
            # source -> parallel middle stages -> sink
            for i in range(1, num_stages - 1):
                graph.add_edge(0, i)
                graph.add_edge(i, num_stages - 1)
        elif shape == "fan_in":
            # independent sources feeding one final stage
            for i in range(num_stages - 1):
                graph.add_edge(i, num_stages - 1)
        else:  # map_reduce: two layers of maps joined by reduces
            half = max(1, num_stages // 2)
            for i in range(half):
                for j in range(half, num_stages):
                    if self._rng.random() < 0.6 or j == half:
                        graph.add_edge(i, j)
        return graph

    def generate(self, arrival_time: float = 0.0) -> Job:
        """Generate one job arriving at ``arrival_time``."""
        num_stages = int(self._rng.integers(self.min_stages, self.max_stages + 1))
        dag = self._build_dag(num_stages)
        stages: Dict[int, Stage] = {}
        for stage_id in range(num_stages):
            # Heavy-tailed task counts (TPC-H queries mix tiny and huge stages).
            num_tasks = int(np.ceil(self._rng.lognormal(mean=1.6, sigma=0.8)))
            num_tasks = int(np.clip(num_tasks, 1, 60))
            duration = float(np.clip(self._rng.lognormal(mean=0.0, sigma=0.5), 0.2, 8.0))
            stages[stage_id] = Stage(stage_id=stage_id, num_tasks=num_tasks,
                                     task_duration=duration * self.task_scale)
        job = Job(job_id=self._next_job_id, stages=stages, dag=dag, arrival_time=arrival_time)
        self._next_job_id += 1
        return job

    def generate_workload(self, num_jobs: int, mean_interarrival: float = 4.0,
                          batch_fraction: float = 0.25) -> List[Job]:
        """Generate ``num_jobs`` jobs: an initial batch plus Poisson arrivals.

        ``batch_fraction`` of the jobs are present at time zero (queued work),
        the rest arrive with exponential inter-arrival times — the mix used by
        Decima's continuous-arrival experiments.
        """
        if num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        jobs: List[Job] = []
        num_batch = max(1, int(num_jobs * batch_fraction))
        for _ in range(num_batch):
            jobs.append(self.generate(arrival_time=0.0))
        t = 0.0
        for _ in range(num_jobs - num_batch):
            t += float(self._rng.exponential(mean_interarrival))
            jobs.append(self.generate(arrival_time=t))
        return jobs
