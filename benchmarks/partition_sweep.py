"""Re-measure the table beside ``MIN_SPLIT_SAVING_BLOCK_ROWS``.

A plain script, not a test: it takes about four minutes on 2 cores and
prints the table.  Run it alone from the repo root (anything else on the
cores skews it)::

    python3 benchmarks/partition_sweep.py [--steps 400] [--seeds 6]

For each batch shape and seed, one pool per threshold value holds the same
prefilled sessions, on the serving benchmark's model shape and block size
(``bench/spec.py``), their rows in ascending length as the served decode
step orders them.  Every step, each pool in turn sets the threshold to its
value, runs one ``forward_step`` on the step's tokens — so the rows are
regrouped every step — and is rolled back to where it stood.  A cell is the
median step time at that value as a share of never splitting, averaged over
the seeds; below 1 a split pays.  The script re-executes itself under the
benchmark's malloc settings (``CHILD_MALLOC_ENV``), without which large
arrays are mapped afresh on every call and the step times mean little.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.spec import CHILD_MALLOC_ENV, MODEL_CONFIG, MODEL_SEED, POLICY  # noqa: E402

from repro.llm import LanguageModel, LLMConfig  # noqa: E402
from repro.nn import no_grad  # noqa: E402
from repro.nn import paged_cache as pc  # noqa: E402

#: Threshold values swept; ``never`` (no split at all) is every share's base.
VALUES = (2, 4, 6, 8, 12, 16, 24, 32)
NEVER = 10 ** 9

#: ``(label, rows, shortest, longest, tokens per row)``: the batch shapes of
#: the table, lengths drawn uniformly per seed and sorted.
CASES = (
    ("2 rows of 8..96", 2, 8, 96, 1),
    ("3 rows of 8..96", 3, 8, 96, 1),
    ("8 rows of 200..340", 8, 200, 340, 1),
    ("the same, 5-token verify", 8, 200, 340, 5),
    ("16 rows of 8..160", 16, 8, 160, 1),
)


def _pool(model, lengths: Sequence[int], rng) -> Tuple[object, np.ndarray]:
    """A pool holding one prefilled session per length, each prompt written
    as the server writes one: a session opened empty and one prompt row."""
    paged = model.init_paged_cache(max_sessions=len(lengths),
                                   block_size=POLICY["block_size"])
    ids = []
    for length in lengths:
        ids.append(paged.open_session())
        model.forward_step(rng.integers(0, model.tokenizer.vocab_size, size=length),
                           paged, ids[-1:], counts=[length], prompt_from=0)
    return paged, np.asarray(ids, dtype=np.int64)


def sweep(model, rows: int, shortest: int, longest: int, count: int,
          steps: int, seed: int) -> Dict[int, float]:
    """Median step seconds per threshold value (``NEVER`` included) for
    one batch shape and seed."""
    rng = np.random.default_rng(seed)
    lengths = sorted(rng.integers(shortest, longest + 1, size=rows).tolist())
    base, ids = _pool(model, lengths, rng)
    pools = {value: copy.deepcopy(base) for value in (*VALUES, NEVER)}
    counts = np.full(rows, count, dtype=np.int64)
    seconds: Dict[int, List[float]] = {value: [] for value in pools}
    for step in range(steps):
        tokens = rng.integers(0, model.tokenizer.vocab_size, size=rows * count)
        turns = list(pools.items())
        for value, paged in turns if step % 2 else reversed(turns):  # alternate
            pc.MIN_SPLIT_SAVING_BLOCK_ROWS = value
            start = time.perf_counter()
            model.forward_step(tokens, paged, ids, counts=counts)
            seconds[value].append(time.perf_counter() - start)
            for sid, length in zip(ids.tolist(), lengths):
                paged.truncate_session(sid, length)
    return {value: float(np.median(times)) for value, times in seconds.items()}


def main(argv: Sequence[str] = ()) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=400,
                        help="timed steps per pool (default 400)")
    parser.add_argument("--seeds", type=int, default=6,
                        help="seeds per batch shape, averaged (default 6)")
    args = parser.parse_args(argv)
    model = LanguageModel(LLMConfig(**MODEL_CONFIG), seed=MODEL_SEED).eval()
    kept = pc.MIN_SPLIT_SAVING_BLOCK_ROWS
    print(f"{'value':<28}" + "".join(f"{value:>7}" for value in VALUES)
          + f"{'never, ms':>11}")
    try:
        with no_grad():
            for label, *shape in CASES:
                runs = [sweep(model, *shape, steps=args.steps, seed=seed)
                        for seed in range(args.seeds)]
                shares = [np.mean([run[value] / run[NEVER] for run in runs])
                          for value in VALUES]
                never_ms = 1e3 * np.mean([run[NEVER] for run in runs])
                print(f"{label:<28}" + "".join(f"{share:7.2f}" for share in shares)
                      + f"{never_ms:11.2f}", flush=True)
    finally:
        pc.MIN_SPLIT_SAVING_BLOCK_ROWS = kept


if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in CHILD_MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **CHILD_MALLOC_ENV})
    main(sys.argv[1:])
