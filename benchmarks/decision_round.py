"""Time the ``decisions_lockstep32`` round at adapter level.

A plain script, not a test: pytest does not collect it.  Run it alone from
the repo root (anything else on the cores skews it)::

    python3 benchmarks/decision_round.py [--rounds 400] [--seed 11]
    python3 benchmarks/decision_round.py --tree ../parent --tree .

Each tree (``--tree PATH``, repeatable; default this checkout) gets one
child process that imports that checkout's ``src/`` and ``bench/`` and
builds the benchmark's decision server exactly as ``bench/child.py`` does:
the same generated inputs, LLM, adapters and policy.  After a warm-up, the
children take turns, ``--block`` rounds at a time and in reversed order
every other block, until each has run ``--rounds``: so the trees'
rounds are interleaved in time, and a drift in machine speed lands on
every tree alike.  A round submits the 32 decisions (16 abr, 8 cjs, 8 vp
over windows 6/8/10) of the next round of the input pool through
``InferenceServer``, runs the server until idle and reads every result.

Per tree it prints the median and the quartiles of the ms per round, and
the median ms each task adapter spent in its batch call (``act_batch`` /
``predict_batch``) per round; for every tree after the first, its median
as a share of the first tree's, and in how many blocks its median round
beat the first tree's.  That is how a parent and a change are compared.
Every child runs under the benchmark's malloc settings
(``CHILD_MALLOC_ENV``); without them every array over 128 kB is mapped
afresh per call and the round times mean little.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def serve_rounds(tree: Path, seed: int) -> None:
    """The child: build ``tree``'s decision server, warm it up, then run
    as many rounds as each line of stdin asks, answering each request with
    one JSON line of round and per-adapter milliseconds."""
    sys.path[:0] = [str(tree), str(tree / "src")]
    from bench.child import build_decision_server
    from bench.spec import WARMUP_REQUESTS
    from bench.workloads import generate_inputs
    from repro.serve import DecisionRequest

    inputs = generate_inputs("decisions_lockstep32", seed, 1.0)
    server, _, adapters = build_decision_server(inputs)
    spent = {task: 0.0 for task in adapters}
    for task, adapter in adapters.items():
        name = "predict_batch" if task == "vp" else "act_batch"

        def timed(*args, _call=getattr(adapter, name), _task=task, **kwargs):
            start = time.perf_counter()
            try:
                return _call(*args, **kwargs)
            finally:
                spent[_task] += time.perf_counter() - start

        setattr(adapter, name, timed)
    pool = [[DecisionRequest(task=task, payload=payload)
             for (task, _), payload in zip(inputs["clients"], payloads)]
            for payloads in inputs["rounds"]]
    index = 0

    def run(rounds: int) -> Dict[str, List[float]]:
        nonlocal index
        times: Dict[str, List[float]] = {"round": [], **{task: [] for task in spent}}
        for _ in range(rounds):
            for task in spent:
                spent[task] = 0.0
            start = time.perf_counter()
            handles = [server.submit(request) for request in pool[index % len(pool)]]
            server.run_until_idle()
            for handle in handles:
                handle.result()
            times["round"].append(1e3 * (time.perf_counter() - start))
            for task, seconds in spent.items():
                times[task].append(1e3 * seconds)
            index += 1
        return times

    run(-(-WARMUP_REQUESTS // len(pool[0])) + len(pool))
    for line in sys.stdin:
        print(json.dumps(run(int(line))), flush=True)


def compare(trees: Sequence[Path], rounds: int, block: int, seed: int) -> None:
    """Interleave the trees' children block by block; print the summary."""
    sys.path[:0] = [str(ROOT)]
    from bench.spec import CHILD_MALLOC_ENV

    children = [subprocess.Popen(
        [sys.executable, __file__, "--child", "--tree", str(tree), "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, **CHILD_MALLOC_ENV}) for tree in trees]
    times: List[Dict[str, List[float]]] = [{} for _ in trees]
    block_medians: List[List[float]] = [[] for _ in trees]
    try:
        for turn, done in enumerate(range(0, rounds, block)):
            size = min(block, rounds - done)
            order = range(len(trees)) if turn % 2 == 0 else reversed(range(len(trees)))
            for which in order:
                children[which].stdin.write(f"{size}\n")
                children[which].stdin.flush()
                got = json.loads(children[which].stdout.readline())
                for name, values in got.items():
                    times[which].setdefault(name, []).extend(values)
                block_medians[which].append(float(np.median(got["round"])))
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    base = float(np.median(times[0]["round"]))
    for which, tree in enumerate(trees):
        q1, median, q3 = np.percentile(times[which]["round"], [25, 50, 75])
        adapters = "  ".join(f"{task} {np.median(ms):.2f}"
                             for task, ms in times[which].items() if task != "round")
        line = (f"{tree}: {len(times[which]['round'])} rounds, p50 {median:.2f} ms "
                f"[q1 {q1:.2f}, q3 {q3:.2f}]; adapters (ms per round): {adapters}")
        if which:
            wins = sum(mine < first for mine, first
                       in zip(block_medians[which], block_medians[0]))
            line += (f"; {median / base:.3f} of the first tree, faster in "
                     f"{wins} of {len(block_medians[0])} blocks")
        print(line, flush=True)


def main(argv: Sequence[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append",
                        help="checkout to time (repeatable; default this one)")
    parser.add_argument("--rounds", type=int, default=400,
                        help="timed rounds per tree (default 400)")
    parser.add_argument("--block", type=int, default=10,
                        help="rounds per turn of one tree (default 10)")
    parser.add_argument("--seed", type=int, default=11,
                        help="input seed, as bench/run.py --seed (default 11)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.tree if args.tree is not None else [ROOT])]
    if args.child:
        serve_rounds(trees[0], args.seed)
    else:
        compare(trees, args.rounds, args.block, args.seed)


if __name__ == "__main__":
    main(sys.argv[1:])
