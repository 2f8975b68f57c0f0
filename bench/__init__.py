"""The repo's serving benchmark (see ``bench/README.md``).

Five named traffic workloads drive ``repro.serve.InferenceServer`` from
outside, each measured in a fresh child process; ``bench/run.py`` is the one
command, ``BENCHMARK.json`` at the repo root is its contract.
"""
