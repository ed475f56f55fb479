"""The repository benchmark: seeded workloads through the shipped monitor.

``python3 bench/run.py`` runs one workload (the command ``BENCHMARK.json``
names); ``python -m bench`` runs the whole suite.  See ``README.md``.
"""
