"""The repository's benchmark: one harness, four workloads, two clocks.

See ``bench/README.md``.  Run ``python3 bench/run.py``.
"""
