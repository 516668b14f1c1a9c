"""The repo's single performance benchmark (see README.md in this directory).

``python -m benchmarks.perf run`` measures the four workloads end to end and
layer by layer; ``benchmarks/perf/leg.py`` is the one-workload entry point the
``BENCHMARK.json`` contract drives.  Nothing here is imported by ``src/``.
"""
