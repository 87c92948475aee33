"""The Thetis serving benchmark (see README.md and BENCHMARK.json).

One command, ``python -m benchmarks.perf.run --seed 17``, drives real
server processes over the HTTP wire on four named workloads, checks the
served rankings against the scalar oracle, and prints every declared
metric by name with its unit.
"""
