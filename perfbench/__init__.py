"""Repository benchmark: paper-regime workloads with per-layer attribution.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  See
``perfbench/README.md`` for the workloads, the metrics and how the
traced run splits host time by layer.
"""
