"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; ``perfbench/README.md`` describes the workloads and metrics.
"""
