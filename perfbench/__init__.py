"""End-to-end and per-layer benchmark of the ``prune24 prune`` command.

Run one workload with ``python3 perfbench/run.py --workload row128 --seed 1
--seconds 30 --trace 0``; see ``perfbench/README.md`` for the workloads, the
metrics and which layer each metric measures.
"""
