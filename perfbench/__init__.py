"""The repository's benchmark: seeded workloads, verified verdicts, a traced per-layer split.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``README.md`` in this
directory describes the workloads and metrics.  Nothing here is imported by
the package under ``src/``.
"""
