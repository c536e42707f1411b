"""End-to-end Frost benchmark: batch-match, stream-ingest and explore-serve.

Run from the repository root::

    python3 frostbench/run.py --workload batch-match --seed 1 --seconds 20 --trace 0

See ``frostbench/README.md`` for the workloads, the metrics and the
output checks.
"""
