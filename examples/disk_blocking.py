#!/usr/bin/env python3
"""Disk-backed blocking: push candidate generation into SQLite.

Every in-memory blocker keeps its block membership lists *and* the full
candidate set in Python memory, so RAM bounds the corpus you can block.
With ``blocking_storage="disk"`` the pipeline spills ``(block_key,
record_id)`` rows into indexed SQLite tables and generates pairs with a
SQL self-join, streamed back in bounded chunks — identical candidates,
O(chunk) Python memory.

This example shows:

1. the pipeline knob — same config, same fingerprint, same output;
2. the index piecewise — feed a SQLite-backed blocking index one
   slice at a time, then stream candidate chunks without ever
   materializing the set;
3. the telemetry the disk path emits (rows spilled, chunks, runs).

Run with::

    python examples/disk_blocking.py
"""

from __future__ import annotations

import time

from repro.blocking_disk import DiskBlockingIndex, DiskBlockingStore
from repro.core.records import Record
from repro.datagen import make_person_benchmark
from repro.matching.blocking import first_token_key
from repro.streaming import build_pipeline_and_index, single_key
from repro.telemetry.metrics import get_metrics

CONFIG = {
    "key": {"kind": "first_token", "attribute": "zip"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "city": "jaro_winkler",
    },
    "threshold": 0.85,
}


def main() -> None:
    benchmark = make_person_benchmark(2_000, seed=23)
    dataset = benchmark.dataset

    # --- 1. The pipeline knob ------------------------------------------------
    memory_pipeline, _ = build_pipeline_and_index(CONFIG)
    disk_pipeline, _ = build_pipeline_and_index(
        {**CONFIG, "blocking_storage": "disk"}
    )
    assert (
        memory_pipeline.config_fingerprint()
        == disk_pipeline.config_fingerprint()
    ), "an execution knob must not split the engine's result cache"

    prepared = memory_pipeline.prepare(dataset)
    started = time.perf_counter()
    memory_pairs = memory_pipeline.generate_candidates(prepared)
    memory_seconds = time.perf_counter() - started
    started = time.perf_counter()
    disk_pairs = disk_pipeline.generate_candidates(prepared)
    disk_seconds = time.perf_counter() - started

    print("=== Pipeline knob ===")
    print(f"  records:            {len(dataset)}")
    print(f"  memory candidates:  {len(memory_pairs)} "
          f"({memory_seconds * 1000:.1f} ms)")
    print(f"  disk candidates:    {len(disk_pairs)} "
          f"({disk_seconds * 1000:.1f} ms)")
    print(f"  set-identical:      {disk_pairs == memory_pairs} (must be True)")

    # --- 2. Piecewise feeding for larger-than-memory corpora ----------------
    # The real point of the disk path: the corpus arrives (or is
    # generated) in slices, each slice is fed to the index and dropped,
    # and the join output is consumed chunk by chunk — nothing scales
    # with the corpus except the SQLite file (and the record-id set).
    with DiskBlockingStore(chunk_size=10_000) as store:
        index = DiskBlockingIndex(
            single_key(first_token_key("zip")), store=store,
            scheme="standard_blocking", config={"attribute": "zip"},
        )
        for start in range(0, 3):
            batch = make_person_benchmark(1_000, seed=100 + start).dataset
            # each slice draws ids from the same range: prefix them
            index.add(
                Record(f"s{start}-{record.record_id}", record.values)
                for record in batch
            )
        candidate_count = 0
        chunk_count = 0
        for chunk in index.candidate_chunks("disk:standard_blocking"):
            candidate_count += len(chunk)
            chunk_count += 1
        print("\n=== Piecewise feed + streamed join ===")
        print(f"  records:          {len(index)}")
        print(f"  distinct blocks:  {index.block_count}")
        print(f"  candidate pairs:  {candidate_count} "
              f"in {chunk_count} chunk(s)")

    # --- 3. Telemetry --------------------------------------------------------
    metrics = get_metrics()
    print("\n=== Telemetry ===")
    for name in (
        "frost_blocking_disk_runs_total",
        "frost_blocking_rows_spilled_total",
        "frost_blocking_chunks_total",
        "frost_blocking_disk_fallback_total",
    ):
        print(f"  {name}: {metrics.counter(name).value}")


if __name__ == "__main__":
    main()
