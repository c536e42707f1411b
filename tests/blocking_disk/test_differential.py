"""One blocking index, two backends: a table-driven differential test
(plus the SQLite backend's per-ingest statement shape).

For every stream key kind and both ``blocking_storage`` values, a
config built through :func:`build_pipeline_and_index` must give:

* delta/batch exactness — the union of the ``ingest_delta`` pairs over
  any batch split equals the config's batch generator candidates over
  the same records;
* backend identity — the disk run emits exactly the memory run's
  deltas, batch by batch, and ends with the same memberships.

No cap is set: a capped stream has no exact batch counterpart.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.blocking_disk import DiskBlockingIndex, DiskBlockingStore
from repro.core.records import Record
from repro.datagen import make_person_benchmark
from repro.matching.blocking import first_token_key, single_key
from repro.streaming.config import build_pipeline_and_index
from repro.telemetry.metrics import get_metrics

KEYS = {
    "first_token": {"kind": "first_token", "attribute": "first_name"},
    "prefix": {"kind": "prefix", "attribute": "last_name", "length": 3},
    "soundex": {"kind": "soundex", "attribute": "last_name"},
    "token": {"kind": "token", "attributes": ["first_name", "last_name"]},
    "lsh": {"kind": "lsh", "num_perm": 16, "bands": 8,
            "attributes": ["first_name", "last_name"]},
}
STORAGES = ("memory", "disk")
SIMILARITIES = {"first_name": "jaro_winkler", "last_name": "jaro_winkler"}


@pytest.fixture(scope="module")
def dataset():
    return make_person_benchmark(90, seed=17).dataset


def _run(key, storage, dataset, cuts):
    """Batch candidates and per-batch delta runs of one config."""
    pipeline, index = build_pipeline_and_index(
        {"key": key, "similarities": SIMILARITIES,
         "blocking_storage": storage}
    )
    try:
        prepared = pipeline.prepare(dataset)
        batch = pipeline.generate_candidates(prepared)
        ordered = list(prepared)
        bounds = [0, *cuts, len(ordered)]
        deltas = [
            index.ingest_delta(ordered[start:stop]).pairs
            for start, stop in zip(bounds, bounds[1:])
        ]
        return batch, deltas, index.block_items()
    finally:
        getattr(index, "close", lambda: None)()


@pytest.mark.parametrize("kind", sorted(KEYS))
@seed(20261017)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_deltas_union_to_batch_on_both_backends(kind, dataset, data):
    cuts = sorted(
        data.draw(
            st.sets(st.integers(1, len(dataset) - 1), max_size=6),
            label="cuts",
        )
    )
    fallbacks = get_metrics().counter("frost_blocking_disk_fallback_total")
    before = fallbacks.value
    runs = {
        storage: _run(KEYS[kind], storage, dataset, cuts)
        for storage in STORAGES
    }
    assert fallbacks.value == before  # the disk batch path really ran
    for storage, (batch, deltas, _) in runs.items():
        union = set().union(*map(set, deltas))
        assert union == batch, (kind, storage)
        assert sum(map(len, deltas)) == len(batch)  # deltas are disjoint
    assert runs["disk"] == runs["memory"], kind
    assert runs["memory"][0], f"{kind} found no candidates: weak test"


def test_sqlite_ingest_costs_one_select_per_key_and_one_commit():
    """A disk ingest runs one indexed SELECT per touched key, one INSERT
    per membership and one commit — no per-record transactions."""
    with DiskBlockingStore() as store:
        index = DiskBlockingIndex(
            single_key(first_token_key("name")), store=store
        )
        index.ingest_delta([Record("a", {"name": "smith"})])
        statements = []
        store.connection.set_trace_callback(statements.append)
        delta = index.ingest_delta([
            Record("b", {"name": "smith"}),
            Record("c", {"name": "jones"}),
            Record("d", {"name": None}),
        ])
        store.connection.set_trace_callback(None)
    # sqlite3 opens the transaction with an implicit BEGIN itself
    verbs = [s.split()[0] for s in statements if not s.startswith("BEGIN")]
    assert verbs == ["SELECT", "INSERT", "SELECT", "INSERT", "COMMIT"]
    assert all("ORDER BY entry_id" in s for s in statements if "SELECT" in s)
    assert delta.pairs == [("a", "b")]
