"""DiskBlockingStore: run lifecycle, spilling, and the pushed-down joins."""

import os
import sqlite3

import pytest

from repro.blocking_disk.store import DEFAULT_CHUNK_SIZE, DiskBlockingStore
from repro.storage.database import SCHEMA_VERSION, FrostStore
from repro.telemetry.metrics import get_metrics


@pytest.fixture
def store():
    with DiskBlockingStore() as store:
        yield store


def spill(store, run_id, rows):
    return store.spill_keys(run_id, iter(rows))


class TestLifecycle:
    def test_scratch_database_is_removed_on_close(self):
        store = DiskBlockingStore()
        path = store.connection.execute("PRAGMA database_list").fetchone()[2]
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_close_is_idempotent(self):
        store = DiskBlockingStore()
        store.close()
        store.close()

    def test_explicit_path_is_kept(self, tmp_path):
        path = tmp_path / "blocking.db"
        with DiskBlockingStore(path) as store:
            run_id = store.begin_run("standard_blocking", {"k": 1})
            spill(store, run_id, [("a", "r1")])
        assert path.exists()
        with DiskBlockingStore(path) as store:
            assert store.key_count(run_id) == 1

    def test_path_and_connection_are_exclusive(self, tmp_path):
        connection = sqlite3.connect(":memory:")
        with pytest.raises(ValueError, match="not both"):
            DiskBlockingStore(tmp_path / "x.db", connection=connection)
        connection.close()

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="positive"):
            DiskBlockingStore(chunk_size=0)

    def test_run_catalog(self, store):
        run_id = store.begin_run("lsh_blocking", {"num_perm": 16})
        info = store.run_info(run_id)
        assert info == {"scheme": "lsh_blocking", "config": {"num_perm": 16}}
        with pytest.raises(KeyError):
            store.run_info(run_id + 17)

    def test_drop_run_removes_all_rows(self, store):
        run_id = store.begin_run("standard_blocking", {})
        spill(store, run_id, [("a", "r1"), ("a", "r2")])
        store.drop_run(run_id)
        assert store.key_count(run_id) == 0
        with pytest.raises(KeyError):
            store.run_info(run_id)


class TestSpilling:
    def test_spill_from_generator_in_batches(self):
        with DiskBlockingStore(chunk_size=7) as store:
            run_id = store.begin_run("standard_blocking", {})
            rows = ((f"k{i % 5}", f"r{i:03d}") for i in range(100))
            assert store.spill_keys(run_id, rows) == 100
            assert store.key_count(run_id) == 100
            assert store.block_count(run_id) == 5

    def test_rows_spilled_counter(self, store):
        counter = get_metrics().counter("frost_blocking_rows_spilled_total", "")
        before = counter.value
        run_id = store.begin_run("standard_blocking", {})
        spill(store, run_id, [("a", "r1"), ("a", "r2"), ("b", "r3")])
        assert counter.value == before + 3


class TestEquiJoin:
    def test_basic_blocks(self, store):
        run_id = store.begin_run("standard_blocking", {})
        spill(
            store,
            run_id,
            [("a", "r1"), ("a", "r2"), ("a", "r3"), ("b", "r4"), ("b", "r5")],
        )
        assert store.candidates(run_id) == {
            ("r1", "r2"), ("r1", "r3"), ("r2", "r3"), ("r4", "r5"),
        }

    def test_pairs_sharing_blocks_are_distinct(self, store):
        run_id = store.begin_run("token_blocking", {})
        spill(store, run_id, [("a", "r1"), ("a", "r2"), ("b", "r1"), ("b", "r2")])
        assert store.candidates(run_id) == {("r1", "r2")}

    def test_purge_filter_drops_oversized_blocks(self, store):
        run_id = store.begin_run("token_blocking", {})
        spill(
            store,
            run_id,
            [("big", f"r{i}") for i in range(5)]
            + [("ok", "r1"), ("ok", "r9")],
        )
        assert store.purge_stats(run_id, 3) == (1, 5)
        assert store.candidates(run_id, max_block_size=3) == {("r1", "r9")}
        assert store.purge_stats(run_id, None) == (0, 0)
        assert len(store.candidates(run_id)) == 10 + 1

    def test_runs_are_isolated(self, store):
        first = store.begin_run("standard_blocking", {})
        second = store.begin_run("standard_blocking", {})
        spill(store, first, [("a", "r1"), ("a", "r2")])
        spill(store, second, [("a", "r8"), ("a", "r9")])
        assert store.candidates(first) == {("r1", "r2")}
        assert store.candidates(second) == {("r8", "r9")}

    def test_chunk_streaming_bounded_and_sorted(self, store):
        run_id = store.begin_run("standard_blocking", {})
        spill(store, run_id, [("a", f"r{i:02d}") for i in range(12)])
        chunks_counter = get_metrics().counter("frost_blocking_chunks_total", "")
        before = chunks_counter.value
        chunks = list(store.iter_candidate_chunks(run_id, chunk_size=10))
        # C(12, 2) = 66 pairs in chunks of <= 10
        assert [len(c) for c in chunks] == [10, 10, 10, 10, 10, 10, 6]
        flat = [pair for chunk in chunks for pair in chunk]
        assert flat == sorted(flat)
        assert chunks_counter.value == before + 7


class TestWindowJoin:
    def test_window_pairs_positions(self, store):
        run_id = store.begin_run("sorted_neighborhood", {})
        spill(store, run_id, [("a", "r1"), ("b", "r2"), ("c", "r3"), ("d", "r4")])
        assert store.candidates(run_id, window=2) == {
            ("r1", "r2"), ("r2", "r3"), ("r3", "r4"),
        }

    def test_window_pairs_canonicalized(self, store):
        # keys invert the id order: the CASE pair must still emit first < second
        run_id = store.begin_run("sorted_neighborhood", {})
        spill(store, run_id, [("z", "r1"), ("a", "r2")])
        assert store.candidates(run_id, window=2) == {("r1", "r2")}

    def test_window_validation(self, store):
        run_id = store.begin_run("sorted_neighborhood", {})
        with pytest.raises(ValueError, match="at least 2"):
            next(iter(store.iter_candidate_chunks(run_id, window=1)))
        with pytest.raises(ValueError, match="no block purge"):
            next(
                iter(
                    store.iter_candidate_chunks(
                        run_id, window=3, max_block_size=5
                    )
                )
            )


class TestFrostStoreBacked:
    def test_blocking_store_shares_the_connection(self):
        with FrostStore(":memory:") as frost:
            assert frost.schema_version == SCHEMA_VERSION
            blocking = frost.blocking_store()
            run_id = blocking.begin_run("standard_blocking", {})
            spill(blocking, run_id, [("a", "r1"), ("a", "r2")])
            assert blocking.candidates(run_id) == {("r1", "r2")}
            # borrowed connection: closing the view must not close the store
            blocking.close()
            assert frost.dataset_names() == []

    def test_blocking_rows_persist_in_store_file(self, tmp_path):
        path = str(tmp_path / "platform.db")
        with FrostStore(path) as frost:
            blocking = frost.blocking_store()
            run_id = blocking.begin_run("token_blocking", {"max_block_size": 9})
            spill(blocking, run_id, [("t", "r1"), ("t", "r2")])
        with FrostStore(path) as frost:
            blocking = frost.blocking_store()
            assert blocking.run_info(run_id)["scheme"] == "token_blocking"
            assert blocking.candidates(run_id) == {("r1", "r2")}
