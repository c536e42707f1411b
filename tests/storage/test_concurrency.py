"""Cross-thread FrostStore regression tests.

The multi-threaded HTTP front-end hits one store from many request
threads at once; file-backed stores hand each thread its own SQLite
connection, in-memory stores serialize on one shared handle.  These
tests hammer both modes from 8 threads and assert nothing corrupts,
raises, or deadlocks.
"""

import threading

import pytest

from repro.core import Dataset, Experiment, Record
from repro.storage.database import FrostStore, StorageError

THREADS = 8
ROUNDS = 25


def _dataset(name: str = "people") -> Dataset:
    return Dataset(
        [Record(f"r{index}", {"name": f"person {index}"}) for index in range(20)],
        name=name,
    )


def _hammer(store: FrostStore) -> None:
    """Mixed reads and writes from THREADS threads; raises on any error."""
    store.save_dataset(_dataset())
    barrier = threading.Barrier(THREADS)
    errors: list[Exception] = []

    def worker(index: int) -> None:
        try:
            barrier.wait(timeout=10)
            for round_index in range(ROUNDS):
                name = f"run-{index}-{round_index}"
                store.save_experiment(
                    "people",
                    Experiment([("r0", "r1", 0.9)], name=name),
                )
                loaded = store.load_experiment("people", name)
                assert len(loaded) == 1
                store.cache_put(f"key-{index}-{round_index}", "metrics", {
                    "value": round_index,
                })
                assert store.cache_get(f"key-{index}-{round_index}") == {
                    "value": round_index
                }
                assert len(store.load_dataset("people")) == 20
                assert name in store.experiment_names("people")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert len(store.experiment_names("people")) == THREADS * ROUNDS
    assert len(store.cache_entries()) == THREADS * ROUNDS


class TestFileBackedStore:
    def test_eight_thread_hammer(self, tmp_path):
        with FrostStore(tmp_path / "hammer.db") as store:
            _hammer(store)

    def test_each_thread_gets_its_own_connection(self, tmp_path):
        with FrostStore(tmp_path / "conn.db") as store:
            main_connection = store._connection
            seen = []

            def capture() -> None:
                seen.append(store._connection)

            thread = threading.Thread(target=capture)
            thread.start()
            thread.join(timeout=10)
            assert len(seen) == 1
            assert seen[0] is not main_connection
            # the same thread keeps reusing its connection
            assert store._connection is main_connection

    def test_writes_from_one_thread_visible_to_others(self, tmp_path):
        with FrostStore(tmp_path / "visible.db") as store:
            thread = threading.Thread(
                target=lambda: store.save_dataset(_dataset("imported"))
            )
            thread.start()
            thread.join(timeout=10)
            assert store.dataset_names() == ["imported"]
            assert len(store.load_dataset("imported")) == 20

    def test_dead_thread_connections_are_pruned(self, tmp_path):
        """Retired request threads must not pin connections forever."""
        with FrostStore(tmp_path / "prune.db") as store:
            for _ in range(10):
                thread = threading.Thread(target=lambda: store.dataset_names())
                thread.start()
                thread.join(timeout=10)
            # a fresh thread's connect prunes every dead thread's entry
            thread = threading.Thread(target=lambda: store.dataset_names())
            thread.start()
            thread.join(timeout=10)
            alive = [entry for entry in store._pool if entry[0].is_alive()]
            assert len(store._pool) <= len(alive) + 1  # at most the joiner
            assert len(store._pool) <= 3

    def test_close_releases_every_threads_connection(self, tmp_path):
        store = FrostStore(tmp_path / "close.db")
        thread = threading.Thread(target=lambda: store.dataset_names())
        thread.start()
        thread.join(timeout=10)
        assert len(store._pool) == 2
        store.close()
        with pytest.raises(Exception):
            store.dataset_names()

    def test_closed_store_rejects_new_threads(self, tmp_path):
        store = FrostStore(tmp_path / "closed.db")
        store.close()
        errors = []

        def late_reader() -> None:
            try:
                store.dataset_names()
            except (StorageError, Exception) as error:
                errors.append(error)

        thread = threading.Thread(target=late_reader)
        thread.start()
        thread.join(timeout=10)
        assert len(errors) == 1


class _InjectingConnection:
    """A connection that runs ``inject`` right after the graph_nodes SELECT."""

    def __init__(self, connection, inject) -> None:
        self._real = connection
        self._inject = inject

    def execute(self, sql, *args):
        cursor = self._real.execute(sql, *args)
        if "FROM graph_nodes" in sql and self._inject is not None:
            rows = cursor.fetchall()
            inject, self._inject = self._inject, None
            inject()
            return iter(rows)
        return cursor

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestGraphReadSnapshot:
    def test_load_graph_ignores_a_batch_committed_between_its_selects(
        self, tmp_path
    ):
        """Another store on the file commits a graph batch after the
        nodes SELECT: the edges read must still match the nodes read."""
        path = tmp_path / "graph.db"
        with FrostStore(path) as reader, FrostStore(path) as writer:
            reader.create_graph("g", threshold=0.5)
            reader.append_graph_batch(
                "g", [(0, "a"), (1, "b")], [(0, 1, 0.9, True, None)], [(0, 0), (1, 0)]
            )
            errors: list[Exception] = []

            def append() -> None:
                try:
                    writer.append_graph_batch(
                        "g",
                        [(2, "c")],
                        [(0, 2, 0.8, True, None), (1, 2, 0.7, True, None)],
                        [(2, 0)],
                    )
                except Exception as error:  # pragma: no cover - reported below
                    errors.append(error)

            appender = threading.Thread(target=append)

            def inject() -> None:
                # Unguarded SELECTs let the commit land now; inside a
                # read transaction it waits until the reads are done.
                appender.start()
                appender.join(timeout=1.0)

            reader._local.connection = _InjectingConnection(
                reader._connection, inject
            )
            document = reader.load_graph("g")
            appender.join(timeout=30)
            assert not appender.is_alive() and not errors, errors

            nodes = {node_id for node_id, _ in document["nodes"]}
            for first, second, *_ in document["edges"]:
                assert {first, second} <= nodes
            assert document["meta"]["node_count"] == len(document["nodes"]) == 2
            assert document["meta"]["edge_count"] == len(document["edges"]) == 1
            assert len(reader.load_graph("g")["edges"]) == 3


class TestInMemoryStore:
    def test_eight_thread_hammer(self):
        with FrostStore() as store:
            _hammer(store)

    def test_all_threads_share_one_connection(self):
        with FrostStore() as store:
            main_connection = store._connection
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(store._connection)
            )
            thread.start()
            thread.join(timeout=10)
            assert seen == [main_connection]
