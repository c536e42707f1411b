"""Cross-layer integration: engine jobs, API routes, CLI commands."""

import pytest

from repro.core.platform import FrostPlatform
from repro.engine import ExperimentEngine, JobSpec
from repro.server.api import ApiError, FrostApi
from repro.storage.database import FrostStore
from repro.streaming import build_session

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": {"first": "jaro_winkler", "last": "jaro_winkler"},
    "threshold": 0.8,
}

ROWS_ONE = [
    {"id": "p1", "first": "john", "last": "smith"},
    {"id": "p2", "first": "jon", "last": "smith"},
    {"id": "p3", "first": "mary", "last": "jones"},
]
ROWS_TWO = [
    {"id": "p4", "first": "maria", "last": "jones"},
    {"id": "p5", "first": "johnny", "last": "smith"},
]


class TestStreamIngestJob:
    def test_ingest_runs_as_engine_job(self):
        engine = ExperimentEngine(FrostPlatform())
        session = build_session(CONFIG, name="crm")
        results = engine.run(
            [
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_ONE},
                    job_id="b1",
                    cacheable=False,
                )
            ]
        )
        assert results["b1"].state.value == "succeeded"
        assert results["b1"].value["version"] == 1
        assert results["b1"].value["stream"] == "crm"
        assert session.record_count == 3

    def test_chained_batches_respect_dependencies(self):
        engine = ExperimentEngine(FrostPlatform())
        session = build_session(CONFIG, name="crm")
        results = engine.run(
            [
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_ONE},
                    job_id="b1",
                    cacheable=False,
                ),
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_TWO},
                    job_id="b2",
                    depends_on=("b1",),
                    cacheable=False,
                ),
            ]
        )
        assert results["b2"].value["version"] == 2
        assert results["b2"].value["record_count"] == 5

    def test_ingest_jobs_are_never_cached(self):
        """Identical batches into different streams must both execute."""
        engine = ExperimentEngine(FrostPlatform())
        first = build_session(CONFIG, name="one")
        second = build_session(CONFIG, name="two")
        results = engine.run(
            [
                JobSpec("stream_ingest",
                        {"session": first, "records": ROWS_ONE}, job_id="j1"),
                JobSpec("stream_ingest",
                        {"session": second, "records": ROWS_ONE}, job_id="j2",
                        depends_on=("j1",)),
            ]
        )
        assert not results["j1"].cached and not results["j2"].cached
        assert first.record_count == second.record_count == 3

    def test_failed_ingest_fails_job_only(self):
        engine = ExperimentEngine(FrostPlatform())
        session = build_session(CONFIG, name="crm")
        session.ingest(ROWS_ONE)
        results = engine.run(
            [
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_ONE},
                    job_id="dup",
                    cacheable=False,
                )
            ]
        )
        assert results["dup"].state.value == "failed"
        assert "already ingested" in results["dup"].error
        assert session.version == 1


@pytest.fixture
def api():
    return FrostApi(FrostPlatform())


class TestStreamApiRoutes:
    def test_create_ingest_status_roundtrip(self, api):
        created = api.handle(
            "/streams", method="POST",
            body={"name": "crm", "config": CONFIG},
        )
        assert created["name"] == "crm"
        assert created["version"] == 0
        first = api.handle(
            "/streams/crm/batches", method="POST", body={"records": ROWS_ONE}
        )
        assert first["snapshot"]["version"] == 1
        second = api.handle(
            "/streams/crm/batches", method="POST", body={"records": ROWS_TWO}
        )
        assert second["snapshot"]["version"] == 2
        assert second["snapshot"]["record_count"] == 5
        status = api.handle("/streams/crm")
        assert status["version"] == 2
        assert len(status["snapshots"]) == 2
        listing = api.handle("/streams")
        assert listing == {"streams": ["crm"]}

    def test_unknown_stream_is_404(self, api):
        with pytest.raises(ApiError) as missing:
            api.handle("/streams/nope")
        assert missing.value.status == 404

    def test_bad_config_is_400(self, api):
        with pytest.raises(ApiError) as bad:
            api.handle(
                "/streams", method="POST",
                body={"name": "x", "config": {"key": {"kind": "nope"}}},
            )
        assert bad.value.status == 400

    @pytest.mark.parametrize(
        "retired",
        [
            {"parallelism": {"workers": "4"}},
            {"parallelism": {"workers": 2.5}},
            {"parallelism": {"shards": 0}},
            {"parallelism": {"typo": 1}},
            {"columnar": False},
        ],
        ids=["workers-str", "workers-float", "shards-zero", "typo", "columnar"],
    )
    def test_retired_execution_keys_are_ignored(self, api, retired):
        """Clients written for the sharded/columnar knobs still create
        streams: the keys — valid or not — no longer mean anything."""
        api.handle(
            "/streams", method="POST",
            body={"name": "old", "config": {**CONFIG, **retired}},
        )
        api.handle(
            "/streams", method="POST", body={"name": "new", "config": CONFIG}
        )
        snapshots = [
            api.handle(
                f"/streams/{name}/batches", method="POST",
                body={"records": ROWS_ONE},
            )["snapshot"]
            for name in ("old", "new")
        ]
        for snapshot in snapshots:
            del snapshot["stream"]
        assert snapshots[0] == snapshots[1]
        status = api.handle("/streams/old")
        assert "parallelism" not in status and "columnar" not in status

    def test_duplicate_name_is_400(self, api):
        api.handle(
            "/streams", method="POST", body={"name": "crm", "config": CONFIG}
        )
        with pytest.raises(ApiError) as dup:
            api.handle(
                "/streams", method="POST",
                body={"name": "crm", "config": CONFIG},
            )
        assert dup.value.status == 400

    def test_malformed_records_are_400(self, api):
        api.handle(
            "/streams", method="POST", body={"name": "crm", "config": CONFIG}
        )
        with pytest.raises(ApiError) as no_id:
            api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": [{"first": "alice"}]},
            )
        assert no_id.value.status == 400
        with pytest.raises(ApiError) as dup_in_batch:
            api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": [ROWS_ONE[0], ROWS_ONE[0]]},
            )
        assert dup_in_batch.value.status == 400
        assert api.handle("/streams/crm")["records"] == 0

    def test_duplicate_record_is_400(self, api):
        api.handle(
            "/streams", method="POST", body={"name": "crm", "config": CONFIG}
        )
        api.handle(
            "/streams/crm/batches", method="POST", body={"records": ROWS_ONE}
        )
        with pytest.raises(ApiError) as dup:
            api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": ROWS_ONE},
            )
        assert dup.value.status == 400

    def test_durable_streams_resume_across_api_instances(self, tmp_path):
        path = tmp_path / "streams.db"
        with FrostStore(path) as store:
            first_api = FrostApi(FrostPlatform(), store=store)
            first_api.handle(
                "/streams", method="POST",
                body={"name": "crm", "config": CONFIG},
            )
            first_api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": ROWS_ONE},
            )
        with FrostStore(path) as store:
            second_api = FrostApi(FrostPlatform(), store=store)
            status = second_api.handle("/streams/crm")
            assert status["version"] == 1
            assert status["records"] == 3
            second_api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": ROWS_TWO},
            )
            assert second_api.handle("/streams/crm")["records"] == 5


class TestStreamCli:
    def _write_csv(self, path, rows):
        lines = ["id,first,last"]
        lines += [f"{r['id']},{r['first']},{r['last']}" for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_full_cli_lifecycle(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "s.db")
        day1 = tmp_path / "day1.csv"
        day2 = tmp_path / "day2.csv"
        self._write_csv(day1, ROWS_ONE)
        self._write_csv(day2, ROWS_TWO)

        assert main([
            "stream", "init", "--store", store, "--name", "crm",
            "--key-attribute", "last",
            "--similarity", "first=jaro_winkler",
            "--similarity", "last=jaro_winkler",
            "--threshold", "0.8",
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day1),
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day2),
        ]) == 0
        assert main([
            "stream", "snapshot", "--store", store, "--name", "crm",
        ]) == 0
        assert main(["stream", "status", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "v1" in output and "v2" in output
        assert "p1 p2 p5" in output
        assert "p3 p4" in output

    def test_ingest_resumes_stream_stored_with_retired_keys(
        self, tmp_path, capsys
    ):
        """``stream ingest`` resumes a stream that ``stream init`` stored
        with its since-removed sharding and columnar settings, and
        clusters exactly like a stream created without them."""
        from repro.cli import main
        from repro.streaming import validate_config

        store = str(tmp_path / "s.db")
        with FrostStore(store) as opened:
            opened.create_stream("old", {
                **validate_config(CONFIG),
                "parallelism": {"workers": 4, "shards": 16},
                "columnar": False,
            })
            opened.create_stream("new", validate_config(CONFIG))
        day1 = tmp_path / "day1.csv"
        day2 = tmp_path / "day2.csv"
        self._write_csv(day1, ROWS_ONE)
        self._write_csv(day2, ROWS_TWO)
        outputs = {}
        for name in ("old", "new"):
            for day in (day1, day2):
                assert main([
                    "stream", "ingest", "--store", store, "--name", name,
                    "--dataset", str(day),
                ]) == 0
            capsys.readouterr()
            assert main([
                "stream", "snapshot", "--store", store, "--name", name,
            ]) == 0
            outputs[name] = capsys.readouterr().out.replace(name, "<stream>")
        assert "p1 p2 p5" in outputs["old"]
        assert outputs["old"] == outputs["new"]

    def test_init_requires_key_attribute(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "stream", "init", "--store", str(tmp_path / "s.db"),
            "--name", "crm", "--similarity", "a=exact",
        ])
        assert code == 1
        assert "key-attribute" in capsys.readouterr().err

    def test_ingest_unknown_stream_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        day = tmp_path / "day.csv"
        self._write_csv(day, ROWS_ONE)
        store = str(tmp_path / "s.db")
        code = main([
            "stream", "ingest", "--store", store, "--name", "nope",
            "--dataset", str(day),
        ])
        assert code == 1
        assert "no stream named" in capsys.readouterr().err

    def test_bad_similarity_flag_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "stream", "init", "--store", str(tmp_path / "s.db"),
            "--name", "crm", "--key-attribute", "last",
            "--similarity", "broken",
        ])
        assert code == 1
        assert "ATTR=MEASURE" in capsys.readouterr().err


LSH_CONFIG = {
    "key": {"kind": "lsh", "num_perm": 64, "bands": 16, "seed": 2},
    "similarities": {"first": "jaro_winkler", "last": "jaro_winkler"},
    "threshold": 0.8,
}


class TestLshStreamApi:
    def test_create_ingest_status_roundtrip(self, api):
        created = api.handle(
            "/streams", method="POST",
            body={"name": "lsh-crm", "config": LSH_CONFIG},
        )
        assert created["blocking"]["kind"] == "lsh"
        assert created["blocking"]["rows"] == 4  # normalized (64 / 16)
        first = api.handle(
            "/streams/lsh-crm/batches", method="POST",
            body={"records": ROWS_ONE},
        )
        assert first["snapshot"]["version"] == 1
        status = api.handle("/streams/lsh-crm")
        assert status["blocking"]["num_perm"] == 64
        assert status["records"] == 3

    @pytest.mark.parametrize(
        "key",
        [
            {"kind": "lsh", "num_perm": 100, "bands": 33},  # not divisible
            {"kind": "lsh", "num_perm": "128"},
            {"kind": "lsh", "bands": 0},
            {"kind": "lsh", "rows": 5},
            {"kind": "lsh", "typo": 1},
            {"kind": "sorted_neighborhood", "attribute": "last"},
        ],
    )
    def test_malformed_lsh_config_is_400(self, api, key):
        with pytest.raises(ApiError) as bad:
            api.handle(
                "/streams", method="POST",
                body={"name": "x", "config": {**LSH_CONFIG, "key": key}},
            )
        assert bad.value.status == 400

    def test_durable_lsh_stream_resumes(self, tmp_path):
        store_path = tmp_path / "lsh.db"
        with FrostStore(str(store_path)) as store:
            first_api = FrostApi(FrostPlatform(), store=store)
            first_api.handle(
                "/streams", method="POST",
                body={"name": "durable", "config": LSH_CONFIG},
            )
            first_api.handle(
                "/streams/durable/batches", method="POST",
                body={"records": ROWS_ONE},
            )
        with FrostStore(str(store_path)) as store:
            resumed_api = FrostApi(FrostPlatform(), store=store)
            status = resumed_api.handle("/streams/durable")
            assert status["version"] == 1
            assert status["blocking"]["kind"] == "lsh"
            second = resumed_api.handle(
                "/streams/durable/batches", method="POST",
                body={"records": ROWS_TWO},
            )
            assert second["snapshot"]["version"] == 2
            assert second["snapshot"]["record_count"] == 5


class TestLshStreamCli:
    def _write_csv(self, path, rows):
        lines = ["id,first,last"]
        lines += [f"{r['id']},{r['first']},{r['last']}" for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_lsh_lifecycle(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "s.db")
        day1 = tmp_path / "day1.csv"
        day2 = tmp_path / "day2.csv"
        self._write_csv(day1, ROWS_ONE)
        self._write_csv(day2, ROWS_TWO)

        assert main([
            "stream", "init", "--store", store, "--name", "crm",
            "--blocker", "lsh", "--num-perm", "64", "--bands", "16",
            "--lsh-seed", "2",
            "--similarity", "first=jaro_winkler",
            "--similarity", "last=jaro_winkler",
            "--threshold", "0.8",
        ]) == 0
        assert "key=lsh" in capsys.readouterr().out
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day1),
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day2),
        ]) == 0
        out = capsys.readouterr().out
        assert "v2" in out and "5 total" in out
        assert main(["stream", "status", "--store", store, "--name", "crm"]) == 0
        assert "v2" in capsys.readouterr().out

    def test_lsh_flags_reject_bad_banding(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "stream", "init", "--store", str(tmp_path / "s.db"),
            "--name", "crm", "--blocker", "lsh",
            "--num-perm", "100", "--bands", "33",
            "--similarity", "last=jaro_winkler",
        ])
        assert code == 1
        assert "divide" in capsys.readouterr().err

    def test_cross_family_flags_fail_loudly(self, tmp_path, capsys):
        """A blocking flag of the unselected family must error, not be
        silently dropped into a very different candidate set."""
        from repro.cli import main

        store = str(tmp_path / "s.db")
        assert main([
            "stream", "init", "--store", store, "--name", "a",
            "--blocker", "lsh", "--key-attribute", "last",
            "--similarity", "last=exact",
        ]) == 1
        assert "--token-attributes" in capsys.readouterr().err
        assert main([
            "stream", "init", "--store", store, "--name", "b",
            "--bands", "16", "--key-attribute", "last",
            "--similarity", "last=exact",
        ]) == 1
        assert "--blocker lsh" in capsys.readouterr().err
