"""Disk-executed blockers: set identity with the in-memory path."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.blocking_disk import (
    DiskBlockingStore,
    disk_candidates,
    disk_lsh_blocking,
    disk_sorted_neighborhood,
    disk_standard_blocking,
    disk_token_blocking,
)
from repro.core import Dataset, Record
from repro.datagen import make_person_benchmark
from repro.matching import blocking
from repro.matching.lsh import LshBlocking, LshConfig, lsh_blocking
from repro.telemetry.metrics import get_metrics

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def people():
    return make_person_benchmark(400, seed=29).dataset


@pytest.fixture
def messy():
    """Hand-crafted edge cases: None values, blanks, shared tokens."""
    rows = [
        ("r01", "smith john", "berlin"),
        ("r02", "smith jon", "berlin"),
        ("r03", "smyth john", None),
        ("r04", "jones mary", "hamburg"),
        ("r05", None, "hamburg"),
        ("r06", "   ", "berlin"),
        ("r07", "smith john", "berlin"),
        ("r08", "lee", ""),
    ]
    return Dataset(
        [Record(rid, {"name": name, "city": city}) for rid, name, city in rows],
        name="messy",
    )


class TestIdentity:
    def test_standard_blocking(self, people, messy):
        for dataset in (people, messy):
            for key in (
                blocking.first_token_key("name" if dataset is messy else "last_name"),
                blocking.soundex_key("name" if dataset is messy else "last_name"),
            ):
                assert disk_standard_blocking(dataset, key) == (
                    blocking.standard_blocking(dataset, key)
                )

    def test_token_blocking(self, people, messy):
        for dataset, cap in ((people, 40), (people, None), (messy, 3)):
            assert disk_token_blocking(dataset, max_block_size=cap) == (
                blocking.token_blocking(dataset, max_block_size=cap)
            )

    def test_sorted_neighborhood(self, people, messy):
        for dataset, window in ((people, 2), (people, 7), (messy, 3), (messy, 100)):
            key = blocking.first_token_key(
                "name" if dataset is messy else "last_name"
            )
            assert disk_sorted_neighborhood(dataset, key, window=window) == (
                blocking.sorted_neighborhood(dataset, key, window=window)
            )

    def test_lsh_blocking(self, people):
        config = LshConfig(num_perm=32, bands=8, max_block_size=25)
        assert disk_lsh_blocking(people, config) == (
            lsh_blocking(people, config)
        )

    def test_empty_dataset(self):
        empty = Dataset([])
        key = blocking.first_token_key("name")
        assert disk_standard_blocking(empty, key) == set()
        assert disk_token_blocking(empty) == set()
        assert disk_sorted_neighborhood(empty, key, window=3) == set()
        assert disk_lsh_blocking(empty) == set()

    def test_all_none_keys(self):
        dataset = Dataset([Record(f"r{i}", {"name": None}) for i in range(4)])
        key = blocking.first_token_key("name")
        assert disk_standard_blocking(dataset, key) == set()
        assert disk_sorted_neighborhood(dataset, key, window=4) == (
            blocking.sorted_neighborhood(dataset, key, window=4)
        )


class TestDiskPath:
    def test_generator_recognition(self, people):
        runs = get_metrics().counter("frost_blocking_disk_runs_total", "")
        config = LshConfig(num_perm=16, bands=4)
        before = runs.value
        assert disk_candidates(LshBlocking(config), people) == (
            lsh_blocking(people, config)
        )
        assert disk_candidates(blocking.token_blocking, people) == (
            blocking.token_blocking(people)
        )
        assert runs.value == before + 2
        assert disk_candidates(lambda dataset: set(), people) is None

    def test_disk_candidates_fallback_signal(self, messy):
        def custom(dataset):
            return set()

        assert disk_candidates(custom, messy) is None
        assert disk_candidates(blocking.token_blocking, messy) == (
            blocking.token_blocking(messy)
        )

    def test_window_validation(self, messy):
        with pytest.raises(ValueError, match="at least 2"):
            disk_sorted_neighborhood(
                messy, blocking.first_token_key("name"), window=1
            )

    def test_run_catalog_records_scheme_and_config(self, messy):
        with DiskBlockingStore() as store:
            disk_token_blocking(
                messy, ["name"], min_token_length=4, max_block_size=9,
                store=store,
            )
            assert store.run_info(1) == {
                "scheme": "token_blocking",
                "config": {
                    "attributes": ["name"],
                    "min_token_length": 4,
                    "max_block_size": 9,
                },
            }


class TestHashSeedInvariance:
    """Disk and memory candidates agree under different hash seeds.

    MinHash band keys and Python set iteration both involve string
    hashing; the disk path must not leak any hash-order dependence into
    the candidate set.  Runs the same corpus under two PYTHONHASHSEED
    values in subprocesses and compares the sorted pair lists.
    """

    _SCRIPT = """
import sys
from repro.blocking_disk import disk_lsh_blocking, disk_token_blocking
from repro.datagen import make_person_benchmark
from repro.matching.blocking import token_blocking
from repro.matching.lsh import LshConfig, lsh_blocking

dataset = make_person_benchmark(250, seed=77).dataset
config = LshConfig(num_perm=16, bands=4, max_block_size=30)
disk = sorted(disk_lsh_blocking(dataset, config))
memory = sorted(lsh_blocking(dataset, config))
assert disk == memory, "lsh disk/memory diverged in-process"
disk_t = sorted(disk_token_blocking(dataset, max_block_size=40))
memory_t = sorted(token_blocking(dataset, max_block_size=40))
assert disk_t == memory_t, "token disk/memory diverged in-process"
for pair in disk + disk_t:
    print(pair[0], pair[1])
"""

    def _run(self, seed: str) -> str:
        result = subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC), "PATH": ""},
            check=False,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_candidates_identical_across_hash_seeds(self):
        assert self._run("1") == self._run("4242")
