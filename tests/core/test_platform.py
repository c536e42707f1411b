"""Tests for the FrostPlatform facade."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, Experiment, GoldStandard, Record
from repro.core.platform import FrostPlatform


@pytest.fixture
def platform(people_dataset, people_gold, people_experiment):
    platform = FrostPlatform()
    platform.add_dataset(people_dataset)
    platform.add_gold(people_dataset.name, people_gold)
    platform.add_experiment(people_dataset.name, people_experiment)
    return platform


class TestRegistry:
    def test_names(self, platform):
        assert platform.dataset_names() == ["people"]
        assert platform.experiment_names("people") == ["people-run"]
        assert platform.gold_names("people") == ["people-gold"]

    def test_duplicate_dataset_rejected(self, platform, people_dataset):
        with pytest.raises(ValueError, match="already registered"):
            platform.add_dataset(people_dataset)

    def test_duplicate_experiment_rejected(self, platform, people_experiment):
        with pytest.raises(ValueError, match="already registered"):
            platform.add_experiment("people", people_experiment)

    def test_unknown_dataset_error_lists_known(self, platform):
        with pytest.raises(KeyError, match="known: people"):
            platform.dataset("nope")

    def test_unknown_experiment_error_lists_known(self, platform):
        with pytest.raises(KeyError, match="people-run"):
            platform.experiment("people", "nope")


class TestEvaluations:
    def test_confusion(self, platform):
        matrix = platform.confusion("people", "people-run", "people-gold")
        # found p1~p2 (tp), invented p5~p6 (fp), missed p3~p4 (fn)
        assert matrix.as_dict() == {"tp": 1, "fp": 1, "fn": 1, "tn": 12}

    def test_metrics_table(self, platform):
        table = platform.metrics_table(
            "people", "people-gold", metric_names=["precision", "recall", "f1"]
        )
        row = table["people-run"]
        assert row["precision"] == 0.5
        assert row["recall"] == 0.5
        assert row["f1"] == 0.5

    def test_diagram(self, platform):
        points = platform.diagram("people", "people-run", "people-gold", samples=3)
        assert points[0].matches_applied == 0
        assert points[-1].matches_applied == 2

    def test_compare_sets_with_gold(self, platform):
        comparison = platform.compare_sets("people", ["people-run", "people-gold"])
        missed = comparison.select(include=["people-gold"], exclude=["people-run"])
        assert missed == {("p3", "p4")}

    def test_compare_sets_unknown_name(self, platform):
        with pytest.raises(KeyError, match="no experiment or gold"):
            platform.compare_sets("people", ["nope"])


class TestConvenienceViews:
    def test_profile_uses_registered_gold(self, platform):
        profile = platform.profile("people")
        assert profile.tuple_count == 6
        # people-gold has 2 duplicate pairs over C(6,2)=15 pairs
        assert profile.positive_ratio == pytest.approx(2 / 15)

    def test_profile_without_gold(self, people_dataset):
        bare = FrostPlatform()
        bare.add_dataset(people_dataset)
        profile = bare.profile("people")
        assert profile.positive_ratio is None

    def test_timeline_matches_diagram(self, platform):
        timeline = platform.timeline("people", "people-run", "people-gold")
        for point in platform.diagram("people", "people-run", "people-gold", 3):
            assert timeline.matrix_at(point.threshold) == point.matrix


def _memo_platform(names=("left", "right")) -> FrostPlatform:
    """Datasets with one scored run and one gold each."""
    platform = FrostPlatform()
    for name in names:
        platform.add_dataset(
            Dataset([Record(f"r{i}", {}) for i in range(6)], name=name)
        )
        platform.add_gold(
            name, GoldStandard.from_pairs([("r0", "r1"), ("r2", "r3")], name="gold")
        )
        platform.add_experiment(
            name,
            Experiment(
                [("r0", "r1", 0.9), ("r1", "r2", 0.6), ("r4", "r5", 0.3)],
                name="run",
            ),
        )
    return platform


def _views(platform: FrostPlatform, name: str) -> tuple:
    return (
        platform.confusion(name, "run", "gold"),
        platform.timeline(name, "run", "gold"),
        platform.timeline(name, "run", "gold", checkpoint_every=1),
    )


class TestMemoization:
    def test_views_are_computed_once(self):
        platform = _memo_platform()
        first = _views(platform, "left")
        again = _views(platform, "left")
        assert all(a is b for a, b in zip(first, again))
        assert first[1] is not first[2]  # checkpoint interval is in the key

    @settings(max_examples=20, deadline=None)
    @given(
        written=st.sampled_from(["left", "right"]),
        kind=st.sampled_from(["experiment", "gold"]),
    )
    def test_write_drops_only_its_datasets_entries(self, written, kind):
        platform = _memo_platform()
        before = {name: _views(platform, name) for name in ("left", "right")}
        if kind == "experiment":
            platform.add_experiment(written, Experiment([("r0", "r5", 0.5)], name="new"))
        else:
            platform.add_gold(written, GoldStandard.from_pairs([("r4", "r5")], name="new"))
        for name, views in before.items():
            after = _views(platform, name)
            kept = [a is b for a, b in zip(views, after)]
            assert kept == [name != written] * 3
            assert after[0] == views[0]
            assert after[1].segment(1.0, 0.0) == views[1].segment(1.0, 0.0)

    def test_unknown_names_raise_and_memoize_nothing(self):
        platform = _memo_platform()
        with pytest.raises(KeyError):
            platform.confusion("left", "ghost", "gold")
        with pytest.raises(KeyError):
            platform.timeline("left", "run", "ghost")
        assert platform._memo == {}

    def test_concurrent_cold_timeline_requests_agree(self):
        for _ in range(20):
            platform = _memo_platform()
            barrier = threading.Barrier(2)
            results = []

            def ask():
                barrier.wait(timeout=10)
                timeline = platform.timeline("left", "run", "gold")
                results.append(
                    (timeline, timeline.segment(1.0, 0.0), timeline.matrix_at(0.5))
                )

            threads = [threading.Thread(target=ask) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            (first, segment_a, matrix_a), (second, segment_b, matrix_b) = results
            assert first is second
            assert segment_a == segment_b
            assert matrix_a == matrix_b
