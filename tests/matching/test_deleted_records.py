"""Regression: records deleted between blocking and scoring.

Candidate generation and comparison may be separated by arbitrary time
(engine job graphs run them as distinct jobs; streaming sessions score
against a live registry).  A record deleted in between must not crash
the comparison stage with ``KeyError`` — its pairs are skipped with a
warning and every other pair is scored normally.
"""

from __future__ import annotations

import logging
from itertools import combinations

import pytest

from repro.core.pairs import make_pair
from repro.core.records import Record
from repro.matching import AttributeComparator, MatchingPipeline
from repro.matching.attribute_matching import resolve_candidates
from repro.matching.pipeline import COLUMNAR_MIN_PAIRS
from repro.telemetry.metrics import get_metrics


class _Registry:
    """Dict-backed record lookup, like the streaming prepared view."""

    def __init__(self, records):
        self._records = {record.record_id: record for record in records}

    def delete(self, record_id):
        del self._records[record_id]

    def __getitem__(self, record_id):
        return self._records[record_id]


RECORDS = [
    Record("r1", {"name": "alice smith"}),
    Record("r2", {"name": "alice smyth"}),
    Record("r3", {"name": "bob jones"}),
    Record("r4", {"name": "bob jonas"}),
]
CANDIDATES = {("r1", "r2"), ("r1", "r3"), ("r2", "r4"), ("r3", "r4")}

# One crowded block: every pair of 12 records, 55 of them without r2 —
# enough to clear the columnar kernel gate.
CROWD = RECORDS + [
    Record(f"r{index}", {"name": f"alice smith {index % 3}"})
    for index in range(5, 13)
]
CROWD_CANDIDATES = {
    make_pair(first.record_id, second.record_id)
    for first, second in combinations(CROWD, 2)
}


def _pipeline(candidates=CANDIDATES) -> MatchingPipeline:
    return MatchingPipeline(
        candidate_generator=lambda dataset: set(candidates),
        comparator=AttributeComparator({"name": "jaro_winkler"}),
        decision_model=lambda vector: vector.mean(),
    )


def test_resolve_candidates_reports_missing():
    registry = _Registry(RECORDS)
    registry.delete("r2")
    ordered, resolved, missing = resolve_candidates(registry, CANDIDATES)
    assert missing == ["r2"]
    assert ordered == [("r1", "r3"), ("r3", "r4")]
    assert set(resolved) == {"r1", "r3", "r4"}


@pytest.mark.parametrize(
    "records, candidates",
    [(RECORDS, CANDIDATES), (CROWD, CROWD_CANDIDATES)],
    ids=["serial", "columnar"],
)
def test_compare_candidates_skips_deleted_records(caplog, records, candidates):
    registry = _Registry(records)
    registry.delete("r2")
    pipeline = _pipeline(candidates)
    kernel_pairs = get_metrics().counter("frost_kernel_pairs_total")
    before = kernel_pairs.value
    with caplog.at_level(logging.WARNING, logger="repro.matching.pipeline"):
        vectors = pipeline.compare_candidates(registry, candidates)
    surviving = sorted(pair for pair in candidates if "r2" not in pair)
    assert [vector.pair for vector in vectors] == surviving
    # the small block takes the scalar loop, the crowded one the kernels
    columnar = len(surviving) >= COLUMNAR_MIN_PAIRS
    assert kernel_pairs.value - before == (len(surviving) if columnar else 0)
    assert any("r2" in message for message in caplog.messages)
    assert any("deleted between" in message for message in caplog.messages)


def test_compare_candidates_intact_registry_does_not_warn(caplog):
    pipeline = _pipeline()
    with caplog.at_level(logging.WARNING, logger="repro.matching.pipeline"):
        vectors = pipeline.compare_candidates(_Registry(RECORDS), CANDIDATES)
    assert len(vectors) == len(CANDIDATES)
    assert not caplog.messages

