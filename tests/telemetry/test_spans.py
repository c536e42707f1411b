"""Span tracer unit tests: nesting, propagation, disabled-mode no-ops."""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import (
    Tracer,
    get_tracer,
    render_span_tree,
    spans_to_rows,
    write_spans_jsonl,
)
from repro.telemetry.spans import _NULL_SPAN


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


def test_nesting_follows_lexical_structure(tracer):
    with tracer.span("outer", records=10) as outer:
        with tracer.span("inner") as inner:
            inner.annotate(pairs=4)
    roots = tracer.roots()
    assert [root.name for root in roots] == ["outer"]
    assert roots[0].annotations == {"records": 10}
    assert [child.name for child in roots[0].children] == ["inner"]
    assert roots[0].children[0].annotations == {"pairs": 4}
    assert roots[0].children[0].parent_id == outer.span_id
    assert roots[0].seconds >= roots[0].children[0].seconds >= 0.0


def test_disabled_tracer_hands_out_the_shared_null_span():
    tracer = Tracer(enabled=False)
    assert tracer.span("anything", records=1) is _NULL_SPAN
    with tracer.span("anything") as span:
        span.annotate(ignored=True)  # must not raise
    assert tracer.roots() == []
    assert tracer.activate(tracer.context()) is _NULL_SPAN
    assert tracer.record("shard", 0.5) is None
    tracer.annotate(ignored=True)  # no open span, disabled: no-op


def test_trace_decorator_names_span_after_function(tracer):
    @tracer.trace()
    def scored_function():
        return 42

    assert scored_function() == 42
    assert tracer.roots()[0].name.endswith("scored_function")


def test_exception_annotates_and_closes_the_span(tracer):
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (root,) = tracer.roots()
    assert root.annotations["error"] == "ValueError"
    assert root.seconds is not None


def test_context_propagates_across_threads(tracer):
    def worker(context):
        with tracer.activate(context):
            with tracer.span("worker.job"):
                pass

    with tracer.span("submit") as submit_span:
        context = tracer.context()
        thread = threading.Thread(target=worker, args=(context,))
        thread.start()
        thread.join()
    (root,) = tracer.roots()
    assert root is submit_span
    assert [child.name for child in root.children] == ["worker.job"]


def test_record_folds_external_timing_into_the_tree(tracer):
    with tracer.span("remote.batch"):
        tracer.record("remote.task", 0.25, pairs=100)
    (root,) = tracer.roots()
    (task,) = root.children
    assert task.seconds == 0.25
    assert task.annotations == {"pairs": 100}


def test_reset_drops_completed_roots(tracer):
    with tracer.span("one"):
        pass
    tracer.reset()
    assert tracer.roots() == []


def test_default_tracer_is_disabled():
    assert get_tracer().enabled is False


def test_spans_export_jsonl_and_tree(tracer, tmp_path):
    with tracer.span("root", records=5):
        with tracer.span("child"):
            pass
    roots = tracer.roots()
    rows = spans_to_rows(roots)
    assert {row["name"] for row in rows} == {"root", "child"}
    path = write_spans_jsonl(tmp_path / "spans.jsonl", roots)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    child = next(row for row in lines if row["name"] == "child")
    root = next(row for row in lines if row["name"] == "root")
    assert child["parent_id"] == root["span_id"]
    tree = render_span_tree(roots[0])
    assert "root" in tree and "└─ child" in tree and "[records=5]" in tree
