"""Tracer and span semantics: hierarchy, zero-cost disable, export."""

import json

import pytest

from repro.obs import (
    NULL_SPAN,
    Tracer,
    chrome_trace_events,
    render_chrome_trace,
)
from repro.sim.clock import VirtualClock


class TestSpans:
    def test_span_records_clock_times(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        span = tracer.span("work")
        clock.advance(1.5)
        span.finish()
        assert span.start == 0.0
        assert span.end == 1.5
        assert span.duration == 1.5

    def test_parent_child_linkage(self):
        tracer = Tracer(clock=VirtualClock())
        root = tracer.span("txn")
        child = tracer.span("stage", parent=root)
        child.finish()
        root.finish()
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert [
            span for span in tracer.spans if span.parent_id == root.span_id
        ] == [child]

    def test_span_ids_are_sequential_per_tracer(self):
        tracer = Tracer(clock=VirtualClock())
        first = tracer.span("a")
        second = tracer.span("b")
        assert second.span_id == first.span_id + 1
        fresh = Tracer(clock=VirtualClock())
        assert fresh.span("c").span_id == first.span_id

    def test_finish_is_idempotent(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        span = tracer.span("once")
        clock.advance(1.0)
        span.finish()
        clock.advance(1.0)
        span.finish()
        assert span.end == 1.0
        assert len(tracer.finished()) == 1

    def test_context_manager_finishes(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("cm"):
            clock.advance(0.25)
        assert tracer.find("cm")[0].end == 0.25

    def test_explicit_start_and_end(self):
        clock = VirtualClock()
        clock.advance(10.0)
        tracer = Tracer(clock=clock)
        span = tracer.span("retro", start=4.0)
        span.finish(end=6.0)
        assert (span.start, span.end) == (4.0, 6.0)

    def test_instant_has_zero_duration(self):
        clock = VirtualClock()
        clock.advance(2.0)
        tracer = Tracer(clock=clock)
        tracer.instant("tick", shard=1)
        (span,) = tracer.find("tick")
        assert span.kind == "instant"
        assert span.start == span.end == 2.0
        assert span.args == {"shard": 1}

    def test_annotate_merges_args(self):
        tracer = Tracer(clock=VirtualClock())
        span = tracer.span("s", a=1)
        span.annotate(b=2)
        span.finish()
        assert span.args == {"a": 1, "b": 2}


class TestDisabledTracer:
    def test_disabled_span_is_shared_null(self):
        tracer = Tracer(clock=VirtualClock(), enabled=False)
        assert tracer.span("x") is NULL_SPAN
        assert tracer.instant("y") is NULL_SPAN
        assert tracer.finished() == []

    def test_null_span_absorbs_everything(self):
        NULL_SPAN.annotate(a=1)
        NULL_SPAN.finish()
        with NULL_SPAN:
            pass
        assert not NULL_SPAN
        assert NULL_SPAN.span_id == 0


class TestChromeExport:
    def _traced(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        root = tracer.span("txn", track="client/0", client=0)
        clock.advance(0.001)
        child = tracer.span("stage", parent=root, track="client/0")
        clock.advance(0.002)
        child.finish()
        root.finish()
        tracer.instant("tick", track="faults")
        return tracer

    def test_events_shape(self):
        events = chrome_trace_events(self._traced())
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert len(instants) == 1
        assert {m["args"]["name"] for m in meta} == {"client/0", "faults"}
        root = next(e for e in complete if e["name"] == "txn")
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(3000.0)
        child = next(e for e in complete if e["name"] == "stage")
        assert child["args"]["parent_id"] == root["args"]["span_id"]

    def test_render_is_valid_sorted_json(self):
        payload = render_chrome_trace(self._traced())
        assert payload.endswith("\n")
        doc = json.loads(payload)
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 5
        # Canonical encoding: re-dumping with the same settings is a
        # fixed point, so identical runs export identical bytes.
        assert (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            == payload
        )
