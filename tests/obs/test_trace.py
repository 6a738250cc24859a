"""Unit tests for the span API: nesting, timing, ambient activation."""

import pytest

from repro.obs.trace import Tracer, active_tracer, event, span


class FakeClock:
    """A manually advanced monotonic clock for deterministic spans."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestActivation:
    def test_no_tracer_by_default(self):
        assert active_tracer() is None

    def test_with_activates_and_deactivates(self):
        tracer = Tracer()
        with tracer:
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_nested_activation_restores_outer(self):
        outer, inner = Tracer(), Tracer()
        with outer:
            with inner:
                assert active_tracer() is inner
            assert active_tracer() is outer

    def test_ambient_span_is_noop_without_tracer(self):
        with span("anything", k=1) as sp:
            assert sp is None

    def test_ambient_event_is_dropped_without_tracer(self):
        event("nothing", x=1)  # must not raise

    def test_ambient_span_records_on_active_tracer(self):
        tracer = Tracer()
        with tracer:
            with span("work", k=2) as sp:
                assert sp is not None
        assert [s.name for s in tracer.spans] == ["work"]
        assert tracer.spans[0].attrs == {"k": 2}


class TestNesting:
    def test_parent_child_links(self, clock):
        tracer = Tracer(clock=clock)
        with tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        outer, inner = tracer.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_siblings_share_parent(self, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        root, a, b = tracer.spans
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_span_ids_unique(self):
        tracer = Tracer()
        for _ in range(10):
            with tracer.span("s"):
                pass
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == len(ids)


class TestTiming:
    def test_duration_from_injected_clock(self, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("timed"):
            clock.advance(0.25)
        assert tracer.spans[0].duration == pytest.approx(0.25)

    def test_open_span_has_zero_duration(self, clock):
        tracer = Tracer(clock=clock)
        cm = tracer.span("open")
        record = cm.__enter__()
        clock.advance(1.0)
        assert record.duration == 0.0
        cm.__exit__(None, None, None)
        assert record.duration == pytest.approx(1.0)

    def test_timestamps_relative_to_epoch_and_monotone(self, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("first"):
            clock.advance(0.1)
        clock.advance(0.1)
        with tracer.span("second"):
            clock.advance(0.1)
        first, second = tracer.spans
        assert first.start == pytest.approx(0.0)
        assert first.end <= second.start
        assert second.end >= second.start

    def test_child_nests_inside_parent_times(self, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(0.1)
            with tracer.span("inner"):
                clock.advance(0.1)
            clock.advance(0.1)
        outer, inner = tracer.spans
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_real_clock_monotonicity(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        for record in tracer.spans:
            assert record.end >= record.start


class TestErrorsAndCaps:
    def test_exception_tags_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        record = tracer.spans[0]
        assert record.attrs["error"] == "ValueError"
        assert record.end is not None

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(max_spans=3)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped_spans == 2

    def test_events_record_under_open_span(self, clock):
        tracer = Tracer(clock=clock)
        with tracer.span("round"):
            tracer.event("delta", size=7)
        assert tracer.events[0]["name"] == "delta"
        assert tracer.events[0]["parent"] == tracer.spans[0].span_id
        assert tracer.events[0]["attrs"] == {"size": 7}

    def test_attrs_extendable_until_close(self):
        tracer = Tracer()
        with tracer.span("round", round=1) as sp:
            sp.attrs["delta_tuples"] = 3
        assert tracer.spans[0].attrs == {"round": 1, "delta_tuples": 3}
