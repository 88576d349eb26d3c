"""Unit tests for span tracing (repro.obs.spans)."""

import json
import threading

import pytest

from repro.obs import MetricsRegistry, Tracer, current_span, event, span
from repro.sim.clock import Clock


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestNesting:
    def test_root_and_children_share_trace_id(self, tracer, clock):
        with tracer.span("root") as root:
            clock.advance(1.0)
            with tracer.span("child") as child:
                clock.advance(0.5)
                with tracer.span("grandchild") as grandchild:
                    pass
        assert root.trace_id == child.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert root.duration == pytest.approx(1.5)
        assert child.start == pytest.approx(1.0)

    def test_correlation_ids_are_sequential(self, tracer):
        for _ in range(3):
            with tracer.span("request"):
                pass
        assert tracer.trace_ids() == ("req-000001", "req-000002", "req-000003")

    def test_module_helpers_attach_to_active_span(self, tracer):
        with tracer.span("root") as root:
            with span("inner", detail="x") as inner:
                assert current_span() is inner
                event("tick", "something happened")
        assert inner.trace_id == root.trace_id
        assert inner.events[0].name == "tick"

    def test_module_helpers_noop_without_trace(self):
        assert current_span() is None
        with span("orphan") as nothing:
            assert nothing is None
        event("ignored")  # must not raise

    def test_span_of_another_tracer_roots_its_own_trace(self, tracer, clock):
        other = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            with other.span("inner") as inner:
                with span("deep") as deep:
                    pass
            with span("after") as after:
                pass
        assert inner.parent_id is None and inner.trace_id == "req-000001"
        assert deep.parent_id == inner.span_id
        assert after.parent_id == outer.span_id
        assert [item.name for item in tracer.find(outer.trace_id)] == [
            "outer",
            "after",
        ]
        assert [item.name for item in other.find(inner.trace_id)] == [
            "inner",
            "deep",
        ]

    def test_trace_buffered_only_when_root_finishes(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            assert len(tracer) == 0  # root still open
        assert len(tracer) == 1


class TestErrorStatus:
    def test_exception_marks_span_and_propagates(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        spans = tracer.find("req-000001")
        by_name = {item.name: item for item in spans}
        assert by_name["child"].status == "error:RuntimeError"
        assert by_name["root"].status == "error:RuntimeError"


class TestRetention:
    def test_limit_evicts_and_counts(self, clock):
        registry = MetricsRegistry()
        tracer = Tracer(clock=clock, limit=2, registry=registry)
        for _ in range(5):
            with tracer.span("request"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert registry.value("obs_traces_dropped_total") == 3
        # The newest traces survive.
        assert tracer.trace_ids() == ("req-000004", "req-000005")


class TestThreadIsolation:
    def test_threads_do_not_inherit_spans(self, tracer):
        seen = {}

        def worker():
            seen["span"] = current_span()

        with tracer.span("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["span"] is None

    def test_concurrent_roots_get_distinct_traces(self, tracer):
        barrier = threading.Barrier(4)
        trace_ids = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            with tracer.span("request") as root:
                with tracer.span("child") as child:
                    assert child.trace_id == root.trace_id
            with lock:
                trace_ids.append(root.trace_id)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(trace_ids)) == 4
        for trace_id in trace_ids:
            spans = tracer.find(trace_id)
            assert [item.name for item in spans] == ["request", "child"]


class TestExport:
    def test_jsonl_roundtrip_and_determinism(self, clock, tmp_path):
        def run():
            tracer = Tracer(clock=Clock())
            with tracer.span("root", kind="test"):
                with tracer.span("child"):
                    event("mark", "detail")
            return tracer.to_jsonl()

        first, second = run(), run()
        assert first == second
        lines = [json.loads(line) for line in first.splitlines()]
        assert [item["name"] for item in lines] == ["root", "child"]

    def test_export_writes_every_span(self, tracer, tmp_path):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export(str(path)) == 2
        assert len(path.read_text().splitlines()) == 2
