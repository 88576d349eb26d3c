"""Concurrency smoke: parallel requests never leak spans across trees.

The active span lives in a context variable, and fresh threads start
with no active span — so N threads authorizing through one telemetry-
equipped PEP must produce exactly N disjoint, well-formed traces.
"""

import threading

from repro.core.callout import GRAM_AUTHZ_CALLOUT, default_registry
from repro.core.decision import Decision
from repro.core.pep import EnforcementPoint
from repro.core.request import AuthorizationRequest
from repro.obs import Telemetry
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

THREADS = 8
REQUESTS_PER_THREAD = 10


def permit_all(request):
    return Decision.permit(reason="ok", source="stub")


def test_no_cross_request_span_leakage():
    telemetry = Telemetry(clock=Clock(), trace_limit=10_000)
    registry = default_registry()
    registry.register(GRAM_AUTHZ_CALLOUT, permit_all, label="stub")
    pep = EnforcementPoint(registry=registry, telemetry=telemetry)
    barrier = threading.Barrier(THREADS)
    errors = []

    def worker(index):
        barrier.wait()
        try:
            for n in range(REQUESTS_PER_THREAD):
                request = AuthorizationRequest.start(
                    f"/O=Grid/CN=User{index}",
                    parse_specification(f"&(executable=sim{n})(count=1)"),
                )
                pep.authorize(request)
        except Exception as exc:  # surfaced below; threads must not die
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    traces = telemetry.tracer.traces
    assert len(traces) == THREADS * REQUESTS_PER_THREAD
    for trace_id, spans in traces:
        # Every trace is exactly one request: a pep root + its callout.
        assert [item.name for item in spans] == [
            "pep.authorize",
            "callout:stub",
        ]
        assert all(item.trace_id == trace_id for item in spans)
        root, child = spans
        assert root.parent_id is None
        assert child.parent_id == root.span_id

    assert telemetry.registry.value(
        "authz_decisions_total", action="start", decision="permit"
    ) == THREADS * REQUESTS_PER_THREAD

# -- registry hammer: lost-increment checks ----------------------------------

HAMMER_THREADS = 8
HAMMER_OPS = 2000


def test_registry_hammer_loses_no_increments():
    """N threads on one registry: every increment must land.

    Bare ``+=`` on CPython can drop updates between the read and the
    write; the per-instrument locks exist to prevent exactly that, and
    this test fails loudly without them.
    """
    from repro.obs import MetricsRegistry, prometheus_text, snapshot_jsonl

    registry = MetricsRegistry()
    barrier = threading.Barrier(HAMMER_THREADS)
    errors = []

    def worker(index):
        barrier.wait()
        try:
            for n in range(HAMMER_OPS):
                registry.count("hammer_total", worker=str(index % 2))
                registry.set_gauge("hammer_last_op", float(n))
                registry.observe("hammer_latency_seconds", (n % 10) / 1000.0)
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(HAMMER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    expected = HAMMER_THREADS * HAMMER_OPS
    by_worker = [
        registry.value("hammer_total", worker=label) for label in ("0", "1")
    ]
    assert sum(by_worker) == expected
    assert by_worker == [expected // 2, expected // 2]

    snapshot = registry.snapshot()
    histogram = next(f for f in snapshot if f["name"] == "hammer_latency_seconds")
    series = histogram["series"][0]
    assert series["count"] == expected
    # The +Inf bucket is cumulative: it too must count every observe.
    assert series["buckets"][-1][1] == expected

    # Exports are stable and well-formed after the stampede.
    assert prometheus_text(snapshot) == prometheus_text(registry.snapshot())
    assert f'hammer_total{{worker="0"}} {expected // 2}' in prometheus_text(snapshot)
    assert snapshot_jsonl(snapshot) == snapshot_jsonl(registry.snapshot())

