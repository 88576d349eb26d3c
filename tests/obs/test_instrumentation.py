"""Telemetry instrumentation through the real authorization path.

Exercises the span trees and labeled metrics produced by the PEP,
callout registry, combined evaluator and resilience layer — including
the degraded (fail-static) and breaker-open paths the dashboards care
about most.
"""

import pytest

from repro.core.builtin_callouts import combined_policy_callout
from repro.core.callout import GRAM_AUTHZ_CALLOUT, default_registry
from repro.core.decision import Decision
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.parser import parse_policy
from repro.core.pep import EnforcementPoint
from repro.core.request import AuthorizationRequest
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.obs import Telemetry
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

ALICE = "/O=Grid/OU=fi/CN=Alice"
POLICY_TEXT = f"{ALICE}: &(action=start)(executable=sim) &(action=cancel)"


def start_request(executable="sim"):
    return AuthorizationRequest.start(
        ALICE, parse_specification(f"&(executable={executable})(count=1)")
    )


def events_named(spans, name):
    return [
        event
        for item in spans
        for event in item.events
        if event.name == name
    ]


def build_policy_pep():
    """PEP over the combined VO∧local evaluator, telemetry attached."""
    telemetry = Telemetry(clock=Clock())
    registry = default_registry()
    callout = combined_policy_callout(
        [
            parse_policy(POLICY_TEXT, name="vo"),
            parse_policy(POLICY_TEXT, name="local"),
        ]
    )
    registry.register(GRAM_AUTHZ_CALLOUT, callout, label="vo+local")
    pep = EnforcementPoint(registry=registry, telemetry=telemetry)
    return pep, telemetry


class _Toggleable:
    """Permits while healthy; raises when down."""

    def __init__(self):
        self.down = False

    def __call__(self, request):
        if self.down:
            raise ConnectionError("policy source unreachable")
        return Decision.permit(reason="known user", source="toggle")


def build_resilient_pep(mode, failure_threshold=5):
    telemetry = Telemetry(clock=Clock())
    registry = default_registry()
    source = _Toggleable()
    config = ResilienceConfig(
        clock=telemetry.clock,
        failure_threshold=failure_threshold,
        mode=mode,
        registry=telemetry.registry,
    )
    registry.register(
        GRAM_AUTHZ_CALLOUT, config.wrap(source, name="toggle"), label="toggle"
    )
    pep = EnforcementPoint(
        registry=registry,
        resilience=config.middleware(),
        telemetry=telemetry,
    )
    return pep, source, telemetry


class TestSpanTree:
    def test_pep_to_source_nesting(self):
        pep, telemetry = build_policy_pep()
        decision = pep.authorize(start_request())
        assert decision.is_permit
        assert decision.context.correlation_id == "req-000001"
        spans = telemetry.tracer.find("req-000001")
        names = [item.name for item in spans]
        assert names == [
            "pep.authorize",
            "callout:vo+local",
            "source:vo",
            "source:local",
        ]
        root = spans[0]
        assert root.attrs["decision"] == "permit"
        assert all(item.trace_id == "req-000001" for item in spans)

    def test_denial_labels_span(self):
        pep, telemetry = build_policy_pep()
        with pytest.raises(AuthorizationDenied):
            pep.authorize(start_request(executable="rogue"))
        root = telemetry.tracer.find("req-000001")[0]
        assert root.attrs["decision"] == "deny"

    def test_source_latency_bridge_populates_histograms(self):
        pep, telemetry = build_policy_pep()
        pep.authorize(start_request())
        family = telemetry.registry.get("authz_source_latency_seconds")
        sources = {labels["source"] for labels, _ in family.series()}
        assert sources == {"vo", "local"}
        family = telemetry.registry.get("authz_callout_latency_seconds")
        assert {labels["callout"] for labels, _ in family.series()} == {
            "vo+local"
        }


class TestDecisionMetrics:
    def test_registry_mirrors_legacy_counters(self):
        pep, telemetry = build_policy_pep()
        pep.authorize(start_request())
        with pytest.raises(AuthorizationDenied):
            pep.authorize(start_request(executable="rogue"))
        registry = telemetry.registry
        assert registry.value(
            "authz_decisions_total", action="start", decision="permit"
        ) == 1
        assert registry.value(
            "authz_decisions_total", action="start", decision="deny"
        ) == 1
        assert registry.value("authz_cache_total", status="bypass") == 2
        latency = registry.get("authz_latency_seconds")
        assert sum(h.count for _, h in latency.series()) == 2
        # Legacy middleware API still answers.
        assert pep.permits == 1 and pep.denials == 1


class TestFailStaticPath:
    def test_degraded_serve_is_traced_and_counted(self):
        pep, source, telemetry = build_resilient_pep(DegradationMode.FAIL_STATIC)
        assert pep.authorize(start_request()).is_permit
        source.down = True
        degraded = pep.authorize(start_request())
        assert degraded.is_permit
        assert degraded.context.degraded == "fail-static"
        spans = telemetry.tracer.find("req-000002")
        assert [item.name for item in spans] == [
            "pep.authorize",
            "callout:toggle",
        ]
        assert events_named(spans, "degraded")
        registry = telemetry.registry
        assert registry.value("resilience_degraded_total", source="toggle") == 1
        assert registry.value("authz_degraded_total", mode="fail-static") == 1
        assert registry.value(
            "resilience_failures_total", source="toggle", failure_kind="error"
        ) == 1


class TestBreakerOpenPath:
    def test_fast_fail_is_traced_and_gauged(self):
        pep, source, telemetry = build_resilient_pep(
            DegradationMode.FAIL_CLOSED, failure_threshold=1
        )
        source.down = True
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(start_request())
        with pytest.raises(AuthorizationSystemFailure) as excinfo:
            pep.authorize(start_request())
        assert excinfo.value.kind == "breaker-open"
        registry = telemetry.registry
        assert registry.value("breaker_state", source="toggle") == 2  # open
        assert registry.value(
            "breaker_transitions_total", source="toggle", to="open"
        ) == 1
        assert registry.value("resilience_fast_fails_total", source="toggle") == 1
        # First trace carries the breaker transition, second the fast-fail.
        assert events_named(telemetry.tracer.find("req-000001"), "breaker")
        assert events_named(telemetry.tracer.find("req-000002"), "fast-fail")
        root = telemetry.tracer.find("req-000002")[0]
        assert root.attrs["decision"] == "failure"
        assert root.attrs["failure_kind"] == "breaker-open"
        assert root.status.startswith("error:")
        # The audit log carries the same attribution.
        record = pep.audit_log[-1]
        assert record.failure_kind == "breaker-open"
        assert record.failure_source == "toggle"


class TestTelemetryOptional:
    def test_pep_without_telemetry_still_works(self):
        registry = default_registry()
        registry.register(
            GRAM_AUTHZ_CALLOUT,
            lambda request: Decision.permit(reason="ok", source="stub"),
        )
        pep = EnforcementPoint(registry=registry)
        assert pep.authorize(start_request()).is_permit
        assert pep.telemetry is None
