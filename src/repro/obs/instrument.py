"""Telemetry: one registry + one tracer, wired together.

:class:`Telemetry` is the object a service passes around.  It owns a
:class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.spans.Tracer` sharing the simulated clock, and
installs a span→metrics bridge: every finished ``source:*`` /
``callout:*`` span feeds the per-source labeled latency histograms,
so the metrics and the traces can never disagree about where time
went.

The metric catalog lives in :data:`METRIC_HELP` (and
``docs/observability.md``); instrumentation sites create families
lazily through the registry's get-or-create API, so an uninstrumented
code path costs nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, Tracer
from repro.sim.clock import Clock

#: Help strings for the metric families the stock instrumentation emits.
METRIC_HELP: Dict[str, str] = {
    "authz_decisions_total": "Authorization decisions by final outcome",
    "authz_latency_seconds": "End-to-end decision latency (simulated)",
    "authz_cache_total": "Decision-cache lookups by status",
    "authz_source_latency_seconds": "Per-policy-source evaluation latency (simulated)",
    "authz_callout_latency_seconds": "Per-callout invocation latency (simulated)",
    "authz_degraded_total": "Decisions served in a degraded mode",
    "resilience_retries_total": "Callout retry attempts",
    "resilience_timeouts_total": "Callout timeouts",
    "resilience_failures_total": "Callout failures by kind",
    "resilience_fast_fails_total": "Calls shed by an open breaker",
    "resilience_lkg_size": "Entries in the last-known-good store",
    "breaker_state": "Circuit-breaker state (0 closed, 1 half-open, 2 open)",
    "breaker_transitions_total": "Circuit-breaker transitions by target state",
    "obs_traces_dropped_total": "Finished traces evicted by retention",
    "capability_mint_total": "Capabilities minted after full decisions",
    "capability_hit_total": "Fast-path decisions served by capability validation",
    "capability_miss_total": "Capability fast-path misses by reason",
    "capability_revoked_total": "Capabilities revoked fail-closed on a policy-epoch bump",
    "gram_requests_total": "Gatekeeper requests by kind and response code",
    "gram_admission_rejected_total": "Requests shed by admission control",
}

#: Numeric encoding of breaker states for the ``breaker_state`` gauge.
BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}


class Telemetry:
    """The bundle a service wires through its request path."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_limit: int = 1000,
    ) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(clock=clock, limit=trace_limit, registry=self.registry)
        )
        if self.tracer.registry is None:
            self.tracer.registry = self.registry
        # Series handles are resolved lazily per span name and cached:
        # the bridge runs for every finished span, and the registry's
        # name->family->series resolution is not free on that path.
        self._latency_series: Dict[str, Any] = {}
        self.tracer.on_finish.append(self._observe_span)

    # -- the span -> metrics bridge ----------------------------------------

    def _observe_span(self, span: Span) -> None:
        name = span.name
        series = self._latency_series.get(name)
        if series is None:
            if name.startswith("source:"):
                series = self.registry.histogram(
                    "authz_source_latency_seconds",
                    help=METRIC_HELP["authz_source_latency_seconds"],
                    labelnames=("source",),
                ).labels(source=name[7:])
            elif name.startswith("callout:"):
                series = self.registry.histogram(
                    "authz_callout_latency_seconds",
                    help=METRIC_HELP["authz_callout_latency_seconds"],
                    labelnames=("callout",),
                ).labels(callout=name[8:])
            else:
                series = False
            self._latency_series[name] = series
        if series is not False:
            series.observe(span.end - span.start)

    # -- convenience --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span: child of the active one, else a new root."""
        return self.tracer.span(name, **attrs)

    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self.registry.count(
            name, help=METRIC_HELP.get(name, ""), amount=amount, **labels
        )

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.registry.set_gauge(
            name, value, help=METRIC_HELP.get(name, ""), **labels
        )

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.registry.observe(
            name, value, help=METRIC_HELP.get(name, ""), **labels
        )

    def __str__(self) -> str:
        return (
            f"telemetry[families={len(self.registry.families())} "
            f"traces={len(self.tracer)}]"
        )
