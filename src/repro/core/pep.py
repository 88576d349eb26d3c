"""The Policy Enforcement Point (paper §5.2).

The PEP "controls all external access to a resource via GRAM; an
action is authorized depending on the decision yielded by the PEP".
The prototype places it in the Job Manager — the component that parses
job descriptions and can therefore evaluate request-dependent policy —
but §6.2 discusses the alternative Gatekeeper placement, so the
placement is explicit here and both are exercised by the benchmarks.

The PEP fronts the callout registry through the decision pipeline
(:mod:`repro.core.pipeline`): every call to
:meth:`EnforcementPoint.authorize` builds a
:class:`~repro.core.pipeline.DecisionContext`, runs its fixed stack
(resilience, capability grants and the policy-epoch decision cache,
each when configured) around the callout chain, counts the outcome,
keeps the finished context as the decision's audit record, and either
returns the PERMIT decision (context attached) or raises
:class:`AuthorizationDenied` / :class:`AuthorizationSystemFailure`
(context attached to the exception).
"""

from __future__ import annotations

import enum
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.callout import (
    GRAM_AUTHZ_CALLOUT,
    CalloutRegistry,
    default_registry,
)
from repro.core.decision import Decision, Effect
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.pipeline import (
    DecisionCache,
    DecisionContext,
    DecisionMiddleware,
    NextHandler,
    StageRecord,
    _current_context,
    compose,
)
from repro.core.request import AuthorizationRequest
from repro.obs.instrument import METRIC_HELP
from repro.obs.spans import Span, current_span, span as obs_span


class PEPPlacement(enum.Enum):
    """Which GRAM component hosts the enforcement point."""

    JOB_MANAGER = "job-manager"
    GATEKEEPER = "gatekeeper"


class EnforcementPoint:
    """A PEP bound to a callout registry, a placement and a fixed stack.

    The stack runs outermost-first: resilience (once hardened), then
    capability grants, then the decision cache sitting directly in
    front of the callout chain, each only when configured — so a hit
    skips policy evaluation entirely.  The PEP itself counts every
    outcome (:attr:`permits`, :attr:`denials`, :attr:`failures`), feeds
    the ``authz_*`` telemetry families, and keeps the audit log: the
    finished :class:`~repro.core.pipeline.DecisionContext` of each
    decision, its one per-decision record.
    """

    def __init__(
        self,
        registry: Optional[CalloutRegistry] = None,
        callout_type: str = GRAM_AUTHZ_CALLOUT,
        placement: PEPPlacement = PEPPlacement.JOB_MANAGER,
        audit_limit: int = 10_000,
        resilience: Optional[DecisionMiddleware] = None,
        capability: Optional[DecisionMiddleware] = None,
        cache: Optional[DecisionCache] = None,
        telemetry=None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.callout_type = callout_type
        self.placement = placement
        #: ``placement.value``, read on every decision.
        self._placement = placement.value
        self.telemetry = telemetry
        self.resilience = resilience
        self.capability = capability
        self.cache = cache
        self.permits = 0
        self.denials = 0
        self.failures = 0
        # Registry series, resolved on first use so the per-decision
        # path skips name resolution: (action, outcome) -> (decisions
        # counter, latency histogram) and cache status -> counter.
        self._outcome_series: Dict[Tuple[str, str], Tuple[Any, Any]] = {}
        self._cache_series: Dict[str, Any] = {}
        self._chain: Optional[NextHandler] = None
        self._audit_limit = audit_limit
        self._audit: Deque[DecisionContext] = deque(maxlen=audit_limit)

    # -- the stack ------------------------------------------------------------

    @property
    def middlewares(self) -> Tuple[DecisionMiddleware, ...]:
        # Resilience outside the repeat paths: a hit never needs
        # degradation.  Capability grants in front of the decision
        # cache: a held grant answers before the cache is looked up,
        # and a miss still benefits from the cache underneath.
        return tuple(
            layer
            for layer in (self.resilience, self.capability, self.cache)
            if layer is not None
        )

    def use_resilience(self, middleware: DecisionMiddleware) -> DecisionMiddleware:
        """Enable (or replace) the resilience/degradation layer.

        Typically a :class:`~repro.core.resilience.ResilienceMiddleware`,
        installed by :meth:`~repro.gram.service.GramService.harden`
        after faults are injected; it sits outermost.
        """
        self.resilience = middleware
        self._chain = None
        return middleware

    def _handler(self) -> NextHandler:
        if self._chain is None:
            self._chain = compose(self.middlewares, self._invoke)
        return self._chain

    def _invoke(
        self, request: AuthorizationRequest, context: DecisionContext
    ) -> Decision:
        return self.registry.invoke(self.callout_type, request, context=context)

    # -- decisions ---------------------------------------------------------------

    def authorize(self, request: AuthorizationRequest) -> Decision:
        """Authorize *request* or raise.

        Returns the PERMIT decision (with its
        :class:`~repro.core.pipeline.DecisionContext` attached) on
        success.  Raises :class:`AuthorizationDenied` carrying the
        policy reasons and context on denial, and
        :class:`AuthorizationSystemFailure` when no decision could be
        made (fails closed).
        """
        placement = self._placement
        context = DecisionContext.from_request(request, placement=placement)
        handler = self._chain
        if handler is None:
            handler = self._handler()
        telemetry = self.telemetry
        attrs = {"action": context.action, "placement": placement}
        if telemetry is not None:
            pep_span = Span(telemetry.tracer, "pep.authorize", attrs)
        else:
            pep_span = obs_span("pep.authorize", **attrs)
        # The decision is current for the dynamic extent of the stack,
        # so deep layers find it without a parameter (what
        # ``pipeline.activate`` does, without its object).
        token = _current_context.set(context)
        try:
            with pep_span as span:
                if span is None:
                    span = current_span()
                if span is not None:
                    context.correlation_id = span.trace_id
                started = telemetry.now() if telemetry is not None else 0.0
                wall = perf_counter()
                try:
                    decision = handler(request, context)
                except AuthorizationSystemFailure as exc:
                    context.finish_failure(
                        str(exc), perf_counter() - wall, exc.source or "", exc.kind
                    )
                    exc.context = context
                    self._settle(context, span, started)
                    raise
                context.finish(decision, perf_counter() - wall)
                self._settle(context, span, started)
        finally:
            _current_context.reset(token)
        if context.effect is Effect.PERMIT:
            return decision.with_context(context)
        raise AuthorizationDenied(
            f"{request} denied" + (f" by {context.source}" if context.source else ""),
            reasons=context.reasons,
            context=context,
        )

    def decide(self, request: AuthorizationRequest) -> Decision:
        """Like :meth:`authorize` but never raises on denial.

        System failures are still raised — callers must not confuse a
        broken authorization system with a policy denial.
        """
        try:
            return self.authorize(request)
        except AuthorizationDenied as exc:
            return Decision.deny(
                reasons=exc.reasons, source="pep"
            ).with_context(exc.context)

    # -- counting -----------------------------------------------------------

    def _settle(self, context: DecisionContext, span: Any, started: float) -> None:
        """The one tail of every finished decision, whatever its outcome.

        Records the ``pep`` stage, counts the outcome, feeds the
        ``authz_*`` registry families, marks the span and appends
        *context* itself to the audit log.  Registry latency is in
        *simulated* seconds, so snapshots are deterministic run to run;
        wall-clock decision time lives in the context's stages.
        """
        context.stages.append(StageRecord("pep", context.duration, self._placement))
        outcome = context.outcome
        if outcome == "permit":
            self.permits += 1
        elif outcome == "deny":
            self.denials += 1
        else:
            self.failures += 1
        telemetry = self.telemetry
        if telemetry is not None:
            key = (context.action, outcome)
            series = self._outcome_series.get(key)
            if series is None:
                registry = telemetry.registry
                series = self._outcome_series[key] = (
                    registry.counter(
                        "authz_decisions_total",
                        help=METRIC_HELP["authz_decisions_total"],
                        labelnames=("action", "decision"),
                    ).labels(action=context.action, decision=outcome),
                    registry.histogram(
                        "authz_latency_seconds",
                        help=METRIC_HELP["authz_latency_seconds"],
                        labelnames=("action", "decision"),
                    ).labels(action=context.action, decision=outcome),
                )
            series[0].inc()
            status = self._cache_series.get(context.cache_status)
            if status is None:
                status = self._cache_series[context.cache_status] = (
                    telemetry.registry.counter(
                        "authz_cache_total",
                        help=METRIC_HELP["authz_cache_total"],
                        labelnames=("status",),
                    ).labels(status=context.cache_status)
                )
            status.inc()
            if context.degraded:
                telemetry.count("authz_degraded_total", mode=context.degraded)
            series[1].observe(telemetry.now() - started)
        if span is not None:
            if outcome == "failure":
                span.set_attr("decision", outcome)
                span.set_attr("failure_source", context.failure_source)
                span.set_attr("failure_kind", context.failure_kind)
            else:
                # ``_value_``: the member's value without the
                # ``value`` property's cost.
                span.set_attr("decision", context.effect._value_)
        self._audit.append(context)

    @property
    def decisions_made(self) -> int:
        return self.permits + self.denials + self.failures

    # -- audit ------------------------------------------------------------

    @property
    def audit_limit(self) -> int:
        return self._audit_limit

    @audit_limit.setter
    def audit_limit(self, limit: int) -> None:
        self._audit_limit = limit
        self._audit = deque(self._audit, maxlen=limit)

    @property
    def audit_log(self) -> Tuple[DecisionContext, ...]:
        """The finished contexts of the last :attr:`audit_limit`
        decisions, oldest first."""
        return tuple(self._audit)

    def __str__(self) -> str:
        return (
            f"PEP[{self.placement.value}] permits={self.permits} "
            f"denials={self.denials} failures={self.failures}"
        )
