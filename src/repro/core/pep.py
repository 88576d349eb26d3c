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
records an audit entry, and either returns the PERMIT decision
(context attached) or raises :class:`AuthorizationDenied` /
:class:`AuthorizationSystemFailure` (context attached to the
exception).
"""

from __future__ import annotations

import enum
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, NamedTuple, Optional, Tuple

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


class AuditRecord(NamedTuple):
    """One authorization decision, as recorded by the PEP."""

    request: AuthorizationRequest
    decision: Optional[Decision]
    failure: str = ""
    #: For system failures: which callout/policy source broke, and how
    #: (``"timeout"``, ``"breaker-open"``, plain ``"error"``) — the
    #: same attribution the GRAM response carries.
    failure_source: str = ""
    failure_kind: str = ""
    #: The pipeline context, when the record came through the
    #: middleware stack — the full explanation of this line.
    context: Optional[DecisionContext] = None

    @property
    def permitted(self) -> bool:
        return self.decision is not None and self.decision.is_permit


class EnforcementPoint:
    """A PEP bound to a callout registry, a placement and a fixed stack.

    The stack runs outermost-first: resilience (once hardened), then
    capability grants, then the decision cache sitting directly in
    front of the callout chain, each only when configured — so a hit
    skips policy evaluation entirely.  The PEP itself counts every
    outcome (:attr:`permits`, :attr:`denials`, :attr:`failures`), feeds
    the ``authz_*`` telemetry families, and keeps the audit log: its
    one per-decision record.
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
        self._audit: Deque[AuditRecord] = deque(maxlen=audit_limit)

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

    def authorize(
        self,
        request: AuthorizationRequest,
        context: Optional[DecisionContext] = None,
    ) -> Decision:
        """Authorize *request* or raise.

        Returns the PERMIT decision (with its
        :class:`~repro.core.pipeline.DecisionContext` attached) on
        success.  Raises :class:`AuthorizationDenied` carrying the
        policy reasons and context on denial, and
        :class:`AuthorizationSystemFailure` when no decision could be
        made (fails closed).
        """
        placement = self._placement
        if context is None:
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
                    duration = perf_counter() - wall
                    context.stages.append(StageRecord("pep", duration, placement))
                    self.failures += 1
                    self._observe(context, "failure", started)
                    context.finish_failure(str(exc), duration)
                    exc.context = context
                    if span is not None:
                        span.set_attr("decision", "failure")
                        span.set_attr("failure_source", exc.source or "")
                        span.set_attr("failure_kind", exc.kind)
                    self._audit.append(
                        AuditRecord(
                            request,
                            None,
                            str(exc),
                            exc.source or "",
                            exc.kind,
                            context,
                        )
                    )
                    raise
                duration = perf_counter() - wall
                context.stages.append(StageRecord("pep", duration, placement))
                permitted = decision.effect is Effect.PERMIT
                if permitted:
                    self.permits += 1
                    outcome = "permit"
                else:
                    self.denials += 1
                    outcome = "deny"
                self._observe(context, outcome, started)
                if span is not None:
                    # ``_value_``: the member's value without the
                    # ``value`` property's cost.
                    span.set_attr("decision", decision.effect._value_)
        finally:
            _current_context.reset(token)
        context.finish(decision, duration)
        decision = decision.with_context(context)
        self._audit.append(AuditRecord(request, decision, "", "", "", context))
        if permitted:
            return decision
        raise AuthorizationDenied(
            f"{request} denied" + (f" by {decision.source}" if decision.source else ""),
            reasons=decision.reasons,
            context=context,
        )

    def decide(
        self,
        request: AuthorizationRequest,
        context: Optional[DecisionContext] = None,
    ) -> Decision:
        """Like :meth:`authorize` but never raises on denial.

        System failures are still raised — callers must not confuse a
        broken authorization system with a policy denial.
        """
        try:
            return self.authorize(request, context=context)
        except AuthorizationDenied as exc:
            return Decision.deny(
                reasons=exc.reasons, source="pep"
            ).with_context(exc.context)

    # -- counting -----------------------------------------------------------

    def _observe(
        self, context: DecisionContext, outcome: str, started: float
    ) -> None:
        """Feed one decision into the ``authz_*`` registry families.

        Latency is measured in *simulated* seconds, so registry
        snapshots are deterministic run to run; wall-clock decision
        time lives in the :class:`DecisionContext` stages.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
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
    def audit_log(self) -> Tuple[AuditRecord, ...]:
        return tuple(self._audit)

    def __str__(self) -> str:
        return (
            f"PEP[{self.placement.value}] permits={self.permits} "
            f"denials={self.denials} failures={self.failures}"
        )
