"""The explainable decision pipeline.

Historically the authorization path kept its bookkeeping in four
parallel places: counters on :class:`~repro.core.pep.EnforcementPoint`
(``permits``/``denials``/``failures``), the invocation counter on
:class:`~repro.core.callout.CalloutRegistry`, the component hand-off
log in :class:`~repro.gram.protocol.TraceRecorder`, and the
``_trace`` calls sprinkled through the Job Manager.  No single object
could explain one decision end to end.

This module collapses those into one layer:

* :class:`DecisionContext` — one object per authorization decision,
  threaded (via an explicit argument *and* a context variable, so
  deep layers like :class:`~repro.core.combination.CombinedEvaluator`
  need no signature changes) through Gatekeeper → Job Manager → PEP →
  callout chain → policy sources.  It records per-stage timings,
  policy-source provenance (which sources contributed, at which
  epoch, with what effect), the final effect and the cache status.
* :class:`DecisionMiddleware` — the protocol the PEP's middleware
  stack is built from: ``middleware(request, context, call_next)``.
* :class:`MetricsMiddleware` — counters and a simulated-time latency
  histogram, replacing the ad-hoc counters.
* :class:`TracingMiddleware` — retains finished contexts and exports
  them as JSON lines, superseding the scattered trace mechanisms for
  authorization decisions.
* :class:`DecisionCache` — a policy-epoch keyed decision cache:
  every policy source exposes a ``policy_epoch`` token bumped on
  mutation, so cached PERMIT/DENY decisions are invalidated exactly
  when local or VO policy changes.  This makes the paper's
  job-monitoring poll loop (repeated identical ``information``
  checks) measurably faster.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import OrderedDict, deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.decision import Decision, Effect
from repro.core.errors import AuthorizationSystemFailure
from repro.core.request import AuthorizationRequest
from repro.gsi.proxy import PATH_LENGTH_EXTENSION
from repro.obs import spans as obs_spans

_decision_counter = itertools.count(1)

#: Cache-status vocabulary carried by :attr:`DecisionContext.cache_status`.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # no decision cache in the stack


@dataclass(frozen=True)
class StageRecord:
    """One timed stage of a decision (pep, callout, policy source...)."""

    name: str
    duration: float
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "duration": self.duration}
        if self.detail:
            data["detail"] = self.detail
        return data


@dataclass(frozen=True)
class SourceRecord:
    """Provenance of one contributing policy source."""

    name: str
    effect: str
    #: The source's policy epoch at evaluation time (see
    #: :class:`DecisionCache`); ``None`` for sources without one.
    epoch: Any = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "effect": self.effect}
        if self.epoch is not None:
            data["epoch"] = repr(self.epoch)
        if self.detail:
            data["detail"] = self.detail
        return data


@dataclass
class DecisionContext:
    """Everything needed to explain one authorization decision."""

    request_id: str
    requester: str
    action: str
    #: Correlation ID of the enclosing request trace (see
    #: :mod:`repro.obs.spans`) — the join key between audit entries,
    #: trace exports and GRAM responses.  Empty when no tracer was
    #: active for the decision.
    correlation_id: str = ""
    jobtag: str = ""
    jobowner: str = ""
    job_id: str = ""
    placement: str = ""
    stages: List[StageRecord] = field(default_factory=list)
    sources: List[SourceRecord] = field(default_factory=list)
    effect: Optional[Effect] = None
    failure: str = ""
    cache_status: str = CACHE_BYPASS
    duration: float = 0.0
    #: Set by the resilience layer when this decision was served in a
    #: degraded mode (e.g. ``"fail-static"``): the decision is real
    #: but came from the last-known-good store, not a live source.
    degraded: str = ""
    #: The :class:`~repro.core.capability.CapabilityToken` that served
    #: (fast-path hit) or was minted by (fresh PERMIT) this decision;
    #: ``None`` when capability grants are not configured.
    capability: Any = None

    @classmethod
    def from_request(
        cls, request: AuthorizationRequest, placement: str = ""
    ) -> "DecisionContext":
        return cls(
            request_id=f"dec-{next(_decision_counter):d}",
            requester=str(request.requester),
            action=str(request.action),
            jobtag=request.jobtag or "",
            jobowner=str(request.owner),
            job_id=request.job_id,
            placement=placement,
        )

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def stage(self, name: str, detail: str = "") -> Iterator[None]:
        """Time a stage: ``with context.stage("callout:vo"): ...``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_stage(
                name, time.perf_counter() - started, detail=detail
            )

    def record_stage(self, name: str, duration: float, detail: str = "") -> None:
        self.stages.append(
            StageRecord(name=name, duration=duration, detail=detail)
        )

    def add_source(
        self, name: str, effect: Effect, epoch: Any = None, detail: str = ""
    ) -> None:
        self.sources.append(
            SourceRecord(
                name=name, effect=effect.value, epoch=epoch, detail=detail
            )
        )

    def finish(self, decision: Decision) -> None:
        """Mark the decision complete; derive provenance if none recorded."""
        self.effect = decision.effect
        if not self.sources and decision.source:
            self.add_source(decision.source, decision.effect)
        self.duration = sum(s.duration for s in self.stages)

    def finish_failure(self, message: str) -> None:
        self.effect = Effect.INDETERMINATE
        self.failure = message
        self.duration = sum(s.duration for s in self.stages)

    # -- views ---------------------------------------------------------------

    @property
    def source_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.sources)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "correlation_id": self.correlation_id,
            "requester": self.requester,
            "action": self.action,
            "jobtag": self.jobtag,
            "jobowner": self.jobowner,
            "job_id": self.job_id,
            "placement": self.placement,
            "effect": self.effect.value if self.effect is not None else None,
            "failure": self.failure,
            "cache": self.cache_status,
            "degraded": self.degraded,
            "capability": (
                self.capability.token_id if self.capability is not None else ""
            ),
            "duration": self.duration,
            "stages": [s.to_dict() for s in self.stages],
            "sources": [s.to_dict() for s in self.sources],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DecisionContext":
        context = cls(
            request_id=data.get("request_id", ""),
            correlation_id=data.get("correlation_id", ""),
            requester=data.get("requester", ""),
            action=data.get("action", ""),
            jobtag=data.get("jobtag", ""),
            jobowner=data.get("jobowner", ""),
            job_id=data.get("job_id", ""),
            placement=data.get("placement", ""),
            failure=data.get("failure", ""),
            cache_status=data.get("cache", CACHE_BYPASS),
            degraded=data.get("degraded", ""),
            duration=float(data.get("duration", 0.0)),
        )
        if data.get("effect"):
            context.effect = Effect(data["effect"])
        for stage in data.get("stages", ()):
            context.record_stage(
                stage["name"],
                float(stage.get("duration", 0.0)),
                detail=stage.get("detail", ""),
            )
        for source in data.get("sources", ()):
            context.sources.append(
                SourceRecord(
                    name=source["name"],
                    effect=source.get("effect", ""),
                    epoch=source.get("epoch"),
                    detail=source.get("detail", ""),
                )
            )
        return context

    def explain(self) -> str:
        """A human-readable end-to-end account of the decision."""
        outcome = self.effect.value if self.effect is not None else "unfinished"
        lines = [
            f"{self.request_id}: {self.requester} requested {self.action}"
            + (f" on job {self.job_id}" if self.job_id else "")
            + f" -> {outcome}"
            + (f" [{self.failure}]" if self.failure else "")
            + (f" [degraded: {self.degraded}]" if self.degraded else "")
            + f" (cache={self.cache_status}, {self.duration * 1e6:.1f}us)"
        ]
        for source in self.sources:
            epoch = f" @epoch={source.epoch!r}" if source.epoch is not None else ""
            lines.append(f"  source {source.name}: {source.effect}{epoch}")
        for stage in self.stages:
            lines.append(f"  stage {stage.name}: {stage.duration * 1e6:.1f}us")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


# -- context threading ---------------------------------------------------

_current_context: ContextVar[Optional[DecisionContext]] = ContextVar(
    "repro_decision_context", default=None
)


def current_context() -> Optional[DecisionContext]:
    """The DecisionContext of the in-flight decision, if any.

    Deep layers (policy evaluators, combination) call this instead of
    growing a ``context`` parameter on every callout signature.
    """
    return _current_context.get()


class activate:
    """Make *context* the current decision for the dynamic extent.

    A hand-rolled context manager (not ``@contextmanager``): this
    wraps every single decision, and the generator-based protocol
    costs several times the two contextvar operations it exists to
    pair up.
    """

    __slots__ = ("context", "_token")

    def __init__(self, context: DecisionContext) -> None:
        self.context = context

    def __enter__(self) -> DecisionContext:
        self._token = _current_context.set(self.context)
        return self.context

    def __exit__(self, *exc_info: Any) -> None:
        _current_context.reset(self._token)


# -- middleware -------------------------------------------------------------

#: ``call_next(request, context) -> Decision`` — the rest of the stack.
NextHandler = Callable[[AuthorizationRequest, DecisionContext], Decision]

#: A decision middleware: ``middleware(request, context, call_next)``.
#: It may short-circuit (return without calling *call_next*), observe,
#: or transform the decision.  System failures propagate as
#: :class:`AuthorizationSystemFailure` and must be re-raised.
DecisionMiddleware = Callable[
    [AuthorizationRequest, DecisionContext, NextHandler], Decision
]


def compose(
    middlewares: Sequence[DecisionMiddleware], terminal: NextHandler
) -> NextHandler:
    """Build the onion: first middleware outermost, *terminal* innermost."""
    handler = terminal
    for middleware in reversed(list(middlewares)):
        handler = _wrap(middleware, handler)
    return handler


def _wrap(middleware: DecisionMiddleware, nxt: NextHandler) -> NextHandler:
    def run(request: AuthorizationRequest, context: DecisionContext) -> Decision:
        return middleware(request, context, nxt)

    return run


class MetricsMiddleware:
    """Counters and latency histogram for the decision pipeline.

    Replaces the old ad-hoc ``permits``/``denials``/``failures``
    counters on the PEP (which now delegate here) and gives the
    operator a latency distribution per outcome.  Wall-clock decision
    time lives in the :class:`DecisionContext` stages.

    Since the unified telemetry subsystem (:mod:`repro.obs`) this is
    a thin adapter: the plain attribute counters keep their historic
    API, and — when a :class:`~repro.obs.registry.MetricsRegistry` is
    attached — every decision additionally feeds the *labeled*
    families (``authz_decisions_total{action, decision}``,
    ``authz_cache_total{status}``, ``authz_latency_seconds{action,
    decision}``).  The labeled latency is measured in *simulated*
    seconds (when a clock is attached), so registry snapshots are
    deterministic run to run.
    """

    name = "metrics"

    def __init__(self, registry: Any = None, clock: Any = None) -> None:
        self.registry = registry
        self.clock = clock
        # (registry, decisions, cache, latency) family handles, cached
        # on first use so the per-decision path skips name resolution.
        self._families = None
        self.permits = 0
        self.denials = 0
        self.failures = 0
        self.invocations = 0
        self.cache_hits = 0
        self.degraded = 0

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        self.invocations += 1
        started_sim = self.clock.now if self.clock is not None else 0.0
        try:
            decision = call_next(request, context)
        except AuthorizationSystemFailure:
            self.failures += 1
            self._observe_registry(context, "failure", started_sim)
            raise
        if decision.is_permit:
            self.permits += 1
            outcome = "permit"
        else:
            self.denials += 1
            outcome = "deny"
        if context.cache_status == CACHE_HIT:
            self.cache_hits += 1
        if context.degraded:
            self.degraded += 1
        self._observe_registry(context, outcome, started_sim)
        return decision

    def _observe_registry(
        self, context: DecisionContext, outcome: str, started_sim: float
    ) -> None:
        registry = self.registry
        if registry is None:
            return
        cached = self._families
        if cached is None or cached[0] is not registry:
            cached = self._families = (
                registry,
                registry.counter(
                    "authz_decisions_total",
                    help="Authorization decisions by final outcome",
                    labelnames=("action", "decision"),
                ),
                registry.counter(
                    "authz_cache_total",
                    help="Decision-cache lookups by status",
                    labelnames=("status",),
                ),
                registry.histogram(
                    "authz_latency_seconds",
                    help="End-to-end decision latency (simulated)",
                    labelnames=("action", "decision"),
                ),
                {},  # (action, outcome) -> (counter, histogram) series
                {},  # cache status -> counter series
            )
        _, decisions, cache, latency, by_outcome, by_status = cached
        key = (context.action, outcome)
        series = by_outcome.get(key)
        if series is None:
            series = by_outcome[key] = (
                decisions.labels(action=context.action, decision=outcome),
                latency.labels(action=context.action, decision=outcome),
            )
        series[0].inc()
        status_counter = by_status.get(context.cache_status)
        if status_counter is None:
            status_counter = by_status[context.cache_status] = cache.labels(
                status=context.cache_status
            )
        status_counter.inc()
        if context.degraded:
            registry.count(
                "authz_degraded_total",
                help="Decisions served in a degraded mode",
                mode=context.degraded,
            )
        elapsed_sim = (
            self.clock.now - started_sim if self.clock is not None else 0.0
        )
        series[1].observe(elapsed_sim)

    @property
    def decisions(self) -> int:
        return self.permits + self.denials + self.failures

    def snapshot(self) -> Dict[str, Any]:
        return {
            "invocations": self.invocations,
            "permits": self.permits,
            "denials": self.denials,
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "degraded": self.degraded,
        }

    def __str__(self) -> str:
        return (
            f"metrics[permits={self.permits} denials={self.denials} "
            f"failures={self.failures} cache_hits={self.cache_hits}]"
        )


class TracingMiddleware:
    """Retains finished DecisionContexts; exports them as JSON lines.

    One structured record per decision — stages, provenance, outcome —
    superseding the three separate trace mechanisms (PEP audit
    counters, registry invocation counter, component TraceRecorder)
    for authorization decisions.

    Retention is bounded by deque semantics: the oldest context is
    evicted when the limit is reached, the eviction is counted on
    :attr:`dropped`, and — when a metrics registry is attached —
    surfaced as the ``tracing_dropped_total`` counter instead of
    being silently discarded.
    """

    name = "tracing"

    def __init__(self, limit: int = 10_000, registry: Any = None) -> None:
        self._limit = limit
        self._records: deque = deque(maxlen=limit)
        self.registry = registry
        self.dropped = 0

    @property
    def limit(self) -> int:
        return self._limit

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        try:
            return call_next(request, context)
        finally:
            if len(self._records) == self._limit:
                self.dropped += 1
                if self.registry is not None:
                    self.registry.count(
                        "tracing_dropped_total",
                        help="Decision traces evicted by retention",
                    )
            self._records.append(context)

    @property
    def records(self) -> Tuple[DecisionContext, ...]:
        return tuple(self._records)

    def to_jsonl(self) -> str:
        return "\n".join(record.to_json() for record in self._records)

    def export(self, path: str) -> int:
        """Write retained decisions as JSON lines; returns count."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(record.to_json() + "\n")
                count += 1
        return count

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


# -- the policy-epoch decision cache ----------------------------------------


#: Memo sentinel: ``None`` is a valid memoized key ("decide fresh").
_UNKEYED = object()


def request_key(request: AuthorizationRequest) -> Optional[Tuple[Any, ...]]:
    """The identity of an authorization question, minus policy state.

    Shared by the :class:`DecisionCache` (which appends the policy
    epochs), the capability store, and the resilience layer's
    last-known-good store (which stores the epochs alongside and
    compares them at serve time).  The job description is included so
    two start requests sharing a jobtag but asking for different
    things never collide.

    This is the one place that decides whether a request may be
    replayed at all: it returns ``None`` when the presented credential
    carries a delegated policy (see :func:`carries_delegated_policy`).
    Such a request is decided fresh every time — never looked up,
    stored or minted by any repeat path — because the key leaves the
    credential out, while a credential-aware source (a CAS restricted
    proxy) decides from it: the same question under another
    credential, or after the carried assertion expires, can have a
    different answer.

    The key is memoized on the (frozen) request: repeat traffic hits
    the decision cache, the last-known-good store and the capability
    store with the same tuple object, so the component strings keep
    their cached hashes instead of being re-rendered per lookup.
    """
    cached = request.__dict__.get("_request_key", _UNKEYED)
    if cached is _UNKEYED:
        credential = request.credential
        # An identity credential (no chain, no extensions) costs two
        # attribute reads; only a proxy or extended certificate is
        # scanned.
        if (
            credential is not None
            and (credential.chain or credential.certificate.extensions)
            and carries_delegated_policy(credential)
        ):
            cached = None
        else:
            cached = (
                str(request.requester),
                request.action.value,
                request.jobtag,
                str(request.owner),
                request.job_description,
            )
        object.__setattr__(request, "_request_key", cached)
    return cached


def carries_delegated_policy(credential: Any) -> bool:
    """True when *credential*'s chain carries policy of its own.

    A plain identity credential (no chain, no extensions) and an
    impersonation proxy carry none.  Any certificate extension other
    than the proxy path length — a restricted proxy's policy, a CAS
    assertion — is treated as policy a source may decide from.
    """
    return any(
        name != PATH_LENGTH_EXTENSION
        for certificate in credential.full_chain()
        for name, _ in certificate.extensions
    )


def epoch_of(source: Any) -> Any:
    """The policy epoch of *source*: its ``policy_epoch`` attribute.

    Any hashable token works; sources bump it on every policy
    mutation.  Zero-argument callables are invoked (so a lambda over a
    clock or store can serve as an epoch source).
    """
    epoch = getattr(source, "policy_epoch", None)
    if epoch is None and callable(source):
        epoch = source()
    return epoch


class DecisionCache:
    """Middleware caching PERMIT/DENY decisions across identical requests.

    The key is ``(subject DN, action, jobtag, jobowner, job
    description, policy epochs)`` — the job description is included so
    two start requests that share a jobtag but differ in what they ask
    for never collide.  ``epoch_sources`` are the policy sources whose
    ``policy_epoch`` tokens enter the key: mutate any source (install
    a new policy version, enroll a VO member, open a time window) and
    every previously cached decision is invalidated, because no future
    key can match it.

    System failures are never cached — a broken authorization system
    must stay visibly broken, not replay a stale decision — and nor is
    any request :func:`request_key` refuses to key: it passes straight
    through with ``cache_status`` left at ``"bypass"``.
    """

    name = "decision-cache"

    def __init__(
        self,
        epoch_sources: Sequence[Any] = (),
        maxsize: int = 4096,
    ) -> None:
        self.epoch_sources = list(epoch_sources)
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Tuple[Decision, Tuple[SourceRecord, ...]]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def add_epoch_source(self, source: Any) -> None:
        self.epoch_sources.append(source)

    def _epochs(self) -> Tuple[Any, ...]:
        return tuple(epoch_of(source) for source in self.epoch_sources)

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        key = request_key(request)
        if key is None:
            return call_next(request, context)
        key += (self._epochs(),)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            context.cache_status = CACHE_HIT
            decision, sources = cached
            context.sources.extend(sources)
            context.record_stage("cache", 0.0, detail="hit")
            obs_spans.event("cache", "hit")
            return decision
        self.misses += 1
        context.cache_status = CACHE_MISS
        decision = call_next(request, context)
        if decision.effect in (Effect.PERMIT, Effect.DENY):
            self._entries[key] = (decision, tuple(context.sources))
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return decision

    def invalidate(self) -> None:
        """Drop every cached decision (epoch bumps do this implicitly)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        return (
            f"decision-cache[{len(self._entries)}/{self.maxsize} "
            f"hits={self.hits} misses={self.misses}]"
        )


class EpochCounter:
    """A minimal mutation counter usable as a ``policy_epoch`` source.

    Policy-holding classes embed one and call :meth:`bump` from every
    mutator; the decision cache reads :attr:`policy_epoch`.
    """

    def __init__(self) -> None:
        self._epoch = 0

    def bump(self) -> int:
        self._epoch += 1
        return self._epoch

    @property
    def policy_epoch(self) -> int:
        return self._epoch

    def __int__(self) -> int:
        return self._epoch
