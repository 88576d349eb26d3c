"""Resilient policy-source callouts: timeouts, retries, circuit breakers.

The paper's extended GRAM protocol distinguishes *authorization
denial* from *authorization-system failure* (§5.2), and its NFC
deployment leans on remote policy sources — CAS-signed policies,
Akenti use-conditions — that can be slow, flaky or unreachable.  The
callout chain historically treated every such hiccup identically: one
failing source turned every decision into an
:class:`~repro.core.errors.AuthorizationSystemFailure` forever.

This module wraps individual callouts and policy sources with the
classic resilience triad, all deterministic under the simulated clock
(:mod:`repro.sim.clock`):

* **per-call timeouts** — a call whose *simulated* duration exceeds
  the budget is converted into a :class:`CalloutTimeout` (a system
  failure naming the source), even though the underlying call
  eventually "returned";
* **bounded retry with exponential backoff + jitter** — transient
  failures are retried; backoff delays advance the simulated clock
  and jitter comes from a seeded RNG, so runs are reproducible;
* **a per-source circuit breaker** — ``closed → open → half-open``;
  an open breaker *fast-fails* without invoking the source at all,
  and resets either after a timeout or when the source's policy epoch
  bumps (a new policy version may well fix the outage).

Degradation is explicit and paper-faithful, selected per
:class:`ResilienceMiddleware`:

* :attr:`DegradationMode.FAIL_CLOSED` — deny with an
  :class:`~repro.core.errors.AuthorizationSystemFailure` naming the
  failed source (the paper's default posture);
* :attr:`DegradationMode.FAIL_STATIC` — serve the last-known-good
  decision *for the same policy epochs*, flagged in the decision's
  provenance (``context.degraded``).  Any move of the
  :class:`~repro.core.pipeline.EpochView` the other repeat paths
  watch too invalidates every stale decision: fail-static never
  serves across an epoch change.

Every retry, breaker transition, fast-fail and degraded decision is
recorded on the active :class:`~repro.core.pipeline.DecisionContext`.
Retries, failures, fast-fails and degraded decisions are counted in
:class:`ResilienceMetrics`; breaker transitions are logged once, on
:attr:`CircuitBreaker.transitions` (and, with a registry, in
``breaker_transitions_total``).
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.decision import Decision, Effect
from repro.core.errors import AuthorizationSystemFailure
from repro.core.pipeline import (
    DecisionContext,
    EpochView,
    NextHandler,
    ReplayEntry,
    ReplayStore,
    SourceRecord,
    current_context,
    epoch_of,
    request_key,
)
from repro.core.request import AuthorizationRequest
from repro.obs.spans import event as obs_event
from repro.sim.clock import Clock

#: Numeric encoding of breaker states for the ``breaker_state`` gauge.
_BREAKER_GAUGE = {"closed": 0, "half-open": 1, "open": 2}


class CalloutTimeout(AuthorizationSystemFailure):
    """A callout exceeded its per-call time budget."""

    kind = "timeout"


class BreakerOpen(AuthorizationSystemFailure):
    """A call was refused without invoking the source: breaker open."""

    kind = "breaker-open"


# -- retry -------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``delays()`` yields the backoff before each retry (so a policy
    with ``max_attempts=3`` yields two delays).  Jitter multiplies
    each delay by a factor drawn from ``[1 - jitter, 1 + jitter]``
    using a seeded RNG — deterministic run to run, yet desynchronised
    across sources with different seeds.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 10.0
    jitter: float = 0.1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self) -> Iterator[float]:
        """Backoff delays, one per retry, deterministic for this policy."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            spread = rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            yield min(delay, self.max_delay) * spread
            delay *= self.multiplier


# -- circuit breaker ---------------------------------------------------------


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state change, for audit and consistency checks."""

    at: float
    from_state: BreakerState
    to_state: BreakerState
    reason: str = ""

    def __str__(self) -> str:
        return (
            f"{self.from_state.value} -> {self.to_state.value}"
            f" @{self.at} ({self.reason})"
        )


class CircuitBreaker:
    """Per-source circuit breaker with policy-epoch-aware reset.

    * ``CLOSED`` — calls pass through; ``failure_threshold``
      consecutive failures open the breaker.
    * ``OPEN`` — calls fast-fail (:class:`BreakerOpen`) without
      touching the source.  After ``reset_timeout`` simulated seconds
      — or as soon as the source's policy epoch changes — the breaker
      moves to half-open.
    * ``HALF_OPEN`` — exactly one probe call is let through; its
      success closes the breaker, its failure re-opens it.  Concurrent
      callers fast-fail while the probe is in flight.

    Thread-safe: every state read/transition happens under a lock, so
    concurrent enforcement points observe a consistent transition
    sequence (see :meth:`is_consistent`).
    """

    def __init__(
        self,
        name: str,
        clock: Optional[Clock] = None,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        epoch_source: Any = None,
        registry: Any = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.epoch_source = epoch_source
        self.registry = registry
        self._lock = threading.RLock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._opened_epoch: Any = None
        self._probe_in_flight = False
        self._transitions: List[BreakerTransition] = []
        self.fast_fails = 0

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._poll()
            return self._state

    @property
    def transitions(self) -> Tuple[BreakerTransition, ...]:
        with self._lock:
            return tuple(self._transitions)

    def is_consistent(self) -> bool:
        """True when the transition log forms an unbroken state chain."""
        with self._lock:
            previous = BreakerState.CLOSED
            for transition in self._transitions:
                if transition.from_state is not previous:
                    return False
                previous = transition.to_state
            return True

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _transition(self, to_state: BreakerState, reason: str) -> None:
        self._transitions.append(
            BreakerTransition(
                at=self._now(),
                from_state=self._state,
                to_state=to_state,
                reason=reason,
            )
        )
        self._state = to_state
        transition = self._transitions[-1]
        context = current_context()
        if context is not None:
            context.record_stage(
                f"breaker:{self.name}",
                0.0,
                detail=f"{transition.from_state.value}"
                f"->{to_state.value}: {reason}",
            )
        obs_event(
            "breaker",
            f"{self.name}: {transition.from_state.value}"
            f"->{to_state.value} ({reason})",
        )
        if self.registry is not None:
            self.registry.set_gauge(
                "breaker_state",
                _BREAKER_GAUGE[to_state.value],
                help="Circuit-breaker state (0 closed, 1 half-open, 2 open)",
                source=self.name,
            )
            self.registry.count(
                "breaker_transitions_total",
                help="Circuit-breaker transitions by target state",
                source=self.name,
                to=to_state.value,
            )

    def _poll(self) -> None:
        """Apply time- and epoch-driven transitions out of OPEN."""
        if self._state is not BreakerState.OPEN:
            return
        if self.epoch_source is not None:
            epoch = epoch_of(self.epoch_source)
            if epoch != self._opened_epoch:
                self._transition(BreakerState.HALF_OPEN, "policy-epoch bump")
                return
        if (
            self.clock is not None
            and self._opened_at is not None
            and self._now() - self._opened_at >= self.reset_timeout
        ):
            self._transition(BreakerState.HALF_OPEN, "reset timeout elapsed")

    # -- call gating ---------------------------------------------------------

    def before_call(self) -> None:
        """Gate one call; raises :class:`BreakerOpen` on fast-fail."""
        with self._lock:
            self._poll()
            if self._state is BreakerState.CLOSED:
                return
            if self._state is BreakerState.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return
            self.fast_fails += 1
            raise BreakerOpen(
                f"circuit breaker for {self.name!r} is "
                f"{self._state.value}: failing fast",
                source=self.name,
            )

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state is not BreakerState.CLOSED:
                self._transition(BreakerState.CLOSED, "call succeeded")

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            if self._state is BreakerState.HALF_OPEN:
                self._open("probe failed")
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open(
                    f"{self._consecutive_failures} consecutive failure(s)"
                )

    def _open(self, reason: str) -> None:
        self._opened_at = self._now()
        self._opened_epoch = (
            epoch_of(self.epoch_source) if self.epoch_source is not None else None
        )
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN, reason)

    def __str__(self) -> str:
        return f"breaker[{self.name}:{self.state.value}]"


# -- metrics -----------------------------------------------------------------


class ResilienceMetrics:
    """Counters for the resilience layer, shared across wrapped sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.retries = 0
        self.timeouts = 0
        self.failures = 0
        self.fast_fails = 0
        self.degraded_static = 0
        self.failed_closed = 0

    def count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "retries": self.retries,
                "timeouts": self.timeouts,
                "failures": self.failures,
                "fast_fails": self.fast_fails,
                "degraded_static": self.degraded_static,
                "failed_closed": self.failed_closed,
            }

    def __str__(self) -> str:
        return (
            f"resilience[retries={self.retries} timeouts={self.timeouts} "
            f"fast_fails={self.fast_fails} degraded={self.degraded_static}]"
        )


# -- the resilient callout wrapper --------------------------------------------


class ResilientCallout:
    """Wraps one callout/policy-source callable with the resilience triad.

    The wrapped callable keeps the callout contract
    (``request -> Decision``) so it drops into a
    :class:`~repro.core.callout.CalloutRegistry` unchanged.  Timeouts
    are measured in *simulated* time: a fault harness (or a real
    source model) that advances the clock past ``timeout`` during the
    call turns the result into a :class:`CalloutTimeout`.
    """

    def __init__(
        self,
        callout: Callable[[AuthorizationRequest], Decision],
        name: str,
        clock: Optional[Clock] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[ResilienceMetrics] = None,
        registry: Any = None,
    ) -> None:
        self.callout = callout
        self.name = name
        self.clock = clock
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        self.metrics = metrics if metrics is not None else ResilienceMetrics()
        self.registry = registry
        self.__name__ = f"resilient:{name}"

    @property
    def __wrapped__(self) -> Callable[[AuthorizationRequest], Decision]:
        """The wrapped callout (the ``functools.wraps`` convention)."""
        return self.callout

    def _count(self, name: str, help: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.count(name, help=help, **labels)

    def __call__(self, request: AuthorizationRequest) -> Decision:
        context = current_context()
        attempts = self.retry.max_attempts if self.retry is not None else 1
        delays = self.retry.delays() if self.retry is not None else iter(())
        failure: Optional[AuthorizationSystemFailure] = None
        for attempt in range(1, attempts + 1):
            failure = self._gate(context)
            if failure is None:
                failure = self._attempt(request, attempt, context)
                if failure is None:
                    if self.breaker is not None:
                        self.breaker.record_success()
                    return self._last_decision
                if self.breaker is not None:
                    self.breaker.record_failure()
            if isinstance(failure, BreakerOpen):
                # Retrying against an open breaker is pointless; the
                # whole point of the breaker is to shed this load.
                break
            if attempt < attempts:
                self.metrics.count("retries")
                self._count(
                    "resilience_retries_total",
                    "Callout retry attempts",
                    source=self.name,
                )
                delay = next(delays, 0.0)
                if context is not None:
                    context.record_stage(
                        f"retry:{self.name}",
                        delay,
                        detail=f"attempt {attempt} failed; backoff {delay:.4f}s",
                    )
                obs_event(
                    "retry",
                    f"{self.name}: attempt {attempt} failed; "
                    f"backoff {delay:.4f}s",
                )
                self._sleep(delay)
        assert failure is not None
        if not failure.source:
            failure.source = self.name
        raise failure

    # -- internals ---------------------------------------------------------

    def _gate(
        self, context: Optional[DecisionContext]
    ) -> Optional[AuthorizationSystemFailure]:
        if self.breaker is None:
            return None
        try:
            self.breaker.before_call()
        except BreakerOpen as exc:
            self.metrics.count("fast_fails")
            self._count(
                "resilience_fast_fails_total",
                "Calls shed by an open breaker",
                source=self.name,
            )
            if context is not None:
                context.record_stage(
                    f"breaker:{self.name}", 0.0, detail="fast-fail"
                )
            obs_event("fast-fail", f"{self.name}: breaker open")
            return exc
        return None

    def _attempt(
        self,
        request: AuthorizationRequest,
        attempt: int,
        context: Optional[DecisionContext],
    ) -> Optional[AuthorizationSystemFailure]:
        started_sim = self.clock.now if self.clock is not None else None
        started = time.perf_counter()
        try:
            decision = self.callout(request)
        except AuthorizationSystemFailure as exc:
            self.metrics.count("failures")
            if not exc.source:
                exc.source = self.name
            self._count(
                "resilience_failures_total",
                "Callout failures by kind",
                source=self.name,
                failure_kind=exc.kind or "error",
            )
            self._record_attempt(context, attempt, started, str(exc))
            return exc
        except Exception as exc:
            self.metrics.count("failures")
            self._count(
                "resilience_failures_total",
                "Callout failures by kind",
                source=self.name,
                failure_kind="error",
            )
            self._record_attempt(
                context, attempt, started, f"{type(exc).__name__}: {exc}"
            )
            return AuthorizationSystemFailure(
                f"source {self.name!r} raised {type(exc).__name__}: {exc}",
                source=self.name,
            )
        if (
            self.timeout is not None
            and started_sim is not None
            and self.clock.now - started_sim > self.timeout
        ):
            elapsed = self.clock.now - started_sim
            self.metrics.count("timeouts")
            self._count(
                "resilience_timeouts_total",
                "Callout timeouts",
                source=self.name,
            )
            self._record_attempt(
                context,
                attempt,
                started,
                f"timed out ({elapsed:.3f}s > {self.timeout:.3f}s)",
            )
            obs_event(
                "timeout",
                f"{self.name}: {elapsed:.3f}s > budget {self.timeout:.3f}s",
            )
            return CalloutTimeout(
                f"source {self.name!r} timed out after {elapsed:.3f}s "
                f"(budget {self.timeout:.3f}s)",
                source=self.name,
            )
        self._last_decision = decision
        return None

    def _record_attempt(
        self,
        context: Optional[DecisionContext],
        attempt: int,
        started: float,
        detail: str,
    ) -> None:
        if context is not None:
            context.record_stage(
                f"attempt:{self.name}#{attempt}",
                time.perf_counter() - started,
                detail=detail,
            )

    def _sleep(self, delay: float) -> None:
        if delay > 0 and self.clock is not None:
            self.clock.advance(delay)


# -- degradation middleware ---------------------------------------------------


class DegradationMode(enum.Enum):
    """What the PEP does when the authorization system fails."""

    #: Deny with a system-failure error naming the failed source.
    FAIL_CLOSED = "fail-closed"
    #: Serve the last-known-good decision for the same policy epoch,
    #: flagged in provenance; fail closed when none exists.
    FAIL_STATIC = "fail-static"


class ResilienceMiddleware:
    """Decision middleware applying the configured degradation mode.

    The outermost layer of the PEP's stack, in front of capability
    grants and the decision cache.  An
    :class:`~repro.core.errors.AuthorizationSystemFailure` escaping
    the inner stack is either re-raised (fail-closed) or — in
    fail-static mode — replaced by the last-known-good decision for
    the request *if and only if* the *view* still reports the snapshot
    the decision was computed under.  Only fail-static records
    PERMIT/DENY decisions in its bounded store; nothing else reads
    it.  Degraded decisions are flagged on
    ``context.degraded``, recorded as a pipeline stage, and counted.
    """

    name = "resilience"

    def __init__(
        self,
        mode: DegradationMode = DegradationMode.FAIL_CLOSED,
        view: Optional[EpochView] = None,
        metrics: Optional[ResilienceMetrics] = None,
        lkg_limit: int = 4096,
        registry: Any = None,
    ) -> None:
        self.mode = mode
        self.view = view if view is not None else EpochView()
        self.metrics = metrics if metrics is not None else ResilienceMetrics()
        self.registry = registry
        self._lkg = ReplayStore(lkg_limit)

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        static = self.mode is DegradationMode.FAIL_STATIC
        key = request_key(request) if static else None
        epochs = self.view.snapshot() if key is not None else ()
        try:
            decision = call_next(request, context)
        except AuthorizationSystemFailure as exc:
            return self._degrade(key, context, exc)
        if (
            key is not None
            and decision.effect in (Effect.PERMIT, Effect.DENY)
            # The clock may move while the chain decides (latency,
            # retry backoff): a decision the view moved under belongs
            # to neither snapshot, so it is not stored.
            and self.view.snapshot() == epochs
        ):
            # context.finish() derives a fallback SourceRecord from
            # decision.source only after the chain unwinds — derive it
            # here too so replayed decisions keep their provenance.
            sources = tuple(context.sources)
            if not sources and decision.source:
                sources = (
                    SourceRecord(
                        name=decision.source, effect=decision.effect.value
                    ),
                )
            self._lkg.put(key, ReplayEntry(decision, sources, epochs))
            if self.registry is not None:
                self.registry.set_gauge(
                    "resilience_lkg_size",
                    len(self._lkg),
                    help="Entries in the last-known-good store",
                )
        return decision

    def _degrade(
        self,
        key: Any,
        context: DecisionContext,
        failure: AuthorizationSystemFailure,
    ) -> Decision:
        source = failure.source or "unknown"
        if key is not None:
            entry = self._lkg.get(key)
            if entry is not None and entry.epochs == self.view.snapshot():
                self.metrics.count("degraded_static")
                if self.registry is not None:
                    self.registry.count(
                        "resilience_degraded_total",
                        help="Decisions served from the last-known-good store",
                        source=source,
                    )
                obs_event(
                    "degraded",
                    f"fail-static: serving last-known-good after "
                    f"failure of {source}",
                )
                context.degraded = DegradationMode.FAIL_STATIC.value
                context.record_stage(
                    "resilience",
                    0.0,
                    detail=(
                        f"degraded: serving last-known-good decision "
                        f"after failure of {source}"
                    ),
                )
                for record in entry.sources:
                    context.sources.append(
                        SourceRecord(
                            name=record.name,
                            effect=record.effect,
                            epoch=record.epoch,
                            detail="last-known-good",
                        )
                    )
                return entry.decision
        self.metrics.count("failed_closed")
        context.record_stage(
            "resilience", 0.0, detail=f"fail-closed: {source}"
        )
        raise failure

    @property
    def lkg_size(self) -> int:
        return len(self._lkg)

    def __str__(self) -> str:
        return f"resilience[{self.mode.value} lkg={self.lkg_size}]"


# -- configuration bundle -----------------------------------------------------


@dataclass
class ResilienceConfig:
    """Shared knobs for wrapping many sources identically.

    ``wrap`` produces a :class:`ResilientCallout` with its own
    per-source :class:`CircuitBreaker`, all feeding one shared
    :class:`ResilienceMetrics`.  ``middleware`` builds the matching
    :class:`ResilienceMiddleware` for the PEP stack.
    """

    clock: Optional[Clock] = None
    timeout: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    failure_threshold: int = 5
    reset_timeout: float = 30.0
    mode: DegradationMode = DegradationMode.FAIL_CLOSED
    metrics: ResilienceMetrics = field(default_factory=ResilienceMetrics)
    breakers: Dict[str, CircuitBreaker] = field(default_factory=dict)
    #: Optional :class:`~repro.obs.registry.MetricsRegistry`: when set,
    #: every wrapper/breaker/middleware built here also emits the
    #: labeled telemetry families (retry/timeout/failure counters per
    #: source, breaker-state gauges, fail-static serve counter, LKG
    #: store size).
    registry: Any = None

    def breaker_for(
        self, name: str, epoch_source: Any = None
    ) -> CircuitBreaker:
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                clock=self.clock,
                failure_threshold=self.failure_threshold,
                reset_timeout=self.reset_timeout,
                epoch_source=epoch_source,
                registry=self.registry,
            )
            self.breakers[name] = breaker
        return breaker

    def wrap(
        self,
        callout: Callable[[AuthorizationRequest], Decision],
        name: str,
        epoch_source: Any = None,
    ) -> ResilientCallout:
        return ResilientCallout(
            callout,
            name=name,
            clock=self.clock,
            timeout=self.timeout,
            retry=self.retry,
            breaker=self.breaker_for(name, epoch_source=epoch_source),
            metrics=self.metrics,
            registry=self.registry,
        )

    def middleware(self, view: Optional[EpochView] = None) -> ResilienceMiddleware:
        return ResilienceMiddleware(
            mode=self.mode,
            view=view,
            metrics=self.metrics,
            registry=self.registry,
        )
