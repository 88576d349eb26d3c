"""The explainable decision pipeline.

Counters on :class:`~repro.core.pep.EnforcementPoint`, the invocation
counter on :class:`~repro.core.callout.CalloutRegistry` and the
component hand-off log in :class:`~repro.gram.protocol.TraceRecorder`
each see one slice of a decision; none can explain it end to end.
This module provides the pieces that can:

* :class:`DecisionContext` — one object per authorization decision,
  threaded (via an explicit argument *and* a context variable, so
  deep layers like :class:`~repro.core.combination.CombinedEvaluator`
  need no signature changes) through Gatekeeper → Job Manager → PEP →
  callout chain → policy sources.  It records per-stage timings,
  policy-source provenance (which sources contributed, at which
  epoch, with what effect), the final effect and the cache status.
* :class:`DecisionMiddleware` — the protocol the layers of the PEP's
  fixed stack share: ``middleware(request, context, call_next)``.  The
  PEP itself counts outcomes and keeps the audit log of finished
  contexts (see :class:`~repro.core.pep.EnforcementPoint`).
* :class:`DecisionCache` — a policy-epoch guarded decision cache:
  every policy source exposes a ``policy_epoch`` token bumped on
  mutation, and an :class:`EpochView` snapshot stored with each
  decision stales it exactly when local or VO policy changes.  This
  makes the paper's job-monitoring poll loop (repeated identical
  ``information`` checks) measurably faster.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.decision import Decision, Effect
from repro.core.request import AuthorizationRequest
from repro.gsi.proxy import PATH_LENGTH_EXTENSION
from repro.obs import spans as obs_spans

_decision_counter = itertools.count(1)

#: Cache-status vocabulary carried by :attr:`DecisionContext.cache_status`.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # no decision cache in the stack


class StageRecord(NamedTuple):
    """One timed stage of a decision (pep, callout, policy source...)."""

    name: str
    duration: float
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "duration": self.duration}
        if self.detail:
            data["detail"] = self.detail
        return data


class SourceRecord(NamedTuple):
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


#: The stage a decision-cache hit records: the same for every hit.
_CACHE_HIT_STAGE = StageRecord("cache", 0.0, "hit")


@dataclass
class DecisionContext:
    """Everything needed to explain one authorization decision.

    Finished, it is the PEP's audit record: it holds no request,
    credential or decision, so a retained record keeps nothing alive.
    """

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
    #: The decision's reasons and the source that decided it.
    reasons: Tuple[str, ...] = ()
    source: str = ""
    #: A system failure's message, which callout/policy source broke
    #: and how (``"error"``, ``"timeout"``, ``"breaker-open"``).
    failure: str = ""
    failure_source: str = ""
    failure_kind: str = ""
    cache_status: str = CACHE_BYPASS
    #: Wall time of the whole decision: what the PEP measured around
    #: its stack, the same as its ``pep`` stage.
    duration: float = 0.0
    #: Set by the resilience layer when this decision was served in a
    #: degraded mode (e.g. ``"fail-static"``): the decision is real
    #: but came from the last-known-good store, not a live source.
    degraded: str = ""
    #: The ``cap-N`` id of the capability grant that served (fast-path
    #: hit) or was minted by (fresh PERMIT) this decision; empty when
    #: no grant was involved.
    capability: str = ""

    @classmethod
    def from_request(
        cls, request: AuthorizationRequest, placement: str = ""
    ) -> "DecisionContext":
        return cls(
            f"dec-{next(_decision_counter):d}",
            str(request.requester),
            # ``_value_`` is the member's value (what ``str`` of an
            # Action renders) without the ``value`` property's cost.
            request.action._value_,
            jobtag=request.jobtag or "",
            jobowner=str(request.owner),
            job_id=request.job_id,
            placement=placement,
        )

    # -- recording ---------------------------------------------------------

    def record_stage(self, name: str, duration: float, detail: str = "") -> None:
        self.stages.append(StageRecord(name, duration, detail))

    def add_source(
        self, name: str, effect: Effect, epoch: Any = None, detail: str = ""
    ) -> None:
        self.sources.append(SourceRecord(name, effect._value_, epoch, detail))

    def finish(self, decision: Decision, duration: float) -> None:
        """Mark the decision complete; derive provenance if none recorded.

        *duration* is the wall time of the whole decision, as the PEP
        measured it around its stack (its ``pep`` stage).  Stages
        nest — ``pep`` encloses each ``callout:*``, which encloses its
        ``source:*`` stages — so they do not add up to it.
        """
        self.effect = decision.effect
        self.reasons = decision.reasons
        self.source = decision.source
        if not self.sources and decision.source:
            self.add_source(decision.source, decision.effect)
        self.duration = duration

    def finish_failure(self, message: str, duration: float, source: str, kind: str) -> None:
        """Mark the decision failed; *duration* as for :meth:`finish`."""
        self.effect = Effect.INDETERMINATE
        self.failure = message
        self.failure_source = source
        # Never empty, so :attr:`outcome` holds for an empty message.
        self.failure_kind = kind or "error"
        self.duration = duration

    # -- views ---------------------------------------------------------------

    @property
    def outcome(self) -> str:
        """How the PEP counted it: ``"permit"``, ``"deny"`` or ``"failure"``."""
        # ``failure_kind`` is not on the wire; a decoded context keeps
        # the failure message.
        if self.failure_kind or self.failure:
            return "failure"
        return "permit" if self.effect is Effect.PERMIT else "deny"

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
            "capability": self.capability,
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
            capability=data.get("capability", ""),
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


# -- the replay guard: one epoch view, one store type -------------------------


#: Memo sentinel: ``None`` is a valid memoized key ("decide fresh").
_UNKEYED = object()


def request_key(request: AuthorizationRequest) -> Optional[Tuple[Any, ...]]:
    """The identity of an authorization question, minus policy state.

    Shared by the three repeat paths — the :class:`DecisionCache`, the
    capability store and the resilience layer's last-known-good store
    — each of which keys a :class:`ReplayStore` on it and keeps the
    :class:`EpochView` snapshot in the entry.  The job description is
    included so two start requests sharing a jobtag but asking for
    different things never collide.

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
    every repeat path with the same tuple object, so the component
    strings keep their cached hashes instead of being re-rendered per
    lookup.
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
                request.action._value_,
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


#: An :class:`EpochView` snapshot: ``(member name, repr(epoch))`` pairs.
EpochSnapshot = Tuple[Tuple[str, str], ...]


class EpochView:
    """Everything a replayed decision depends on, as one named snapshot.

    Members are ``(name, source)`` pairs (see :func:`epoch_of`).  A
    service hands one view to its decision cache, capability grants,
    fail-static store and circuit breakers, so no repeat path watches
    less than another.  The snapshot renders each epoch with ``repr``
    and is rebuilt only when a raw member epoch moved; the view is an
    epoch source itself.
    """

    def __init__(self, members: Sequence[Tuple[str, Any]] = ()) -> None:
        self._members: List[Tuple[str, Any]] = list(members)
        # (raw epochs, snapshot) as one tuple, so a reader never pairs
        # one call's raw epochs with another call's snapshot.
        self._memo: Tuple[Any, EpochSnapshot] = (None, ())

    def snapshot(self) -> EpochSnapshot:
        """The members' current ``(name, repr(epoch))`` pairs."""
        raw = tuple([epoch_of(source) for _, source in self._members])
        memo_raw, snapshot = self._memo
        if raw != memo_raw:
            snapshot = tuple(
                (name, repr(epoch))
                for (name, _), epoch in zip(self._members, raw)
            )
            self._memo = (raw, snapshot)
        return snapshot

    @property
    def policy_epoch(self) -> EpochSnapshot:
        return self.snapshot()


class ReplayEntry(NamedTuple):
    """One stored decision a repeat path may serve again."""

    decision: Decision
    #: The provenance the decision was made with.
    sources: Tuple[SourceRecord, ...]
    #: The :class:`EpochView` snapshot the decision was made under; the
    #: entry is served only while the view still reports it.
    epochs: EpochSnapshot
    #: The :class:`~repro.core.capability.CapabilityGrant` minted for
    #: the decision, if one was.
    grant: Any = None


class ReplayStore:
    """Bounded, thread-safe LRU of :func:`request_key` → :class:`ReplayEntry`.

    The one store type of the three repeat paths; each keeps its own
    instance.  A stale entry is replaced in place by the next fresh
    decision for its key instead of ageing out of the LRU.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, ReplayEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: Any) -> Optional[ReplayEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Any, entry: ReplayEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def discard(self, key: Any) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)


class DecisionCache:
    """Middleware caching PERMIT/DENY decisions across identical requests.

    Keyed on :func:`request_key` — ``(subject DN, action, jobtag,
    jobowner, job description)``; each entry keeps the
    :class:`EpochView` snapshot it was decided under and is served
    only while the view still reports that snapshot.  Mutate any
    member's policy (install a new policy version, enroll a VO member,
    open a time window, change a grid-mapfile line) and every cached
    decision is stale; the next identical request re-decides and
    replaces it.

    System failures are never cached — a broken authorization system
    must stay visibly broken, not replay a stale decision — and nor is
    any request :func:`request_key` refuses to key: it passes straight
    through with ``cache_status`` left at ``"bypass"``.
    """

    name = "decision-cache"

    def __init__(
        self, view: Optional[EpochView] = None, maxsize: int = 4096
    ) -> None:
        self.view = view if view is not None else EpochView()
        self.store = ReplayStore(maxsize)
        self.hits = 0
        self.misses = 0

    @property
    def evictions(self) -> int:
        return self.store.evictions

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        key = request_key(request)
        if key is None:
            return call_next(request, context)
        epochs = self.view.snapshot()
        entry = self.store.get(key)
        if entry is not None and entry.epochs == epochs:
            self.hits += 1
            context.cache_status = CACHE_HIT
            context.sources.extend(entry.sources)
            context.stages.append(_CACHE_HIT_STAGE)
            obs_spans.event("cache", "hit")
            return entry.decision
        self.misses += 1
        context.cache_status = CACHE_MISS
        decision = call_next(request, context)
        # A decision the view moved under (the clock crossed a window
        # edge while the chain decided) belongs to neither snapshot.
        if (
            decision.effect in (Effect.PERMIT, Effect.DENY)
            and self.view.snapshot() == epochs
        ):
            self.store.put(
                key, ReplayEntry(decision, tuple(context.sources), epochs)
            )
        return decision

    def __len__(self) -> int:
        return len(self.store)

    def __str__(self) -> str:
        return (
            f"decision-cache[{len(self.store)}/{self.store.maxsize} "
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
