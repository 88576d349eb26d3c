"""Capability grants: amortize the PDP on repeat traffic.

The paper's PEP re-evaluates the combined VO∧local policy on every
management request, even when nothing about the subject, the action or
the policy state has changed.  The CAS line of work (Keahey & Welch,
cs/0311025) carries a prior decision across a trust boundary as a
restricted credential (:mod:`repro.vo.cas` models it).  Inside one
resource no boundary is crossed, so a grant here keeps only what the
PEP uses:

* After a full combined decision PERMITs, :class:`CapabilityMiddleware`
  **mints** a :class:`CapabilityGrant` — a ``cap-N`` id for the audit
  trail and a sim-clock expiry — and holds it in its
  :class:`~repro.core.pipeline.ReplayStore` under the request's exact
  :func:`~repro.core.pipeline.request_key`, beside the decision, its
  sources and the :class:`~repro.core.pipeline.EpochView` snapshot it
  was made under.  A grant only ever answers the question it was
  minted for.
* A repeat of that request is a **hit** while the grant has not
  expired and the view still reports its snapshot: the stored PERMIT
  is served and the PDP is never consulted.
* Revocation is **fail-closed**: when any epoch of the view has moved
  (a policy was replaced, a VO member enrolled, a grid-mapfile line
  changed, a callout registered or cleared), the grant is revoked and
  the request re-decided — a stale grant can *revoke*, never *grant*.

A grant that outlives or outgrows the policy that minted it is a
VOMS-style delegation bug (Alfieri et al., cs/0306004), so the
load-bearing safety argument is differential: the randomized suite in
``tests/core/test_capability_differential.py`` (driven by
:mod:`repro.workloads.capability_audit`) pins that the fast path never
grants anything fresh evaluation would deny — zero tolerance.

Misses are counted by the reasons :data:`ABSENT`, :data:`EXPIRED` and
:data:`EPOCH`; the middleware exports them as the ``capability_*``
metric families (see ``docs/capabilities.md``).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, NamedTuple, Optional

from repro.core.decision import Decision, Effect
from repro.core.pipeline import (
    DecisionContext,
    EpochView,
    NextHandler,
    ReplayEntry,
    ReplayStore,
    StageRecord,
    request_key,
)
from repro.core.request import AuthorizationRequest
from repro.obs import spans as obs_spans
from repro.obs.instrument import METRIC_HELP

#: ``DecisionContext.cache_status`` value for capability fast-path hits.
CAPABILITY_HIT = "capability"

#: Miss-reason vocabulary, in check order.
ABSENT = "absent"  # no grant held for the request
EXPIRED = "expired"  # sim-clock TTL passed (now >= expires_at)
EPOCH = "epoch"  # the epoch view moved -> revoked

#: Miss reasons the middleware counts (everything but a hit).
MISS_REASONS = (ABSENT, EXPIRED, EPOCH)

_token_counter = itertools.count(1)


class CapabilityGrant(NamedTuple):
    """What a held grant adds to its stored decision."""

    #: ``cap-N``: names the grant in span events, stages and the
    #: decision context.
    token_id: str
    #: The sim-clock instant the grant is spent: a TTL of 60 means 60
    #: seconds of validity, so ``now == expires_at`` is already expired.
    expires_at: float
    #: The stage every hit on the grant records (duration 0.0: no
    #: evaluation ran), built once at mint.
    hit_stage: StageRecord


class CapabilityMiddleware:
    """The PEP's capability fast path.

    Sits directly in front of the decision cache / callout chain:

    * **hit** — a grant is held for the exact request key, its TTL has
      not passed and the view still reports the snapshot it was minted
      under: the stored PERMIT is served with its provenance,
      ``cache_status`` becomes ``"capability"`` and the PDP is never
      consulted.
    * **miss** — no grant, or it expired or was revoked: the grant (if
      any) is dropped and the stack below decides fresh; a fresh PERMIT
      mints, unless the view moved while the stack decided.  Denials
      are never minted — grants encode permits, the default-deny path
      always re-evaluates.
    * **revoked** — the miss where the view moved: counted separately
      (``capability_revoked_total``) because it is the fail-closed
      contract in action.  Expiry is checked first, so a grant both
      expired and stale counts as expired.
    """

    name = "capability"

    def __init__(
        self,
        clock: Any,
        view: Optional[EpochView] = None,
        ttl: float = 300.0,
        registry: Any = None,
        store: Optional[ReplayStore] = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("capability ttl must be > 0")
        self.clock = clock
        self.view = view if view is not None else EpochView()
        self.ttl = ttl
        #: Held grants by request key (job description included), so
        #: a grant only answers the exact question it answered.
        self.store = store if store is not None else ReplayStore()
        self.registry = registry
        self.hits = 0
        self.misses = 0
        self.revoked = 0
        self.minted = 0
        self.miss_reasons: Dict[str, int] = {reason: 0 for reason in MISS_REASONS}
        #: Bound series by metric name (by reason for the misses),
        #: each created at its first count.
        self._counters: Dict[str, Any] = {}

    # -- metrics ----------------------------------------------------------

    def _count(self, name: str, reason: Optional[str] = None) -> None:
        if self.registry is None:
            return
        key = name if reason is None else reason
        series = self._counters.get(key)
        if series is None:
            labels = {} if reason is None else {"reason": reason}
            series = self._counters[key] = self.registry.counter(
                name, help=METRIC_HELP[name], labelnames=tuple(labels)
            ).labels(**labels)
        series.inc()

    # -- the middleware ---------------------------------------------------

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        key = request_key(request)
        if key is None:
            return call_next(request, context)
        entry = self.store.get(key)
        reason = ABSENT
        if entry is not None:
            grant = entry.grant
            if self.clock.now >= grant.expires_at:
                reason = EXPIRED
            elif entry.epochs != self.view.snapshot():
                reason = EPOCH
            else:
                self.hits += 1
                self._count("capability_hit_total")
                context.cache_status = CAPABILITY_HIT
                context.capability = grant.token_id
                context.sources.extend(entry.sources)
                context.stages.append(grant.hit_stage)
                obs_spans.event("capability", grant.hit_stage.detail)
                return entry.decision
            # Fail closed: a spent or stale grant is dropped, never
            # trusted, and the PDP decides fresh.
            self.store.discard(key)
            if reason == EPOCH:
                self.revoked += 1
                self._count("capability_revoked_total")
                obs_spans.event("capability", f"revoked {grant.token_id}")
        self.misses += 1
        self.miss_reasons[reason] += 1
        self._count("capability_miss_total", reason)
        epochs = self.view.snapshot()
        decision = call_next(request, context)
        # Mint only when the view did not move while the chain decided:
        # such a PERMIT belongs to neither snapshot.
        if decision.effect is Effect.PERMIT and self.view.snapshot() == epochs:
            self.minted += 1
            token_id = f"cap-{next(_token_counter):d}"
            grant = CapabilityGrant(
                token_id,
                self.clock.now + self.ttl,
                StageRecord("capability", 0.0, f"hit {token_id}"),
            )
            self._count("capability_mint_total")
            self.store.put(
                key, ReplayEntry(decision, tuple(context.sources), epochs, grant)
            )
            context.capability = token_id
            obs_spans.event("capability", f"mint {token_id}")
        return decision

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "revoked": self.revoked,
            "minted": self.minted,
            "miss_reasons": dict(self.miss_reasons),
            "held": len(self.store),
        }

    def __str__(self) -> str:
        return (
            f"capability[held={len(self.store)} hits={self.hits} "
            f"misses={self.misses} revoked={self.revoked}]"
        )
