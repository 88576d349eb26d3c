"""Signed capability grants: amortize the PDP on repeat traffic.

The paper's PEP re-evaluates the combined VO∧local policy on every
management request, even when nothing about the subject, the action or
the policy state has changed.  The CAS line of work (Keahey & Welch,
cs/0311025) carries restricted credentials in the proxy chain
precisely so a resource can trust a *prior* decision; this module
applies that idea on top of the compiled engine and the policy-epoch
machinery:

* After a full combined decision PERMITs, the pipeline **mints** a
  :class:`CapabilityToken` — an HMAC-signed artifact scoped to
  (subject DN × action set × jobtag/jobowner constraint × job-spec
  digest), bound to the *exact* policy epochs (VO source, local
  source, grid-mapfile, cross-shard broadcast) that produced the
  decision, with a sim-clock TTL.
* The PEP gains a **validate-first fast path**
  (:class:`CapabilityMiddleware`): signature, expiry, scope and epoch
  check in O(HMAC) — independent of policy size — falling back to
  fresh evaluation (and a re-mint) on any miss.
* Revocation is **fail-closed**: when any bound epoch has been bumped
  (a policy was replaced, a VO member enrolled, a grid-mapfile line
  changed, a sharded ``bump_policy_epoch`` broadcast), the capability
  is revoked and the request re-decided — a stale capability can
  *revoke*, never *grant*.

A capability that outlives or outgrows the policy that minted it is a
VOMS-style delegation bug (Alfieri et al., cs/0306004), so the
load-bearing safety argument is differential: the randomized suite in
``tests/core/test_capability_differential.py`` (driven by
:mod:`repro.workloads.capability_audit`) pins that the fast path never
grants anything fresh evaluation would deny — zero tolerance.

Validation outcomes use the vocabulary :data:`VALID`, :data:`ABSENT`,
:data:`EXPIRED`, :data:`BAD_SIGNATURE`, :data:`SCOPE` and
:data:`EPOCH`; the middleware exports them as the ``capability_*``
metric families (see ``docs/capabilities.md``).
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.decision import Decision, Effect
from repro.core.pipeline import (
    DecisionContext,
    NextHandler,
    SourceRecord,
    StageRecord,
    epoch_of,
    request_key,
)
from repro.core.request import AuthorizationRequest
from repro.obs import spans as obs_spans

#: ``DecisionContext.cache_status`` value for capability fast-path hits.
CAPABILITY_HIT = "capability"

#: Validation-outcome vocabulary.
VALID = "valid"
ABSENT = "absent"  # no capability held for the request
EXPIRED = "expired"  # sim-clock TTL passed (now >= expires_at)
BAD_SIGNATURE = "bad-signature"  # HMAC mismatch (tampered or wrong key)
SCOPE = "scope"  # request outside (subject × actions × job constraint)
EPOCH = "epoch"  # a bound policy epoch was bumped -> revoked

#: Miss reasons the middleware counts (everything but a hit).
MISS_REASONS = (ABSENT, EXPIRED, BAD_SIGNATURE, SCOPE, EPOCH)

_token_counter = itertools.count(1)


def spec_digest(specification: Any) -> str:
    """Canonical digest of a job description (its unparsed RSL form).

    The policy evaluates the *whole* job description, so a portable
    capability must pin it: validating a token against a request with
    a different description could grant what fresh evaluation denies.
    """
    return hashlib.sha256(str(specification).encode("utf-8")).hexdigest()


def default_capability_key(host: str) -> bytes:
    """The deterministic per-resource HMAC key.

    A real deployment provisions the key out of band; the simulation
    derives one from the resource host so every run (and every shard
    of one resource) signs and verifies with the same key.
    """
    return hashlib.sha256(f"repro-capability-key:{host}".encode("utf-8")).digest()


@dataclass(frozen=True)
class CapabilityToken:
    """One signed, epoch-bound, time-limited authorization grant.

    Immutable; :meth:`signed` returns the signed copy.  ``epochs`` are
    ``(source name, repr(epoch))`` pairs — ``repr`` because epoch
    tokens range from plain ints to nested tuples and the payload must
    canonicalize to bytes.
    """

    token_id: str
    subject: str
    actions: Tuple[str, ...]
    jobtag: str
    jobowner: str
    spec_digest: str
    epochs: Tuple[Tuple[str, str], ...]
    issued_at: float
    expires_at: float
    signature: str = ""

    def payload(self) -> bytes:
        """The canonical signing payload (everything but the signature)."""
        cached = self.__dict__.get("_payload_cache")
        if cached is None:
            cached = json.dumps(
                {
                    "token_id": self.token_id,
                    "subject": self.subject,
                    "actions": list(self.actions),
                    "jobtag": self.jobtag,
                    "jobowner": self.jobowner,
                    "spec_digest": self.spec_digest,
                    "epochs": [list(pair) for pair in self.epochs],
                    "issued_at": self.issued_at,
                    "expires_at": self.expires_at,
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            object.__setattr__(self, "_payload_cache", cached)
        return cached

    def signed(self, key: bytes) -> "CapabilityToken":
        return replace(
            self, signature=hmac.digest(key, self.payload(), "sha256").hex()
        )

    def verify_signature(self, key: bytes) -> bool:
        # A successful verification is memoized per key: the token is
        # frozen, so the signature cannot change under the cache, and
        # any tampered copy (``dataclasses.replace`` or fresh
        # construction) starts with an empty cache and recomputes.
        if self.__dict__.get("_verified_key") == key:
            return True
        if not self.signature:
            return False
        expected = hmac.digest(key, self.payload(), "sha256").hex()
        if hmac.compare_digest(expected, self.signature):
            object.__setattr__(self, "_verified_key", key)
            return True
        return False

    def expired(self, now: float) -> bool:
        """TTL check: a token is spent the instant ``now == expires_at``."""
        return now >= self.expires_at

    def covers(self, request: AuthorizationRequest) -> bool:
        """Scope check: is *request* inside what this token grants?

        The job-description digest is deliberately included — a token
        minted for one description must not authorize another, however
        well subject/action/owner line up.
        """
        return (
            str(request.requester) == self.subject
            and str(request.action) in self.actions
            and (request.jobtag or "") == self.jobtag
            and str(request.owner) == self.jobowner
            and spec_digest(request.job_description) == self.spec_digest
        )

    # -- serialization (the artifact carried with a job spec) -------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "token_id": self.token_id,
            "subject": self.subject,
            "actions": list(self.actions),
            "jobtag": self.jobtag,
            "jobowner": self.jobowner,
            "spec_digest": self.spec_digest,
            "epochs": [list(pair) for pair in self.epochs],
            "issued_at": self.issued_at,
            "expires_at": self.expires_at,
            "signature": self.signature,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CapabilityToken":
        return cls(
            token_id=str(data["token_id"]),
            subject=str(data["subject"]),
            actions=tuple(str(a) for a in data.get("actions", ())),
            jobtag=str(data.get("jobtag", "")),
            jobowner=str(data.get("jobowner", "")),
            spec_digest=str(data.get("spec_digest", "")),
            epochs=tuple(
                (str(name), str(epoch)) for name, epoch in data.get("epochs", ())
            ),
            issued_at=float(data.get("issued_at", 0.0)),
            expires_at=float(data.get("expires_at", 0.0)),
            signature=str(data.get("signature", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "CapabilityToken":
        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:
        return (
            f"capability[{self.token_id} {self.subject} "
            f"actions={','.join(self.actions)} expires={self.expires_at}]"
        )


class CapabilityIssuer:
    """Mints and validates tokens for one resource (one HMAC key).

    ``epoch_sources`` are ``(name, source)`` pairs; each source exposes
    a ``policy_epoch`` the way every other epoch source does (see
    :func:`repro.core.pipeline.epoch_of`).  The issuer binds the full
    named epoch view into every token it mints, and compares the
    *current* view at validation time — any divergence is a
    revocation, never a grant.
    """

    def __init__(
        self,
        key: bytes,
        clock: Any,
        ttl: float = 300.0,
        epoch_sources: Sequence[Tuple[str, Any]] = (),
    ) -> None:
        if ttl <= 0:
            raise ValueError("capability ttl must be > 0")
        self.key = key
        self.clock = clock
        self.ttl = ttl
        self.epoch_sources: List[Tuple[str, Any]] = list(epoch_sources)
        self.minted = 0
        # The epoch view is rebuilt only when a raw epoch actually
        # moved; the fast path pays one attribute read per source plus
        # a tuple compare.
        self._epoch_raw: Optional[Tuple[Any, ...]] = None
        self._epoch_view: Tuple[Tuple[str, str], ...] = ()

    def add_epoch_source(self, name: str, source: Any) -> None:
        """Bind another epoch source (e.g. a cross-shard broadcast)."""
        self.epoch_sources.append((name, source))
        self._epoch_raw = None

    def epoch_view(self) -> Tuple[Tuple[str, str], ...]:
        """The current named-epoch snapshot tokens bind and check."""
        raw = tuple([epoch_of(source) for _, source in self.epoch_sources])
        if raw != self._epoch_raw:
            self._epoch_view = tuple(
                (name, repr(epoch))
                for (name, _), epoch in zip(self.epoch_sources, raw)
            )
            self._epoch_raw = raw
        return self._epoch_view

    def mint(
        self,
        request: AuthorizationRequest,
        actions: Optional[Sequence[str]] = None,
    ) -> CapabilityToken:
        """Mint a signed token for *request* (after a full PERMIT).

        The action set defaults to exactly the decided action — a
        wider set would grant actions no fresh decision covered, the
        precise bug the differential suite exists to rule out.
        """
        now = self.clock.now
        self.minted += 1
        token = CapabilityToken(
            token_id=f"cap-{next(_token_counter):d}",
            subject=str(request.requester),
            actions=tuple(actions) if actions else (str(request.action),),
            jobtag=request.jobtag or "",
            jobowner=str(request.owner),
            spec_digest=spec_digest(request.job_description),
            epochs=self.epoch_view(),
            issued_at=now,
            expires_at=now + self.ttl,
        )
        return token.signed(self.key)

    def validate(
        self,
        token: CapabilityToken,
        request: Optional[AuthorizationRequest] = None,
        now: Optional[float] = None,
    ) -> str:
        """Full validation of a (possibly presented) token.

        Check order is deliberate: signature first (nothing about an
        unauthenticated artifact can be trusted), then expiry, then
        the epoch binding (revocation), then — when a request is given
        — the scope.  Returns one of the outcome constants.
        """
        if not token.verify_signature(self.key):
            return BAD_SIGNATURE
        if token.expired(self.clock.now if now is None else now):
            return EXPIRED
        if token.epochs != self.epoch_view():
            return EPOCH
        if request is not None and not token.covers(request):
            return SCOPE
        return VALID


class CapabilityStore:
    """Bounded LRU of minted capabilities, keyed like the decision cache.

    The key is :func:`repro.core.pipeline.request_key` — subject,
    action, jobtag, jobowner *and the job description itself* — so a
    held token is only ever consulted for the exact question it
    answered.  Entries keep the decision and its provenance alongside
    the token so a fast-path hit explains itself like any other
    decision.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Tuple[CapabilityToken, Decision, Tuple[SourceRecord, ...]]]" = (
            OrderedDict()
        )
        self.evictions = 0

    def get(
        self, key: Any
    ) -> Optional[Tuple[CapabilityToken, Decision, Tuple[SourceRecord, ...]]]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(
        self,
        key: Any,
        token: CapabilityToken,
        decision: Decision,
        sources: Tuple[SourceRecord, ...],
    ) -> None:
        self._entries[key] = (token, decision, sources)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: Any) -> None:
        self._entries.pop(key, None)

    def find(self, token_id: str) -> Optional[CapabilityToken]:
        for token, _, _ in self._entries.values():
            if token.token_id == token_id:
                return token
        return None

    def clear(self) -> None:
        self._entries.clear()

    def tokens(self) -> Tuple[CapabilityToken, ...]:
        return tuple(token for token, _, _ in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


class CapabilityMiddleware:
    """The PEP's validate-first fast path.

    Sits directly in front of the decision cache / callout chain:

    * **hit** — a held token validates (signature, TTL, epochs, scope)
      for the exact request key: the stored PERMIT is served with its
      provenance, ``cache_status`` becomes ``"capability"`` and the
      PDP is never consulted.
    * **miss** — no token, or it failed validation: the token (if any)
      is dropped and the stack below decides fresh; a fresh PERMIT
      re-mints.  Denials are never tokenized — capabilities encode
      grants, the default-deny path always re-evaluates.
    * **revoked** — the specific miss where a bound epoch moved:
      counted separately (``capability_revoked_total``) because it is
      the fail-closed contract in action.
    """

    name = "capability"

    def __init__(
        self,
        issuer: CapabilityIssuer,
        store: Optional[CapabilityStore] = None,
        registry: Any = None,
    ) -> None:
        self.issuer = issuer
        self.store = store if store is not None else CapabilityStore()
        self.registry = registry
        self.hits = 0
        self.misses = 0
        self.revoked = 0
        self.miss_reasons: Dict[str, int] = {reason: 0 for reason in MISS_REASONS}
        self._counters: Dict[Tuple[str, Tuple[str, ...]], Any] = {}

    # -- metrics ----------------------------------------------------------

    def _count(self, name: str, help: str, **labels: str) -> None:
        if self.registry is None:
            return
        key = (name, tuple(sorted(labels.values())))
        series = self._counters.get(key)
        if series is None:
            family = self.registry.counter(
                name, help=help, labelnames=tuple(sorted(labels))
            )
            series = family.labels(**labels) if labels else family.labels()
            self._counters[key] = series
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
            token, decision, sources = entry
            status = self._validate_fast(token, key)
            if status == VALID:
                self.hits += 1
                self._count(
                    "capability_hit_total",
                    "Fast-path decisions served by capability validation",
                )
                context.cache_status = CAPABILITY_HIT
                context.capability = token
                context.sources.extend(sources)
                # The hit stage record never varies for a given token
                # (duration 0.0 by definition — no evaluation ran), so
                # it is built once and shared across contexts.
                stage = token.__dict__.get("_hit_stage")
                if stage is None:
                    stage = StageRecord(
                        name="capability",
                        duration=0.0,
                        detail=f"hit {token.token_id}",
                    )
                    object.__setattr__(token, "_hit_stage", stage)
                context.stages.append(stage)
                obs_spans.event("capability", stage.detail)
                return decision
            # Fail closed: whatever went wrong, the token can only be
            # revoked — never trusted — and the PDP decides fresh.
            self.store.discard(key)
            reason = status
            if status == EPOCH:
                self.revoked += 1
                self._count(
                    "capability_revoked_total",
                    "Capabilities revoked fail-closed on a policy-epoch bump",
                )
                obs_spans.event("capability", f"revoked {token.token_id}")
        self.misses += 1
        self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1
        self._count(
            "capability_miss_total",
            "Capability fast-path misses by reason",
            reason=reason,
        )
        decision = call_next(request, context)
        if decision.effect is Effect.PERMIT:
            token = self.issuer.mint(request)
            self._count(
                "capability_mint_total",
                "Capabilities minted after full decisions",
            )
            self.store.put(key, token, decision, tuple(context.sources))
            context.capability = token
            obs_spans.event("capability", f"mint {token.token_id}")
        return decision

    def _validate_fast(self, token: CapabilityToken, key: Any) -> str:
        """Hot-path validation of a *held* token.

        Identical outcome vocabulary to :meth:`CapabilityIssuer.validate`
        but scoped against the request *key* the token was stored
        under: the key already pins description equality (strictly
        stronger than the digest), so the remaining scope check is a
        plain compare of the key's subject/action/jobtag/owner
        components against what the token grants.
        """
        issuer = self.issuer
        if not token.verify_signature(issuer.key):
            return BAD_SIGNATURE
        if token.expired(issuer.clock.now):
            return EXPIRED
        if token.epochs != issuer.epoch_view():
            return EPOCH
        if not (
            token.subject == key[0]
            and key[1] in token.actions
            and token.jobtag == (key[2] or "")
            and token.jobowner == key[3]
        ):
            return SCOPE
        return VALID

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "revoked": self.revoked,
            "minted": self.issuer.minted,
            "miss_reasons": dict(self.miss_reasons),
            "held": len(self.store),
        }

    def __str__(self) -> str:
        return (
            f"capability[held={len(self.store)} hits={self.hits} "
            f"misses={self.misses} revoked={self.revoked}]"
        )
