"""Durable, versioned policy control plane (the policy store).

The paper assumes "the policy evaluated is the policy currently
published" — policies change out from under a running service.  Until
now the reproduction held every bundle only in memory: a restart lost
the published policy and there was no first-class publish step at all
(tests reached into :meth:`PolicyEvaluator.replace_policy` directly).
This module adds the missing control plane:

* :class:`PolicyBundle` — an immutable, content-addressed set of named
  policy texts.  The digest is SHA-256 over a canonical rendering, so
  byte-identical content always names the same bundle no matter how it
  was assembled (files, strings, or re-rendered ``Policy`` objects).
* :class:`PolicySnapshot` — one published version: the bundle, its
  parsed **and pre-compiled** policies, a monotonic epoch, and the
  parent digest (the append-only chain).
* :class:`VersionedPolicyStore` — the append-only publish log.
  :meth:`~VersionedPolicyStore.publish` validates the whole bundle
  (parse + compile + registered validators) *before* anything becomes
  visible: an invalid bundle is rejected atomically — the active
  snapshot keeps serving, a ``policy_reload_rejected_total`` metric
  and a span event record why.  A bundle whose digest equals the
  active snapshot's is a **no-op**: no epoch bump, no capability
  revocation, no cache invalidation.  Because publish pre-compiles
  every policy (:func:`~repro.core.compiled.compiled_for` caches on
  the ``Policy`` object), the swap a subscriber performs is a pure
  reference flip — the first decision at the new epoch never pays
  compilation.  A publish parses and compiles only the statements
  whose text the active snapshot lacks; every other statement is the
  active snapshot's own object, compiled form included.  A source
  whose name and exact text equal the active snapshot's is not parsed
  at all: it keeps the active ``Policy`` object, so a subscriber that
  already serves that object leaves it, its epoch and everything
  memoized on it in place.
* :class:`PolicyWatcher` — the hot-reload path: polls file
  mtimes/digests under the **sim clock** and publishes the diff.  The
  rejection guarantees above apply unchanged — a half-written or
  syntactically broken file on disk never disturbs the serving epoch.

Consumers subscribe (:meth:`VersionedPolicyStore.subscribe`) and swap
the snapshot's policies into their compiled engines; a
:class:`~repro.gram.service.GramService` built with
``ServiceConfig(policy_store=...)`` wires this up so its
``QueryEngine``, capability grants and ``DecisionCache`` all observe one
consistent epoch per publish.  See ``docs/policy-store.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.compiled import compiled_for
from repro.core.errors import PolicyParseError
from repro.core.model import Policy, PolicyStatement
from repro.core.parser import StatementText, parse_policy
from repro.obs.spans import event as span_event

#: Rejection-reason vocabulary of ``policy_reload_rejected_total``.
REJECT_PARSE = "parse"
REJECT_EMPTY = "empty"
REJECT_SOURCES = "sources"
REJECT_IO = "io"
REJECT_VALIDATOR = "validator"


#: One source's statements by the text they were parsed from.
StatementMap = Dict[StatementText, PolicyStatement]


def end_torn_line(path: str) -> None:
    """End an append-only JSONL file whose last line lacks a newline.

    A crash mid-append leaves a torn last line, which a replay skips.
    Without the newline the next append would be glued onto it and
    skipped by the next replay too.  Nothing is truncated: a record
    that lost only its newline still replays.  Both JSONL logs (this
    store's and the completed-job spill) call it before they replay.
    """
    with open(path, "rb+") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


class PolicyStoreError(ValueError):
    """A policy-store operation could not be performed."""


class BundleRejected(PolicyStoreError):
    """An invalid bundle was atomically rejected (old epoch serving)."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"bundle rejected ({reason}): {detail}")
        self.reason = reason
        self.detail = detail


def _canonical_text(sources: Sequence[Tuple[str, str]]) -> str:
    """One deterministic rendering of a bundle, digest input and log form."""
    parts = []
    for name, text in sources:
        parts.append(f"=== {name} ===\n{text.rstrip()}\n")
    return "".join(parts)


@dataclass(frozen=True)
class PolicyBundle:
    """An immutable, content-addressed set of named policy texts."""

    #: ``(source name, policy text)`` in publication order.
    sources: Tuple[Tuple[str, str], ...]
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        canonical = _canonical_text(self.sources)
        object.__setattr__(
            self,
            "digest",
            hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        )

    @classmethod
    def from_texts(cls, sources: Mapping[str, str]) -> "PolicyBundle":
        return cls(sources=tuple(sources.items()))

    @classmethod
    def from_policies(cls, policies: Sequence[Policy]) -> "PolicyBundle":
        """Re-render live ``Policy`` objects into a bundle.

        The Figure 3 syntax round-trips (``str(policy)`` parses back to
        an equal policy), so a store can be seeded from a service's
        in-memory configuration.
        """
        sources = []
        for index, policy in enumerate(policies):
            name = policy.name or f"policy-{index}"
            sources.append((name, str(policy)))
        return cls(sources=tuple(sources))

    @classmethod
    def from_files(cls, named_paths: Sequence[Tuple[str, str]]) -> "PolicyBundle":
        """Read ``(name, path)`` pairs into a bundle (raises ``OSError``)."""
        sources = []
        for name, path in named_paths:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append((name, handle.read()))
        return cls(sources=tuple(sources))

    @property
    def source_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.sources)

    def canonical_text(self) -> str:
        return _canonical_text(self.sources)

    def parse(
        self,
        reuse: Optional[Mapping[str, StatementMap]] = None,
        record: Optional[Dict[str, StatementMap]] = None,
        active: Optional["PolicySnapshot"] = None,
    ) -> Tuple[Policy, ...]:
        """Parse every source (raises :class:`PolicyParseError`).

        *reuse* and *record* hold, per source name, the ``reuse`` and
        ``record`` maps that :func:`parse_policy` takes for that source.
        A source whose name and exact text equal one of the *active*
        snapshot's is not parsed: it keeps that snapshot's ``Policy``
        object, and its *reuse* map is recorded as is.  A name that
        either bundle repeats keeps nothing.
        """
        reuse = reuse or {}
        kept: Dict[str, Tuple[str, Policy]] = {}
        if active is not None:
            names = Counter(self.source_names)
            active_names = Counter(active.bundle.source_names)
            kept = {
                name: (text, policy)
                for (name, text), policy in zip(
                    active.bundle.sources, active.policies
                )
                if names[name] == active_names[name] == 1
            }
        policies = []
        for name, text in self.sources:
            prior = kept.get(name)
            if prior is not None and prior[0] == text:
                policies.append(prior[1])
                if record is not None:
                    record[name] = reuse.get(name, {})
                continue
            policies.append(
                parse_policy(
                    text,
                    name=name,
                    reuse=reuse.get(name),
                    record=None if record is None else record.setdefault(name, {}),
                )
            )
        return tuple(policies)


@dataclass(frozen=True)
class PolicySnapshot:
    """One published, immutable version of the policy bundle."""

    epoch: int
    digest: str
    bundle: PolicyBundle
    #: Parsed and pre-compiled — installing these is a reference flip.
    policies: Tuple[Policy, ...]
    published_at: float
    #: Digest of the previous snapshot ("" for the first publish).
    parent: str
    #: Who published: ``"api"``, ``"watcher"``, ``"seed"``, ``"rollback"``.
    origin: str = "api"

    @property
    def short_digest(self) -> str:
        return self.digest[:12]


class VersionedPolicyStore:
    """Append-only, content-addressed log of published policy bundles.

    The **active** snapshot is the last published one; its ``epoch`` is
    this store's ``policy_epoch``, so the store slots into the decision
    cache / capability grants / query engine exactly like any other
    epoch source.  Publishing identical content (same digest as active)
    never bumps the epoch.  Publishing previous content (rollback) gets
    a **new** epoch — history only moves forward.

    ``log_path`` makes the log durable: every publish appends one JSONL
    record, and a store constructed with an existing log replays it
    (unparsable trailing lines are skipped with a counter, exactly like
    the completed-job spill — a crash mid-append must not brick the
    control plane).
    """

    def __init__(
        self,
        clock=None,
        registry=None,
        log_path: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.log_path = log_path
        self._log: List[PolicySnapshot] = []
        self._by_digest: Dict[str, PolicySnapshot] = {}
        self._subscribers: List[Callable[[PolicySnapshot], Any]] = []
        self._validators: List[
            Callable[[PolicyBundle, Tuple[Policy, ...]], None]
        ] = []
        #: The active snapshot's statements, per source name.  A
        #: publish parses and compiles only statements not in here; a
        #: kept source keeps its map.  Only a committed publish
        #: replaces it.
        self._statements: Dict[str, StatementMap] = {}
        self.published_total = 0
        self.noop_publishes = 0
        self.rejected_total = 0
        self.replay_skipped_lines = 0
        self._m_published = None
        self._m_rejected = None
        self._m_epoch = None
        #: The bound obs registry (None until :meth:`bind_registry`).
        self.metrics_registry = None
        if registry is not None:
            self.bind_registry(registry)
        if log_path is not None and os.path.exists(log_path):
            self._replay(log_path)

    # -- observability -----------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Export ``policy_store_*`` / ``policy_reload_rejected_total``."""
        self.metrics_registry = registry
        self._m_published = registry.counter(
            "policy_store_publish_total",
            "Policy bundles published (epoch bumps)",
            labelnames=("origin",),
        )
        self._m_rejected = registry.counter(
            "policy_reload_rejected_total",
            "Policy bundles rejected atomically, by reason",
            labelnames=("reason",),
        )
        self._m_epoch = registry.gauge(
            "policy_store_epoch", "Active policy-store epoch"
        )
        self._export_epoch()

    # -- the epoch-source contract ----------------------------------------

    @property
    def policy_epoch(self) -> int:
        active = self.active()
        return active.epoch if active is not None else 0

    # -- reads -------------------------------------------------------------

    def active(self) -> Optional[PolicySnapshot]:
        return self._log[-1] if self._log else None

    def log_entries(self) -> Tuple[PolicySnapshot, ...]:
        return tuple(self._log)

    def get(self, digest: str) -> Optional[PolicySnapshot]:
        """Look up a snapshot by digest or unambiguous prefix."""
        exact = self._by_digest.get(digest)
        if exact is not None:
            return exact
        matches = [
            snap
            for full, snap in self._by_digest.items()
            if full.startswith(digest)
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    # -- hooks --------------------------------------------------------------

    def subscribe(self, callback: Callable[[PolicySnapshot], Any]) -> None:
        """Call *callback* with every newly published snapshot."""
        self._subscribers.append(callback)

    def add_validator(
        self, validator: Callable[[PolicyBundle, Tuple[Policy, ...]], None]
    ) -> None:
        """Register a veto hook run before a publish becomes visible.

        Raise :class:`BundleRejected` (or any ``ValueError``, folded
        into the ``validator`` reason) to reject the bundle atomically.
        """
        self._validators.append(validator)

    # -- writes --------------------------------------------------------------

    def publish(
        self, bundle: PolicyBundle, origin: str = "api"
    ) -> PolicySnapshot:
        """Validate and publish *bundle*; returns the active snapshot.

        All-or-nothing: parse, compile and validator checks all happen
        before anything changes.  On any failure the previous snapshot
        stays active — callers keep serving the old epoch — and the
        rejection is counted and raised as :class:`BundleRejected`.
        Identical content (digest match) short-circuits to the active
        snapshot without bumping the epoch.  Otherwise each source
        whose name and text are unchanged keeps its active ``Policy``
        (see :meth:`PolicyBundle.parse`); the epoch still moves, and
        so do the evaluator epochs of the sources that changed.
        """
        active = self.active()
        if active is not None and bundle.digest == active.digest:
            self.noop_publishes += 1
            return active
        if not bundle.sources:
            self._reject(REJECT_EMPTY, "bundle has no policy sources")
        statements: Dict[str, StatementMap] = {}
        try:
            policies = bundle.parse(self._statements, statements, active)
        except PolicyParseError as exc:
            self._reject(REJECT_PARSE, str(exc))
        # Pre-compile into the engine cache now, so the subscriber-side
        # swap is a reference flip and the first decision at the new
        # epoch pays no compilation.  Statements and sources kept from
        # the active snapshot bring their compiled form with them.
        for policy in policies:
            compiled_for(policy)
        for validator in self._validators:
            try:
                validator(bundle, policies)
            except BundleRejected as exc:
                self._reject(exc.reason, exc.detail)
            except ValueError as exc:
                self._reject(REJECT_VALIDATOR, str(exc))
        snapshot = PolicySnapshot(
            epoch=(active.epoch + 1) if active is not None else 1,
            digest=bundle.digest,
            bundle=bundle,
            policies=policies,
            published_at=self.clock.now if self.clock is not None else 0.0,
            parent=active.digest if active is not None else "",
            origin=origin,
        )
        self._commit(snapshot)
        self._statements = statements
        if self.log_path is not None:
            self._append_log(snapshot)
        for callback in self._subscribers:
            callback(snapshot)
        return snapshot

    def rollback(
        self, to: Optional[str] = None, steps: int = 1
    ) -> PolicySnapshot:
        """Re-publish earlier content as a **new** epoch.

        ``to`` names a snapshot by digest (prefix allowed); without it,
        roll back *steps* publishes from the active one.  Rolling back
        to content identical to the active snapshot is the usual no-op.
        """
        if not self._log:
            raise PolicyStoreError("nothing published; cannot roll back")
        if to is not None:
            target = self.get(to)
            if target is None:
                raise PolicyStoreError(
                    f"no snapshot matches digest {to!r}"
                )
        else:
            if steps < 1:
                raise PolicyStoreError("steps must be >= 1")
            index = len(self._log) - 1 - steps
            if index < 0:
                raise PolicyStoreError(
                    f"cannot roll back {steps} step(s): only "
                    f"{len(self._log) - 1} prior publish(es)"
                )
            target = self._log[index]
        return self.publish(target.bundle, origin="rollback")

    # -- internals -----------------------------------------------------------

    def _commit(self, snapshot: PolicySnapshot) -> None:
        self._log.append(snapshot)
        self._by_digest[snapshot.digest] = snapshot
        self.published_total += 1
        if self._m_published is not None:
            self._m_published.labels(origin=snapshot.origin).inc()
        self._export_epoch()
        span_event(
            "policy_published",
            f"epoch {snapshot.epoch} digest {snapshot.short_digest} "
            f"({snapshot.origin})",
        )

    def _export_epoch(self) -> None:
        active = self.active()
        if self._m_epoch is not None and active is not None:
            self._m_epoch.labels().set(float(active.epoch))

    def _reject(self, reason: str, detail: str) -> None:
        self.rejected_total += 1
        if self._m_rejected is not None:
            self._m_rejected.labels(reason=reason).inc()
        span_event("policy_reload_rejected", f"{reason}: {detail}")
        raise BundleRejected(reason, detail)

    def _append_log(self, snapshot: PolicySnapshot) -> None:
        record = {
            "epoch": snapshot.epoch,
            "digest": snapshot.digest,
            "parent": snapshot.parent,
            "published_at": snapshot.published_at,
            "origin": snapshot.origin,
            "sources": [list(pair) for pair in snapshot.bundle.sources],
        }
        line = json.dumps(record, sort_keys=True)
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def _replay(self, log_path: str) -> None:
        end_torn_line(log_path)
        with open(log_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            statements: Dict[str, StatementMap] = {}
            try:
                record = json.loads(raw)
                bundle = PolicyBundle(
                    sources=tuple(
                        (str(name), str(text))
                        for name, text in record["sources"]
                    )
                )
                snapshot = PolicySnapshot(
                    epoch=int(record["epoch"]),
                    digest=bundle.digest,
                    bundle=bundle,
                    policies=bundle.parse(
                        self._statements, statements, self.active()
                    ),
                    published_at=float(record.get("published_at", 0.0)),
                    parent=str(record.get("parent", "")),
                    origin=str(record.get("origin", "api")),
                )
            except (ValueError, KeyError, TypeError, PolicyParseError):
                # A crash mid-append leaves a truncated trailing line;
                # recovery skips it (counted) instead of aborting.
                self.replay_skipped_lines += 1
                continue
            self._log.append(snapshot)
            self._by_digest[snapshot.digest] = snapshot
            self._statements = statements
        self._export_epoch()


class PolicyWatcher:
    """Sim-clock file watcher driving hot reload through the store.

    Polls ``(name, path)`` pairs every *interval* simulated seconds:
    when any mtime moved, re-reads the files and publishes the bundle.
    The store's guarantees do the rest — identical content is a no-op
    (the mtime was touched but nothing changed), and an invalid bundle
    is rejected atomically while the previous epoch keeps serving.
    Deterministic: scheduling rides :meth:`Clock.call_after`, so tests
    drive reloads with ``clock.advance`` like everything else.
    """

    def __init__(
        self,
        store: VersionedPolicyStore,
        paths: Sequence[Tuple[str, str]],
        clock,
        interval: float = 5.0,
        origin: str = "watcher",
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.store = store
        # A mapping is the natural shape for named paths; normalize it
        # (iterating a dict would silently unpack key strings as pairs).
        if isinstance(paths, Mapping):
            paths = paths.items()
        self.paths = [(str(name), str(path)) for name, path in paths]
        self.clock = clock
        self.interval = interval
        self.origin = origin
        self._mtimes: Dict[str, float] = {}
        self._running = False
        self.polls = 0
        self.reloads = 0
        self.rejected = 0
        self.noops = 0

    def poll(self) -> Optional[PolicySnapshot]:
        """One poll: publish if any watched file's mtime moved.

        Returns the new snapshot, or ``None`` (unchanged, no-op
        content, or rejected — rejections are absorbed here after the
        store has counted them, so a broken file never breaks the
        polling loop).
        """
        self.polls += 1
        changed = False
        stamps: Dict[str, float] = {}
        for _, path in self.paths:
            try:
                stamps[path] = os.stat(path).st_mtime
            except OSError:
                stamps[path] = -1.0
            if stamps[path] != self._mtimes.get(path):
                changed = True
        if not changed:
            return None
        self._mtimes = stamps
        try:
            bundle = PolicyBundle.from_files(self.paths)
        except OSError as exc:
            self.rejected += 1
            try:
                self.store._reject(REJECT_IO, str(exc))
            except BundleRejected:
                pass
            return None
        active = self.store.active()
        if active is not None and bundle.digest == active.digest:
            self.store.noop_publishes += 1
            self.noops += 1
            return None
        try:
            snapshot = self.store.publish(bundle, origin=self.origin)
        except BundleRejected:
            self.rejected += 1
            return None
        self.reloads += 1
        return snapshot

    def start(self) -> None:
        """Begin polling every ``interval`` simulated seconds."""
        if self._running:
            return
        self._running = True
        # Prime the mtime memo so the first tick only reloads if the
        # files changed *after* start, not merely because they exist.
        for _, path in self.paths:
            try:
                self._mtimes[path] = os.stat(path).st_mtime
            except OSError:
                self._mtimes[path] = -1.0
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        self.clock.call_after(self.interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.poll()
        self._schedule()
