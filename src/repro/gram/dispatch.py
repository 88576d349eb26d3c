"""Sharded dispatch: N full service stacks behind one synchronous API.

The paper's architecture puts one enforcement point in front of one
resource; the reproduction so far funnels every request through a
single interpreter loop, so throughput is whatever one
:class:`~repro.gram.service.GramService` can do.  This module
partitions request handling into *shards* hashed on the requester DN:
every shard is a complete service stack (its own clock, scheduler,
accounts, decision cache, completed-job store, admission counters,
telemetry — the :class:`~repro.gram.lifecycle.ShardState` bundle), so
shards share almost nothing and need almost no locking.  The two
cross-shard concerns are explicit objects:

* the service-wide ``max_active_jmis`` ceiling reads a
  :class:`~repro.gram.lifecycle.SharedGauge` that every shard's
  JMI bookkeeping adjusts atomically;
* policy-epoch bumps go through an :class:`EpochBroadcast` added to
  every shard's :class:`~repro.core.pipeline.EpochView`, so one bump
  invalidates every shard's decision cache, capability grants and
  fail-static store at once.

Every request runs on the caller's thread, in the owning shard's
stack: a sharded service is a loop over plain service stacks, so a
multi-shard run is deterministic end to end and with one shard it is
*exactly* the pre-shard code path — same objects, same order,
byte-for-byte identical exports.

:class:`ShardedGramService` assembles the whole thing and
:class:`ShardedGatekeeper` is the facade a stock
:class:`~repro.gram.client.GramClient` talks to.  See
``docs/concurrency.md`` for the model and its guarantees.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.capability import default_capability_key
from repro.core.store import PolicyBundle, PolicySnapshot
from repro.gram.lifecycle import SharedGauge
from repro.gram.spill import shard_spill_path
from repro.gram.protocol import GramResponse, JobContact
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.obs.exporters import (
    merge_snapshots,
    prometheus_text,
    snapshot_jsonl,
)
from repro.obs.health import HealthMonitor


class EpochBroadcast:
    """The cross-shard policy epoch.

    Exposes ``policy_epoch`` the way every other epoch source does, so
    it can join a :class:`~repro.core.pipeline.EpochView` unchanged;
    :meth:`bump` invalidates every repeat path that watches it — the
    sharded answer to "a policy changed somewhere".
    """

    def __init__(self) -> None:
        self._epoch = 0
        self._lock = threading.Lock()

    @property
    def policy_epoch(self) -> int:
        with self._lock:
            return self._epoch

    def bump(self) -> int:
        """Advance the epoch; every shard's next lookup misses."""
        with self._lock:
            self._epoch += 1
            return self._epoch


class ShardRouter:
    """Deterministic requester-DN → shard mapping.

    Hashes with CRC-32 (not Python's randomized ``hash``) so the same
    DN lands on the same shard in every process, which the
    differential tests and any persisted contact rely on.  A VO-aware
    ``key_fn`` may map a DN to a coarser key — e.g. its VO subtree —
    to pin a whole community to one shard.
    """

    #: Memoized DN→shard resolutions kept before the memo resets.  The
    #: population of *distinct* rendered DNs a service sees is modest
    #: (it is bounded by enrolled users), so in practice the memo never
    #: fills; the cap is a backstop against an adversarial DN stream.
    MEMO_CAP = 65536

    def __init__(
        self,
        shards: int,
        key_fn: Optional[Callable[[str], str]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._key_fn = key_fn
        # DN string -> shard index.  Callers may route from several
        # threads at once, so this is written concurrently — but every
        # access is a single dict get/set (atomic under the GIL) and a
        # lost race merely recomputes the same deterministic value.  The
        # hit/miss counters are advisory and likewise tolerate races.
        self._memo: Dict[str, int] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0

    @property
    def key_fn(self) -> Optional[Callable[[str], str]]:
        return self._key_fn

    @key_fn.setter
    def key_fn(self, key_fn: Optional[Callable[[str], str]]) -> None:
        """Swap the shard-key function, invalidating the route memo.

        The memo caches *resolved* DN→shard routes; entries computed
        under the old key function would keep serving stale routes
        after a re-pin (e.g. moving a hot VO off its shard), so any
        change clears it — the next lookup per DN re-hashes under the
        new key.
        """
        if key_fn is self._key_fn:
            return
        self._key_fn = key_fn
        self._memo.clear()
        self.memo_invalidations += 1

    def shard_key(self, identity: str) -> str:
        return self._key_fn(identity) if self._key_fn is not None else identity

    def shard_for(self, identity: str) -> int:
        if self.shards == 1:
            return 0
        shard = self._memo.get(identity)
        if shard is not None:
            self.memo_hits += 1
            return shard
        self.memo_misses += 1
        key = self.shard_key(identity).encode("utf-8")
        shard = zlib.crc32(key) % self.shards
        if len(self._memo) >= self.MEMO_CAP:
            self._memo.clear()
        self._memo[identity] = shard
        return shard


class ShardedGatekeeper:
    """The facade a stock :class:`~repro.gram.client.GramClient` sees.

    Duck-types the two entry points clients use — :meth:`submit` and
    :meth:`manage` — calling the owning shard's gatekeeper directly.
    Submissions hash on the requester DN; management requests route
    by the *contact's* host (jobs live on the shard that created them
    — that is what lets a peer manage another user's job, the paper's
    whole point, without the peer's own shard mattering).
    """

    def __init__(self, service: "ShardedGramService") -> None:
        self.service = service

    @property
    def clock(self):
        """The reference sim clock (shard 0's), for client-side backoff.

        :class:`~repro.gram.client.GramClient` reads its gatekeeper's
        clock to honour ``retry_after`` hints; every shard's clock
        advances in lockstep through :meth:`ShardedGramService.run`,
        so shard 0's is representative.
        """
        return self.service.shards[0].clock

    def submit(self, credential: Credential, rsl_text: str) -> GramResponse:
        service = self.service
        shard = service.shard_of(str(credential.identity))
        service.record_route(shard, "submit")
        return service.shards[shard].gatekeeper.submit(credential, rsl_text)

    def manage(
        self,
        credential: Credential,
        contact: JobContact,
        action: str,
        value: Optional[int] = None,
    ) -> GramResponse:
        service = self.service
        shard = service.shard_of_contact(contact, str(credential.identity))
        service.record_route(shard, "manage")
        return service.shards[shard].gatekeeper.manage(
            credential, contact, action, value=value
        )

    # -- aggregate views -----------------------------------------------------

    @property
    def submissions(self) -> int:
        return sum(s.gatekeeper.submissions for s in self.service.shards)

    @property
    def authentications_failed(self) -> int:
        return sum(
            s.gatekeeper.authentications_failed for s in self.service.shards
        )

    @property
    def reaped(self) -> int:
        return sum(s.gatekeeper.reaped for s in self.service.shards)

    @property
    def active_job_managers(self) -> int:
        return sum(s.gatekeeper.active_job_managers for s in self.service.shards)

    @property
    def completed_jobs(self) -> int:
        return sum(s.gatekeeper.completed_jobs for s in self.service.shards)


class ShardedGramService:
    """N complete service stacks, one front door.

    Builds ``config.shards`` :class:`~repro.gram.service.GramService`
    instances sharing one CA (so any shard verifies any credential),
    one :class:`~repro.gram.lifecycle.SharedGauge` (the global
    ``max_active_jmis`` ceiling) and one :class:`EpochBroadcast`
    (replay invalidation).  With ``shards=1`` the single shard *is* a
    plain service — same wiring, same behaviour.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        ca: Optional[CertificateAuthority] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        shard_count = self.config.shards
        self.ca = ca or CertificateAuthority("/O=Grid/CN=Reproduction CA")
        self.router = ShardRouter(shard_count, key_fn=self.config.shard_key)
        self.epoch_broadcast = EpochBroadcast()
        #: The one cross-shard mutable value; ``None`` for a single
        #: shard, where the local JMI map already is the global count.
        self.shared_active_jmis = (
            SharedGauge() if shard_count > 1 else None
        )

        # A durable policy store is a *service-level* concern: the
        # sharded service seeds/reads it once, hands every shard the
        # active snapshot's policies, and fans publishes out to every
        # shard (below) — shards do not subscribe separately.
        self.policy_store = self.config.policy_store
        shard_policies = tuple(self.config.policies)
        if self.policy_store is not None:
            if self.policy_store.active() is None and shard_policies:
                self.policy_store.publish(
                    PolicyBundle.from_policies(shard_policies), origin="seed"
                )
            active = self.policy_store.active()
            if active is not None:
                shard_policies = tuple(active.policies)

        # Every shard signs and verifies capabilities with the *same*
        # key (derived from the base host unless one was provisioned):
        # a job's capability is validated on the shard that owns the
        # job, which may differ from the shard of the requester who
        # presents it.
        capability_key = self.config.capability_key
        if self.config.capability_grants and capability_key is None:
            capability_key = default_capability_key(self.config.host)

        self.shards: List[GramService] = []
        for index in range(shard_count):
            host = (
                f"shard{index}.{self.config.host}"
                if shard_count > 1
                else self.config.host
            )
            # Shards never run their own health monitor: the sharded
            # service owns one with a scope per shard plus the merged
            # service view, so N shards cost one engine, not N.
            shard_config = replace(
                self.config,
                host=host,
                shards=1,
                capability_key=capability_key,
                health_slo=False,
                policies=shard_policies,
                policy_store=None,
                spill_path=(
                    shard_spill_path(
                        self.config.spill_path, index, shard_count
                    )
                    if self.config.spill_path
                    else None
                ),
            )
            self.shards.append(
                GramService(
                    shard_config,
                    ca=self.ca,
                    shard_index=index,
                    shared_active_jmis=self.shared_active_jmis,
                )
            )
        for shard in self.shards:
            # bump_policy_epoch() stales every shard's replayed
            # decisions and its reverse index before the next request.
            shard.epoch_view.add("broadcast", self.epoch_broadcast)
            if shard.query_engine is not None:
                shard.query_engine.add_epoch_source(self.epoch_broadcast)
        #: Requests routed to each shard by the front door, by kind —
        #: the raw material of :meth:`placement_report`.  Callers may
        #: drive the facade from several threads, hence the lock.
        self._route_lock = threading.Lock()
        self.routed_submissions: List[int] = [0] * shard_count
        self.routed_management: List[int] = [0] * shard_count
        self._host_to_shard: Dict[str, int] = {
            shard.config.host: index for index, shard in enumerate(self.shards)
        }
        self.gatekeeper = ShardedGatekeeper(self)
        #: Health & SLO monitor scoring the merged service view plus
        #: each shard (None unless ``config.health_slo``).
        self.health: Optional[HealthMonitor] = self._build_health()
        if self.policy_store is not None:
            # Shard 0's validator speaks for all shards (identical
            # source topology); publishes fan out to every shard.
            self.policy_store.add_validator(self.shards[0]._validate_bundle)
            self.policy_store.subscribe(self.apply_policy_snapshot)

    # -- routing -------------------------------------------------------------

    def shard_of(self, identity: str) -> int:
        """The shard serving *identity*'s submissions."""
        return self.router.shard_for(identity)

    def shard_of_contact(self, contact: JobContact, identity: str) -> int:
        """The shard owning *contact*'s job.

        Contacts carry the host of the shard that minted them; a
        contact from elsewhere falls back to the requester's own shard,
        which correctly answers ``NO_SUCH_JOB``.
        """
        shard = self._host_to_shard.get(contact.host)
        if shard is not None:
            return shard
        return self.shard_for_fallback(identity)

    def shard_for_fallback(self, identity: str) -> int:
        return self.router.shard_for(identity)

    # -- assembly conveniences (mirror GramService) --------------------------

    def add_user(self, identity: str, account: str, **account_kwargs):
        """Issue one credential; enroll the mapping on every shard.

        The credential comes from the shared CA, so it authenticates
        on any shard; accounts and grid-mapfile entries are replicated
        so management requests routed to a job's shard always find the
        requester enrolled there.
        """
        credential = self.ca.issue(identity, now=self.shards[0].clock.now)
        for shard in self.shards:
            if not shard.accounts.exists(account):
                shard.accounts.create(account, **account_kwargs)
            shard.gridmap.add(identity, account)
        return credential

    def run(self, duration: float) -> None:
        """Advance every shard's clock by *duration*, shard by shard."""
        for shard in self.shards:
            shard.run(duration)
        # Every shard has advanced past this point, so the snapshots
        # the health windows close over are quiescent.
        if self.health is not None:
            self.health.maybe_tick(self.shards[0].clock.now)

    def _build_health(self) -> Optional[HealthMonitor]:
        if not self.config.health_slo:
            return None
        monitor = HealthMonitor(
            window=self.config.health_window,
            retain=self.config.health_retain,
            specs=self.config.health_specs,
            recorder_limit=self.config.flight_recorder_limit,
            start=self.shards[0].clock.now,
        )
        monitor.add_scope("service", self.merged_snapshot)
        for index, shard in enumerate(self.shards):
            if shard.telemetry is None:
                continue
            monitor.add_scope(
                f"shard{index}", shard.telemetry.registry.snapshot
            )
            monitor.attach_tracer(f"shard{index}", shard.telemetry.tracer)
        return monitor

    def harden(self, *args, **kwargs) -> None:
        """Apply the resilience layer on every shard."""
        for shard in self.shards:
            shard.harden(*args, **kwargs)

    def bump_policy_epoch(self) -> int:
        """Invalidate every shard's replayed decisions in one step.

        The broadcast is a member of every shard's epoch view: the
        decision cache misses, every outstanding capability is revoked
        and fail-static stops serving its last-known-good decisions.
        """
        return self.epoch_broadcast.bump()

    # -- durable control plane ----------------------------------------------

    def apply_policy_snapshot(self, snapshot: PolicySnapshot) -> int:
        """Swap *snapshot*'s policies into every shard; returns swaps.

        Each shard swaps atomically between two of its requests, so a
        shard never evaluates half-old, half-new policy.  Registered
        as the policy store's subscriber when ``config.policy_store``
        is set.
        """
        return sum(shard.apply_policy_snapshot(snapshot) for shard in self.shards)

    def set_shard_key(
        self, key_fn: Optional[Callable[[str], str]]
    ) -> None:
        """Reconfigure DN→shard-key placement, invalidating the memo.

        Without the memo invalidation a reconfigured ``shard_key``
        would keep returning routes computed under the old key for
        every identity seen before the change — the stale-route bug
        this setter exists to prevent.
        """
        self.config = replace(self.config, shard_key=key_fn)
        self.router.key_fn = key_fn

    def reload_callouts(self, path: str) -> int:
        """Hot-reload a callout configuration file on every shard.

        Returns the total callouts loaded across shards (0 when the
        file content is byte-identical to what every shard already
        runs — the digest short-circuit, so a no-op reload revokes
        nothing anywhere).
        """
        return sum(shard.reload_callouts(path) for shard in self.shards)

    @property
    def recovery(self):
        """Per-shard recovery results (empty when no spill configured)."""
        return tuple(
            shard.recovery
            for shard in self.shards
            if shard.recovery is not None
        )

    # -- placement ----------------------------------------------------------

    def record_route(self, shard: int, kind: str) -> None:
        """Count one front-door routing decision (see placement_report)."""
        with self._route_lock:
            if kind == "submit":
                self.routed_submissions[shard] += 1
            else:
                self.routed_management[shard] += 1

    def placement_report(self) -> Dict[str, Any]:
        """Per-shard load and skew, for ``shard_key`` placement tuning.

        A VO-aware ``shard_key`` pins whole communities to one shard;
        this report shows what that does to the load balance: routed
        request counts per shard, live/completed job state, and a
        ``skew`` ratio (peak shard's routed load over the mean).  A
        perfectly balanced service reports skew ~1.0; a hot-VO pin
        shows up as skew approaching the shard count.
        """
        with self._route_lock:
            submissions = list(self.routed_submissions)
            management = list(self.routed_management)
        health_report = (
            self.health.latest_report if self.health is not None else None
        )
        rows: List[Dict[str, Any]] = []
        for index, shard in enumerate(self.shards):
            routed = submissions[index] + management[index]
            row: Dict[str, Any] = {
                "shard": index,
                "host": shard.config.host,
                "routed_submissions": submissions[index],
                "routed_management": management[index],
                "routed_total": routed,
                "served_submissions": shard.gatekeeper.submissions,
                "active_jmis": shard.gatekeeper.active_job_managers,
                "completed_jobs": shard.gatekeeper.completed_jobs,
            }
            if health_report is not None:
                row["health_status"] = health_report.status_of(
                    f"shard{index}"
                )
                row["health_score"] = health_report.score_of(f"shard{index}")
            rows.append(row)
        totals = [row["routed_total"] for row in rows]
        total = sum(totals)
        mean = total / len(rows) if rows else 0.0
        peak = max(totals) if totals else 0
        hot = totals.index(peak) if totals else 0
        report: Dict[str, Any] = {
            "shards": rows,
            "total_routed": total,
            "mean_routed": mean,
            "peak_routed": peak,
            "hot_shard": hot,
            "skew": (peak / mean) if mean else 0.0,
        }
        if health_report is not None:
            # A shard is *hot* when it both carries outsized load and
            # its health says the load hurts — routed skew alone flags
            # pinned-but-fine shards, health alone flags sick-but-idle
            # ones; the intersection is what rebalancing should move.
            skew_threshold = 1.5
            report["health"] = health_report.worst_status()
            report["hot_shards"] = [
                row["shard"]
                for row in rows
                if (
                    (mean and row["routed_total"] / mean >= skew_threshold)
                    or row.get("health_status") != "healthy"
                )
            ]
        return report

    # -- merged observability ------------------------------------------------

    def merged_snapshot(self) -> List[Dict[str, Any]]:
        """One service-wide metrics snapshot summed across shards."""
        return merge_snapshots(
            [
                shard.telemetry.registry.snapshot()
                for shard in self.shards
                if shard.telemetry is not None
            ]
        )

    def merged_prometheus(self) -> str:
        return prometheus_text(self.merged_snapshot())

    def merged_metrics_jsonl(self) -> str:
        return snapshot_jsonl(self.merged_snapshot())

    def merged_value(self, name: str, **labels) -> float:
        """Sum one counter/gauge series across every shard registry."""
        return sum(
            shard.telemetry.registry.value(name, **labels)
            for shard in self.shards
            if shard.telemetry is not None
        )

    def merged_spans(self) -> List[Dict[str, Any]]:
        """Every shard's finished spans, trace ids shard-prefixed.

        Each shard's tracer numbers its traces independently
        (``req-%06d``), so the merge qualifies them as
        ``shard{i}:req-%06d`` to keep correlation ids unique
        service-wide.
        """
        merged: List[Dict[str, Any]] = []
        for index, shard in enumerate(self.shards):
            if shard.telemetry is None:
                continue
            for _, spans in shard.telemetry.tracer.traces:
                for span in spans:
                    data = span.to_dict()
                    data["trace"] = f"shard{index}:{data['trace']}"
                    merged.append(data)
        return merged
