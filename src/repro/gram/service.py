"""Assembly glue: build a complete GRAM resource in one call.

Examples, tests and benchmarks all need the same wiring — clock,
cluster, scheduler, accounts, grid-mapfile, policy sources, callout
registry, PEP, Gatekeeper.  :class:`GramService` assembles it from a
:class:`ServiceConfig` so each scenario only states what differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.accounts.dynamic import DynamicAccountPool
from repro.accounts.enforcement import (
    DynamicAccountEnforcement,
    EnforcementMechanism,
    SandboxEnforcement,
    StaticAccountEnforcement,
)
from repro.accounts.local import AccountRegistry
from repro.core.builtin_callouts import combined_policy_callout, initiator_only
from repro.core.capability import (
    CapabilityIssuer,
    CapabilityMiddleware,
    default_capability_key,
)
from repro.core.callout import (
    GATEKEEPER_AUTHZ_CALLOUT,
    GRAM_AUTHZ_CALLOUT,
    CalloutRegistry,
    default_registry,
)
from repro.core.model import Policy
from repro.core.pep import EnforcementPoint, PEPPlacement
from repro.core.query import QueryEngine
from repro.core.pipeline import DecisionCache, EpochView
from repro.core.resilience import ResilienceConfig
from repro.core.store import (
    REJECT_SOURCES,
    BundleRejected,
    PolicyBundle,
    PolicySnapshot,
    PolicyWatcher,
)
from repro.gram.gatekeeper import Gatekeeper
from repro.gram.gridmap import GridMapFile
from repro.gram.jobmanager import AuthorizationMode
from repro.gram.lifecycle import LifecycleConfig, ShardState, SharedGauge
from repro.gram.spill import CompletedJobSpill, RecoveryResult
from repro.gram.protocol import TraceRecorder
from repro.gsi.credentials import CertificateAuthority
from repro.lrm.cluster import Cluster
from repro.obs import HealthMonitor, Telemetry
from repro.lrm.queues import JobQueue
from repro.lrm.scheduler import BatchScheduler
from repro.sim.clock import Clock


@dataclass
class ServiceConfig:
    """Everything configurable about a simulated GRAM resource."""

    host: str = "grid.example.org"
    node_count: int = 8
    cpus_per_node: int = 4
    queues: Tuple[JobQueue, ...] = (JobQueue(name="default"),)
    mode: AuthorizationMode = AuthorizationMode.EXTENDED
    #: Policy sources combined by the PEP (VO policy, local policy, ...).
    policies: Tuple[Policy, ...] = ()
    #: "static", "dynamic", "sandbox", or None for no enforcement layer.
    enforcement: Optional[str] = "static"
    dynamic_pool_size: int = 0
    #: Place an additional PEP in the Gatekeeper (§6.2 comparison).
    pep_in_gatekeeper: bool = False
    #: GT3-style trusted account setup (paper's conclusions): dynamic
    #: accounts are configured from the job description before the JMI
    #: runs.
    gt3_account_setup: bool = False
    record_trace: bool = False
    #: Enable the policy-epoch decision cache on the Job Manager PEP
    #: (see :class:`repro.core.pipeline.DecisionCache`) — repeated
    #: identical checks (the job-monitoring poll loop) hit the cache
    #: until a policy source mutates.
    decision_cache: bool = False
    #: Unified telemetry (:mod:`repro.obs`): labeled metrics registry
    #: plus correlated span tracing across Gatekeeper → JMI → PEP →
    #: callout → policy-source.  Deterministic under the sim clock and
    #: cheap, so it is on by default.
    telemetry: bool = True
    #: Reap terminal JMIs into the Gatekeeper's bounded completed-job
    #: store (:mod:`repro.gram.lifecycle`), keeping resident job state
    #: O(active jobs) under sustained churn.  Post-completion
    #: ``information``/``status`` requests still answer from the store.
    reap_jmis: bool = True
    #: Completed-job records retained after reaping (FIFO eviction).
    completed_retention: int = 1024
    #: Maximum age in simulated seconds of a retained completed-job
    #: record (None = count bound only); see
    #: :class:`repro.gram.lifecycle.CompletedJobStore`.
    completed_retention_age: Optional[float] = None
    #: Admission control: per-user in-flight job cap (None = off).
    max_jobs_per_user: Optional[int] = None
    #: Admission control: service-wide active-JMI ceiling (None = off).
    #: Under a sharded service the ceiling is enforced against the
    #: cross-shard :class:`~repro.gram.lifecycle.SharedGauge`.
    max_active_jmis: Optional[int] = None
    #: Signed capability grants (:mod:`repro.core.capability`): after
    #: a full combined PERMIT the PEP mints an HMAC-signed token bound
    #: to the service's epoch view, and repeat identical requests are
    #: served by validate-first (signature/TTL/epoch/scope) instead of
    #: re-deciding.  Fail-closed: any epoch bump revokes.
    capability_grants: bool = False
    #: Reverse-index admission fast-deny (:mod:`repro.core.query`):
    #: the Gatekeeper answers submissions whose (identity, start) is a
    #: *guaranteed* DENY straight from the epoch-guarded reverse
    #: authorization index — after the grid-mapfile lookup, before
    #: account mapping, JMI spawn or any pipeline invocation.
    #: Deny-safe only: undecided requests take the full path.  A
    #: sharded service watches the cross-shard epoch broadcast too, so
    #: ``bump_policy_epoch()`` invalidates the index service-wide.
    query_fast_deny: bool = False
    #: HMAC key for capability signing (None = derive one
    #: deterministically from the host; a sharded service shares the
    #: base host's key across every shard).
    capability_key: Optional[bytes] = None
    #: Number of request-handling shards.  ``1`` is the plain single
    #: service; ``> 1`` requires building through
    #: :class:`repro.gram.dispatch.ShardedGramService`, which hashes
    #: each requester DN to a shard with its own full service stack.
    shards: int = 1
    #: VO-aware shard-key override: maps a requester DN string to the
    #: string actually hashed for shard selection (None = hash the DN
    #: itself).  Lets a deployment pin a whole VO subtree to one shard.
    shard_key: Optional[Callable[[str], str]] = None
    #: Simulated seconds of Gatekeeper interpreter-loop work per
    #: request (0 = free).  The throughput benchmark sets this so each
    #: shard's clock advances as it serves, making shard parallelism
    #: measurable in simulated time.
    request_service_time: float = 0.0
    #: Health & SLO engine (:mod:`repro.obs.health`): windowed
    #: burn-rate evaluation of the service's telemetry into
    #: healthy/degraded/critical reports, with a flight recorder that
    #: freezes evidence on a critical transition.  Requires
    #: ``telemetry``; driven from :meth:`GramService.run`.
    health_slo: bool = False
    #: Window width in simulated seconds for health evaluation.
    health_window: float = 5.0
    #: Durable, versioned policy control plane
    #: (:class:`repro.core.store.VersionedPolicyStore`).  When set,
    #: the service serves the store's *active* snapshot (seeding the
    #: store from ``policies`` if it is empty) and subscribes to
    #: publishes: each publish atomically swaps the pre-compiled
    #: policies into the combined evaluator, so every repeat path and
    #: the query engine observe one consistent epoch step — and an
    #: invalid or byte-identical bundle never disturbs the serving
    #: epoch at all.
    policy_store: Optional[object] = None
    #: JSONL spill file for the completed-job store
    #: (:mod:`repro.gram.spill`).  Inserts/evictions append; a service
    #: (re)built with the same path recovers the records and
    #: re-authorizes post-reap requests identically to the
    #: pre-restart service.  A sharded service derives one file per
    #: shard from this base path.
    spill_path: Optional[str] = None


class GramService:
    """A fully wired simulated resource."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        ca: Optional[CertificateAuthority] = None,
        shard_index: int = 0,
        shared_active_jmis: Optional[SharedGauge] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.shards > 1 and shared_active_jmis is None:
            raise ValueError(
                "shards > 1 needs the sharded assembly — build a "
                "repro.gram.dispatch.ShardedGramService instead"
            )
        #: Which shard of a sharded service this stack is (0 for the
        #: plain single service).
        self.shard_index = shard_index
        self.clock = Clock()
        self.ca = ca or CertificateAuthority("/O=Grid/CN=Reproduction CA")
        self.cluster = Cluster.homogeneous(
            self.config.host.split(".")[0],
            node_count=self.config.node_count,
            cpus_per_node=self.config.cpus_per_node,
        )
        self.scheduler = BatchScheduler(
            self.cluster, self.clock, queues=list(self.config.queues)
        )
        self.accounts = AccountRegistry()
        self.gridmap = GridMapFile()
        self.trace = TraceRecorder() if self.config.record_trace else None
        #: Unified telemetry: one metrics registry + tracer shared by
        #: every instrumented layer of this resource (None when
        #: ``config.telemetry`` is off).
        self.telemetry: Optional[Telemetry] = (
            Telemetry(clock=self.clock) if self.config.telemetry else None
        )

        #: Policies actually served: the policy store's active
        #: snapshot when one is attached, else ``config.policies``.
        self._effective_policies: Tuple[Policy, ...] = tuple(
            self.config.policies
        )
        if self.config.policy_store is not None:
            self._adopt_policy_store()

        self.registry: CalloutRegistry = default_registry()
        #: The combined policy evaluator behind the configured callout
        #: (None in LEGACY mode or when no policies are installed).
        self.combined_evaluator = None
        self._configure_callouts()
        #: What every replayed decision depends on, shared by the
        #: decision cache, capability grants, fail-static and every
        #: circuit breaker.  The registry's epoch folds in every
        #: configured callout's own policy (the combined evaluator a
        #: policy-store publish swaps included); a grid-mapfile change
        #: must revoke too.
        self.epoch_view = EpochView(
            [("callouts", self.registry), ("gridmap", self.gridmap)]
        )
        #: The capability fast path on the Job Manager PEP (None when
        #: ``config.capability_grants`` is off).
        self.capability: Optional[CapabilityMiddleware] = (
            self._build_capability()
        )
        #: Epoch-guarded reverse authorization index
        #: (:class:`repro.core.query.QueryEngine`) feeding the
        #: Gatekeeper's admission fast-deny (None when
        #: ``config.query_fast_deny`` is off or no policies are
        #: configured).
        self.query_engine: Optional[QueryEngine] = self._build_query_engine()
        self.pep = EnforcementPoint(
            registry=self.registry,
            placement=PEPPlacement.JOB_MANAGER,
            capability=self.capability,
            cache=self._build_decision_cache(),
            telemetry=self.telemetry,
        )
        self.gatekeeper_pep = (
            EnforcementPoint(
                registry=self.registry,
                callout_type=GATEKEEPER_AUTHZ_CALLOUT,
                placement=PEPPlacement.GATEKEEPER,
                telemetry=self.telemetry,
            )
            if self.config.pep_in_gatekeeper
            else None
        )

        #: The live :class:`ResilienceConfig` once :meth:`harden` ran
        #: (shared metrics, per-source breakers); None until then.
        self.resilience: Optional[ResilienceConfig] = None

        self.enforcement = self._build_enforcement()
        self.dynamic_pool = (
            DynamicAccountPool(
                self.accounts, self.clock, size=self.config.dynamic_pool_size
            )
            if self.config.dynamic_pool_size > 0
            else None
        )

        #: JSONL durability for the completed-job store (None unless
        #: ``config.spill_path``); recovery happens below, after the
        #: state bundle exists to load into.
        self.spill = (
            CompletedJobSpill(self.config.spill_path)
            if self.config.spill_path
            else None
        )
        #: The :class:`~repro.gram.spill.RecoveryResult` of this
        #: service's restart recovery (None when no spill configured).
        self.recovery: Optional[RecoveryResult] = None

        #: This stack's per-request mutable state, bundled so a
        #: sharded service can hold one per shard (the dispatch layer
        #: reads it for merged snapshots; see ``repro.gram.dispatch``).
        self.shard_state = ShardState(
            LifecycleConfig(
                reap=self.config.reap_jmis,
                completed_retention=self.config.completed_retention,
                completed_retention_age=self.config.completed_retention_age,
                max_jobs_per_user=self.config.max_jobs_per_user,
                max_active_jmis=self.config.max_active_jmis,
            ),
            self.clock,
            shard_index=shard_index,
            shared_active_jmis=shared_active_jmis,
            spill=self.spill,
        )
        if self.spill is not None:
            self._recover_completed_jobs()
        self.gatekeeper = Gatekeeper(
            host=self.config.host,
            trust_anchors=[self.ca],
            gridmap=self.gridmap,
            accounts=self.accounts,
            scheduler=self.scheduler,
            clock=self.clock,
            mode=self.config.mode,
            pep=self.pep,
            gatekeeper_pep=self.gatekeeper_pep,
            enforcement=self.enforcement,
            dynamic_pool=self.dynamic_pool,
            trace=self.trace,
            gt3_account_setup=self.config.gt3_account_setup,
            telemetry=self.telemetry,
            state=self.shard_state,
            service_time=self.config.request_service_time,
            query_engine=self.query_engine,
        )

        #: Health & SLO monitor over this stack's telemetry (None
        #: unless ``config.health_slo``); ticked from :meth:`run`.
        self.health: Optional[HealthMonitor] = self._build_health()

        #: The live file watcher once :meth:`watch_policy_files` ran.
        self.policy_watcher: Optional[PolicyWatcher] = None
        if self.config.policy_store is not None:
            store = self.config.policy_store
            store.add_validator(self._validate_bundle)
            store.subscribe(self.apply_policy_snapshot)

    # -- convenience ------------------------------------------------------------

    def add_user(self, identity: str, account: str, **account_kwargs):
        """Issue a credential, create the account, add the mapping."""
        credential = self.ca.issue(identity, now=self.clock.now)
        if not self.accounts.exists(account):
            self.accounts.create(account, **account_kwargs)
        self.gridmap.add(identity, account)
        return credential

    def run(self, duration: float) -> None:
        """Advance simulated time (and close due health windows)."""
        self.clock.advance(duration)
        if self.health is not None:
            self.health.maybe_tick(self.clock.now)

    def harden(
        self, resilience: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Apply the resilience layer to the configured callouts and PEPs.

        Tests that inject faults *inside* the resilience wrapper build
        the service, inject, then call this — wrapping happens in
        place via the registry's public
        :meth:`~repro.core.callout.CalloutRegistry.wrap` hook, so
        whatever is configured at that moment (faulty or not) ends up
        behind the timeout/retry/breaker.

        A config without a clock or registry is bound to this
        service's: timeouts, retry backoff and breaker resets run on
        the service clock, and the ``resilience_*``/``breaker_*``
        series land in its registry.

        Hardening is applied at most once: a second call would stack
        another timeout/retry/breaker layer onto the already-wrapped
        callouts (doubling every retry budget and timing out twice),
        so it raises instead.
        """
        if self.resilience is not None:
            raise RuntimeError(
                "harden() was already applied to this service; build a "
                "new GramService to change the resilience configuration"
            )
        if resilience is None:
            resilience = ResilienceConfig()
        if resilience.clock is None:
            resilience.clock = self.clock
        if resilience.registry is None and self.telemetry is not None:
            resilience.registry = self.telemetry.registry
        self.resilience = resilience
        self.registry.wrap(GRAM_AUTHZ_CALLOUT, self._resilient)
        if self.config.pep_in_gatekeeper:
            self.registry.wrap(GATEKEEPER_AUTHZ_CALLOUT, self._resilient)
        self.pep.use_resilience(resilience.middleware(self.epoch_view))
        if self.gatekeeper_pep is not None:
            self.gatekeeper_pep.use_resilience(
                resilience.middleware(self.epoch_view)
            )
        return resilience

    def _resilient(self, label: str, callout):
        """*callout* behind the resilience layer, its breaker re-armed
        by any move of the service's epoch view."""
        return self.resilience.wrap(
            callout, name=label, epoch_source=self.epoch_view
        )

    # -- durable control plane ---------------------------------------------------

    def _adopt_policy_store(self) -> None:
        """Serve the store's active snapshot (seeding it if empty).

        Runs before the callout registry is built, so the combined
        evaluator is constructed straight from the snapshot's
        pre-compiled policies.
        """
        store = self.config.policy_store
        if self.telemetry is not None and store.metrics_registry is None:
            store.bind_registry(self.telemetry.registry)
        if store.active() is None and self._effective_policies:
            store.publish(
                PolicyBundle.from_policies(self._effective_policies),
                origin="seed",
            )
        active = store.active()
        if active is not None:
            self._effective_policies = tuple(active.policies)

    def _validate_bundle(self, bundle, policies) -> None:
        """Veto bundles this service could not swap in atomically.

        Hot reload replaces policy *content*, not policy *topology*:
        the bundle's source names must match the serving combined
        evaluator's members exactly.  Adding or removing a policy
        source changes the enforcement structure (capability epoch
        names, query-index membership) and requires a restart — the
        same restart-for-structure rule real control planes apply.
        """
        if self.combined_evaluator is None:
            raise BundleRejected(
                REJECT_SOURCES,
                "service has no combined policy evaluator to swap into",
            )
        serving = tuple(e.source for e in self.combined_evaluator.evaluators)
        offered = tuple(p.name or "policy" for p in policies)
        if offered != serving:
            raise BundleRejected(
                REJECT_SOURCES,
                f"bundle sources {offered!r} != serving sources {serving!r}",
            )

    def apply_policy_snapshot(self, snapshot: PolicySnapshot) -> int:
        """Atomically swap *snapshot*'s policies into the live engines.

        Each member evaluator whose policy content changed is swapped
        via :meth:`~repro.core.evaluator.PolicyEvaluator.replace_policy`
        (a reference flip — publish already compiled), bumping its
        epoch.  The epoch view (through the callout registry) and the
        query engine both watch those epochs, so every consumer
        observes the swap as one consistent epoch step: requests
        before it decide (and validate capabilities) entirely under
        the old epoch, requests after it entirely under the new one.
        Returns the number of sources swapped.
        """
        if self.combined_evaluator is None:
            return 0
        by_name = {policy.name: policy for policy in snapshot.policies}
        swapped = 0
        for evaluator in self.combined_evaluator.evaluators:
            policy = by_name.get(evaluator.source)
            if policy is not None and policy is not evaluator.policy:
                evaluator.replace_policy(policy)
                swapped += 1
        if swapped and self.telemetry is not None:
            self.telemetry.count("policy_swap_total", float(swapped))
        return swapped

    def watch_policy_files(
        self, paths, interval: float = 5.0
    ) -> PolicyWatcher:
        """Start hot reload: poll *paths* (``(source, path)`` pairs)
        every *interval* simulated seconds through the policy store."""
        store = self.config.policy_store
        if store is None:
            raise ValueError(
                "watch_policy_files needs ServiceConfig.policy_store"
            )
        watcher = PolicyWatcher(
            store, paths, clock=self.clock, interval=interval
        )
        watcher.start()
        self.policy_watcher = watcher
        return watcher

    def reload_callouts(self, path: str) -> int:
        """(Re)apply a callout configuration file, epoch-aware.

        Byte-identical content is a no-op — zero callouts reloaded,
        no epoch bump, every outstanding capability token survives.
        Changed content replaces the callouts the file previously
        configured, bumps the registry epoch (revoking capabilities
        and invalidating the decision cache, fail-closed) and, on a
        hardened service, wraps the fresh callouts in the resilience
        layer like the originals.
        """
        count = self.registry.configure_from_file(path, reload=True)
        if count and self.resilience is not None:
            for type_name, label in self.registry.file_labels(path):
                self.registry.wrap(type_name, self._resilient, label=label)
        return count

    def _recover_completed_jobs(self) -> None:
        """Replay the spill file into the completed-job store.

        Restores the simulated clock to the latest spilled timestamp
        first, so recovered records age exactly as they would have on
        the uninterrupted service.
        """
        result = self.spill.recover()
        if result.last_at > self.clock.now:
            self.clock.advance(result.last_at - self.clock.now)
        if result.records:
            self.shard_state.completed.preload(result.records)
        self.recovery = result
        if self.telemetry is not None and (
            result.replayed_lines or result.skipped_lines
        ):
            self.telemetry.count(
                "gram_recovery_records_total", float(len(result.records))
            )
            if result.skipped_lines:
                self.telemetry.count(
                    "gram_recovery_skipped_lines_total",
                    float(result.skipped_lines),
                )

    # -- internals ---------------------------------------------------------------

    def _build_health(self) -> Optional[HealthMonitor]:
        if not self.config.health_slo:
            return None
        if self.telemetry is None:
            raise ValueError("health_slo requires telemetry")
        monitor = HealthMonitor(
            window=self.config.health_window, start=self.clock.now
        )
        monitor.add_scope("service", self.telemetry.registry.snapshot)
        monitor.attach_tracer("service", self.telemetry.tracer)
        return monitor

    def _configure_callouts(self) -> None:
        if self.config.mode is AuthorizationMode.LEGACY:
            self.registry.register(GRAM_AUTHZ_CALLOUT, initiator_only)
            self._register_gatekeeper_callout(initiator_only)
            return
        if self._effective_policies:
            callout = combined_policy_callout(
                list(self._effective_policies),
                registry=self.telemetry.registry if self.telemetry else None,
            )
            self.combined_evaluator = callout.evaluator
            self.registry.register(GRAM_AUTHZ_CALLOUT, callout)
            self._register_gatekeeper_callout(callout)
        else:
            # Extended mode with no policy configured: fail closed by
            # leaving the callout unconfigured would make every request
            # a system failure; the stock initiator rule is the sane
            # default for a resource that has not installed policies.
            self.registry.register(GRAM_AUTHZ_CALLOUT, initiator_only)
            self._register_gatekeeper_callout(initiator_only)

    def _register_gatekeeper_callout(self, callout) -> None:
        """The §6.2 placement invokes its own abstract callout type."""
        if self.config.pep_in_gatekeeper:
            self.registry.register(GATEKEEPER_AUTHZ_CALLOUT, callout)

    def _build_capability(self) -> Optional[CapabilityMiddleware]:
        if not self.config.capability_grants:
            return None
        key = self.config.capability_key
        if key is None:
            key = default_capability_key(self.config.host)
        issuer = CapabilityIssuer(key=key, clock=self.clock, view=self.epoch_view)
        return CapabilityMiddleware(
            issuer,
            registry=self.telemetry.registry if self.telemetry else None,
        )

    def _build_query_engine(self) -> Optional[QueryEngine]:
        if not self.config.query_fast_deny:
            return None
        if self.combined_evaluator is None:
            # LEGACY mode or no policies: there is nothing to invert,
            # and the initiator rule can never be statically denied.
            return None
        return QueryEngine.from_combined(
            self.combined_evaluator,
            registry=self.telemetry.registry if self.telemetry else None,
            consumer="gatekeeper",
        )

    def _build_decision_cache(self) -> Optional[DecisionCache]:
        if not self.config.decision_cache:
            return None
        return DecisionCache(self.epoch_view)

    def _build_enforcement(self) -> Optional[EnforcementMechanism]:
        kind = self.config.enforcement
        if kind is None:
            return None
        if kind == "static":
            return StaticAccountEnforcement()
        if kind == "dynamic":
            return DynamicAccountEnforcement()
        if kind == "sandbox":
            return SandboxEnforcement(scheduler=self.scheduler, clock=self.clock)
        raise ValueError(f"unknown enforcement kind {kind!r}")
