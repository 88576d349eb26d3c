"""The Gatekeeper (paper §4.1).

"The Gatekeeper is responsible for authenticating the requesting Grid
user, authorizing their job invocation request and determining the
account in which their job should be run."

Steps on a submission:

1. **Authenticate** — verify the presented credential chain against
   the resource's trust anchors and check possession (GSI).
2. **Authorize** — grid-mapfile lookup; optionally a Gatekeeper-placed
   PEP callout (the §6.2 alternative placement, off by default).
3. **Map** — Grid identity → local account, from the grid-mapfile or,
   when configured, a dynamic-account pool for identities with no
   static account (§6.1).
4. **Spawn** — create a Job Manager Instance running under the mapped
   account and hand it the request.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.accounts.dynamic import DynamicAccountError, DynamicAccountPool
from repro.accounts.enforcement import EnforcementMechanism
from repro.accounts.local import AccountRegistry, LocalAccount
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.pep import EnforcementPoint
from repro.core.request import AuthorizationRequest
from repro.gram.gridmap import GridMapFile
from repro.gram.jobmanager import AuthorizationMode, JobManagerInstance
from repro.gram.lifecycle import (
    AdmissionControl,
    CompletedJobRecord,
    CompletedJobStore,
    LifecycleConfig,
    ShardState,
)
from repro.gram.protocol import (
    GramErrorCode,
    GramResponse,
    JobContact,
    TraceRecorder,
)
from repro.gram.rsl_utils import JobDescriptionError, JobDescription
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.errors import GSIError
from repro.gsi.verification import verify_credential
from repro.lrm.errors import LRMError
from repro.lrm.scheduler import BatchScheduler
from repro.obs.spans import event as obs_event, span as obs_span
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock


class Gatekeeper:
    """Front door of a GRAM resource."""

    def __init__(
        self,
        host: str,
        trust_anchors: Sequence[CertificateAuthority],
        gridmap: GridMapFile,
        accounts: AccountRegistry,
        scheduler: BatchScheduler,
        clock: Clock,
        mode: AuthorizationMode = AuthorizationMode.EXTENDED,
        pep: Optional[EnforcementPoint] = None,
        gatekeeper_pep: Optional[EnforcementPoint] = None,
        enforcement: Optional[EnforcementMechanism] = None,
        dynamic_pool: Optional[DynamicAccountPool] = None,
        trace: Optional[TraceRecorder] = None,
        gt3_account_setup: bool = False,
        telemetry=None,
        lifecycle: Optional[LifecycleConfig] = None,
        state: Optional[ShardState] = None,
        service_time: float = 0.0,
        query_engine=None,
    ) -> None:
        self.host = host
        self.trust_anchors = tuple(trust_anchors)
        self.gridmap = gridmap
        self.accounts = accounts
        self.scheduler = scheduler
        self.clock = clock
        self.mode = mode
        self.pep = pep
        self.gatekeeper_pep = gatekeeper_pep
        self.enforcement = enforcement
        self.dynamic_pool = dynamic_pool
        self.trace = trace
        #: Optional :class:`repro.obs.Telemetry` — when set, every
        #: submission/management request opens a *root* span here, so
        #: the whole Gatekeeper → JMI → PEP → callout → source path
        #: nests under one correlation (trace) id.
        self.telemetry = telemetry
        #: GT3-style setup (the paper's conclusions): the job
        #: description is available to the trusted service at job
        #: creation, so a freshly leased dynamic account can be
        #: configured from the *request's* declared limits before the
        #: (untrusted) JMI ever runs.
        self.gt3_account_setup = gt3_account_setup
        #: Lifecycle layer: JMI reaping + admission control (see
        #: :mod:`repro.gram.lifecycle`).  All of it — live JMIs,
        #: the bounded ``completed`` store, admission counters — lives
        #: in one :class:`ShardState` bundle, owned by this Gatekeeper
        #: in the single-service configuration or handed in by the
        #: sharded dispatcher (:mod:`repro.gram.dispatch`).
        if state is None:
            state = ShardState(lifecycle or LifecycleConfig(), clock)
        elif lifecycle is not None and state.lifecycle is not lifecycle:
            raise ValueError("pass lifecycle via the ShardState, not both")
        self.state = state
        self.lifecycle = state.lifecycle
        #: Simulated seconds this Gatekeeper's interpreter loop spends
        #: per request (0 = free, the stock behaviour).  The throughput
        #: benchmark sets it so each shard's clock advances as requests
        #: are served, making per-shard parallelism measurable in
        #: simulated time.
        self.service_time = service_time
        #: Optional :class:`repro.core.query.QueryEngine` — the
        #: epoch-guarded reverse authorization index.  When set, a
        #: submission whose (identity, start) is a *guaranteed* DENY
        #: is answered here, after the grid-mapfile lookup but before
        #: account mapping and JMI spawn — no pipeline invocation.
        #: Deny-safe by construction (the differential suite pins it):
        #: anything the index cannot prove falls through to the full
        #: path.
        self.query_engine = query_engine
        #: ``(chain version, live)`` memo of :meth:`_fast_deny_live`.
        self._fast_deny_chain: Tuple[Optional[int], bool] = (None, False)
        self._published_evictions: Dict[str, int] = {}

    # -- shard-state views ------------------------------------------------------
    # The counters share their names with ShardedGatekeeper's cross-shard
    # sums, so callers read either gatekeeper the same way.

    @property
    def completed(self) -> CompletedJobStore:
        return self.state.completed

    @property
    def admission(self) -> AdmissionControl:
        return self.state.admission

    @property
    def _job_managers(self) -> Dict[str, JobManagerInstance]:
        return self.state.job_managers

    @property
    def submissions(self) -> int:
        return self.state.submissions

    @property
    def authentications_failed(self) -> int:
        return self.state.authentications_failed

    @property
    def reaped(self) -> int:
        return self.state.reaped

    # -- the request path -----------------------------------------------------

    def submit(self, credential: Credential, rsl_text: str) -> GramResponse:
        """Process a job-invocation request end to end."""
        with self._span("gatekeeper.submit", host=self.host) as span:
            response = self._submit(credential, rsl_text)
            if span is not None:
                span.set_attr("code", response.code.name)
            if self.telemetry is not None:
                self.telemetry.count(
                    "gram_requests_total",
                    kind="submit",
                    code=response.code.name,
                )
            if self.service_time:
                self.clock.advance(self.service_time)
            return response

    def _submit(self, credential: Credential, rsl_text: str) -> GramResponse:
        self.state.submissions += 1
        self._trace("client", "gatekeeper", "submit job request")

        # 0. Service-wide backpressure, before any expensive work —
        # an overloaded front door sheds load without paying for
        # credential verification first.
        active = self.state.global_active_jmis()
        rejection = self.admission.check_global(active)
        if rejection is not None:
            return self._admission_rejected(
                *rejection,
                retry_after=self.admission.retry_after_hint(
                    rejection[0], active_jmis=active
                ),
            )

        # 1. Authenticate.
        self._trace("gatekeeper", "gsi", "authenticate credential")
        try:
            verified = verify_credential(
                credential, self.trust_anchors, at_time=self.clock.now
            )
        except GSIError as exc:
            self.state.authentications_failed += 1
            return GramResponse(
                code=GramErrorCode.AUTHENTICATION_FAILED, message=str(exc)
            )
        identity = verified.identity

        # 1b. Per-user admission: in-flight job cap.
        rejection = self.admission.check_user(str(identity))
        if rejection is not None:
            return self._admission_rejected(
                *rejection,
                retry_after=self.admission.retry_after_hint(
                    rejection[0], identity=str(identity)
                ),
            )

        # 2. Authorize: grid-mapfile ACL.
        self._trace("gatekeeper", "grid-mapfile", "lookup identity")
        entry = self.gridmap.lookup(identity)
        if entry is None and self.dynamic_pool is None:
            return GramResponse(
                code=GramErrorCode.GRIDMAP_LOOKUP_FAILED,
                message=f"{identity} has no grid-mapfile entry",
            )

        # 2a. Admission fast-deny: when the epoch-guarded reverse
        # index can *prove* no policy source could permit this
        # identity's start, answer the denial here — no RSL parse,
        # no account mapping, no JMI, no pipeline.  Undecided falls
        # through to the full path; deny-safety is pinned by the
        # differential suite, and ensure_fresh() inside the check
        # rebuilds on any policy-epoch bump first.
        if self.query_engine is not None and self._fast_deny_live():
            pre = self.query_engine.check_action(str(identity), "start")
            if pre.guaranteed_deny:
                self._trace(
                    "gatekeeper", "query-index", f"fast deny ({pre.level})"
                )
                return GramResponse(
                    code=GramErrorCode.AUTHORIZATION_DENIED,
                    message=(
                        "authorization denied (reverse-index fast deny, "
                        f"{pre.level} level)"
                    ),
                    reasons=pre.reasons,
                )

        # 2b. Optional Gatekeeper-placed PEP (§6.2 comparison).
        if self.gatekeeper_pep is not None:
            try:
                spec = parse_specification(rsl_text)
                description = JobDescription.from_spec(spec)
            except (RSLSyntaxError, JobDescriptionError) as exc:
                return GramResponse(code=GramErrorCode.BAD_RSL, message=str(exc))
            request = AuthorizationRequest.start(
                identity, description.spec, credential=credential
            )
            self._trace("gatekeeper", "pep", "authorization callout: start")
            try:
                self.gatekeeper_pep.authorize(request)
            except AuthorizationDenied as exc:
                return GramResponse(
                    code=GramErrorCode.AUTHORIZATION_DENIED,
                    message=str(exc),
                    reasons=exc.reasons,
                    decision_context=exc.context,
                )
            except AuthorizationSystemFailure as exc:
                return GramResponse(
                    code=GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE,
                    message=str(exc),
                    failure_source=exc.source,
                    failure_kind=exc.kind,
                    decision_context=exc.context,
                )

        # 3. Map to a local account.
        account, error = self._map_account(identity, entry)
        if account is None:
            return error

        # 3b. GT3-style account configuration from the job description.
        if self.gt3_account_setup and account.dynamic:
            error = self._configure_account_gt3(account, rsl_text)
            if error is not None:
                return error

        # 4. Spawn the Job Manager Instance.
        contact = JobContact.fresh(self.host)
        self._trace("gatekeeper", "job-manager", "spawn JMI under local account")
        jmi = JobManagerInstance(
            contact=contact,
            owner=identity,
            account=account,
            scheduler=self.scheduler,
            clock=self.clock,
            mode=self.mode,
            pep=self.pep,
            enforcement=self.enforcement,
            trust_anchors=self.trust_anchors,
            trace=self.trace,
            owner_credential=credential,
            terminal_listener=self._job_terminal,
        )
        # The in-flight slot is taken *before* start: the job may run
        # to terminal inside start (zero walltime budget), in which
        # case the terminal listener has already released it.
        self.admission.note_started(str(identity))
        response = jmi.start(rsl_text)
        if response.ok:
            if not jmi.finished:
                self.state.add_jmi(contact.job_id, jmi)
            self._publish_lifecycle_gauges()
        else:
            self.admission.release(str(identity))
        return response

    def job_manager(self, contact: JobContact) -> Optional[JobManagerInstance]:
        """Route a management request to its JMI."""
        return self._job_managers.get(contact.job_id)

    def manage(
        self,
        credential: Credential,
        contact: JobContact,
        action: str,
        value: Optional[int] = None,
    ) -> GramResponse:
        """Entry point for management requests arriving at the resource."""
        with self._span(
            "gatekeeper.manage", host=self.host, action=action
        ) as span:
            jmi = self.job_manager(contact)
            if jmi is not None:
                response = jmi.handle(credential, action, value=value)
            else:
                record = self.completed.get(contact.job_id)
                if record is not None:
                    response = self._manage_completed(
                        credential, record, action, value=value
                    )
                else:
                    response = GramResponse(
                        code=GramErrorCode.NO_SUCH_JOB,
                        message=f"no job manager at {contact}",
                    )
            if span is not None:
                span.set_attr("code", response.code.name)
            if self.telemetry is not None:
                self.telemetry.count(
                    "gram_requests_total",
                    kind="manage",
                    code=response.code.name,
                )
            if self.service_time:
                self.clock.advance(self.service_time)
            return response

    @property
    def active_job_managers(self) -> int:
        return len(self._job_managers)

    @property
    def completed_jobs(self) -> int:
        """Completed-job records currently retained."""
        return len(self.completed)

    # -- internals ---------------------------------------------------------------

    def _fast_deny_live(self) -> bool:
        """May the reverse index answer for the PEP's callout chain?

        Only while the chain holds a callout deciding from the
        evaluator the index inverts: the chain is all-must-permit, so
        that member's guaranteed deny is the whole chain's, and once
        the chain is replaced the index proves nothing about it.
        Re-checked only when the registry's chain version moves.
        """
        registry = self.pep.registry
        version, live = self._fast_deny_chain
        if version != registry.chain_version:
            version = registry.chain_version
            live = registry.decides_from(
                self.pep.callout_type, self.query_engine.combined
            )
            self._fast_deny_chain = (version, live)
        return live

    def _admission_rejected(
        self, scope: str, reason: str, retry_after: Optional[float] = None
    ) -> GramResponse:
        self._trace("gatekeeper", "admission", f"reject ({scope})")
        if self.telemetry is not None:
            self.telemetry.count("gram_admission_rejected_total", scope=scope)
        return GramResponse(
            code=GramErrorCode.RESOURCE_BUSY,
            message=reason,
            retry_after=retry_after,
        )

    def _job_terminal(self, jmi: JobManagerInstance, job) -> None:
        """Terminal listener for a started job: release + (optionally) reap.

        Invoked exactly once per started job by the JMI's per-job
        scheduler registration, after enforcement accounting closed.
        """
        self.admission.release(str(jmi.owner))
        if self.lifecycle.reap:
            self._reap(jmi, job)
        self._publish_lifecycle_gauges()

    def _reap(self, jmi: JobManagerInstance, job) -> None:
        self.state.pop_jmi(jmi.contact.job_id)
        state = jmi.state()
        assert state is not None and jmi.description is not None
        self.completed.add(
            CompletedJobRecord(
                contact=jmi.contact,
                owner=jmi.owner,
                state=state,
                exit_reason=job.exit_reason,
                finished_at=self.clock.now,
                account=jmi.account.username,
                spec=jmi.description.spec,
                capability=jmi.capability,
            )
        )
        self.state.reaped += 1
        # Drop the LRM-side record too: the whole serving path stays
        # O(active jobs), not O(jobs ever run).
        try:
            self.scheduler.forget(job.job_id)
        except LRMError:
            pass
        if self.telemetry is not None:
            self.telemetry.count("gram_lifecycle_reaped_total")

    def _publish_lifecycle_gauges(self) -> None:
        if self.telemetry is None:
            return
        self.telemetry.set_gauge(
            "gram_admission_active_jmis", float(len(self._job_managers))
        )
        self.telemetry.set_gauge(
            "gram_lifecycle_completed_records", float(len(self.completed))
        )
        # Evictions are rare; republishing identical values on every
        # submit/terminal would tax the hot path for nothing.
        evictions = self.completed.evicted_by_reason
        if evictions != self._published_evictions:
            for reason, count in evictions.items():
                self.telemetry.set_gauge(
                    "gram_lifecycle_evicted_records",
                    float(count),
                    reason=reason,
                )
            self._published_evictions = dict(evictions)

    def _manage_completed(
        self,
        credential: Credential,
        record: CompletedJobRecord,
        action: str,
        value: Optional[int] = None,
    ) -> GramResponse:
        """Answer a management request for a reaped (terminal) job.

        The GRAM protocol keeps ``information``/``status`` answerable
        after completion; management *authorization* still applies —
        the legacy owner rule or the PEP callout, exactly as it would
        on a live JMI (§5.2: the callout runs "before calls to cancel,
        query, and signal").
        """
        self._trace("client", "gatekeeper", f"management request (reaped): {action}")
        try:
            verified = verify_credential(
                credential, self.trust_anchors, at_time=self.clock.now
            )
        except GSIError as exc:
            return GramResponse(
                code=GramErrorCode.AUTHENTICATION_FAILED,
                message=str(exc),
                contact=record.contact,
            )
        requester = verified.identity

        if self.mode is AuthorizationMode.LEGACY:
            if requester != record.owner:
                return GramResponse(
                    code=GramErrorCode.NOT_JOB_OWNER,
                    message=(
                        f"{requester} is not the job initiator {record.owner} "
                        "(GT2 static management rule)"
                    ),
                    contact=record.contact,
                    job_owner=str(record.owner),
                )
        else:
            assert self.pep is not None
            try:
                request = AuthorizationRequest.manage(
                    requester,
                    action,
                    record.spec,
                    jobowner=record.owner,
                    job_id=record.job_id,
                    credential=credential,
                )
            except ValueError as exc:
                return GramResponse(
                    code=GramErrorCode.BAD_RSL,
                    message=str(exc),
                    contact=record.contact,
                )
            self._trace("gatekeeper", "pep", f"authorization callout: {action}")
            try:
                self.pep.authorize(request)
            except AuthorizationDenied as exc:
                return GramResponse(
                    code=GramErrorCode.AUTHORIZATION_DENIED,
                    message=str(exc),
                    reasons=exc.reasons,
                    contact=record.contact,
                    job_owner=str(record.owner),
                    decision_context=exc.context,
                )
            except AuthorizationSystemFailure as exc:
                return GramResponse(
                    code=GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE,
                    message=str(exc),
                    contact=record.contact,
                    job_owner=str(record.owner),
                    failure_source=exc.source,
                    failure_kind=exc.kind,
                    decision_context=exc.context,
                )

        # Execute against the final state.  information/status report
        # it; cancel of a finished job is the same no-op it is on a
        # live JMI; anything needing a running job is NO_SUCH_JOB,
        # mirroring the LRM's "already finished" behaviour.
        if action in ("information", "status", "cancel"):
            return GramResponse(
                code=GramErrorCode.SUCCESS,
                message=record.exit_reason,
                contact=record.contact,
                state=record.state,
                job_owner=str(record.owner),
            )
        if action in ("signal", "suspend", "resume"):
            return GramResponse(
                code=GramErrorCode.NO_SUCH_JOB,
                message=(
                    f"job {record.job_id} already finished "
                    f"({record.exit_reason})"
                ),
                contact=record.contact,
                job_owner=str(record.owner),
            )
        return GramResponse(
            code=GramErrorCode.BAD_RSL,
            message=f"unknown management action {action!r}",
            contact=record.contact,
        )

    def _map_account(
        self, identity, entry
    ) -> Tuple[Optional[LocalAccount], Optional[GramResponse]]:
        if entry is not None:
            username = entry.default_account
            self._trace("gatekeeper", "accounts", f"map to account {username!r}")
            try:
                return self.accounts.get(username), None
            except KeyError:
                return None, GramResponse(
                    code=GramErrorCode.GRIDMAP_LOOKUP_FAILED,
                    message=(
                        f"grid-mapfile maps {identity} to {username!r} but no "
                        "such local account exists"
                    ),
                )
        # No static mapping: lease a dynamic account (§6.1).
        assert self.dynamic_pool is not None
        lease = self.dynamic_pool.lease_for(str(identity))
        if lease is None:
            self._trace("gatekeeper", "accounts", "allocate dynamic account")
            try:
                lease = self.dynamic_pool.allocate(str(identity))
            except DynamicAccountError as exc:
                return None, GramResponse(
                    code=GramErrorCode.RESOURCE_UNAVAILABLE, message=str(exc)
                )
        else:
            self._trace("gatekeeper", "accounts", "reuse dynamic account lease")
        return lease.account, None

    def _configure_account_gt3(
        self, account: LocalAccount, rsl_text: str
    ) -> Optional[GramResponse]:
        """Install the request's declared limits into the account.

        GT3's GRAM makes the job description "available to a trusted
        service as part of job creation, which allows it to configure
        the local account" — the better dynamic-account integration
        the paper's conclusions anticipate.  Returns an error response
        on unparsable descriptions, else None.
        """
        from repro.accounts.local import AccountLimits

        try:
            spec = parse_specification(rsl_text)
            description = JobDescription.from_spec(spec)
        except (RSLSyntaxError, JobDescriptionError) as exc:
            return GramResponse(code=GramErrorCode.BAD_RSL, message=str(exc))
        self._trace(
            "gatekeeper", "accounts", "configure dynamic account from request"
        )
        account.reconfigure(
            AccountLimits(
                max_cpus_per_job=description.count,
                cpu_quota_seconds=description.max_cputime,
                allowed_executables=frozenset({description.executable}),
            ),
            groups=account.groups,
        )
        return None

    def _span(self, name: str, **attrs):
        if self.telemetry is not None:
            return self.telemetry.span(name, **attrs)
        return obs_span(name, **attrs)

    def _trace(self, source: str, target: str, event: str) -> None:
        if self.trace is not None:
            self.trace.record(source, target, event)
        obs_event(target, event)
