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

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.accounts.dynamic import DynamicAccountError, DynamicAccountPool
from repro.accounts.enforcement import EnforcementMechanism
from repro.accounts.local import AccountRegistry, LocalAccount
from repro.core.pep import EnforcementPoint
from repro.core.request import AuthorizationRequest
from repro.gram.gridmap import GridMapFile
from repro.gram.jobmanager import (
    AuthorizationMode,
    JobManagerInstance,
    authorize_management,
    parse_job,
    run_pep,
)
from repro.gram.lifecycle import (
    AdmissionControl,
    CompletedJobRecord,
    CompletedJobStore,
    LifecycleConfig,
)
from repro.gram.protocol import (
    GramErrorCode,
    GramResponse,
    JobContact,
    TraceRecorder,
)
from repro.gram.rsl_utils import JobDescription
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.errors import GSIError
from repro.gsi.verification import verify_credential
from repro.lrm.errors import LRMError
from repro.lrm.scheduler import BatchScheduler
from repro.obs.spans import Span, event as obs_event, span as obs_span
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
        spill=None,
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
        #: :mod:`repro.gram.lifecycle`).
        self.lifecycle = lifecycle or LifecycleConfig()
        #: Final state of reaped jobs, for post-completion management
        #: requests; durable across restarts when *spill* (a
        #: :class:`~repro.gram.spill.CompletedJobSpill`) is given.
        self.completed = CompletedJobStore(
            retention=self.lifecycle.completed_retention,
            retention_age=self.lifecycle.completed_retention_age,
            clock=clock,
            spill=spill,
        )
        self.admission = AdmissionControl(self.lifecycle)
        self._job_managers: Dict[str, JobManagerInstance] = {}
        self.submissions = 0
        self.authentications_failed = 0
        self.reaped = 0
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
        #: Eviction total last published to the eviction gauges (None:
        #: not yet, so the first publish records the zeros).
        self._published_evictions: Optional[int] = None
        # Telemetry series, each bound at its first use: the
        # ``gram_requests_total`` series by response code per request
        # kind, the reaped counter and the lifecycle gauges (evictions
        # by reason).
        self._submit_series: Dict[str, Any] = {}
        self._manage_series: Dict[str, Any] = {}
        self._reaped_series = None
        self._lifecycle_gauges: Optional[Tuple[Any, Any]] = None
        self._evicted_gauges: Dict[str, Any] = {}

    # -- the request path -----------------------------------------------------

    def submit(self, credential: Credential, rsl_text: str) -> GramResponse:
        """Process a job-invocation request end to end."""
        with self._span("gatekeeper.submit", {"host": self.host}) as span:
            response = self._submit(credential, rsl_text)
            self._count_request(span, self._submit_series, "submit", response)
            return response

    def _submit(self, credential: Credential, rsl_text: str) -> GramResponse:
        self.submissions += 1
        self._trace("client", "gatekeeper", "submit job request")

        # 0. Service-wide backpressure, before any expensive work —
        # an overloaded front door sheds load without paying for
        # credential verification first.
        active = len(self._job_managers)
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
            self.authentications_failed += 1
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

        # 2b. Optional Gatekeeper-placed PEP (§6.2 comparison).  The
        # first step needing the description parses it and hands it on.
        description: Optional[JobDescription] = None
        if self.gatekeeper_pep is not None:
            error, description = parse_job(rsl_text)
            if error is not None:
                return error
            request = AuthorizationRequest.start(
                identity, description.spec, credential=credential
            )
            self._trace("gatekeeper", "pep", "authorization callout: start")
            denied, _ = run_pep(self.gatekeeper_pep, request)
            if denied is not None:
                return denied

        # 3. Map to a local account.
        account, error = self._map_account(identity, entry)
        if account is None:
            return error

        # 3b. GT3-style account configuration from the job description.
        if self.gt3_account_setup and account.dynamic:
            if description is None:
                error, description = parse_job(rsl_text)
                if error is not None:
                    return error
            self._configure_account_gt3(account, description)

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
        response = jmi.start(rsl_text, description)
        if response.ok:
            if not jmi.finished:
                self._job_managers[contact.job_id] = jmi
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
            "gatekeeper.manage", {"host": self.host, "action": action}
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
            self._count_request(span, self._manage_series, "manage", response)
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
        """Terminal listener for a started job: release + reap.

        Invoked exactly once per started job by the JMI's per-job
        scheduler registration, after enforcement accounting closed.
        """
        self.admission.release(str(jmi.owner))
        self._reap(jmi, job)
        self._publish_lifecycle_gauges()

    def _reap(self, jmi: JobManagerInstance, job) -> None:
        self._job_managers.pop(jmi.contact.job_id, None)
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
            )
        )
        self.reaped += 1
        # Drop the LRM-side record too: the whole serving path stays
        # O(active jobs), not O(jobs ever run).
        try:
            self.scheduler.forget(job.job_id)
        except LRMError:
            pass
        if self.telemetry is not None:
            if self._reaped_series is None:
                self._reaped_series = self.telemetry.counter(
                    "gram_lifecycle_reaped_total"
                )
            self._reaped_series.inc()

    def _publish_lifecycle_gauges(self) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        gauges = self._lifecycle_gauges
        if gauges is None:
            gauges = self._lifecycle_gauges = (
                telemetry.gauge("gram_admission_active_jmis"),
                telemetry.gauge("gram_lifecycle_completed_records"),
            )
        gauges[0].set(float(len(self._job_managers)))
        gauges[1].set(float(len(self.completed)))
        # Evictions are rare; republishing identical values on every
        # submit/terminal would tax the hot path for nothing.  Counts
        # only grow, so an unchanged total means unchanged reasons.
        total = self.completed.evicted
        if total != self._published_evictions:
            series = self._evicted_gauges
            for reason, count in self.completed.evicted_by_reason.items():
                gauge = series.get(reason)
                if gauge is None:
                    gauge = series[reason] = telemetry.gauge(
                        "gram_lifecycle_evicted_records", reason=reason
                    )
                gauge.set(float(count))
            self._published_evictions = total

    def _manage_completed(
        self,
        credential: Credential,
        record: CompletedJobRecord,
        action: str,
        value: Optional[int] = None,
    ) -> GramResponse:
        """Answer a management request for a reaped (terminal) job.

        The GRAM protocol keeps ``information``/``status`` answerable
        after completion; management *authorization* still applies,
        through the same code a live JMI runs (§5.2: the callout runs
        "before calls to cancel, query, and signal"), and the
        response carries the decision context just as a live job's
        does.
        """
        self._trace("client", "gatekeeper", f"management request (reaped): {action}")
        denied, context = authorize_management(
            credential,
            action,
            pep=self.pep,
            mode=self.mode,
            trust_anchors=self.trust_anchors,
            contact=record.contact,
            owner=record.owner,
            spec=record.spec,
            at_time=self.clock.now,
            trace=self._trace,
            component="gatekeeper",
        )
        if denied is not None:
            return denied

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
                decision_context=context,
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
                decision_context=context,
            )
        return GramResponse(
            code=GramErrorCode.BAD_RSL,
            message=f"unknown management action {action!r}",
            contact=record.contact,
            decision_context=context,
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
        self, account: LocalAccount, description: JobDescription
    ) -> None:
        """Install the request's declared limits into the account.

        GT3's GRAM makes the job description "available to a trusted
        service as part of job creation, which allows it to configure
        the local account" — the better dynamic-account integration
        the paper's conclusions anticipate.
        """
        from repro.accounts.local import AccountLimits

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

    def _span(self, name: str, attrs: Dict[str, str]):
        if self.telemetry is not None:
            return Span(self.telemetry.tracer, name, attrs)
        return obs_span(name, **attrs)

    def _count_request(
        self, span, series: Dict[str, Any], kind: str, response: GramResponse
    ) -> None:
        """Record *response*'s code on the root span and in
        ``gram_requests_total``, through a series bound per code."""
        # ``_name_`` is the member's name without the ``name``
        # property's cost.
        code = response.code._name_
        if span is not None:
            span.set_attr("code", code)
        if self.telemetry is not None:
            counter = series.get(code)
            if counter is None:
                counter = series[code] = self.telemetry.counter(
                    "gram_requests_total", kind=kind, code=code
                )
            counter.inc()

    def _trace(self, source: str, target: str, event: str) -> None:
        if self.trace is not None:
            self.trace.record(source, target, event)
        obs_event(target, event)
