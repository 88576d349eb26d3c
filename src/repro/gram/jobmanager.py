"""The Job Manager Instance (JMI).

Stock GT2 behaviour (paper §4.2): parse the user's RSL, submit the job
to the local job control system, monitor it, and handle management
requests — authorizing those with one static rule, "the Grid identity
of the user making the request must match the Grid identity of the
user who initiated the job".

The paper's extension (§5.2) replaces that rule with the
authorization callout: "this call is made whenever an action needs to
be authorized; that is before creating a job manager request, and
before calls to cancel, query, and signal a running job".  Both modes
are implemented and selected by :class:`AuthorizationMode`, so the
benchmarks can run the two architectures side by side.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence, Tuple

from repro.accounts.enforcement import EnforcementMechanism
from repro.accounts.local import LocalAccount
from repro.accounts.sandbox import ResourceLimits
from repro.core.errors import (
    AuthorizationDenied,
    AuthorizationSystemFailure,
)
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import DecisionContext
from repro.core.request import AuthorizationRequest
from repro.gram.protocol import (
    GramErrorCode,
    GramJobState,
    GramResponse,
    JobContact,
    TraceRecorder,
)
from repro.gram.rsl_utils import JobDescription, JobDescriptionError
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.errors import GSIError
from repro.gsi.names import DistinguishedName
from repro.gsi.verification import verify_credential
from repro.lrm.errors import LRMError
from repro.obs.spans import event as obs_event, span as obs_span
from repro.lrm.jobs import BatchJob, JobState
from repro.lrm.scheduler import BatchScheduler
from repro.rsl.ast import Specification
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock


class AuthorizationMode(enum.Enum):
    """Stock GT2 vs. the paper's callout-extended GRAM."""

    LEGACY = "legacy"
    EXTENDED = "extended"


_LRM_TO_GRAM = {
    JobState.QUEUED: GramJobState.PENDING,
    JobState.RUNNING: GramJobState.ACTIVE,
    JobState.SUSPENDED: GramJobState.SUSPENDED,
    JobState.COMPLETED: GramJobState.DONE,
    JobState.CANCELLED: GramJobState.FAILED,
    JobState.FAILED: GramJobState.FAILED,
}

#: ``(error response, decision context)``: the error is None when the
#: request is permitted, and the context explains the decision either
#: way (None when no PEP decided).
Authorized = Tuple[Optional[GramResponse], Optional[DecisionContext]]


def parse_job(
    rsl_text: str, contact: Optional[JobContact] = None
) -> Tuple[Optional[GramResponse], Optional[JobDescription]]:
    """``(BAD_RSL response, None)`` or ``(None, description)``: the one
    parse of a submission, by whichever step needs it first."""
    try:
        return None, JobDescription.from_spec(parse_specification(rsl_text))
    except (RSLSyntaxError, JobDescriptionError) as exc:
        return (
            GramResponse(code=GramErrorCode.BAD_RSL, message=str(exc), contact=contact),
            None,
        )


def run_pep(
    pep: Optional[EnforcementPoint],
    request: AuthorizationRequest,
    contact: Optional[JobContact] = None,
    owner: Optional[DistinguishedName] = None,
) -> Authorized:
    """Run the PEP on *request*; map outcomes to protocol errors (§5.2).

    The caller attaches the returned context to whatever response it
    builds.  The Gatekeeper-placed PEP (§6.2) decides before any job
    exists, so its errors carry no *contact* and no *owner*.
    """
    assert pep is not None
    job_owner = "" if owner is None else str(owner)
    try:
        decision = pep.authorize(request)
    except AuthorizationDenied as exc:
        return (
            GramResponse(
                code=GramErrorCode.AUTHORIZATION_DENIED,
                message=str(exc),
                reasons=exc.reasons,
                contact=contact,
                job_owner=job_owner,
                decision_context=exc.context,
            ),
            exc.context,
        )
    except AuthorizationSystemFailure as exc:
        return (
            GramResponse(
                code=GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE,
                message=str(exc),
                contact=contact,
                job_owner=job_owner,
                failure_source=exc.source,
                failure_kind=exc.kind,
                decision_context=exc.context,
            ),
            exc.context,
        )
    return None, decision.context


def authorize_management(
    credential: Credential,
    action: str,
    *,
    pep: Optional[EnforcementPoint],
    mode: AuthorizationMode,
    trust_anchors: Tuple,
    contact: JobContact,
    owner: DistinguishedName,
    spec: Optional[Specification],
    at_time: float,
    trace: Callable[[str, str, str], None],
    component: str,
) -> Authorized:
    """Authenticate and authorize one management request on a job.

    The one path a live JMI and the Gatekeeper (for a reaped job)
    share: verify the credential at *at_time*, then apply the GT2 owner
    rule (LEGACY, §4.2) or run the PEP on a request built against the
    job description *spec* (EXTENDED, §5.2).  *spec* is None for a job
    that never started.  *component* is the caller's name on the
    ``pep`` trace edge.
    """
    try:
        verified = verify_credential(credential, trust_anchors, at_time=at_time)
    except GSIError as exc:
        return (
            GramResponse(
                code=GramErrorCode.AUTHENTICATION_FAILED,
                message=str(exc),
                contact=contact,
            ),
            None,
        )
    requester = verified.identity
    if spec is None:
        return (
            GramResponse(
                code=GramErrorCode.NO_SUCH_JOB,
                message="job was never started",
                contact=contact,
            ),
            None,
        )
    if mode is AuthorizationMode.LEGACY:
        # §4.2: identity of requester must match identity of initiator.
        if requester == owner:
            return None, None
        return (
            GramResponse(
                code=GramErrorCode.NOT_JOB_OWNER,
                message=(
                    f"{requester} is not the job initiator {owner} "
                    "(GT2 static management rule)"
                ),
                contact=contact,
                job_owner=str(owner),
            ),
            None,
        )
    try:
        request = AuthorizationRequest.manage(
            requester,
            action,
            spec,
            jobowner=owner,
            job_id=contact.job_id,
            credential=credential,
        )
    except ValueError as exc:
        return (
            GramResponse(
                code=GramErrorCode.BAD_RSL, message=str(exc), contact=contact
            ),
            None,
        )
    trace(component, "pep", f"authorization callout: {action}")
    return run_pep(pep, request, contact, owner)


class JobManagerInstance:
    """One JMI, executing (conceptually) under the owner's local account."""

    def __init__(
        self,
        contact: JobContact,
        owner: DistinguishedName,
        account: LocalAccount,
        scheduler: BatchScheduler,
        clock: Clock,
        mode: AuthorizationMode = AuthorizationMode.EXTENDED,
        pep: Optional[EnforcementPoint] = None,
        enforcement: Optional[EnforcementMechanism] = None,
        anchors: Callable[[], Sequence[CertificateAuthority]] = tuple,
        trace: Optional[TraceRecorder] = None,
        owner_credential: Optional[Credential] = None,
        terminal_listener: Optional[
            Callable[["JobManagerInstance", BatchJob], None]
        ] = None,
    ) -> None:
        if mode is AuthorizationMode.EXTENDED and pep is None:
            raise ValueError("EXTENDED mode requires a PEP")
        self.contact = contact
        self.owner = owner
        self.owner_credential = owner_credential
        self.account = account
        self.scheduler = scheduler
        self.clock = clock
        self.mode = mode
        self.pep = pep
        self.enforcement = enforcement
        #: Reads the resource's trust anchors at each request — the
        #: Gatekeeper's, which may be replaced while this job runs.
        self.anchors = anchors
        self.trace = trace
        self.description: Optional[JobDescription] = None
        self.job: Optional[BatchJob] = None
        #: Invoked exactly once when this JMI's job terminates, after
        #: the enforcement accounting closed — the Gatekeeper's reaper
        #: subscribes here, so one scheduler registration serves both
        #: layers (registrations never exceed active jobs).
        self._terminal_listener = terminal_listener
        #: Set once this JMI's job reached a terminal state and the
        #: enforcement accounting ran — keyed on the contact's job id,
        #: so a stray hook firing can never double-decrement
        #: ``account.running_jobs`` or skip the decrement.
        self._accounting_closed = False

    # -- job invocation -----------------------------------------------------

    def start(self, rsl_text: str, description: Optional[JobDescription] = None) -> GramResponse:
        """Parse (unless the Gatekeeper handed in *description*),
        authorize, admit and submit the job."""
        with obs_span(
            "jobmanager.start", job_id=self.contact.job_id
        ) as span:
            response = self._start(rsl_text, description)
            if span is not None:
                # ``_name_``: the member's name without the ``name``
                # property's cost.
                span.set_attr("code", response.code._name_)
            return response

    def _start(self, rsl_text: str, description: Optional[JobDescription]) -> GramResponse:
        if self.job is not None:
            # A JMI is one-shot: a second start would overwrite
            # self.job/self.description and orphan the first scheduler
            # job together with its terminal accounting.
            return GramResponse(
                code=GramErrorCode.JOB_ALREADY_STARTED,
                message=(
                    f"job manager {self.contact.job_id} already started "
                    f"job {self.job.job_id}"
                ),
                contact=self.contact,
                state=self.state(),
                job_owner=str(self.owner),
            )
        if description is None:
            self._trace("job-manager", "job-manager", "parse RSL")
            error, description = parse_job(rsl_text, self.contact)
            if error is not None:
                return error
        self.description = description

        context: Optional[DecisionContext] = None
        if self.mode is AuthorizationMode.EXTENDED:
            request = AuthorizationRequest.start(
                self.owner,
                description.spec,
                job_id=self.contact.job_id,
                credential=self.owner_credential,
            )
            self._trace("job-manager", "pep", "authorization callout: start")
            denied, context = run_pep(self.pep, request, self.contact, self.owner)
            if denied is not None:
                return denied

        job = BatchJob(
            account=self.account.username,
            executable=description.executable,
            cpus=description.count,
            runtime=description.runtime,
            queue=description.queue,
            max_walltime=description.max_walltime,
            job_id=self.contact.job_id,
        )

        if self.enforcement is not None:
            limits = self._limits_from(description)
            self._trace("job-manager", "enforcement", f"admit ({self.enforcement.name})")
            outcome = self.enforcement.admit(job, self.account, limits)
            if not outcome.admitted:
                return GramResponse(
                    code=GramErrorCode.ENFORCEMENT_REJECTED,
                    message=outcome.reason,
                    contact=self.contact,
                    decision_context=context,
                )

        self._trace("job-manager", "lrm", "submit job")
        try:
            self.scheduler.submit(job)
        except LRMError as exc:
            return GramResponse(
                code=GramErrorCode.RESOURCE_UNAVAILABLE,
                message=str(exc),
                contact=self.contact,
                decision_context=context,
            )
        self.job = job
        if self.enforcement is not None:
            self.enforcement.job_started(job, self.account, self._limits_from(description))
        # One per-job registration serves enforcement accounting and
        # the Gatekeeper's reaper: dispatched in O(1) when *this* job
        # terminates, consumed on fire — it cannot leak into the
        # global hook list and is never scanned for other jobs.  Fires
        # immediately when the job already finished inside submit.
        self.scheduler.on_job_terminal(job.job_id, self._terminal_hook)
        return GramResponse(
            code=GramErrorCode.SUCCESS,
            contact=self.contact,
            state=self.state(),
            job_owner=str(self.owner),
            decision_context=context,
        )

    # -- management ------------------------------------------------------------

    def handle(
        self,
        credential: Credential,
        action: str,
        value: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> GramResponse:
        """Authenticate, authorize and execute a management request."""
        with obs_span(
            "jobmanager.manage", job_id=self.contact.job_id, action=action
        ) as span:
            response = self._handle(credential, action, value=value, at_time=at_time)
            if span is not None:
                span.set_attr("code", response.code._name_)
            return response

    def _handle(
        self,
        credential: Credential,
        action: str,
        value: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> GramResponse:
        self._trace("client", "job-manager", f"management request: {action}")
        started = self.job is not None and self.description is not None
        denied, context = authorize_management(
            credential,
            action,
            pep=self.pep,
            mode=self.mode,
            trust_anchors=self.anchors(),
            contact=self.contact,
            owner=self.owner,
            spec=self.description.spec if started else None,
            at_time=at_time if at_time is not None else self.clock.now,
            trace=self._trace,
            component="job-manager",
        )
        if denied is not None:
            return denied
        return self._execute(action, value, context=context)

    def _execute(
        self,
        action: str,
        value: Optional[int],
        context: Optional[DecisionContext] = None,
    ) -> GramResponse:
        assert self.job is not None
        self._trace("job-manager", "lrm", f"execute {action}")
        try:
            if action in ("cancel",):
                self.scheduler.cancel(self.job.job_id, reason="cancelled via GRAM")
            elif action in ("information", "status"):
                pass  # state is attached to every response below
            elif action == "signal":
                if value is None:
                    return GramResponse(
                        code=GramErrorCode.BAD_RSL,
                        message="signal requires a priority value",
                        contact=self.contact,
                        decision_context=context,
                    )
                # §6.2: the JMI executes with the *initiator's* local
                # credential, so the effective priority is clamped to
                # that account's ceiling even when the requester was
                # authorized — the manager "may not apply their higher
                # resource rights".
                ceiling = self.account.limits.max_priority
                effective = value if ceiling is None else min(value, ceiling)
                self.scheduler.signal_priority(self.job.job_id, effective)
            elif action == "suspend":
                self.scheduler.suspend(self.job.job_id)
            elif action == "resume":
                self.scheduler.resume(self.job.job_id)
            else:
                return GramResponse(
                    code=GramErrorCode.BAD_RSL,
                    message=f"unknown management action {action!r}",
                    contact=self.contact,
                    decision_context=context,
                )
        except LRMError as exc:
            return GramResponse(
                code=GramErrorCode.NO_SUCH_JOB,
                message=str(exc),
                contact=self.contact,
                decision_context=context,
            )
        return GramResponse(
            code=GramErrorCode.SUCCESS,
            contact=self.contact,
            state=self.state(),
            job_owner=str(self.owner),
            decision_context=context,
        )

    # -- helpers -----------------------------------------------------------------

    def state(self) -> Optional[GramJobState]:
        if self.job is None:
            return None
        return _LRM_TO_GRAM[self.job.state]

    @property
    def finished(self) -> bool:
        """True once the job terminated and the accounting closed."""
        return self._accounting_closed

    def _limits_from(self, description: JobDescription) -> ResourceLimits:
        """Enforcement limits: what the (authorized) request declared."""
        return ResourceLimits(
            max_cpu_seconds=description.max_cputime,
            max_wall_seconds=description.max_walltime,
            max_cpus=description.count,
        )

    def _terminal_hook(self, job: BatchJob) -> None:
        """Close the enforcement accounting for this JMI's job.

        Keyed on the *job id* (which equals the contact id), not on
        ``self.job`` object identity, and guarded so it runs exactly
        once — however many paths deliver the terminal event,
        ``account.running_jobs`` is decremented exactly once per
        started job.
        """
        if job.job_id != self.contact.job_id or self._accounting_closed:
            return
        self._accounting_closed = True
        if self.enforcement is not None:
            self.enforcement.job_finished(job, self.account)
        if self._terminal_listener is not None:
            self._terminal_listener(self, job)

    def _trace(self, source: str, target: str, event: str) -> None:
        if self.trace is not None:
            self.trace.record(source, target, event)
        obs_event(target, event)

    def __str__(self) -> str:
        return f"JMI[{self.contact.job_id} owner={self.owner} mode={self.mode.value}]"
