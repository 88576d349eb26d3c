"""The GRAM client library.

Wraps a user's credential and a target Gatekeeper.  The paper's
extension required "extensions to the GRAM client allowing the client
to process other identities than that of the client (specifically,
allowing it to recognize the identity of the job originator)" — the
client therefore tracks, per job contact, who owns the job, and does
not pre-filter management requests to self-owned jobs the way the GT2
client effectively did.  It keeps the last :data:`KNOWN_JOBS_LIMIT`
(1,024) jobs it learned about from a response; past that it forgets
the least recently learned one, and the next response naming a
forgotten job teaches it again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gram.gatekeeper import Gatekeeper
from repro.gram.protocol import GramErrorCode, GramJobState, GramResponse, JobContact
from repro.gsi.credentials import Credential

#: Smallest backoff window a ``retry_after`` hint can open.  A busy
#: service that answers ``retry_after=0`` (or a buggy one that sends a
#: negative hint) still intends "come back later", not "hammer me now":
#: clamping to a tiny positive window keeps the suppression machinery
#: engaged instead of silently disabling it at the boundary.
MIN_RETRY_AFTER = 1e-3

#: How many jobs a client remembers: a long-lived client, such as a
#: monitor polling a VO's jobs, would otherwise learn jobs without end.
KNOWN_JOBS_LIMIT = 1024


@dataclass
class _KnownJob:
    contact: JobContact
    owner: str
    last_state: Optional[GramJobState]


class GramClient:
    """A user-side handle for submitting and managing jobs."""

    def __init__(self, credential: Credential, gatekeeper: Gatekeeper) -> None:
        self.credential = credential
        self.gatekeeper = gatekeeper
        #: Known jobs by contact id, least recently learned first.
        self._jobs: "OrderedDict[str, _KnownJob]" = OrderedDict()
        #: Sim-clock time before which submits are locally suppressed
        #: because the service said ``RESOURCE_BUSY`` with a
        #: ``retry_after`` hint.  Honouring the hint client-side keeps
        #: blind retry storms off the gatekeeper entirely.
        self._retry_not_before: float = 0.0
        #: How many submits were answered locally (never sent) because
        #: the retry_after window was still open.
        self.suppressed_retries: int = 0

    @property
    def identity(self) -> str:
        return str(self.credential.identity)

    # -- operations ---------------------------------------------------------

    def submit(self, rsl_text: str) -> GramResponse:
        """Submit a job described by *rsl_text*.

        If the service previously answered ``RESOURCE_BUSY`` with a
        ``retry_after`` hint and that window has not yet elapsed on
        the gatekeeper's sim clock, the submit is suppressed locally:
        a synthetic ``RESOURCE_BUSY`` carrying the remaining wait is
        returned without a round-trip.
        """
        clock = getattr(self.gatekeeper, "clock", None)
        if clock is not None and clock.now < self._retry_not_before:
            self.suppressed_retries += 1
            return GramResponse(
                code=GramErrorCode.RESOURCE_BUSY,
                message="suppressed by client retry_after backoff",
                retry_after=self._retry_not_before - clock.now,
            )
        response = self.gatekeeper.submit(self.credential, rsl_text)
        if (
            response.code is GramErrorCode.RESOURCE_BUSY
            and response.retry_after is not None
            and clock is not None
        ):
            self._retry_not_before = clock.now + max(
                response.retry_after, MIN_RETRY_AFTER
            )
        self._learn(response)
        return response

    def submit_multi(self, rsl_text: str) -> List[GramResponse]:
        """Submit an RSL multi-request: ``+(&(...))(&(...))``.

        Each component specification becomes an independent job (GT2
        fans multi-requests out through DUROC; here each lands on this
        client's gatekeeper).  Plain specifications submit as a
        single-element list.  Each component is authorized separately,
        so one denied component does not block the others.
        """
        from repro.rsl.ast import MultiRequest
        from repro.rsl.parser import parse_rsl
        from repro.rsl.unparser import unparse

        parsed = parse_rsl(rsl_text)
        if isinstance(parsed, MultiRequest):
            return [self.submit(unparse(spec)) for spec in parsed]
        return [self.submit(rsl_text)]

    def cancel(self, contact: JobContact) -> GramResponse:
        return self.manage(contact, "cancel")

    def status(self, contact: JobContact) -> GramResponse:
        return self.manage(contact, "information")

    def signal(self, contact: JobContact, priority: int) -> GramResponse:
        return self.manage(contact, "signal", value=priority)

    def suspend(self, contact: JobContact) -> GramResponse:
        return self.manage(contact, "suspend")

    def resume(self, contact: JobContact) -> GramResponse:
        return self.manage(contact, "resume")

    def manage(
        self, contact: JobContact, action: str, value: Optional[int] = None
    ) -> GramResponse:
        """Send an arbitrary management action to *contact*'s JMI."""
        response = self.gatekeeper.manage(
            self.credential, contact, action, value=value
        )
        self._learn(response)
        return response


    # -- job-owner tracking (the client extension) ----------------------------

    def _learn(self, response: GramResponse) -> None:
        if response.contact is None:
            return
        key = response.contact.job_id
        jobs = self._jobs
        known = jobs.get(key)
        if known is None:
            jobs[key] = _KnownJob(
                contact=response.contact,
                owner=response.job_owner,
                last_state=response.state,
            )
            if len(jobs) > KNOWN_JOBS_LIMIT:
                jobs.popitem(last=False)
        else:
            jobs.move_to_end(key)
            if response.job_owner:
                known.owner = response.job_owner
            if response.state is not None:
                known.last_state = response.state

    def job_owner(self, contact: JobContact) -> Optional[str]:
        """The job originator's identity, as learned from responses.

        May differ from :attr:`identity` — managing other users' jobs
        is the whole point of the paper's jobtag machinery.
        """
        known = self._jobs.get(contact.job_id)
        return known.owner if known and known.owner else None

    def owns(self, contact: JobContact) -> bool:
        owner = self.job_owner(contact)
        return owner is not None and owner == self.identity

    def known_jobs(self) -> Dict[str, str]:
        """contact id -> owner identity of the jobs this client knows.

        These are the last :data:`KNOWN_JOBS_LIMIT` jobs it learned
        about from a response, least recently learned first; an older
        one is forgotten until a response names it again.
        """
        return {key: job.owner for key, job in self._jobs.items()}
