"""GRAM protocol vocabulary: job states, error codes, responses.

The paper extends the GRAM protocol "to return authorization errors
describing reasons for authorization denial as well as authorization
system failures" — the two codes ``AUTHORIZATION_DENIED`` and
``AUTHORIZATION_SYSTEM_FAILURE`` below, each carrying reason strings.
The remaining codes model the stock GT2 vocabulary the extensions sit
beside.

Responses serialize to/from a JSON wire form (``to_wire`` /
``from_wire``) so the extended error vocabulary — reason lists, the
job-owner identity the client extension needs — demonstrably survives
a protocol boundary, not just a Python call.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.pipeline import DecisionContext

_contact_counter = itertools.count(1)


class GramJobState(enum.Enum):
    """Job states as reported to GRAM clients."""

    PENDING = "pending"
    ACTIVE = "active"
    SUSPENDED = "suspended"
    DONE = "done"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (GramJobState.DONE, GramJobState.FAILED)


class GramErrorCode(enum.Enum):
    SUCCESS = 0
    #: GSI authentication failed (bad chain, expired, no possession).
    AUTHENTICATION_FAILED = 1
    #: Stock GT2: the Grid identity is not in the grid-mapfile.
    GRIDMAP_LOOKUP_FAILED = 2
    #: Stock GT2: only the initiator may manage a job.
    NOT_JOB_OWNER = 3
    #: RSL could not be parsed or misses required attributes.
    BAD_RSL = 4
    #: The LRM rejected the job (queue limits, cluster too small).
    RESOURCE_UNAVAILABLE = 5
    #: No job with the given contact.
    NO_SUCH_JOB = 6
    #: Extension: policy evaluated, request denied; reasons attached.
    AUTHORIZATION_DENIED = 7
    #: Extension: the authorization system failed; fails closed.
    AUTHORIZATION_SYSTEM_FAILURE = 8
    #: Enforcement (account/sandbox admission) rejected the job.
    ENFORCEMENT_REJECTED = 9
    #: Admission control: the resource (or this user's slice of it) is
    #: at capacity *right now* — retry later.  Distinct from
    #: ``RESOURCE_UNAVAILABLE``, which means the LRM cannot run the
    #: job at all (unknown queue, cluster too small).
    RESOURCE_BUSY = 10
    #: A Job Manager Instance was asked to start a second job; a JMI
    #: is one-shot and already manages its scheduler job.
    JOB_ALREADY_STARTED = 11

    @property
    def is_authorization_error(self) -> bool:
        return self in (
            GramErrorCode.AUTHORIZATION_DENIED,
            GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE,
        )


@dataclass(frozen=True)
class JobContact:
    """Endpoint identifying one Job Manager Instance.

    GT2 returns a URL like ``https://host:20443/12345/978/`` — we keep
    the same shape with a monotonic id.
    """

    host: str
    job_id: str

    @classmethod
    def fresh(cls, host: str) -> "JobContact":
        return cls(host=host, job_id=f"{next(_contact_counter):d}")

    @property
    def url(self) -> str:
        return f"https://{self.host}:2119/jobmanager/{self.job_id}"

    def __str__(self) -> str:
        return self.url


@dataclass(frozen=True, init=False)
class GramResponse:
    """What the client gets back from any GRAM operation.

    Every GRAM operation builds one, so :meth:`__init__` stores all
    fields in one step instead of the dataclass's one frozen
    ``__setattr__`` per field; the record is still frozen and compares,
    hashes and prints as a plain frozen dataclass.
    """

    code: GramErrorCode
    message: str = ""
    #: Machine-readable denial reasons (extension, §5.2 "Errors").
    reasons: Tuple[str, ...] = ()
    contact: Optional[JobContact] = None
    state: Optional[GramJobState] = None
    #: Identity of the job initiator — the client extension "allowing
    #: it to recognize the identity of the job originator" (§5.2).
    job_owner: str = ""
    #: Extension: for AUTHORIZATION_SYSTEM_FAILURE responses, the
    #: callout or policy source that failed, and how (``"timeout"``,
    #: ``"breaker-open"``, plain ``"error"``) — so a client or
    #: operator can tell *which* part of the authorization system
    #: broke without parsing the message text.
    failure_source: str = ""
    failure_kind: str = ""
    #: For ``RESOURCE_BUSY``: advisory sim-clock seconds after which a
    #: retry could plausibly admit, derived from the admission state
    #: that rejected the request.  Clients honour it instead of blind
    #: immediate retries (see :class:`repro.gram.client.GramClient`).
    retry_after: Optional[float] = None
    #: The decision-pipeline context of the authorization decision
    #: behind this response (extended mode): per-stage timings,
    #: contributing policy sources, cache status.  Excluded from
    #: equality — two responses saying the same thing are equal even
    #: if one was explained and the other reconstructed.
    decision_context: Optional[DecisionContext] = field(
        default=None, compare=False, repr=False
    )

    def __init__(
        self,
        code: GramErrorCode,
        message: str = "",
        reasons: Tuple[str, ...] = (),
        contact: Optional[JobContact] = None,
        state: Optional[GramJobState] = None,
        job_owner: str = "",
        failure_source: str = "",
        failure_kind: str = "",
        retry_after: Optional[float] = None,
        decision_context: Optional[DecisionContext] = None,
    ) -> None:
        self.__dict__.update(
            code=code,
            message=message,
            reasons=reasons,
            contact=contact,
            state=state,
            job_owner=job_owner,
            failure_source=failure_source,
            failure_kind=failure_kind,
            retry_after=retry_after,
            decision_context=decision_context,
        )

    @property
    def ok(self) -> bool:
        return self.code is GramErrorCode.SUCCESS

    def to_wire(self) -> str:
        """Serialize to the JSON wire form."""
        data = {
            "code": self.code.name,
            "message": self.message,
            "reasons": list(self.reasons),
            "contact": (
                {"host": self.contact.host, "job_id": self.contact.job_id}
                if self.contact is not None
                else None
            ),
            "state": self.state.value if self.state is not None else None,
            "job_owner": self.job_owner,
            "failure_source": self.failure_source,
            "failure_kind": self.failure_kind,
            "retry_after": self.retry_after,
        }
        if self.decision_context is not None:
            data["decision_context"] = self.decision_context.to_dict()
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_wire(cls, text: str) -> "GramResponse":
        """Parse the JSON wire form; raises ProtocolError on garbage."""
        try:
            data = json.loads(text)
            contact_data = data.get("contact")
            return cls(
                code=GramErrorCode[data["code"]],
                message=data.get("message", ""),
                reasons=tuple(data.get("reasons", ())),
                contact=(
                    JobContact(
                        host=contact_data["host"], job_id=contact_data["job_id"]
                    )
                    if contact_data
                    else None
                ),
                state=(
                    GramJobState(data["state"])
                    if data.get("state") is not None
                    else None
                ),
                job_owner=data.get("job_owner", ""),
                failure_source=data.get("failure_source", ""),
                failure_kind=data.get("failure_kind", ""),
                retry_after=data.get("retry_after"),
                decision_context=(
                    DecisionContext.from_dict(data["decision_context"])
                    if data.get("decision_context")
                    else None
                ),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed GRAM response: {exc}")

    def __str__(self) -> str:
        parts = [self.code.name]
        if self.failure_source:
            parts.append(
                f"[source={self.failure_source}"
                + (f" kind={self.failure_kind}" if self.failure_kind else "")
                + "]"
            )
        if self.message:
            parts.append(self.message)
        if self.reasons:
            parts.append("; ".join(self.reasons))
        return ": ".join(parts)


class ProtocolError(ValueError):
    """A wire message could not be parsed."""


@dataclass(frozen=True)
class TraceEvent:
    """One component hand-off, for the Figure 1 / Figure 2 traces."""

    source: str
    target: str
    event: str

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}: {self.event}"


class TraceRecorder:
    """Collects component-interaction events.

    The FIG1/FIG2 benchmarks reproduce the paper's architecture
    figures by asserting the exact sequence of hand-offs a request
    generates; every GRAM component records into one of these when
    configured.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, source: str, target: str, event: str) -> None:
        self.events.append(TraceEvent(source=source, target=target, event=event))

    def clear(self) -> None:
        self.events.clear()

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((e.source, e.target) for e in self.events)

    def describe(self) -> str:
        return "\n".join(str(e) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
