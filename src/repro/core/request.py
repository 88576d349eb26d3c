"""The authorization request handed to the PEP.

The paper's callout passes "the credential of the user requesting a
remote job, the credential of the user who originally started the job,
the action to be performed, a unique job identifier, and the job
description expressed in RSL" (§5.2).  :class:`AuthorizationRequest`
carries exactly these, plus helpers to build the *evaluation
specification* — the job description augmented with the computed
``action`` and ``jobowner`` attributes that the policy language can
refer to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.core.attributes import ACTION, Action, JOBOWNER, JOBTAG
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import Relation, Relop, Specification

if TYPE_CHECKING:  # pragma: no cover
    from repro.gsi.credentials import Credential


def _dn(value: Union[str, DistinguishedName]) -> DistinguishedName:
    if isinstance(value, DistinguishedName):
        return value
    return DistinguishedName.parse(value)


#: Set on a job description: its jobtag, as ``first_value`` reads it.
_JOBTAG_ATTR = "_jobtag"
_UNSCANNED = object()


def description_jobtag(spec: Specification) -> Optional[str]:
    """``spec.first_value(JOBTAG)``, found once and kept on *spec*.

    A description is frozen and shared by every request about its job
    (the start, then each status, cancel and ``information``), so it
    is scanned once, as its hash and evaluation view are.
    """
    jobtag = spec.__dict__.get(_JOBTAG_ATTR, _UNSCANNED)
    if jobtag is _UNSCANNED:
        jobtag = spec.first_value(JOBTAG)
        object.__setattr__(spec, _JOBTAG_ATTR, jobtag)
    return jobtag


@dataclass(frozen=True, init=False)
class AuthorizationRequest:
    """One authorization question: may *requester* do *action*?

    ``job_description`` is the RSL specification of the job — for a
    start request the submitted description, for a management request
    the description of the (already running) target job.  ``jobowner``
    is ``None`` for start requests (the requester will be the owner)
    and the initiator's identity for management requests.

    Every decision builds one, so :meth:`__init__` stores all fields in
    one step; the record is still a frozen dataclass.
    """

    requester: DistinguishedName
    action: Action
    job_description: Specification
    jobowner: Optional[DistinguishedName] = None
    job_id: str = ""
    #: The credential the requester presented, when available.  The
    #: paper's callout receives "the credential of the user requesting
    #: a remote job" — credential-aware policy sources (CAS restricted
    #: proxies) read their policy from here.  Excluded from equality
    #: so requests still compare by what is being asked.
    credential: Optional["Credential"] = field(default=None, compare=False)

    def __init__(
        self,
        requester: DistinguishedName,
        action: Action,
        job_description: Specification,
        jobowner: Optional[DistinguishedName] = None,
        job_id: str = "",
        credential: Optional["Credential"] = None,
    ) -> None:
        self.__dict__.update(
            requester=requester,
            action=action,
            job_description=job_description,
            jobowner=jobowner,
            job_id=job_id,
            credential=credential,
        )

    @classmethod
    def start(
        cls,
        requester: Union[str, DistinguishedName],
        job_description: Specification,
        job_id: str = "",
        credential: Optional["Credential"] = None,
    ) -> "AuthorizationRequest":
        """A job-invocation request; the requester is the prospective owner."""
        who = _dn(requester)
        return cls(
            requester=who,
            action=Action.START,
            job_description=job_description,
            jobowner=who,
            job_id=job_id,
            credential=credential,
        )

    @classmethod
    def manage(
        cls,
        requester: Union[str, DistinguishedName],
        action: Union[str, Action],
        job_description: Specification,
        jobowner: Union[str, DistinguishedName],
        job_id: str = "",
        credential: Optional["Credential"] = None,
    ) -> "AuthorizationRequest":
        """A management request on a running job."""
        act = action if isinstance(action, Action) else Action.parse(action)
        if act is Action.START:
            raise ValueError("use AuthorizationRequest.start for start requests")
        return cls(
            requester=_dn(requester),
            action=act,
            job_description=job_description,
            jobowner=_dn(jobowner),
            job_id=job_id,
            credential=credential,
        )

    @property
    def owner(self) -> DistinguishedName:
        """The job initiator (the requester itself for start requests)."""
        return self.jobowner if self.jobowner is not None else self.requester

    @property
    def is_self_managed(self) -> bool:
        """True when the requester manages their own job."""
        return self.requester == self.owner

    @property
    def jobtag(self) -> Optional[str]:
        return description_jobtag(self.job_description)

    def evaluation_specification(self) -> Specification:
        """Job description plus the computed ``action``/``jobowner``.

        Any ``action`` or ``jobowner`` relations already present in the
        description are replaced — a client must not be able to spoof
        the computed attributes by writing them into its RSL.
        """
        spec = self.job_description.without(ACTION).without(JOBOWNER)
        spec = spec.merged_with(
            Specification.make(
                [
                    Relation.make(ACTION, Relop.EQ, str(self.action)),
                    Relation.make(JOBOWNER, Relop.EQ, str(self.owner)),
                ]
            )
        )
        return spec

    def __str__(self) -> str:
        target = f" job={self.job_id}" if self.job_id else ""
        return f"{self.requester} requests {self.action}{target}"
