"""RSL attribute extensions and special values (paper §5.1).

The paper extends RSL with three attributes:

``action``
    What the requester wants to do with a job: ``start``, ``cancel``,
    ``information`` (status query) or ``signal`` (priority changes and
    other management operations).

``jobowner``
    The Grid identity of the job initiator.  Used in management
    policies: ``(jobowner = self)`` grants rights over one's own jobs,
    ``(jobowner = /O=Grid/...)`` over someone else's.

``jobtag``
    Membership of a job in a named management group.  A policy can
    *require* submissions to carry a jobtag (``(jobtag != NULL)``) and
    then grant other users management rights over that group
    (``(action=cancel)(jobtag=NFC)``).

and two special values:

``NULL``
    The absent/empty value.  ``(attr != NULL)`` requires the request
    to contain *attr* with a non-empty value; ``(attr = NULL)``
    requires the request *not* to contain it.

``self``
    Resolves at evaluation time to the identity of the requester, so
    ``(jobowner = self)`` matches exactly the requester's own jobs.
"""

from __future__ import annotations

import enum

#: Extended attribute: requested operation.
ACTION = "action"

#: Extended attribute: Grid identity of the job initiator.
JOBOWNER = "jobowner"

#: Extended attribute: job management-group membership.
JOBTAG = "jobtag"

#: Special value: the absent/empty value.
NULL = "NULL"

#: Special value: the requester's own identity.
SELF = "self"

#: Attributes whose values compare case-insensitively.  ``action`` is
#: a fixed vocabulary; ``jobtag`` follows Figure 3 of the paper, where
#: ``(jobtag=nfc)`` is clearly intended to match jobs submitted with
#: ``(jobtag=NFC)``.
CASE_INSENSITIVE_ATTRIBUTES = frozenset({ACTION, JOBTAG})

#: Attributes synthesized by the Job Manager rather than supplied in
#: the user's job description.
COMPUTED_ATTRIBUTES = frozenset({ACTION, JOBOWNER})


class Action(enum.Enum):
    """Operations a GRAM request can ask for (paper §5.1).

    The paper's vocabulary is ``start``, ``cancel``, ``information``
    and ``signal``, where "signal describes a variety of job
    management actions such as changing priority".  Suspension and
    resumption — central to the §2 use case of freeing resources for
    high-priority jobs — are two such signals; we promote them to
    first-class actions so policies can grant them separately from
    priority changes.
    """

    START = "start"
    CANCEL = "cancel"
    INFORMATION = "information"
    SIGNAL = "signal"
    SUSPEND = "suspend"
    RESUME = "resume"

    @classmethod
    def parse(cls, text: str) -> "Action":
        # Every management request parses its action: one dict lookup,
        # not a scan reading each member's ``value`` property.
        action = _ACTIONS.get(text.strip().lower())
        if action is None:
            raise ValueError(f"unknown action: {text!r}")
        return action

    @property
    def is_management(self) -> bool:
        """True for operations on an already-running job."""
        return self is not Action.START

    def __str__(self) -> str:
        # ``_value_`` is ``value`` without the property lookup.
        return self._value_


#: Action by its value.  GT2 clients say "status"; the paper's policy
#: vocabulary says "information".  Accept both.
_ACTIONS = {action.value: action for action in Action}
_ACTIONS["status"] = Action.INFORMATION
