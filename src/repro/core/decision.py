"""Authorization decisions.

A :class:`Decision` is what a policy decision point returns through
the callout API: an effect (permit / deny / not-applicable /
indeterminate) plus human- and machine-readable reasons.  The paper's
extended GRAM protocol surfaces the reasons to the client.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import DecisionContext


class Effect(enum.Enum):
    """Outcome classes, following the usual PDP vocabulary."""

    PERMIT = "permit"
    DENY = "deny"
    #: No statement in the policy applies to the requester at all.
    #: Under default-deny this behaves like DENY, but combination and
    #: error reporting distinguish "nothing grants this" from "a rule
    #: forbids this".
    NOT_APPLICABLE = "not-applicable"
    #: The PDP failed; treated as a system failure, not a denial.
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, init=False)
class Decision:
    """The result of evaluating one request against one policy.

    Every fresh evaluation builds several, so :meth:`__init__` stores
    all fields in one step; the record is still a frozen dataclass.
    """

    effect: Effect
    reasons: Tuple[str, ...] = ()
    source: str = ""
    #: The pipeline context that produced this decision, when it came
    #: through an :class:`~repro.core.pep.EnforcementPoint` — the full
    #: end-to-end explanation (stages, provenance, cache status).
    #: Excluded from equality: two decisions are the same decision
    #: regardless of how they were derived.
    context: Optional["DecisionContext"] = field(
        default=None, compare=False, repr=False
    )

    def __init__(
        self,
        effect: Effect,
        reasons: Tuple[str, ...] = (),
        source: str = "",
        context: Optional["DecisionContext"] = None,
    ) -> None:
        self.__dict__.update(
            effect=effect, reasons=reasons, source=source, context=context
        )

    @classmethod
    def permit(cls, reason: str = "", source: str = "") -> "Decision":
        return cls(
            effect=Effect.PERMIT,
            reasons=(reason,) if reason else (),
            source=source,
        )

    @classmethod
    def deny(cls, reasons: Sequence[str] = (), source: str = "") -> "Decision":
        return cls(effect=Effect.DENY, reasons=tuple(reasons), source=source)

    @classmethod
    def not_applicable(cls, reason: str = "", source: str = "") -> "Decision":
        return cls(
            effect=Effect.NOT_APPLICABLE,
            reasons=(reason,) if reason else (),
            source=source,
        )

    @classmethod
    def indeterminate(cls, reason: str, source: str = "") -> "Decision":
        return cls(effect=Effect.INDETERMINATE, reasons=(reason,), source=source)

    @property
    def is_permit(self) -> bool:
        return self.effect is Effect.PERMIT

    @property
    def is_deny(self) -> bool:
        """True for every non-permit outcome under default deny."""
        return self.effect is not Effect.PERMIT

    def with_source(self, source: str) -> "Decision":
        return replace(self, source=source)

    def with_context(self, context: Optional["DecisionContext"]) -> "Decision":
        # A copy of the fields with one changed, without ``replace``'s
        # field walk and frozen ``__init__``: the PEP attaches a context
        # to every decision it returns, and a decision may be a cached
        # one shared by many requests, so it is copied, never mutated.
        clone = object.__new__(type(self))
        fields = self.__dict__.copy()
        fields["context"] = context
        object.__setattr__(clone, "__dict__", fields)
        return clone

    def __str__(self) -> str:
        label = self.effect.value
        if self.source:
            label = f"{label}[{self.source}]"
        if self.reasons:
            label = f"{label}: {'; '.join(self.reasons)}"
        return label
