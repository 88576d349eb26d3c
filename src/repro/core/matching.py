"""Relation-matching semantics for policy assertions.

A policy assertion is an RSL conjunction, e.g.
``&(action=start)(executable=test1)(count<4)``.  Each relation is
checked against the request's evaluation specification according to
the rules below; the assertion matches iff every relation is
satisfied.  These rules realise the paper's three assertion types
(§5.1: permitted-to-contain, required-to-contain, required-not-to-
contain):

``(attr = v1 v2 ...)``
    The request must contain *attr* and every one of its values must
    be among ``v1 v2 ...``.  ``self`` in the value list resolves to
    the requester's identity.  ``NULL`` in the value list instead
    means the attribute must be **absent** — ``(queue = NULL)`` is the
    required-not-to-contain form.

``(attr != v1 v2 ...)``
    The request must not contain *attr* with any of the listed values
    (an absent attribute trivially satisfies this).  The special form
    ``(attr != NULL)`` is required-to-contain: the attribute must be
    present with a non-empty value.

``(attr < n)`` and friends
    The request must contain *attr*, every value must be numeric, and
    every value must satisfy the comparison.  (The Job Manager
    canonicalises job descriptions — e.g. ``count`` defaults to 1 —
    before evaluation, so resource-limit relations always have a value
    to bite on.)

Value comparison is numeric when both sides parse as numbers
(``4`` matches ``4.0``), case-insensitive for the ``action`` and
``jobtag`` attributes (Figure 3 of the paper relies on this), and
exact string comparison otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.attributes import (
    CASE_INSENSITIVE_ATTRIBUTES,
    NULL,
    SELF,
)
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import (
    Concatenation,
    Relation,
    Relop,
    Specification,
    VariableReference,
    _try_number,
)


class MatchContext:
    """Evaluation-time bindings for special values (one per evaluation)."""

    __slots__ = ("requester",)

    def __init__(self, requester: Optional[DistinguishedName] = None) -> None:
        self.requester = requester

    def resolve(self, attribute: str, value_text: str) -> str:
        """Resolve ``self`` to the requester identity."""
        if value_text == SELF and self.requester is not None:
            return str(self.requester)
        return value_text


@dataclass(frozen=True)
class RelationOutcome:
    """Whether one assertion relation was satisfied, and why not."""

    satisfied: bool
    reason: str = ""

    @classmethod
    def fail(cls, reason: str) -> "RelationOutcome":
        return cls(satisfied=False, reason=reason)


#: The one satisfied outcome: it carries no reason, so every satisfied
#: relation and assertion shares it.
SATISFIED = RelationOutcome(satisfied=True)


def _texts_equal(attribute: str, left: str, right: str) -> bool:
    left_num = _try_number(left)
    right_num = _try_number(right)
    if left_num is not None and right_num is not None:
        return left_num == right_num
    if attribute in CASE_INSENSITIVE_ATTRIBUTES:
        return left.lower() == right.lower()
    return left == right


def _request_values(spec: Specification, attribute: str) -> Tuple[str, ...]:
    """All value texts the request supplies for *attribute*.

    Only equality relations contribute values — a request is a
    description, so ``(count=4)`` supplies a value where ``(count<4)``
    would be a constraint, which job descriptions do not contain.
    Empty-string values count as absent (the NULL convention).
    """
    values = []
    for relation in spec.relations_for(attribute):
        if relation.op is Relop.EQ:
            for value in relation.values:
                if isinstance(value, (VariableReference, Concatenation)):
                    # Unresolved references supply no concrete value.
                    continue
                text = str(value)
                if text and text != NULL:
                    values.append(text)
    return tuple(values)


def match_relation(
    relation: Relation,
    request_spec: Specification,
    context: MatchContext,
) -> RelationOutcome:
    """Check one assertion relation against the request."""
    attribute = relation.attribute
    present = _request_values(request_spec, attribute)
    asserted = [
        context.resolve(attribute, str(v))
        for v in relation.values
        if not isinstance(v, (VariableReference, Concatenation))
    ]
    if len(asserted) != len(relation.values):
        unresolved = [
            str(v)
            for v in relation.values
            if isinstance(v, (VariableReference, Concatenation))
        ]
        return RelationOutcome.fail(
            f"unresolved variable reference(s) {', '.join(unresolved)} "
            f"in policy relation on {attribute!r}"
        )

    if relation.op is Relop.EQ:
        return _match_eq(attribute, asserted, present)
    if relation.op is Relop.NEQ:
        return _match_neq(attribute, asserted, present)
    return _match_ordering(relation.op, attribute, asserted, present)


def _match_eq(attribute, asserted, present) -> RelationOutcome:
    if NULL in asserted:
        # required-not-to-contain
        if present:
            return RelationOutcome.fail(
                f"request must not contain {attribute!r} "
                f"(found {', '.join(present)})"
            )
        return SATISFIED
    if not present:
        return RelationOutcome.fail(
            f"request must contain {attribute!r} with value in "
            f"{{{', '.join(asserted)}}}"
        )
    for value in present:
        if not any(_texts_equal(attribute, value, allowed) for allowed in asserted):
            return RelationOutcome.fail(
                f"{attribute!r} value {value!r} not among permitted "
                f"{{{', '.join(asserted)}}}"
            )
    return SATISFIED


def _match_neq(attribute, asserted, present) -> RelationOutcome:
    if NULL in asserted:
        # required-to-contain (jobtag != NULL)
        if not present:
            return RelationOutcome.fail(
                f"request must contain a non-empty {attribute!r}"
            )
        return SATISFIED
    for value in present:
        for forbidden in asserted:
            if _texts_equal(attribute, value, forbidden):
                return RelationOutcome.fail(
                    f"{attribute!r} must not take value {forbidden!r}"
                )
    return SATISFIED


def _match_ordering(op: Relop, attribute, asserted, present) -> RelationOutcome:
    if len(asserted) != 1:
        return RelationOutcome.fail(
            f"ordering relation on {attribute!r} needs exactly one bound, "
            f"got {len(asserted)}"
        )
    bound = _try_number(asserted[0])
    if bound is None:
        return RelationOutcome.fail(
            f"ordering bound {asserted[0]!r} on {attribute!r} is not numeric"
        )
    return _match_ordering_bound(op, attribute, asserted[0], bound, present)


def _match_ordering_bound(
    op: Relop, attribute, bound_text: str, bound: float, present
) -> RelationOutcome:
    """Ordering check with the bound already parsed (compile fast path)."""
    if not present:
        return RelationOutcome.fail(
            f"request must contain {attribute!r} (bounded {op.value} {bound_text})"
        )
    compare = _COMPARISONS[op]
    for value in present:
        number = _try_number(value)
        if number is None:
            return RelationOutcome.fail(
                f"{attribute!r} value {value!r} is not numeric but policy "
                f"bounds it {op.value} {bound_text}"
            )
        if not compare(number, bound):
            return RelationOutcome.fail(
                f"{attribute!r} value {value} violates bound "
                f"{op.value} {bound_text}"
            )
    return SATISFIED


_COMPARISONS = {
    Relop.LT: lambda a, b: a < b,
    Relop.LTE: lambda a, b: a <= b,
    Relop.GT: lambda a, b: a > b,
    Relop.GTE: lambda a, b: a >= b,
}


def match_assertion(
    assertion_spec: Specification,
    request_spec: Specification,
    context: MatchContext,
) -> RelationOutcome:
    """Check a whole assertion conjunction; first failure wins."""
    for relation in assertion_spec:
        outcome = match_relation(relation, request_spec, context)
        if not outcome.satisfied:
            return outcome
    return SATISFIED


# ---------------------------------------------------------------------------
# Pre-lowered relations (the policy-compile fast path)
# ---------------------------------------------------------------------------
#
# :func:`match_relation` recomputes three things on every call that
# never change for a given *policy* relation: the resolved asserted
# value texts, the unresolved-variable failure, and (for ordering
# relations) the parsed numeric bound.  :class:`LoweredRelation`
# hoists all of that to policy-compile time; the only per-request
# work left is the request-value lookup and the comparison itself.
# The outcome — including every failure-reason string — is identical
# to :func:`match_relation` by construction: both dispatch into the
# same ``_match_eq`` / ``_match_neq`` / ``_match_ordering_bound``
# helpers (the differential suite in ``tests/core`` pins this).


@dataclass(frozen=True)
class LoweredRelation:
    """One policy relation with all request-independent work done."""

    #: Attribute name verbatim (reason strings quote it as written).
    attribute: str
    op: Relop
    #: Statically resolved value texts; ``self`` is left in place and
    #: resolved per request iff :attr:`needs_self`.
    asserted: Tuple[str, ...]
    #: The attribute key request values are looked up under.
    lookup: str = ""
    needs_self: bool = False
    #: Request-independent failure (unresolved variable references,
    #: malformed ordering bounds), precomputed once.
    static_failure: Optional[RelationOutcome] = None
    #: Pre-parsed numeric bound for ordering relations.
    bound: Optional[float] = None
    #: Whether ``NULL`` appears among the asserted values (the
    #: required-not-to-contain / required-to-contain forms).
    has_null: bool = False
    #: ``', '.join(asserted)``, baked into several failure reasons.
    joined: str = ""
    #: Pre-parsed numeric interpretation of each asserted value.
    numbers: Tuple[Optional[float], ...] = ()
    #: Does this attribute compare case-insensitively?
    case_insensitive: bool = False
    #: Asserted values case-folded when :attr:`case_insensitive`.
    folded: Tuple[str, ...] = ()
    #: Membership set over :attr:`folded` when *no* asserted value is
    #: numeric — the pure-string equality fast path.  ``None`` when a
    #: numeric value forces the general comparison loop.
    plain_set: Optional[frozenset] = None
    original: Optional[Relation] = field(default=None, compare=False)


def lower_relation(relation: Relation) -> LoweredRelation:
    """Compile one relation into its pre-lowered form."""
    attribute = relation.attribute
    unresolved = [
        str(v)
        for v in relation.values
        if isinstance(v, (VariableReference, Concatenation))
    ]
    if unresolved:
        return LoweredRelation(
            attribute=attribute,
            op=relation.op,
            asserted=(),
            lookup=attribute.lower(),
            static_failure=RelationOutcome.fail(
                f"unresolved variable reference(s) {', '.join(unresolved)} "
                f"in policy relation on {attribute!r}"
            ),
            original=relation,
        )
    asserted = tuple(str(v) for v in relation.values)
    needs_self = SELF in asserted
    bound: Optional[float] = None
    static_failure: Optional[RelationOutcome] = None
    if relation.op.is_ordering and not needs_self:
        if len(asserted) != 1:
            static_failure = RelationOutcome.fail(
                f"ordering relation on {attribute!r} needs exactly one "
                f"bound, got {len(asserted)}"
            )
        else:
            bound = _try_number(asserted[0])
            if bound is None:
                static_failure = RelationOutcome.fail(
                    f"ordering bound {asserted[0]!r} on {attribute!r} "
                    "is not numeric"
                )
    numbers = tuple(_try_number(text) for text in asserted)
    case_insensitive = attribute in CASE_INSENSITIVE_ATTRIBUTES
    folded = (
        tuple(text.lower() for text in asserted)
        if case_insensitive
        else asserted
    )
    plain_set = (
        frozenset(folded) if all(n is None for n in numbers) else None
    )
    return LoweredRelation(
        attribute=attribute,
        op=relation.op,
        asserted=asserted,
        lookup=attribute.lower(),
        needs_self=needs_self,
        static_failure=static_failure,
        bound=bound,
        has_null=NULL in asserted,
        joined=", ".join(asserted),
        numbers=numbers,
        case_insensitive=case_insensitive,
        folded=folded,
        plain_set=plain_set,
        original=relation,
    )


def request_value_view(spec: Specification) -> Dict[str, Tuple[str, ...]]:
    """All request-supplied values, keyed by attribute, in one pass.

    Semantics match :func:`_request_values` exactly (equality
    relations only, unresolved references and NULL/empty values
    dropped); building the view once per request replaces the
    per-relation O(request relations) rescan.
    """
    collected: Dict[str, list] = {}
    for relation in spec.relations:
        if relation.op is Relop.EQ:
            for value in relation.values:
                if isinstance(value, (VariableReference, Concatenation)):
                    continue
                text = str(value)
                if text and text != NULL:
                    collected.setdefault(relation.attribute, []).append(text)
    return {attribute: tuple(values) for attribute, values in collected.items()}


_NO_VALUES: Tuple[str, ...] = ()


def match_lowered_relation(
    lowered: LoweredRelation,
    values: Dict[str, Tuple[str, ...]],
    context: MatchContext,
) -> RelationOutcome:
    """Check one pre-lowered relation against a request-value view."""
    if lowered.static_failure is not None:
        return lowered.static_failure
    present = values.get(lowered.lookup, _NO_VALUES)
    if lowered.needs_self:
        requester = context.requester
        if (
            requester is not None
            and lowered.op is Relop.EQ
            and len(lowered.asserted) == 1
        ):
            return _match_self(lowered, present, str(requester))
        # ``self`` resolves per request: fall back to the generic
        # helpers with the freshly resolved value list.
        asserted = [
            context.resolve(lowered.attribute, text) for text in lowered.asserted
        ]
        if lowered.op is Relop.EQ:
            return _match_eq(lowered.attribute, asserted, present)
        if lowered.op is Relop.NEQ:
            return _match_neq(lowered.attribute, asserted, present)
        return _match_ordering(lowered.op, lowered.attribute, asserted, present)
    if lowered.op is Relop.EQ:
        return _match_eq_lowered(lowered, present)
    if lowered.op is Relop.NEQ:
        return _match_neq_lowered(lowered, present)
    return _match_ordering_bound(
        lowered.op, lowered.attribute, lowered.asserted[0], lowered.bound, present
    )


def _match_self(
    lowered: LoweredRelation, present: Tuple[str, ...], identity: str
) -> RelationOutcome:
    """:func:`_match_eq` of ``(attr = self)``, *identity* resolved.

    A rendered DN holds ``=`` in every component (or is empty), so it
    never parses as a number and :func:`_texts_equal` could only take
    its textual branch: the comparison is made directly.
    """
    attribute = lowered.attribute
    if not present:
        return RelationOutcome.fail(
            f"request must contain {attribute!r} with value in {{{identity}}}"
        )
    fold = lowered.case_insensitive
    wanted = identity.lower() if fold else identity
    for value in present:
        if (value.lower() if fold else value) != wanted:
            return RelationOutcome.fail(
                f"{attribute!r} value {value!r} not among permitted "
                f"{{{identity}}}"
            )
    return SATISFIED


def _match_eq_lowered(
    lowered: LoweredRelation, present: Tuple[str, ...]
) -> RelationOutcome:
    """:func:`_match_eq` with the asserted side precomputed."""
    attribute = lowered.attribute
    if lowered.has_null:
        # required-not-to-contain
        if present:
            return RelationOutcome.fail(
                f"request must not contain {attribute!r} "
                f"(found {', '.join(present)})"
            )
        return SATISFIED
    if not present:
        return RelationOutcome.fail(
            f"request must contain {attribute!r} with value in "
            f"{{{lowered.joined}}}"
        )
    plain_set = lowered.plain_set
    if plain_set is not None:
        # No asserted value parses as a number, so _texts_equal can
        # only ever take the (case-folded) string branch: membership
        # in a precomputed set is an exact replacement.
        fold = lowered.case_insensitive
        for value in present:
            if (value.lower() if fold else value) not in plain_set:
                return RelationOutcome.fail(
                    f"{attribute!r} value {value!r} not among permitted "
                    f"{{{lowered.joined}}}"
                )
        return SATISFIED
    for value in present:
        left_num = _try_number(value)
        matched = False
        for allowed, allowed_num, allowed_folded in zip(
            lowered.asserted, lowered.numbers, lowered.folded
        ):
            if left_num is not None and allowed_num is not None:
                if left_num == allowed_num:
                    matched = True
                    break
            elif lowered.case_insensitive:
                if value.lower() == allowed_folded:
                    matched = True
                    break
            elif value == allowed:
                matched = True
                break
        if not matched:
            return RelationOutcome.fail(
                f"{attribute!r} value {value!r} not among permitted "
                f"{{{lowered.joined}}}"
            )
    return SATISFIED


def _match_neq_lowered(
    lowered: LoweredRelation, present: Tuple[str, ...]
) -> RelationOutcome:
    """:func:`_match_neq` with the asserted side precomputed."""
    attribute = lowered.attribute
    if lowered.has_null:
        # required-to-contain (jobtag != NULL)
        if not present:
            return RelationOutcome.fail(
                f"request must contain a non-empty {attribute!r}"
            )
        return SATISFIED
    for value in present:
        left_num = _try_number(value)
        for forbidden, forbidden_num, forbidden_folded in zip(
            lowered.asserted, lowered.numbers, lowered.folded
        ):
            if left_num is not None and forbidden_num is not None:
                equal = left_num == forbidden_num
            elif lowered.case_insensitive:
                equal = value.lower() == forbidden_folded
            else:
                equal = value == forbidden
            if equal:
                return RelationOutcome.fail(
                    f"{attribute!r} must not take value {forbidden!r}"
                )
    return SATISFIED
