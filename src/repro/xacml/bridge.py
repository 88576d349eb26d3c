"""Bridge: RSL-based policies → XACML, decision-preserving.

Grant assertions become Permit rules (subject in the rule target, the
RSL relations as a condition conjunction).  Requirement statements
become Deny rules whose condition is *guard ∧ ¬body* — a matching
request that violates the obligation is denied, and deny-overrides
makes the obligation bite regardless of any permit.

Translation mirrors :mod:`repro.core.matching` relation semantics
exactly (including ``NULL``, ``self``, numeric equality and the
case-insensitive attributes), so decisions agree with the native
evaluator — asserted by tests and the B-SRC bench.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.attributes import ACTION, JOBOWNER, NULL, SELF
from repro.core.decision import Decision
from repro.core.model import Policy, PolicyStatement, StatementKind
from repro.core.pipeline import PushedEpoch
from repro.core.request import AuthorizationRequest
from repro.rsl.ast import (
    Relation,
    Relop,
    Specification,
    VariableReference,
    _try_number,
)
from repro.xacml.conditions import (
    AllValuesIn,
    AllValuesSatisfy,
    And,
    AnyValueIn,
    AttributeReference,
    Condition,
    Not,
    Present,
    TrueCondition,
)
from repro.xacml.context import RequestContext
from repro.xacml.engine import XACMLDecision, evaluate_policy
from repro.xacml.model import (
    ACTION_ID,
    SUBJECT_ID,
    AllOf,
    AnyOf,
    AttributeDesignator,
    Category,
    CombiningAlgorithm,
    Match,
    Rule,
    RuleEffect,
    Target,
    XACMLPolicy,
)

_ALWAYS_FALSE = Not(TrueCondition())


def _designator_for(attribute: str) -> AttributeDesignator:
    if attribute == ACTION:
        return ACTION_ID
    return AttributeDesignator(Category.RESOURCE, attribute)


def _values_for(relation: Relation) -> Optional[Tuple[object, ...]]:
    """Literal/reference values; None when untranslatable."""
    out: List[object] = []
    for value in relation.values:
        if isinstance(value, VariableReference):
            return None  # native evaluation fails closed; so do we
        text = str(value)
        if text == SELF and relation.attribute == JOBOWNER:
            out.append(AttributeReference(SUBJECT_ID))
        else:
            out.append(text)
    return tuple(out)


def _condition_for_relation(relation: Relation) -> Condition:
    designator = _designator_for(relation.attribute)
    values = _values_for(relation)
    if values is None:
        return _ALWAYS_FALSE

    literal_texts = [v for v in values if isinstance(v, str)]

    if relation.op is Relop.EQ:
        if NULL in literal_texts:
            return Not(Present(designator))
        return And(
            parts=(
                Present(designator),
                AllValuesIn(designator, relation.attribute, values),
            )
        )
    if relation.op is Relop.NEQ:
        if NULL in literal_texts:
            return Present(designator)
        return Not(AnyValueIn(designator, relation.attribute, values))

    # Ordering relations need exactly one finite decimal bound, by the
    # number rule the native matcher applies.
    if len(values) != 1 or not isinstance(values[0], str):
        return _ALWAYS_FALSE
    bound = _try_number(values[0])
    if bound is None:
        return _ALWAYS_FALSE
    return And(
        parts=(
            Present(designator),
            AllValuesSatisfy(designator, relation.op.value, bound),
        )
    )


def _condition_for_spec(spec: Specification) -> Condition:
    parts = tuple(_condition_for_relation(relation) for relation in spec)
    if not parts:
        return TrueCondition()
    if len(parts) == 1:
        return parts[0]
    return And(parts=parts)


def _subject_target(statement: PolicyStatement) -> Target:
    match_id = "string-equal" if statement.subject.exact else "string-starts-with"
    return Target(
        any_ofs=(
            AnyOf(
                all_ofs=(
                    AllOf(
                        matches=(
                            Match(
                                designator=SUBJECT_ID,
                                match_id=match_id,
                                value=statement.subject.pattern,
                            ),
                        )
                    ),
                )
            ),
        )
    )


def xacml_from_policy(policy: Policy, policy_id: str = "") -> XACMLPolicy:
    """Translate *policy* into an XACML policy (deny-overrides)."""
    rules: List[Rule] = []
    for statement_index, statement in enumerate(policy):
        target = _subject_target(statement)
        for assertion_index, assertion in enumerate(statement.assertions):
            rule_id = f"s{statement_index}a{assertion_index}"
            if statement.kind is StatementKind.GRANT:
                rules.append(
                    Rule(
                        rule_id=f"permit-{rule_id}",
                        effect=RuleEffect.PERMIT,
                        target=target,
                        condition=_condition_for_spec(assertion.spec),
                    )
                )
            else:
                guard = _condition_for_spec(assertion.guard())
                body = _condition_for_spec(assertion.body())
                rules.append(
                    Rule(
                        rule_id=f"obligation-{rule_id}",
                        effect=RuleEffect.DENY,
                        target=target,
                        condition=And(parts=(guard, Not(body))),
                    )
                )
    return XACMLPolicy(
        policy_id=policy_id or policy.name or "bridged",
        rules=tuple(rules),
        combining=CombiningAlgorithm.DENY_OVERRIDES,
    )


class XACMLEvaluator:
    """Adapter giving an XACML policy the native PDP interface."""

    policy_epoch = PushedEpoch()

    def __init__(self, policy: XACMLPolicy, source: str = "") -> None:
        self.policy = policy
        self.source = source or policy.policy_id
        #: XACML policies here are immutable; bump when swapping the
        #: policy so epoch-keyed decision caches invalidate.
        self.policy_epoch = 0

    def replace_policy(self, policy: XACMLPolicy) -> None:
        self.policy = policy
        self.policy_epoch += 1

    def evaluate(self, request: AuthorizationRequest) -> Decision:
        context = RequestContext.from_request(request)
        outcome = evaluate_policy(self.policy, context)
        if outcome is XACMLDecision.PERMIT:
            return Decision.permit(
                reason="XACML permit (deny-overrides)", source=self.source
            )
        if outcome is XACMLDecision.DENY:
            return Decision.deny(
                reasons=("XACML deny (obligation or explicit rule)",),
                source=self.source,
            )
        if outcome is XACMLDecision.NOT_APPLICABLE:
            return Decision.not_applicable(
                reason="no XACML rule applies", source=self.source
            )
        return Decision.indeterminate("XACML evaluation error", source=self.source)


def xacml_callout(policy: Policy, source: str = "xacml"):
    """A GRAM authorization callout backed by the bridged policy."""
    evaluator = XACMLEvaluator(xacml_from_policy(policy), source=source)

    def callout(request: AuthorizationRequest) -> Decision:
        decision = evaluator.evaluate(request)
        if decision.effect.value == "not-applicable":
            # Default deny, matching the native evaluator's contract.
            return Decision.deny(
                reasons=(f"no XACML rule applies to {request.requester}",),
                source=source,
            )
        return decision

    callout.__name__ = f"xacml:{source}"
    return callout
