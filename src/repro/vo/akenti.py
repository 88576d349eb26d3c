"""Akenti-style certificate-based authorization.

Akenti (Thompson et al., cited as [4]) decides access from digitally
signed documents gathered at decision time:

* **use-condition certificates** — statements by resource
  *stakeholders* of the conditions under which an action on a
  resource is allowed;
* **attribute certificates** — statements by trusted attribute
  authorities that a user possesses some attribute (a group, a role).

The engine verifies every certificate's signature against the trusted
issuer keys, then requires each stakeholder with applicable
use-conditions to be satisfied (AND across stakeholders, OR among one
stakeholder's alternatives) — Akenti's intersection semantics.

The paper reports testing the prototype "with the Akenti system
representing the same policies"; :func:`akenti_sources_from_policy`
performs that representation: each grant assertion becomes a
use-condition, each requirement an *obligation* use-condition, so the
two engines can be compared on identical requests (bench B-SRC).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

from repro.core.attributes import ACTION
from repro.core.decision import Decision
from repro.core.matching import MatchContext, match_assertion
from repro.core.model import Policy, StatementKind, Subject
from repro.core.pipeline import PushedEpoch
from repro.core.request import AuthorizationRequest
from repro.gsi.keys import KeyPair, PublicKey, Signature
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import Specification

_serial = itertools.count(1)


class ConditionKind(enum.Enum):
    #: Grants the action when satisfied.
    GRANT = "grant"
    #: Must hold for every matching request; never grants by itself.
    OBLIGATION = "obligation"


@dataclass(frozen=True)
class AttributeCertificate:
    """A signed binding of an attribute to a user."""

    issuer: str
    subject: str
    attribute: str
    value: str
    serial: int
    signature: Signature

    @classmethod
    def issue(
        cls,
        issuer_name: str,
        issuer_key: KeyPair,
        subject: Union[str, DistinguishedName],
        attribute: str,
        value: str,
    ) -> "AttributeCertificate":
        serial = next(_serial)
        payload = _attr_payload(issuer_name, str(subject), attribute, value, serial)
        return cls(
            issuer=issuer_name,
            subject=str(subject),
            attribute=attribute,
            value=value,
            serial=serial,
            signature=issuer_key.sign(payload),
        )

    def payload(self) -> bytes:
        return _attr_payload(
            self.issuer, self.subject, self.attribute, self.value, self.serial
        )

    def verify(self, issuer_key: PublicKey) -> bool:
        return issuer_key.verify(self.payload(), self.signature)


def _attr_payload(issuer, subject, attribute, value, serial) -> bytes:
    return f"attr|{issuer}|{subject}|{attribute}|{value}|{serial}".encode("utf-8")


@dataclass(frozen=True)
class UseCondition:
    """A stakeholder's signed condition for using a resource.

    ``subject`` limits who the condition applies to (Akenti conditions
    routinely constrain by DN); ``required_attributes`` lists
    ``(attribute, value)`` pairs the user must hold attribute
    certificates for; ``constraint`` is an RSL conjunction on the
    request (our policy assertions map here verbatim).
    """

    stakeholder: str
    resource: str
    kind: ConditionKind
    subject: Subject
    constraint: Specification
    required_attributes: Tuple[Tuple[str, str], ...]
    serial: int
    signature: Signature

    @classmethod
    def issue(
        cls,
        stakeholder: str,
        stakeholder_key: KeyPair,
        resource: str,
        subject: Subject,
        constraint: Specification,
        kind: ConditionKind = ConditionKind.GRANT,
        required_attributes: Iterable[Tuple[str, str]] = (),
    ) -> "UseCondition":
        serial = next(_serial)
        attrs = tuple(required_attributes)
        payload = _uc_payload(stakeholder, resource, kind, subject, constraint, attrs, serial)
        return cls(
            stakeholder=stakeholder,
            resource=resource,
            kind=kind,
            subject=subject,
            constraint=constraint,
            required_attributes=attrs,
            serial=serial,
            signature=stakeholder_key.sign(payload),
        )

    def payload(self) -> bytes:
        return _uc_payload(
            self.stakeholder,
            self.resource,
            self.kind,
            self.subject,
            self.constraint,
            self.required_attributes,
            self.serial,
        )

    def verify(self, stakeholder_key: PublicKey) -> bool:
        return stakeholder_key.verify(self.payload(), self.signature)


def _uc_payload(stakeholder, resource, kind, subject, constraint, attrs, serial) -> bytes:
    attr_text = ";".join(f"{a}={v}" for a, v in attrs)
    return (
        f"uc|{stakeholder}|{resource}|{kind.value}|{subject}|{constraint}"
        f"|{attr_text}|{serial}"
    ).encode("utf-8")


class AkentiEngine:
    """Pull-model decision engine over signed certificates."""

    policy_epoch = PushedEpoch()

    def __init__(self, resource: str, source: str = "akenti") -> None:
        self.resource = resource
        self.source = source
        self._stakeholder_keys: Dict[str, PublicKey] = {}
        self._attribute_issuer_keys: Dict[str, PublicKey] = {}
        self._conditions: List[UseCondition] = []
        self._attribute_certs: List[AttributeCertificate] = []
        #: Bumped on every trust/certificate mutation — the decision
        #: cache invalidation hook (:mod:`repro.core.pipeline`).
        self.policy_epoch = 0

    # -- trust configuration ---------------------------------------------

    def trust_stakeholder(self, name: str, public_key: PublicKey) -> None:
        self._stakeholder_keys[name] = public_key
        self.policy_epoch += 1

    def trust_attribute_issuer(self, name: str, public_key: PublicKey) -> None:
        self._attribute_issuer_keys[name] = public_key
        self.policy_epoch += 1

    # -- certificate repository --------------------------------------------

    def add_condition(self, condition: UseCondition) -> None:
        if condition.resource != self.resource:
            raise ValueError(
                f"use condition targets {condition.resource!r}, engine serves "
                f"{self.resource!r}"
            )
        self._conditions.append(condition)
        self.policy_epoch += 1

    def add_attribute_certificate(self, certificate: AttributeCertificate) -> None:
        self._attribute_certs.append(certificate)
        self.policy_epoch += 1

    @property
    def condition_count(self) -> int:
        return len(self._conditions)

    # -- decisions -----------------------------------------------------------

    def user_attributes(self, identity: DistinguishedName) -> Tuple[Tuple[str, str], ...]:
        """Verified attributes held by *identity*."""
        held: List[Tuple[str, str]] = []
        subject = str(identity)
        for cert in self._attribute_certs:
            if cert.subject != subject:
                continue
            issuer_key = self._attribute_issuer_keys.get(cert.issuer)
            if issuer_key is None or not cert.verify(issuer_key):
                continue
            held.append((cert.attribute, cert.value))
        return tuple(held)

    def decide(self, request: AuthorizationRequest) -> Decision:
        """Akenti decision: all stakeholders must be satisfied."""
        context = MatchContext(requester=request.requester)
        request_spec = request.evaluation_specification()
        attributes = set(self.user_attributes(request.requester))

        verified = [
            c
            for c in self._conditions
            if self._condition_trusted(c)
        ]
        if len(verified) != len(self._conditions):
            bad = len(self._conditions) - len(verified)
            return Decision.indeterminate(
                f"{bad} use-condition(s) failed signature verification",
                source=self.source,
            )

        # Obligations: every applicable obligation whose action guard
        # matches must be satisfied.
        for condition in verified:
            if condition.kind is not ConditionKind.OBLIGATION:
                continue
            if not condition.subject.matches(request.requester):
                continue
            guard = Specification.make(condition.constraint.relations_for(ACTION))
            if len(guard) and not match_assertion(guard, request_spec, context).satisfied:
                continue
            body = condition.constraint.without(ACTION)
            outcome = match_assertion(body, request_spec, context)
            if not outcome.satisfied:
                return Decision.deny(
                    reasons=(
                        f"obligation of stakeholder {condition.stakeholder!r} "
                        f"violated: {outcome.reason}",
                    ),
                    source=self.source,
                )

        # Grants: group by stakeholder; each stakeholder with applicable
        # grant conditions must have at least one satisfied.
        applicable: Dict[str, List[UseCondition]] = {}
        for condition in verified:
            if condition.kind is not ConditionKind.GRANT:
                continue
            if condition.subject.matches(request.requester):
                applicable.setdefault(condition.stakeholder, []).append(condition)

        if not applicable:
            return Decision.not_applicable(
                reason=f"no use-condition applies to {request.requester}",
                source=self.source,
            )

        failures: List[str] = []
        for stakeholder, conditions in sorted(applicable.items()):
            satisfied = False
            for condition in conditions:
                if not self._attributes_held(condition, attributes):
                    failures.append(
                        f"missing attribute(s) "
                        f"{set(condition.required_attributes) - attributes} "
                        f"for {stakeholder}"
                    )
                    continue
                outcome = match_assertion(condition.constraint, request_spec, context)
                if outcome.satisfied:
                    satisfied = True
                    break
                failures.append(outcome.reason)
            if not satisfied:
                return Decision.deny(
                    reasons=tuple(
                        [f"stakeholder {stakeholder!r} not satisfied"] + failures[:4]
                    ),
                    source=self.source,
                )
        return Decision.permit(
            reason=f"all {len(applicable)} stakeholder(s) satisfied",
            source=self.source,
        )

    def _condition_trusted(self, condition: UseCondition) -> bool:
        key = self._stakeholder_keys.get(condition.stakeholder)
        return key is not None and condition.verify(key)

    @staticmethod
    def _attributes_held(condition: UseCondition, attributes) -> bool:
        return all(required in attributes for required in condition.required_attributes)


def akenti_callout(engine: AkentiEngine, resilience=None):
    """Wrap an :class:`AkentiEngine` as a GRAM authorization callout.

    The engine rides along as ``callout.engine`` so callers can hand
    it to a decision cache or circuit breaker as an epoch source.
    Pass a :class:`~repro.core.resilience.ResilienceConfig` as
    *resilience* to wrap the callout with timeout/retry/breaker; the
    breaker resets when the engine's policy epoch bumps (new
    certificates or trust roots may well fix the outage).
    """

    def callout(request: AuthorizationRequest) -> Decision:
        return engine.decide(request)

    callout.__name__ = f"akenti:{engine.resource}"
    callout.engine = engine
    if resilience is not None:
        return resilience.wrap(callout, name=engine.source, epoch_source=engine)
    return callout


def akenti_sources_from_policy(
    policy: Policy,
    resource: str,
    stakeholder: str,
    stakeholder_key: KeyPair,
) -> AkentiEngine:
    """Represent *policy* as Akenti certificates (the paper's test).

    Grant statements become GRANT use-conditions (one per assertion);
    requirement statements become OBLIGATION conditions.  The returned
    engine already trusts *stakeholder_key*.
    """
    engine = AkentiEngine(resource=resource, source=f"akenti:{resource}")
    engine.trust_stakeholder(stakeholder, stakeholder_key.public)
    for statement in policy:
        kind = (
            ConditionKind.OBLIGATION
            if statement.kind is StatementKind.REQUIREMENT
            else ConditionKind.GRANT
        )
        for assertion in statement.assertions:
            engine.add_condition(
                UseCondition.issue(
                    stakeholder=stakeholder,
                    stakeholder_key=stakeholder_key,
                    resource=resource,
                    subject=statement.subject,
                    constraint=assertion.spec,
                    kind=kind,
                )
            )
    return engine
