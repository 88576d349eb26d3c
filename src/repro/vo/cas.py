"""Community Authorization Service (CAS).

CAS (Pearlman et al., cited as [7] in the paper) moves VO policy out
of files on each resource and into the user's credential: the user
authenticates to the community server, which returns a *signed policy*
naming exactly what that user may do with community resources.  The
user carries the signed policy inside a proxy-certificate extension;
the resource-side PEP extracts it, verifies the CAS signature, and
enforces the (VO ∧ local) combination as usual.

The flow here mirrors that protocol:

1. ``CASServer.issue(user_credential, now)`` — the server checks VO
   membership, selects the policy statements applying to the user,
   and signs them together with the user identity and a validity
   window.
2. ``attach_cas_policy(user_credential, signed, now)`` — the *user*
   (who holds their own private key; the server never does) mints a
   proxy credential carrying the signed policy as an extension.
3. ``CASPolicySource`` — the resource side: extracts the extension,
   verifies signature/validity/subject binding, and evaluates the
   carried policy.  Any verification problem is a denial with a
   precise reason; a missing extension means the source is not
   applicable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.decision import Decision
from repro.core.errors import PolicyParseError
from repro.core.evaluator import PolicyEvaluator
from repro.core.model import Policy, PolicyStatement
from repro.core.parser import parse_policy
from repro.core.pipeline import PushedEpoch, current_context
from repro.core.request import AuthorizationRequest
from repro.gsi.credentials import Credential
from repro.gsi.keys import PublicKey, Signature
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import ProxyPolicy, delegate
from repro.vo.organization import VirtualOrganization

#: Certificate-extension key carrying the serialized signed policy.
CAS_POLICY_EXTENSION = "cas-signed-policy"

#: Restriction-language tag for CAS-issued restricted proxies.
CAS_POLICY_LANGUAGE = "CAS-RSL"

#: Default lifetime of a CAS policy assertion (8 simulated hours).
DEFAULT_CAS_LIFETIME = 8.0 * 3600


@dataclass(frozen=True)
class SignedPolicy:
    """A policy attestation signed by the community server."""

    community: str
    issuer: str
    subject: str
    policy_text: str
    not_before: float
    not_after: float
    signature: Signature

    def payload(self) -> bytes:
        return _payload(
            self.community,
            self.issuer,
            self.subject,
            self.policy_text,
            self.not_before,
            self.not_after,
        )

    def serialize(self) -> str:
        return json.dumps(
            {
                "community": self.community,
                "issuer": self.issuer,
                "subject": self.subject,
                "policy": self.policy_text,
                "not_before": self.not_before,
                "not_after": self.not_after,
                "sig_key": self.signature.key_fingerprint,
                "sig_digest": self.signature.digest,
            },
            sort_keys=True,
        )

    @classmethod
    def deserialize(cls, text: str) -> "SignedPolicy":
        try:
            data = json.loads(text)
            return cls(
                community=data["community"],
                issuer=data["issuer"],
                subject=data["subject"],
                policy_text=data["policy"],
                not_before=float(data["not_before"]),
                not_after=float(data["not_after"]),
                signature=Signature(
                    key_fingerprint=data["sig_key"], digest=data["sig_digest"]
                ),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise PolicyParseError(f"malformed CAS signed policy: {exc}")


def _payload(
    community: str,
    issuer: str,
    subject: str,
    policy_text: str,
    not_before: float,
    not_after: float,
) -> bytes:
    return "|".join(
        [community, issuer, subject, policy_text, repr(not_before), repr(not_after)]
    ).encode("utf-8")


class CASServer:
    """The community server: holds the VO policy and signs excerpts."""

    def __init__(
        self,
        vo: VirtualOrganization,
        credential: Credential,
        policy: Policy,
    ) -> None:
        self.vo = vo
        self.credential = credential
        self.policy = policy
        self.issued = 0

    @property
    def identity(self) -> DistinguishedName:
        return self.credential.subject

    def policy_for(self, identity: DistinguishedName) -> Policy:
        """The subset of the community policy applying to *identity*."""
        statements: Tuple[PolicyStatement, ...] = tuple(
            s for s in self.policy if s.applies_to(identity)
        )
        return Policy(statements=statements, name=f"cas:{self.vo.name}")

    def issue(
        self,
        user_credential: Credential,
        now: float,
        lifetime: float = DEFAULT_CAS_LIFETIME,
    ) -> SignedPolicy:
        """Sign the policy excerpt for the holder of *user_credential*.

        Raises ``PermissionError`` for non-members — CAS only vouches
        for its own community.
        """
        identity = user_credential.identity
        if not self.vo.is_member(identity):
            raise PermissionError(
                f"{identity} is not a member of community {self.vo.name!r}"
            )
        excerpt = self.policy_for(identity)
        policy_text = str(excerpt)
        not_after = now + lifetime
        payload = _payload(
            self.vo.name,
            str(self.identity),
            str(identity),
            policy_text,
            now,
            not_after,
        )
        self.issued += 1
        return SignedPolicy(
            community=self.vo.name,
            issuer=str(self.identity),
            subject=str(identity),
            policy_text=policy_text,
            not_before=now,
            not_after=not_after,
            signature=self.credential.sign(payload),
        )


def attach_cas_policy(
    user_credential: Credential,
    signed: SignedPolicy,
    now: float,
    lifetime: float = DEFAULT_CAS_LIFETIME,
) -> Credential:
    """Mint a user proxy carrying *signed* as a certificate extension."""
    return delegate(
        user_credential,
        now=now,
        lifetime=lifetime,
        label="cas-proxy",
        policy=ProxyPolicy(language=CAS_POLICY_LANGUAGE, text=signed.policy_text),
        extra_extensions={CAS_POLICY_EXTENSION: signed.serialize()},
    )


def extract_cas_policy(credential: Credential) -> Optional[SignedPolicy]:
    """Find the CAS extension anywhere in the credential chain."""
    for certificate in credential.full_chain():
        raw = certificate.extension_dict.get(CAS_POLICY_EXTENSION)
        if raw is not None:
            return SignedPolicy.deserialize(raw)
    return None


class CASPolicySource:
    """Resource-side PDP that reads VO policy out of the credential.

    The policy arrives with the request, so one engine decides each
    request under the policy it carries; ``cas_public_key`` pins which
    community server the resource trusts.
    """

    policy_epoch = PushedEpoch()

    def __init__(self, cas_public_key: PublicKey, source: str = "cas") -> None:
        self.cas_public_key = cas_public_key
        self.source = source
        #: Decides the carried policy; a request stores no epoch, so
        #: deciding one moves no epoch generation.
        self._engine = PolicyEvaluator(Policy.empty(source), source=source)
        #: Cache/breaker invalidation hook: the policy itself travels
        #: with each request, so the only resource-side "policy" is
        #: which community key is trusted.
        self.policy_epoch = 0

    def trust_key(self, cas_public_key: PublicKey) -> None:
        """Rotate the trusted community key (bumps the policy epoch)."""
        self.cas_public_key = cas_public_key
        self.policy_epoch += 1

    def evaluate(
        self,
        request: AuthorizationRequest,
        credential: Credential,
        now: float,
    ) -> Decision:
        signed = extract_cas_policy(credential)
        if signed is None:
            return Decision.not_applicable(
                reason="credential carries no CAS policy", source=self.source
            )
        if not self.cas_public_key.verify(signed.payload(), signed.signature):
            return Decision.deny(
                reasons=("CAS policy signature verification failed",),
                source=self.source,
            )
        if not (signed.not_before <= now <= signed.not_after):
            return Decision.deny(
                reasons=(
                    f"CAS policy not valid at {now} "
                    f"(window [{signed.not_before}, {signed.not_after}])",
                ),
                source=self.source,
            )
        if signed.subject != str(credential.identity):
            return Decision.deny(
                reasons=(
                    f"CAS policy issued to {signed.subject}, presented by "
                    f"{credential.identity}",
                ),
                source=self.source,
            )
        if signed.subject != str(request.requester):
            return Decision.deny(
                reasons=(
                    f"CAS policy subject {signed.subject} does not match "
                    f"requester {request.requester}",
                ),
                source=self.source,
            )
        try:
            policy = parse_policy(signed.policy_text, name=self.source)
        except PolicyParseError as exc:
            return Decision.indeterminate(
                f"carried CAS policy unparsable: {exc}", source=self.source
            )
        if len(policy) == 0:
            # Member of the community, but the community grants nothing.
            return Decision.deny(
                reasons=(f"CAS policy for {signed.subject} grants nothing",),
                source=self.source,
            )
        decision = self._engine.evaluate_policy(policy, request)
        context = current_context()
        if context is not None:
            context.add_source(
                self.source, decision.effect, epoch=self.policy_epoch
            )
        return decision


def cas_callout(cas_public_key: PublicKey, clock, source: str = "cas", resilience=None):
    """A GRAM authorization callout reading policy from the credential.

    The extended Job Manager attaches the presenter's credential to
    every :class:`AuthorizationRequest` (the paper's callout signature
    includes "the credential of the user requesting a remote job"),
    so the CAS source can be configured like any other callout::

        registry.register(GRAM_AUTHZ_CALLOUT,
                          cas_callout(cas_key, service.clock))

    Requests arriving without a credential are INDETERMINATE — a
    deployment that outsources policy to CAS cannot decide without
    one, and must fail closed rather than deny-with-reason.

    Pass a :class:`~repro.core.resilience.ResilienceConfig` as
    *resilience* to wrap the callout with timeout/retry/breaker; the
    breaker resets when the source's policy epoch bumps (key
    rotation).
    """
    from repro.core.decision import Decision

    policy_source = CASPolicySource(cas_public_key, source=source)

    def callout(request: AuthorizationRequest) -> Decision:
        if request.credential is None:
            return Decision.indeterminate(
                "request carries no credential for CAS evaluation",
                source=source,
            )
        return policy_source.evaluate(
            request, request.credential, now=clock.now
        )

    callout.__name__ = f"cas:{source}"
    callout.policy_source = policy_source
    if resilience is not None:
        return resilience.wrap(callout, name=source, epoch_source=policy_source)
    return callout
