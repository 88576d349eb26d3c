"""The credential verifier before it remembered proven facts, frozen.

:func:`reference_verify_chain` and :func:`reference_verify_credential`
are ``repro.gsi.verification`` as it stood when every call recomputed
every certificate signature and the possession proof, with one change
that keeps the copy honest: signatures are checked with
``PublicKey.verify`` over ``Certificate.payload()`` directly, so no
behaviour of the program's ``Certificate.signed_by`` leaks in.  Nothing
here reads or writes anything a certificate or key pair remembers.

Two behaviours of this copy are faults that the program fixes, so
``test_verification_differential.py`` expects a difference exactly
there:

* path-length constraints are never read, so a proxy's holder can sign
  a deeper child proxy directly (:func:`sign_proxy`) and have it
  accepted;
* anchors are keyed by DN, so of two trusted CAs with one name the
  later shadows the earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

from repro.gsi.credentials import (
    Certificate,
    CertificateAuthority,
    Credential,
    make_certificate,
)
from repro.gsi.errors import (
    CertificateExpiredError,
    SignatureError,
    UntrustedIssuerError,
    VerificationError,
)
from repro.gsi.keys import KeyPair, Signature
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import ProxyCertificate


@dataclass(frozen=True)
class ReferenceResult:
    identity: DistinguishedName
    subject: DistinguishedName
    chain_length: int
    proxy_depth: int
    anchor: DistinguishedName


def reference_verify_chain(
    chain: Sequence[Certificate],
    trust_anchors: Sequence[CertificateAuthority],
    at_time: float,
) -> ReferenceResult:
    if not chain:
        raise VerificationError("empty certificate chain")
    if not trust_anchors:
        raise UntrustedIssuerError("no trust anchors configured")

    anchors = {str(ca.dn): ca for ca in trust_anchors}

    proxy_depth = 0
    for position, certificate in enumerate(chain):
        if not certificate.valid_at(at_time):
            raise CertificateExpiredError(
                f"{certificate} not valid at time {at_time} "
                f"(window [{certificate.not_before}, {certificate.not_after}])"
            )
        issuer_key = _issuer_public_key(chain, position, anchors)
        if issuer_key is None:
            raise UntrustedIssuerError(
                f"{certificate}: issuer {certificate.issuer} is not in the chain "
                "and is not a trusted CA"
            )
        if not issuer_key.verify(certificate.payload(), certificate.signature):
            raise SignatureError(f"signature check failed for {certificate}")
        if isinstance(certificate, ProxyCertificate):
            proxy_depth += 1
            if not certificate.subject.is_proxy_of(certificate.issuer):
                raise VerificationError(
                    f"proxy subject {certificate.subject} does not extend "
                    f"issuer {certificate.issuer}"
                )
            if position + 1 >= len(chain):
                raise VerificationError(
                    f"proxy {certificate} has no issuer certificate in the chain"
                )
        elif 0 < position < len(chain) - 1:
            raise VerificationError(
                f"non-proxy certificate {certificate} found mid-chain; only "
                "the leaf and the terminal identity certificate may be non-proxy"
            )

    identity_cert = chain[-1]
    if isinstance(identity_cert, ProxyCertificate):
        raise VerificationError("chain never reaches an identity certificate")
    anchor = anchors.get(str(identity_cert.issuer))
    if anchor is None:
        raise UntrustedIssuerError(
            f"identity certificate {identity_cert} issued by untrusted "
            f"{identity_cert.issuer}"
        )
    if anchor.is_revoked(identity_cert):
        raise VerificationError(f"identity certificate {identity_cert} is revoked")

    return ReferenceResult(
        identity=identity_cert.subject,
        subject=chain[0].subject,
        chain_length=len(chain),
        proxy_depth=proxy_depth,
        anchor=anchor.dn,
    )


def _issuer_public_key(chain, position, anchors):
    certificate = chain[position]
    if position + 1 < len(chain):
        candidate = chain[position + 1]
        if candidate.subject == certificate.issuer:
            return candidate.public_key
        return None
    anchor = anchors.get(str(certificate.issuer))
    if anchor is not None:
        return anchor.key_pair.public
    return None


def reference_verify_credential(
    credential: Credential,
    trust_anchors: Sequence[CertificateAuthority],
    at_time: float,
    challenge: bytes = b"gatekeeper-challenge",
    possession_proof: Optional[Signature] = None,
) -> ReferenceResult:
    result = reference_verify_chain(credential.full_chain(), trust_anchors, at_time)
    proof = possession_proof
    if proof is None:
        proof = credential.prove_possession(challenge)
    leaf_key = credential.certificate.public_key
    if not leaf_key.verify(b"possession:" + challenge, proof):
        raise SignatureError(
            f"possession proof failed for {credential.subject}: presenter "
            "does not hold the private key"
        )
    return result


def sign_proxy(
    parent: Credential,
    now: float = 0.0,
    lifetime: float = 3600.0,
    label: str = "proxy",
    extensions: Optional[Mapping[str, str]] = None,
) -> Credential:
    """A child proxy of *parent* signed with its key directly, as any key
    holder can, without ``delegate``'s path-length and lifetime checks."""
    key_pair = KeyPair(label=f"signed:{label}")
    parent_cert = parent.certificate
    base = make_certificate(
        subject=parent_cert.subject.child("CN", label),
        issuer=parent_cert.subject,
        public_key=key_pair.public,
        signer=parent.key_pair,
        not_before=now,
        not_after=now + lifetime,
        extensions=extensions,
    )
    certificate = ProxyCertificate(
        **{field.name: getattr(base, field.name) for field in fields(base)}
    )
    return Credential(
        certificate=certificate, key_pair=key_pair, chain=parent.full_chain()
    )
