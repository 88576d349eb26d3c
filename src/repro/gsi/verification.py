"""Credential-chain verification.

``verify_credential`` performs the checks GT2's GSI performs when a
connection arrives at the Gatekeeper:

1. every certificate is inside its validity window at ``at_time``;
2. every certificate's signature verifies under its issuer's key: the
   next certificate's in the chain, or for the last one the key of a
   trusted CA with the issuer's name (when several trusted CAs share
   that name, as during a root's re-keying, each is tried);
3. proxy links are structurally sound: the subject extends the issuer
   with CN components only, an issuer certificate follows every proxy,
   and only the leaf and the terminal certificate may be non-proxy;
4. the chain terminates at an identity certificate, not a CA's, that
   is not on the revocation list of the trusted CA whose key verified
   it;
5. no proxy has more proxies below it than its path-length constraint
   allows;
6. the presenter proves possession of the leaf private key.

On success the result reports the *Grid identity*: the subject of the
terminal identity certificate, which is what the grid-mapfile and
every policy statement are keyed on.

The Gatekeeper runs these checks on every job start (§4.1) and the Job
Manager on every management request (§5.2), and a client presents the
same :class:`Credential` object each time.  Two of the facts they
establish cannot change between two requests, so each is recorded on
the object it is about once it has been proven, and only then:

* *the signature of a certificate verifies under the key with
  fingerprint F.*  A :class:`Certificate` is frozen, so everything its
  signature covers is fixed at signing, and the key oracle maps F to
  one secret for good.  The certificate keeps F; a check under any
  other key, such as a re-keyed CA's, recomputes.
* *a key pair holds the secret behind fingerprint F.*  This is proven
  by a possession proof the verifier makes itself with the key pair,
  whose secret never changes; the key pair keeps F.  A presented
  ``possession_proof`` is new evidence on every call and is always
  checked.

Everything else is re-checked on every call, because it depends on
the call's time, on the trust anchors configured now or on the CA's
revocation list: each certificate's validity window, the issuer
linkage, the proxy shape and path lengths, which current anchor's key
verifies the terminal certificate, that it is no CA's, and its
revocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.gsi.credentials import Certificate, CertificateAuthority, Credential
from repro.gsi.errors import (
    CertificateExpiredError,
    SignatureError,
    UntrustedIssuerError,
    VerificationError,
)
from repro.gsi.keys import KeyPair, PublicKey, Signature
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import ProxyCertificate

#: Set on a certificate: the fingerprint of the key its signature
#: verified under.
_SIGNER_ATTR = "_verified_signer"
#: Set on a key pair: the fingerprint whose secret it proved to hold.
_HOLDER_ATTR = "_proven_holder"


@dataclass(frozen=True, init=False)
class VerificationResult:
    """Outcome of a successful chain verification.

    Every authenticated request builds one, so :meth:`__init__` stores
    all fields in one step; the record is still a frozen dataclass.
    """

    identity: DistinguishedName
    subject: DistinguishedName
    chain_length: int
    proxy_depth: int
    anchor: DistinguishedName

    def __init__(
        self,
        identity: DistinguishedName,
        subject: DistinguishedName,
        chain_length: int,
        proxy_depth: int,
        anchor: DistinguishedName,
    ) -> None:
        self.__dict__.update(
            identity=identity,
            subject=subject,
            chain_length=chain_length,
            proxy_depth=proxy_depth,
            anchor=anchor,
        )

    def __str__(self) -> str:
        return f"verified {self.subject} as {self.identity} (anchor {self.anchor})"


def verify_chain(
    chain: Sequence[Certificate],
    trust_anchors: Sequence[CertificateAuthority],
    at_time: float,
) -> VerificationResult:
    """Verify a leaf-first certificate chain against *trust_anchors*."""
    if not chain:
        raise VerificationError("empty certificate chain")
    if not trust_anchors:
        raise UntrustedIssuerError("no trust anchors configured")

    last = len(chain) - 1
    proxy_depth = 0
    for position, certificate in enumerate(chain):
        if not certificate.valid_at(at_time):
            raise CertificateExpiredError(
                f"{certificate} not valid at time {at_time} "
                f"(window [{certificate.not_before}, {certificate.not_after}])"
            )
        if position < last:
            issuer = chain[position + 1]
            if issuer.subject != certificate.issuer:
                raise _untrusted(certificate)
            if not _signed_by(certificate, issuer.public_key):
                raise SignatureError(f"signature check failed for {certificate}")
        else:
            anchor = _anchor_for(certificate, trust_anchors)
        if isinstance(certificate, ProxyCertificate):
            proxy_depth += 1
            if not certificate.subject.is_proxy_of(certificate.issuer):
                raise VerificationError(
                    f"proxy subject {certificate.subject} does not extend "
                    f"issuer {certificate.issuer}"
                )
            if position == last:
                raise VerificationError(
                    f"proxy {certificate} has no issuer certificate in the chain"
                )
        elif 0 < position < last:
            raise VerificationError(
                f"non-proxy certificate {certificate} found mid-chain; only "
                "the leaf and the terminal identity certificate may be non-proxy"
            )

    identity_cert = chain[last]
    if anchor.is_revoked(identity_cert):
        raise VerificationError(f"identity certificate {identity_cert} is revoked")
    if identity_cert.is_ca:
        # A CA certificate appended to a chain would otherwise make the
        # CA's name the presenter's Grid identity.
        raise VerificationError(
            f"chain ends at CA certificate {identity_cert}, not an identity"
        )
    if proxy_depth:
        _check_path_lengths(chain)

    return VerificationResult(
        identity=identity_cert.subject,
        subject=chain[0].subject,
        chain_length=len(chain),
        proxy_depth=proxy_depth,
        anchor=anchor.dn,
    )


def _signed_by(certificate: Certificate, key: PublicKey) -> bool:
    """``certificate.signed_by(key)``, remembered once it holds."""
    fingerprint = key.fingerprint
    if certificate.__dict__.get(_SIGNER_ATTR) == fingerprint:
        return True
    if not certificate.signed_by(key):
        return False
    object.__setattr__(certificate, _SIGNER_ATTR, fingerprint)
    return True


def _anchor_for(
    certificate: Certificate, trust_anchors: Sequence[CertificateAuthority]
) -> CertificateAuthority:
    """The first trusted CA named as *certificate*'s issuer whose key
    verifies it."""
    issuer = str(certificate.issuer)
    named = False
    for ca in trust_anchors:
        if str(ca.dn) == issuer:
            if _signed_by(certificate, ca.key_pair.public):
                return ca
            named = True
    if named:
        raise SignatureError(f"signature check failed for {certificate}")
    raise _untrusted(certificate)


def _untrusted(certificate: Certificate) -> UntrustedIssuerError:
    return UntrustedIssuerError(
        f"{certificate}: issuer {certificate.issuer} is not in the chain "
        "and is not a trusted CA"
    )


def _check_path_lengths(chain: Sequence[Certificate]) -> None:
    """Reject a proxy with more proxies below it than its constraint
    allows.  :func:`~repro.gsi.proxy.delegate` refuses to create such a
    child, but any key holder can sign one directly."""
    below = 0
    for certificate in chain:
        if not isinstance(certificate, ProxyCertificate):
            continue
        try:
            limit = certificate.path_length
        except ValueError:
            raise VerificationError(
                f"proxy {certificate} carries a malformed path length"
            ) from None
        if limit is not None and below > limit:
            raise VerificationError(
                f"proxy {certificate} allows {limit} further proxies "
                f"but {below} follow it"
            )
        below += 1


def verify_credential(
    credential: Credential,
    trust_anchors: Sequence[CertificateAuthority],
    at_time: float,
    challenge: bytes = b"gatekeeper-challenge",
    possession_proof: Optional[Signature] = None,
) -> VerificationResult:
    """Verify *credential*'s chain and key possession.

    When *possession_proof* is given it must be the credential
    holder's signature over ``b"possession:" + challenge`` — the
    response half of the challenge–response the Gatekeeper runs.  When
    omitted, the verifier makes the proof itself with the credential's
    key pair (the common in-process case where we hold the credential
    object itself, which *is* possession).
    """
    result = verify_chain(credential.full_chain(), trust_anchors, at_time)
    leaf_key = credential.certificate.public_key
    if possession_proof is None:
        held = _holds(credential.key_pair, leaf_key, challenge)
    else:
        held = leaf_key.verify(b"possession:" + challenge, possession_proof)
    if not held:
        raise SignatureError(
            f"possession proof failed for {credential.subject}: presenter "
            "does not hold the private key"
        )
    return result


def _holds(key_pair: KeyPair, key: PublicKey, challenge: bytes) -> bool:
    """Does *key_pair* hold *key*'s secret?  Remembered once proven."""
    fingerprint = key.fingerprint
    if key_pair.__dict__.get(_HOLDER_ATTR) == fingerprint:
        return True
    message = b"possession:" + challenge
    if not key.verify(message, key_pair.sign(message)):
        return False
    key_pair.__dict__[_HOLDER_ATTR] = fingerprint
    return True

