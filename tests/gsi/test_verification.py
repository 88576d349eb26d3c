"""Credential-chain verification."""

import pytest

import dataclasses

from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.errors import (
    CertificateExpiredError,
    SignatureError,
    UntrustedIssuerError,
    VerificationError,
)
from repro.gsi.keys import KeyPair
from repro.gsi.proxy import PATH_LENGTH_EXTENSION, delegate
from repro.gsi.verification import verify_chain, verify_credential
from tests.gsi.reference_gsi import sign_proxy

ALICE = "/O=Grid/OU=test/CN=Alice"


@pytest.fixture
def ca():
    return CertificateAuthority("/O=Grid/CN=Test CA", now=0.0)


@pytest.fixture
def alice(ca):
    return ca.issue(ALICE, now=0.0)


class TestHappyPaths:
    def test_identity_credential_verifies(self, ca, alice):
        result = verify_credential(alice, [ca], at_time=10.0)
        assert str(result.identity) == ALICE
        assert result.proxy_depth == 0
        assert result.anchor == ca.dn

    def test_single_proxy_verifies(self, ca, alice):
        proxy = delegate(alice, now=1.0)
        result = verify_credential(proxy, [ca], at_time=10.0)
        assert str(result.identity) == ALICE
        assert result.proxy_depth == 1
        assert result.chain_length == 2

    def test_deep_delegation_verifies(self, ca, alice):
        credential = alice
        for _ in range(5):
            credential = delegate(credential, now=1.0)
        result = verify_credential(credential, [ca], at_time=10.0)
        assert result.proxy_depth == 5
        assert str(result.identity) == ALICE

    def test_multiple_anchors(self, ca, alice):
        other = CertificateAuthority("/O=Other/CN=CA", now=0.0)
        result = verify_credential(alice, [other, ca], at_time=10.0)
        assert result.anchor == ca.dn


class TestFailures:
    def test_empty_chain_rejected(self, ca):
        with pytest.raises(VerificationError):
            verify_chain([], [ca], at_time=0.0)

    def test_no_anchors_rejected(self, alice):
        with pytest.raises(UntrustedIssuerError):
            verify_chain(alice.full_chain(), [], at_time=0.0)

    def test_untrusted_issuer_rejected(self, alice):
        stranger = CertificateAuthority("/O=Stranger/CN=CA", now=0.0)
        with pytest.raises(UntrustedIssuerError):
            verify_credential(alice, [stranger], at_time=10.0)

    def test_expired_certificate_rejected(self, ca):
        short = ca.issue(ALICE, now=0.0, lifetime=10.0)
        with pytest.raises(CertificateExpiredError):
            verify_credential(short, [ca], at_time=11.0)

    def test_not_yet_valid_rejected(self, ca):
        future = ca.issue(ALICE, now=100.0)
        with pytest.raises(CertificateExpiredError):
            verify_credential(future, [ca], at_time=50.0)

    def test_expired_proxy_rejected(self, ca, alice):
        proxy = delegate(alice, now=0.0, lifetime=5.0)
        with pytest.raises(CertificateExpiredError):
            verify_credential(proxy, [ca], at_time=6.0)

    def test_revoked_identity_rejected(self, ca, alice):
        ca.revoke(alice.certificate)
        with pytest.raises(VerificationError):
            verify_credential(alice, [ca], at_time=1.0)

    def test_revoked_base_poisons_proxies(self, ca, alice):
        proxy = delegate(alice, now=0.0)
        ca.revoke(alice.certificate)
        with pytest.raises(VerificationError):
            verify_credential(proxy, [ca], at_time=1.0)

    def test_truncated_chain_rejected(self, ca, alice):
        """A proxy presented without its ancestry cannot verify."""
        proxy = delegate(alice, now=0.0)
        orphan = Credential(certificate=proxy.certificate, key_pair=proxy.key_pair)
        with pytest.raises(VerificationError):
            verify_credential(orphan, [ca], at_time=1.0)

    def test_stolen_certificate_fails_possession(self, ca, alice):
        """Holding the public certificate without the key is not enough."""
        thief_keys = KeyPair("thief")
        stolen = Credential(certificate=alice.certificate, key_pair=thief_keys)
        with pytest.raises(SignatureError):
            verify_credential(stolen, [ca], at_time=1.0)

    def test_explicit_possession_proof_checked(self, ca, alice):
        bad_proof = KeyPair("eve").sign(b"possession:gatekeeper-challenge")
        with pytest.raises(SignatureError):
            verify_credential(
                alice, [ca], at_time=1.0, possession_proof=bad_proof
            )

    def test_valid_explicit_possession_proof(self, ca, alice):
        proof = alice.prove_possession(b"challenge-42")
        result = verify_credential(
            alice, [ca], at_time=1.0, challenge=b"challenge-42",
            possession_proof=proof,
        )
        assert str(result.identity) == ALICE

    def test_chain_with_foreign_cert_spliced_in(self, ca, alice):
        """An attacker cannot splice someone else's proxy into a chain."""
        mallory = ca.issue("/O=Grid/CN=Mallory", now=0.0)
        mallory_proxy = delegate(mallory, now=0.0)
        frankenstein = Credential(
            certificate=mallory_proxy.certificate,
            key_pair=mallory_proxy.key_pair,
            chain=alice.full_chain(),
        )
        with pytest.raises(UntrustedIssuerError):
            verify_credential(frankenstein, [ca], at_time=1.0)

    def test_ca_certificate_appended_to_chain_rejected(self, ca, alice):
        """The CA's public certificate, appended to a user's own chain,
        must not make the CA's name the user's Grid identity."""
        posing = Credential(
            certificate=alice.certificate,
            key_pair=alice.key_pair,
            chain=(ca.certificate,),
        )
        with pytest.raises(VerificationError, match="ends at CA certificate"):
            verify_credential(posing, [ca], at_time=1.0)

    def test_ca_certificate_under_a_proxy_rejected(self, ca):
        proxy = sign_proxy(Credential(certificate=ca.certificate, key_pair=ca.key_pair))
        with pytest.raises(VerificationError, match="ends at CA certificate"):
            verify_credential(proxy, [ca], at_time=1.0)


class TestWarmCredential:
    """A credential verified before is presented again after something
    changed: what the verifier remembers of it must not decide."""

    @pytest.fixture
    def warm(self, ca, alice):
        proxy = delegate(alice, now=0.0, lifetime=100.0)
        for credential in (alice, proxy):
            for _ in range(2):
                verify_credential(credential, [ca], at_time=10.0)
        return proxy

    def test_expiry(self, ca, alice, warm):
        with pytest.raises(CertificateExpiredError):
            verify_credential(warm, [ca], at_time=101.0)
        with pytest.raises(CertificateExpiredError):
            verify_credential(alice, [ca], at_time=-1.0)

    def test_revocation(self, ca, alice, warm):
        ca.revoke(alice.certificate)
        for credential in (alice, warm):
            with pytest.raises(VerificationError, match="revoked"):
                verify_credential(credential, [ca], at_time=10.0)

    def test_anchor_dropped_or_rekeyed(self, ca, alice, warm):
        rekeyed = CertificateAuthority(str(ca.dn), now=0.0)
        for credential in (alice, warm):
            with pytest.raises(SignatureError):
                verify_credential(credential, [rekeyed], at_time=10.0)
            with pytest.raises(UntrustedIssuerError):
                verify_credential(
                    credential, [CertificateAuthority("/O=Other/CN=CA")], at_time=10.0
                )

    def test_stolen_certificate_with_a_proven_key_pair(self, ca, alice, warm):
        stolen = Credential(certificate=alice.certificate, key_pair=warm.key_pair)
        for _ in range(2):
            with pytest.raises(SignatureError):
                verify_credential(stolen, [ca], at_time=10.0)

    def test_presented_proof_always_checked(self, ca, alice, warm):
        for proof in (
            KeyPair("eve").sign(b"possession:gatekeeper-challenge"),
            alice.prove_possession(b"another challenge"),
        ):
            with pytest.raises(SignatureError):
                verify_credential(alice, [ca], at_time=10.0, possession_proof=proof)

    def test_tampered_copy_of_a_verified_certificate(self, ca, alice, warm):
        longer = dataclasses.replace(alice.certificate, not_after=1e12)
        forged = Credential(certificate=longer, key_pair=alice.key_pair)
        for _ in range(2):
            with pytest.raises(SignatureError):
                verify_credential(forged, [ca], at_time=10.0)


class TestProxyPathLength:
    """A proxy's path-length constraint bounds the proxies below it in
    every chain presented, not only in the ones ``delegate`` makes: any
    proxy's holder can sign a child proxy directly."""

    def test_child_signed_under_exhausted_proxy_rejected(self, ca, alice):
        limited = delegate(alice, now=0.0, path_length=0)
        child = sign_proxy(limited)
        with pytest.raises(
            VerificationError, match="allows 0 further proxies but 1 follow it"
        ):
            verify_credential(child, [ca], at_time=1.0)

    def test_constraint_bounds_every_proxy_below(self, ca, alice):
        limited = delegate(alice, now=0.0, path_length=1)
        grandchild = sign_proxy(sign_proxy(limited))
        with pytest.raises(
            VerificationError, match="allows 1 further proxies but 2 follow it"
        ):
            verify_credential(grandchild, [ca], at_time=1.0)

    def test_chain_within_its_constraints_verifies(self, ca, alice):
        limited = delegate(alice, now=0.0, path_length=2)
        leaf = sign_proxy(sign_proxy(limited))
        result = verify_credential(leaf, [ca], at_time=1.0)
        assert result.proxy_depth == 3
        assert str(result.identity) == ALICE

    def test_malformed_constraint_rejected(self, ca, alice):
        forged = sign_proxy(alice, extensions={PATH_LENGTH_EXTENSION: "two"})
        with pytest.raises(VerificationError, match="malformed path length"):
            verify_credential(forged, [ca], at_time=1.0)


class TestSameNameAnchors:
    """Two trusted CAs with one name, as while a root is re-keyed: each
    CA's credentials verify under its own key and its own revocation
    list, in either order of the anchors."""

    BOB = "/O=Grid/OU=test/CN=Bob"

    @pytest.fixture
    def rekeyed(self, ca):
        return CertificateAuthority(str(ca.dn), now=0.0)

    @pytest.fixture(params=["old-first", "new-first"])
    def anchors(self, request, ca, rekeyed):
        return [ca, rekeyed] if request.param == "old-first" else [rekeyed, ca]

    def test_credentials_of_both_verify(self, ca, rekeyed, anchors, alice):
        bob = rekeyed.issue(self.BOB, now=0.0)
        assert verify_credential(alice, anchors, at_time=1.0).anchor is ca.dn
        assert verify_credential(bob, anchors, at_time=1.0).anchor is rekeyed.dn
        proxy = delegate(alice, now=0.0)
        assert verify_credential(proxy, anchors, at_time=1.0).anchor is ca.dn

    def test_each_ca_revocation_list_applies(self, ca, rekeyed, anchors, alice):
        bob = rekeyed.issue(self.BOB, now=0.0)
        ca.revoke(alice.certificate)
        with pytest.raises(VerificationError, match="revoked"):
            verify_credential(alice, anchors, at_time=1.0)
        assert str(verify_credential(bob, anchors, at_time=1.0).identity) == self.BOB
        rekeyed.revoke(bob.certificate)
        with pytest.raises(VerificationError, match="revoked"):
            verify_credential(bob, anchors, at_time=1.0)

    def test_no_key_of_the_name_verifies(self, ca, rekeyed, alice):
        other = CertificateAuthority(str(ca.dn), now=0.0)
        with pytest.raises(SignatureError):
            verify_credential(alice, [rekeyed, other], at_time=1.0)
