"""Adversarial attempts against the full stack.

Each test is an attack the design must stop: identity spoofing,
computed-attribute spoofing, credential theft/replay, expiry and
revocation races, and contact guessing.
"""

import pytest

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.keys import KeyPair
from repro.gsi.proxy import delegate
from tests.gsi.reference_gsi import sign_proxy

ORG = "/O=Grid/OU=adv"
ALICE = f"{ORG}/CN=Alice"
MALLORY = f"{ORG}/CN=Mallory"

POLICY = f"""
{ALICE}:
    &(action=start)(executable=sim)(count<=4)(jobtag!=NULL)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobowner=self)
{MALLORY}:
    &(action=start)(executable=sim)(count<=1)(jobtag!=NULL)
    &(action=information)(jobowner=self)
"""


@pytest.fixture
def service():
    return GramService(ServiceConfig(policies=(parse_policy(POLICY, name="vo"),)))


@pytest.fixture
def alice(service):
    return GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)


@pytest.fixture
def mallory(service):
    return GramClient(service.add_user(MALLORY, "mallory"), service.gatekeeper)


class TestIdentitySpoofing:
    def test_stolen_certificate_without_key_fails(self, service, alice):
        """Mallory grabs Alice's public certificate but not her key."""
        stolen = Credential(
            certificate=alice.credential.certificate,
            key_pair=KeyPair("mallory-keys"),
        )
        impostor = GramClient(stolen, service.gatekeeper)
        response = impostor.submit("&(executable=sim)(count=1)(jobtag=T)")
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_self_issued_certificate_fails(self, service):
        """Mallory runs her own CA and mints an 'Alice' certificate."""
        rogue_ca = CertificateAuthority("/O=Rogue/CN=CA", now=0.0)
        forged = rogue_ca.issue(ALICE, now=0.0)
        impostor = GramClient(forged, service.gatekeeper)
        response = impostor.submit("&(executable=sim)(count=1)(jobtag=T)")
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_proxy_of_stolen_certificate_fails(self, service, alice):
        """Even wrapping the stolen cert in a fresh proxy chain fails:
        the proxy is signed by a key that does not match the cert."""
        stolen = Credential(
            certificate=alice.credential.certificate,
            key_pair=KeyPair("mallory-keys"),
        )
        proxy = delegate(stolen, now=service.clock.now)
        impostor = GramClient(proxy, service.gatekeeper)
        response = impostor.submit("&(executable=sim)(count=1)(jobtag=T)")
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_proxy_beyond_its_path_length_fails(self, service, alice):
        """A path_length=0 proxy's holder signs a child proxy directly."""
        limited = delegate(alice.credential, now=service.clock.now, path_length=0)
        child = sign_proxy(limited, now=service.clock.now)
        response = GramClient(child, service.gatekeeper).submit(
            "&(executable=sim)(count=1)(jobtag=T)"
        )
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_ca_certificate_appended_to_chain_fails(self, service, alice):
        """Alice appends the CA's public certificate to her own chain to
        be taken for the CA."""
        posing = Credential(
            certificate=alice.credential.certificate,
            key_pair=alice.credential.key_pair,
            chain=(service.ca.certificate,),
        )
        response = GramClient(posing, service.gatekeeper).submit(
            "&(executable=sim)(count=1)(jobtag=T)"
        )
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED


class TestComputedAttributeSpoofing:
    def test_action_spoof_in_rsl_ignored(self, service, mallory, alice):
        """Mallory writes (action=cancel) into a start request hoping
        the evaluator reads her cancel-free policy differently."""
        response = mallory.submit(
            "&(executable=sim)(count=1)(jobtag=T)(action=cancel)(runtime=10)"
        )
        # Evaluated as a start; her start grant allows it.
        assert response.ok

    def test_jobowner_spoof_cannot_steal_management_rights(
        self, service, alice, mallory
    ):
        """Mallory submits claiming Alice as jobowner, then tries to
        have Alice's self-cancel grant apply to her."""
        job = alice.submit("&(executable=sim)(count=2)(jobtag=T)(runtime=100)")
        assert job.ok
        response = mallory.cancel(job.contact)
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED

    def test_count_smuggling_via_duplicate_relations(self, service, alice):
        """(count=1)(count=400): every supplied value must satisfy the
        policy bound — the small value cannot launder the big one."""
        response = alice.submit(
            "&(executable=sim)(count=1)(count=400)(jobtag=T)"
        )
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED


class TestTemporalAttacks:
    def test_expired_proxy_rejected_later(self, service):
        credential = service.add_user(f"{ORG}/CN=Temp", "temp")
        proxy = delegate(credential, now=service.clock.now, lifetime=50.0)
        client = GramClient(proxy, service.gatekeeper)
        service.run(100.0)
        response = client.submit("&(executable=sim)(count=1)(jobtag=T)")
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_revoked_user_locked_out(self, service, alice):
        service.ca.revoke(alice.credential.certificate, "compromised")
        response = alice.submit("&(executable=sim)(count=1)(jobtag=T)")
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_revocation_blocks_management_of_existing_jobs(self, service, alice):
        job = alice.submit("&(executable=sim)(count=2)(jobtag=T)(runtime=100)")
        assert job.ok
        service.ca.revoke(alice.credential.certificate)
        response = alice.cancel(job.contact)
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED


class TestContactGuessing:
    def test_guessed_contact_still_requires_authorization(
        self, service, alice, mallory
    ):
        """Knowing a job's contact URL conveys no rights: Mallory can
        address Alice's JMI but the callout still denies her."""
        job = alice.submit("&(executable=sim)(count=2)(jobtag=T)(runtime=100)")
        assert job.ok
        # Mallory 'guesses' the contact (she just reads it here).
        response = mallory.status(job.contact)
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED

    def test_unknown_contact_is_distinguishable_but_unexploitable(
        self, service, mallory
    ):
        from repro.gram.protocol import JobContact

        ghost = JobContact(host="x", job_id="999999")
        response = mallory.cancel(ghost)
        assert response.code is GramErrorCode.NO_SUCH_JOB


class TestRepeatedAuthentication:
    """A credential the service has verified before, re-presented with
    the decision cache and capability grants on: what authentication
    remembers of it never outlives a change of time, revocation or
    trust anchors."""

    JOB = "&(executable=sim)(count=1)(jobtag=T)(runtime=1000)"

    @pytest.fixture
    def service(self):
        return GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                decision_cache=True,
                capability_grants=True,
            )
        )

    def polled(self, client, times=3):
        job = client.submit(self.JOB)
        assert job.ok
        for _ in range(times):
            assert client.status(job.contact).ok
        return job

    def test_credential_expiring_between_polls(self, service, alice):
        short = service.ca.issue(ALICE, now=service.clock.now, lifetime=60.0)
        client = GramClient(short, service.gatekeeper)
        job = self.polled(client)
        service.run(30.0)
        assert client.status(job.contact).ok
        service.run(31.0)
        response = client.status(job.contact)
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_revocation_between_polls(self, service, alice):
        job = self.polled(alice)
        service.ca.revoke(alice.credential.certificate)
        response = alice.status(job.contact)
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_stolen_certificate_after_owner_polls(self, service, alice, mallory):
        job = self.polled(alice)
        self.polled(mallory)
        for keys in (KeyPair("mallory-keys"), mallory.credential.key_pair):
            stolen = Credential(certificate=alice.credential.certificate, key_pair=keys)
            thief = GramClient(stolen, service.gatekeeper)
            for _ in range(2):
                response = thief.status(job.contact)
                assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_anchor_replaced_by_rekeyed_ca(self, service, alice):
        job = self.polled(alice)
        service.run(1001.0)  # the job completes and is reaped
        for _ in range(2):
            assert alice.status(job.contact).ok
        live = self.polled(alice)
        assert service.gatekeeper.job_manager(live.contact) is not None
        rekeyed = CertificateAuthority(str(service.ca.dn), now=service.clock.now)
        service.gatekeeper.trust_anchors = (rekeyed,)
        for contact in (job.contact, live.contact):
            response = alice.status(contact)
            assert response.code is GramErrorCode.AUTHENTICATION_FAILED
        assert alice.submit(self.JOB).code is GramErrorCode.AUTHENTICATION_FAILED
        reissued = rekeyed.issue(ALICE, now=service.clock.now)
        assert GramClient(reissued, service.gatekeeper).submit(self.JOB).ok
