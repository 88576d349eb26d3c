"""Capability grants threaded through the service: fast path and revocation."""

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig

PREFIX = "/O=Grid/O=Globus/OU=cap.example.org"
ALICE = f"{PREFIX}/CN=Alice"

POLICY = f"""
{PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobtag=CAP)
"""

RSL = "&(executable=sim)(count=1)(runtime=10)(jobtag=CAP)"


def build_service(**overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        capability_grants=True,
    )
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults))


def client_for(service, identity=ALICE, account="alice"):
    return GramClient(service.add_user(identity, account), service.gatekeeper)


class TestServiceFastPath:
    def test_repeat_status_hits_the_capability(self):
        service = build_service()
        client = client_for(service)
        response = client.submit(RSL)
        assert response.code is GramErrorCode.SUCCESS
        for _ in range(5):
            assert client.status(response.contact).code is GramErrorCode.SUCCESS
        snapshot = service.capability.snapshot()
        assert snapshot["hits"] >= 4
        assert snapshot["minted"] >= 1

    def test_capability_metrics_exported(self):
        service = build_service()
        client = client_for(service)
        contact = client.submit(RSL).contact
        client.status(contact)
        client.status(contact)
        registry = service.telemetry.registry
        assert registry.value("capability_mint_total") >= 1
        assert registry.value("capability_hit_total") >= 1
        # The PEP's cache-status family gains the "capability" status.
        assert registry.value("authz_cache_total", status="capability") >= 1

    def test_disabled_by_default(self):
        service = GramService(
            ServiceConfig(policies=(parse_policy(POLICY, name="vo"),))
        )
        assert service.capability is None
        assert service.pep.capability is None


class TestJobCarry:
    def test_post_reap_management_still_fast_paths(self):
        service = build_service()
        client = client_for(service)
        contact = client.submit(RSL).contact
        client.status(contact)
        service.run(30.0)
        before = service.capability.snapshot()["hits"]
        assert client.status(contact).code is GramErrorCode.SUCCESS
        assert service.capability.snapshot()["hits"] > before


class TestRevocation:
    """Epoch bump on any bound source fail-closes outstanding capabilities."""

    def bumped_snapshot(self, service, bump):
        client = client_for(service)
        contact = client.submit(RSL).contact
        client.status(contact)  # first information decision mints
        client.status(contact)  # second hits the capability
        assert service.capability.snapshot()["hits"] >= 1
        bump(service)
        # The next validate must revoke, then re-decide fresh.
        assert client.status(contact).code is GramErrorCode.SUCCESS
        return service.capability.snapshot()

    def test_vo_policy_replacement_revokes(self):
        service = build_service()
        snapshot = self.bumped_snapshot(
            service,
            lambda s: s.combined_evaluator.evaluators[0].replace_policy(
                parse_policy(POLICY, name="vo-v2")
            ),
        )
        assert snapshot["revoked"] >= 1
        assert snapshot["miss_reasons"]["epoch"] >= 1

    def test_local_policy_replacement_revokes(self):
        local = parse_policy(f"{PREFIX}:\n    &(action!=NULL)", name="local")
        service = build_service(
            policies=(parse_policy(POLICY, name="vo"), local)
        )
        snapshot = self.bumped_snapshot(
            service,
            lambda s: s.combined_evaluator.evaluators[1].replace_policy(
                parse_policy(f"{PREFIX}:\n    &(action!=NULL)", name="local-v2")
            ),
        )
        assert snapshot["revoked"] >= 1

    def test_gridmap_change_revokes(self):
        service = build_service()
        snapshot = self.bumped_snapshot(
            service,
            lambda s: s.gridmap.add(f"{PREFIX}/CN=Mallory", "mallory"),
        )
        assert snapshot["revoked"] >= 1

    def test_policy_change_that_removes_the_grant_denies(self):
        """The teeth of fail-closed: after the VO drops the grant, the
        held capability must not keep answering PERMIT."""
        service = build_service()
        client = client_for(service)
        contact = client.submit(RSL).contact
        assert client.status(contact).code is GramErrorCode.SUCCESS
        service.combined_evaluator.evaluators[0].replace_policy(
            parse_policy(
                f"{PREFIX}:\n    &(action=start)(executable=sim)(count<4)",
                name="vo-no-info",
            )
        )
        denied = client.status(contact)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
