"""Capability grants threaded through the service: carry, revocation, shards."""

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
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


def build_sharded(shards=4, **overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        capability_grants=True,
        shards=shards,
    )
    defaults.update(overrides)
    return ShardedGramService(ServiceConfig(**defaults))


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
    def test_jmi_carries_the_start_capability(self):
        service = build_service()
        client = client_for(service)
        contact = client.submit(RSL).contact
        jmi = service.shard_state.job_managers[contact.job_id]
        assert jmi.capability is not None
        assert jmi.capability.subject == ALICE
        assert jmi.capability.actions == ("start",)

    def test_reaped_record_retains_the_capability(self):
        service = build_service()
        client = client_for(service)
        contact = client.submit(RSL).contact
        token = service.shard_state.job_managers[contact.job_id].capability
        service.run(30.0)  # runtime=10: job completes and is reaped
        record = service.gatekeeper.completed.get(contact.job_id)
        assert record is not None
        assert record.capability == token
        assert record.capability.verify_signature(
            service.capability.issuer.key
        )

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


class TestShardedCapabilities:
    def test_shards_share_one_signing_key(self):
        service = build_sharded(shards=4)
        keys = {shard.capability.issuer.key for shard in service.shards}
        assert len(keys) == 1

    def test_broadcast_epoch_bound_into_every_token(self):
        service = build_sharded(shards=2)
        for shard in service.shards:
            names = [name for name, _ in shard.capability.issuer.epoch_sources]
            assert "broadcast" in names

    def test_fast_path_works_per_shard(self):
        service = build_sharded(shards=4)
        clients = [
            client_for(service, f"{PREFIX}/CN=User {i:03d}", f"u{i:03d}")
            for i in range(8)
        ]
        contacts = [client.submit(RSL).contact for client in clients]
        for client, contact in zip(clients, contacts):
            for _ in range(3):
                assert client.status(contact).code is GramErrorCode.SUCCESS
        total_hits = sum(
            shard.capability.snapshot()["hits"] for shard in service.shards
        )
        assert total_hits >= 16

    def test_bump_policy_epoch_revokes_on_every_shard(self):
        """PR 6's EpochBroadcast is bound into every token: one
        service-wide bump revokes outstanding capabilities on every
        shard before the next validate."""
        service = build_sharded(shards=4)
        clients = [
            client_for(service, f"{PREFIX}/CN=User {i:03d}", f"u{i:03d}")
            for i in range(8)
        ]
        contacts = [client.submit(RSL).contact for client in clients]
        for client, contact in zip(clients, contacts):
            client.status(contact)
        populated = [
            shard for shard in service.shards
            if shard.capability.snapshot()["minted"] > 0
        ]
        assert len(populated) > 1  # users actually spread over shards

        service.bump_policy_epoch()

        for client, contact in zip(clients, contacts):
            assert client.status(contact).code is GramErrorCode.SUCCESS
        for shard in populated:
            snapshot = shard.capability.snapshot()
            assert snapshot["revoked"] >= 1, (
                f"shard {shard.shard_index} did not revoke: {snapshot}"
            )
            assert snapshot["miss_reasons"]["epoch"] >= 1

    def test_single_shard_sharded_service_matches_flat(self):
        service = build_sharded(shards=1)
        client = client_for(service)
        contact = client.submit(RSL).contact
        client.status(contact)
        client.status(contact)
        client.status(contact)
        assert service.shards[0].capability.snapshot()["hits"] >= 2


class TestTokenPortability:
    def test_token_minted_on_one_shard_verifies_on_another(self):
        service = build_sharded(shards=4)
        client = client_for(service, f"{PREFIX}/CN=User 000", "u000")
        contact = client.submit(RSL).contact
        owner_shard = service.shard_of(f"{PREFIX}/CN=User 000")
        token = (
            service.shards[owner_shard]
            .shard_state.job_managers[contact.job_id]
            .capability
        )
        assert token is not None
        other = service.shards[(owner_shard + 1) % len(service.shards)]
        assert token.verify_signature(other.capability.issuer.key)
