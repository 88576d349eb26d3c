"""The sharded dispatch seam: routing, shard stacks, cross-shard concerns."""

import threading
import zlib

import pytest

from repro.core.parser import parse_policy
from repro.core.pipeline import DecisionCache, EpochView
from repro.gram.client import GramClient
from repro.gram.dispatch import (
    EpochBroadcast,
    ShardRouter,
    ShardedGramService,
)
from repro.gram.lifecycle import SharedGauge
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig

PREFIX = "/O=Grid/O=Globus/OU=shard.example.org"

POLICY = f"""
{PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobtag=SHARD)
"""

RSL = "&(executable=sim)(count=1)(runtime=10)(jobtag=SHARD)"


def build_sharded(shards=4, **overrides):
    defaults = dict(
        host="grid.example.org",
        node_count=8,
        cpus_per_node=4,
        policies=(parse_policy(POLICY, name="vo"),),
        shards=shards,
    )
    defaults.update(overrides)
    return ShardedGramService(ServiceConfig(**defaults))


def enroll(service, count):
    """One client per generated user, named so DNs are deterministic."""
    clients = []
    for index in range(count):
        identity = f"{PREFIX}/CN=User {index:03d}"
        credential = service.add_user(identity, f"u{index:03d}")
        clients.append(GramClient(credential, service.gatekeeper))
    return clients


class TestShardRouter:
    def test_hash_is_crc32_not_process_hash(self):
        router = ShardRouter(8)
        dn = f"{PREFIX}/CN=Anyone"
        assert router.shard_for(dn) == zlib.crc32(dn.encode()) % 8

    def test_same_dn_same_shard_across_instances(self):
        dn = f"{PREFIX}/CN=Stable"
        assert ShardRouter(4).shard_for(dn) == ShardRouter(4).shard_for(dn)

    def test_single_shard_always_zero(self):
        assert ShardRouter(1).shard_for("anything") == 0

    def test_vo_key_override_pins_a_subtree(self):
        # VO-aware key: every DN under the prefix hashes as one key.
        router = ShardRouter(8, key_fn=lambda dn: dn.rsplit("/CN=", 1)[0])
        shards = {
            router.shard_for(f"{PREFIX}/CN=User {i}") for i in range(50)
        }
        assert len(shards) == 1

    def test_population_spreads_over_shards(self):
        router = ShardRouter(4)
        shards = {
            router.shard_for(f"{PREFIX}/CN=User {i:03d}") for i in range(64)
        }
        assert shards == {0, 1, 2, 3}

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestSharedGauge:
    def test_adjust_and_read(self):
        gauge = SharedGauge()
        assert gauge.adjust(+3) == 3
        assert gauge.adjust(-1) == 2
        assert gauge.value == 2

    def test_concurrent_adjust_loses_nothing(self):
        gauge = SharedGauge()
        threads = [
            threading.Thread(
                target=lambda: [gauge.adjust(+1) for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value == 8000


class TestEpochBroadcast:
    def test_bump_invalidates_a_watching_cache(self):
        broadcast = EpochBroadcast()
        cache = DecisionCache(EpochView([("broadcast", broadcast)]))
        first = cache.view.snapshot()
        assert cache.view.snapshot() == first
        broadcast.bump()
        assert cache.view.snapshot() != first

    def test_service_bump_reaches_every_shard_cache(self):
        service = build_sharded(shards=4, decision_cache=True)
        epochs_before = [shard.pep.cache.view.snapshot() for shard in service.shards]
        service.bump_policy_epoch()
        epochs_after = [shard.pep.cache.view.snapshot() for shard in service.shards]
        assert all(a != b for a, b in zip(epochs_after, epochs_before))


class TestShardedService:
    def test_plain_service_refuses_multi_shard_config(self):
        with pytest.raises(ValueError, match="ShardedGramService"):
            GramService(ServiceConfig(shards=4))

    def test_shard_hosts_are_distinct_and_routable(self):
        service = build_sharded(shards=4)
        hosts = [shard.config.host for shard in service.shards]
        assert hosts == [f"shard{i}.grid.example.org" for i in range(4)]

    def test_single_shard_keeps_the_plain_host(self):
        service = build_sharded(shards=1)
        assert service.shards[0].config.host == "grid.example.org"
        assert service.shared_active_jmis is None

    def test_submit_lands_on_the_requesters_shard(self):
        service = build_sharded(shards=4)
        clients = enroll(service, 8)
        for client in clients:
            response = client.submit(RSL)
            assert response.ok, response.message
            shard = service.shard_of(client.identity)
            expected_host = service.shards[shard].config.host
            assert response.contact.host == expected_host

    def test_cross_shard_management_routes_to_the_jobs_shard(self):
        service = build_sharded(shards=4)
        clients = enroll(service, 16)
        # Find an owner and a peer living on different shards.
        owner = clients[0]
        peer = next(
            c
            for c in clients[1:]
            if service.shard_of(c.identity)
            != service.shard_of(owner.identity)
        )
        response = owner.submit(RSL)
        assert response.ok
        # Peer polls the owner's job (authorized by the jobtag
        # grant) — must route to the owner's shard and succeed.
        status = peer.status(response.contact)
        assert status.ok, status.message
        # The peer may not cancel (jobowner=self) — a *denial*
        # proves the request reached the job, not NO_SUCH_JOB.
        denied = peer.cancel(response.contact)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
        assert owner.cancel(response.contact).ok

    def test_unknown_contact_answers_no_such_job(self):
        from repro.gram.protocol import JobContact

        service = build_sharded(shards=4)
        clients = enroll(service, 1)
        response = clients[0].status(
            JobContact(host="elsewhere.example.org", job_id="424242")
        )
        assert response.code is GramErrorCode.NO_SUCH_JOB

    def test_global_ceiling_spans_shards(self):
        service = build_sharded(shards=4, max_active_jmis=2)
        clients = enroll(service, 12)
        # Pick three users on three different shards: the ceiling
        # must reject the third even though its shard is empty.
        chosen, shards_used = [], set()
        for client in clients:
            shard = service.shard_of(client.identity)
            if shard not in shards_used:
                shards_used.add(shard)
                chosen.append(client)
            if len(chosen) == 3:
                break
        assert len(chosen) == 3
        assert chosen[0].submit(RSL).ok
        assert chosen[1].submit(RSL).ok
        rejected = chosen[2].submit(RSL)
        assert rejected.code is GramErrorCode.RESOURCE_BUSY
        assert "capacity" in rejected.message
        # Slots free as jobs finish, service-wide.
        service.run(15.0)
        assert chosen[2].submit(RSL).ok

    def test_run_advances_every_shard_clock(self):
        service = build_sharded(shards=3)
        service.run(5.0)
        assert [shard.clock.now for shard in service.shards] == [5.0] * 3


class TestMergedTelemetry:
    def build_and_drive(self, shards):
        service = build_sharded(shards=shards)
        clients = enroll(service, 8)
        for client in clients:
            response = client.submit(RSL)
            assert response.ok
            assert client.status(response.contact).ok
        return service

    def test_merged_decisions_sum_across_shards(self):
        service = self.build_and_drive(4)
        per_shard = sum(
            shard.telemetry.registry.value(
                "authz_decisions_total", action="start", decision="permit"
            )
            for shard in service.shards
        )
        assert per_shard == 8
        assert service.merged_value(
            "authz_decisions_total", action="start", decision="permit"
        ) == 8
        snapshot = service.merged_snapshot()
        family = next(
            f for f in snapshot if f["name"] == "authz_decisions_total"
        )
        total = sum(series["value"] for series in family["series"])
        assert total == 16  # 8 starts + 8 information polls

    def test_merged_prometheus_renders_once_per_family(self):
        service = self.build_and_drive(4)
        text = service.merged_prometheus()
        assert text.count("# TYPE authz_decisions_total counter") == 1
        assert "authz_decisions_total{" in text

    def test_merged_spans_have_unique_shard_prefixed_traces(self):
        service = self.build_and_drive(4)
        spans = service.merged_spans()
        assert spans
        trace_ids = {span["trace"] for span in spans}
        assert all(":" in trace for trace in trace_ids)
        shards_seen = {trace.split(":", 1)[0] for trace in trace_ids}
        assert len(shards_seen) > 1

    def test_merge_is_identity_for_one_shard(self):
        service = self.build_and_drive(1)
        merged = service.merged_snapshot()
        assert merged == service.shards[0].telemetry.registry.snapshot()


class TestPlacementReport:
    """Per-shard routed-load counts for hot-VO shard_key pinning."""

    def drive(self, service, users=16, polls=2):
        clients = enroll(service, users)
        contacts = []
        for client in clients:
            response = client.submit(RSL)
            assert response.ok
            contacts.append(response.contact)
        for client, contact in zip(clients, contacts):
            for _ in range(polls):
                assert client.status(contact).ok
        return clients, contacts

    def test_routed_counts_add_up(self):
        service = build_sharded(shards=4)
        self.drive(service, users=16, polls=2)
        report = service.placement_report()
        assert len(report["shards"]) == 4
        assert report["total_routed"] == 16 + 16 * 2
        assert sum(r["routed_submissions"] for r in report["shards"]) == 16
        assert sum(r["routed_management"] for r in report["shards"]) == 32
        # Routed submissions land where they were served.
        for row in report["shards"]:
            assert row["served_submissions"] == row["routed_submissions"]

    def test_balanced_population_has_low_skew(self):
        service = build_sharded(shards=4)
        self.drive(service, users=32, polls=1)
        report = service.placement_report()
        populated = [r for r in report["shards"] if r["routed_total"]]
        assert len(populated) == 4
        assert report["skew"] < 3.0

    def test_pinned_vo_shows_skew(self):
        """A VO-aware shard_key that pins the whole subtree maps every
        requester to one shard: the report must make the imbalance
        visible (skew == shard count, one hot shard)."""
        service = build_sharded(
            shards=4,
            shard_key=lambda dn: dn.rsplit("/CN=", 1)[0],
        )
        self.drive(service, users=16, polls=2)
        report = service.placement_report()
        assert report["skew"] == pytest.approx(4.0)
        hot = report["shards"][report["hot_shard"]]
        assert hot["routed_total"] == report["total_routed"]
        cold = [
            r for r in report["shards"] if r["shard"] != report["hot_shard"]
        ]
        assert all(r["routed_total"] == 0 for r in cold)

    def test_empty_report(self):
        service = build_sharded(shards=2)
        report = service.placement_report()
        assert report["total_routed"] == 0
        assert report["skew"] == 0.0
