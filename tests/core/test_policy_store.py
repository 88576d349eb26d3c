"""The versioned policy store: publish, reject, rollback, hot reload."""

import json

import pytest

from repro.core.parser import parse_policy
from repro.core.store import (
    REJECT_EMPTY,
    REJECT_PARSE,
    REJECT_SOURCES,
    REJECT_VALIDATOR,
    BundleRejected,
    PolicyBundle,
    PolicyStoreError,
    PolicyWatcher,
    VersionedPolicyStore,
)
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import Clock

ORG = "/O=Grid/OU=store.example.org"

VO_TEXT = f"""
{ORG}:
    &(action=start)(executable=sim)
    &(action=cancel)(jobowner=self)
    &(action=information)
"""

#: Same grammar, different grants: cancels become peer-allowed.
VO_TEXT_V2 = f"""
{ORG}:
    &(action=start)(executable=sim)
    &(action=cancel)
    &(action=information)
"""

BROKEN_TEXT = "this is not ( a policy"


def bundle(text=VO_TEXT, name="vo"):
    return PolicyBundle.from_texts({name: text})


class TestPolicyBundle:
    def test_digest_is_content_addressed(self):
        assert bundle().digest == bundle().digest
        assert bundle().digest != bundle(VO_TEXT_V2).digest

    def test_digest_ignores_assembly_route(self):
        """Files, strings and re-rendered policies name the same bundle."""
        policy = parse_policy(VO_TEXT, name="vo")
        rerendered = PolicyBundle.from_policies([policy])
        again = PolicyBundle.from_texts({"vo": str(policy)})
        assert rerendered.digest == again.digest

    def test_parse_round_trips(self):
        policies = bundle().parse()
        assert len(policies) == 1
        assert policies[0].name == "vo"

    def test_source_names_preserve_order(self):
        two = PolicyBundle.from_texts({"vo": VO_TEXT, "local": VO_TEXT_V2})
        assert two.source_names == ("vo", "local")


class TestPublish:
    def test_first_publish_is_epoch_one(self):
        store = VersionedPolicyStore()
        snapshot = store.publish(bundle())
        assert snapshot.epoch == 1
        assert store.policy_epoch == 1
        assert store.active() is snapshot
        assert snapshot.parent == ""

    def test_identical_content_is_a_noop(self):
        store = VersionedPolicyStore()
        first = store.publish(bundle())
        again = store.publish(bundle())
        assert again is first
        assert store.policy_epoch == 1
        assert store.noop_publishes == 1
        assert store.published_total == 1

    def test_changed_content_bumps_the_epoch(self):
        store = VersionedPolicyStore()
        store.publish(bundle())
        second = store.publish(bundle(VO_TEXT_V2))
        assert second.epoch == 2
        assert second.parent == bundle().digest

    def test_unchanged_source_keeps_its_policy(self):
        store = VersionedPolicyStore()
        first = store.publish(
            PolicyBundle.from_texts({"vo": VO_TEXT, "local": VO_TEXT})
        )
        second = store.publish(
            PolicyBundle.from_texts({"vo": VO_TEXT_V2, "local": VO_TEXT})
        )
        assert second.policies[0] is not first.policies[0]
        assert second.policies[1] is first.policies[1]
        # A restyle is a changed text: a new Policy, equal to the old.
        third = store.publish(
            PolicyBundle.from_texts({"vo": VO_TEXT_V2, "local": VO_TEXT + "\n#"})
        )
        assert third.policies[0] is second.policies[0]
        assert third.policies[1] is not second.policies[1]
        assert third.policies[1] == second.policies[1]

    def test_repeated_source_name_keeps_nothing(self):
        store = VersionedPolicyStore()
        first = store.publish(
            PolicyBundle(sources=(("vo", VO_TEXT), ("local", VO_TEXT)))
        )
        second = store.publish(
            PolicyBundle(
                sources=(("vo", VO_TEXT), ("vo", VO_TEXT_V2), ("local", VO_TEXT))
            )
        )
        assert second.policies[0] is not first.policies[0]
        assert second.policies[2] is first.policies[1]
        # Repeated in the active bundle: still nothing kept for "vo".
        third = store.publish(
            PolicyBundle(sources=(("vo", VO_TEXT), ("local", VO_TEXT)))
        )
        assert third.policies[0] is not second.policies[0]
        assert third.policies[1] is first.policies[1]

    def test_parse_failure_rejects_atomically(self):
        store = VersionedPolicyStore()
        active = store.publish(bundle())
        with pytest.raises(BundleRejected) as excinfo:
            store.publish(bundle(BROKEN_TEXT))
        assert excinfo.value.reason == REJECT_PARSE
        assert store.active() is active
        assert store.policy_epoch == 1
        assert store.rejected_total == 1

    def test_empty_bundle_rejected(self):
        store = VersionedPolicyStore()
        with pytest.raises(BundleRejected) as excinfo:
            store.publish(PolicyBundle(sources=()))
        assert excinfo.value.reason == REJECT_EMPTY

    def test_validator_veto_rejects_atomically(self):
        store = VersionedPolicyStore()
        active = store.publish(bundle())

        def veto(bundle_, policies):
            raise ValueError("not on my watch")

        store.add_validator(veto)
        with pytest.raises(BundleRejected) as excinfo:
            store.publish(bundle(VO_TEXT_V2))
        assert excinfo.value.reason == REJECT_VALIDATOR
        assert store.active() is active

    def test_subscribers_see_each_publish_once(self):
        store = VersionedPolicyStore()
        seen = []
        store.subscribe(seen.append)
        store.publish(bundle())
        store.publish(bundle())  # no-op: not delivered
        store.publish(bundle(VO_TEXT_V2))
        assert [snapshot.epoch for snapshot in seen] == [1, 2]

    def test_get_by_digest_prefix(self):
        store = VersionedPolicyStore()
        snapshot = store.publish(bundle())
        assert store.get(snapshot.digest) is snapshot
        assert store.get(snapshot.digest[:10]) is snapshot
        assert store.get("no-such") is None


class TestRollback:
    def test_rollback_is_a_new_epoch_with_old_content(self):
        store = VersionedPolicyStore()
        first = store.publish(bundle())
        store.publish(bundle(VO_TEXT_V2))
        rolled = store.rollback()
        assert rolled.epoch == 3
        assert rolled.digest == first.digest
        assert rolled.origin == "rollback"

    def test_rollback_by_digest(self):
        store = VersionedPolicyStore()
        first = store.publish(bundle())
        store.publish(bundle(VO_TEXT_V2))
        rolled = store.rollback(to=first.digest[:12])
        assert rolled.digest == first.digest

    def test_rollback_past_history_fails(self):
        store = VersionedPolicyStore()
        store.publish(bundle())
        with pytest.raises(PolicyStoreError):
            store.rollback(steps=5)
        with pytest.raises(PolicyStoreError):
            VersionedPolicyStore().rollback()


class TestDurableLog:
    def test_log_replays_into_a_fresh_store(self, tmp_path):
        log = str(tmp_path / "policies.jsonl")
        store = VersionedPolicyStore(log_path=log)
        store.publish(bundle())
        store.publish(bundle(VO_TEXT_V2))

        replica = VersionedPolicyStore(log_path=log)
        assert replica.policy_epoch == 2
        assert replica.active().digest == store.active().digest
        assert [s.epoch for s in replica.log_entries()] == [1, 2]

    def test_replayed_store_exports_its_epoch(self, tmp_path):
        log = str(tmp_path / "policies.jsonl")
        store = VersionedPolicyStore(log_path=log)
        for text in (VO_TEXT, VO_TEXT_V2, VO_TEXT):
            store.publish(bundle(text))

        registry = MetricsRegistry()
        replica = VersionedPolicyStore(registry=registry, log_path=log)
        assert replica.policy_epoch == 3
        assert registry.value("policy_store_epoch") == 3.0

    def test_truncated_trailing_line_is_skipped_not_fatal(self, tmp_path):
        log = str(tmp_path / "policies.jsonl")
        store = VersionedPolicyStore(log_path=log)
        store.publish(bundle())
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 2, "digest": "deadbeef", "sour')  # crash

        replica = VersionedPolicyStore(log_path=log)
        assert replica.policy_epoch == 1
        assert replica.replay_skipped_lines == 1

    def test_publish_after_a_torn_tail_survives_restart(self, tmp_path):
        log = str(tmp_path / "policies.jsonl")
        grants = [
            f"{ORG}/CN=User {index}:\n    &(action=start)(executable=sim)\n"
            for index in range(4)
        ]
        store = VersionedPolicyStore(log_path=log)
        store.publish(bundle("".join(grants[:3])))
        store.publish(bundle("".join(grants)))
        with open(log, "rb+") as handle:
            handle.truncate(handle.seek(0, 2) - 15)  # crash mid-append

        restarted = VersionedPolicyStore(log_path=log)
        assert restarted.policy_epoch == 1
        assert restarted.replay_skipped_lines == 1
        revocation = bundle(grants[0])  # withdraws two of the three
        restarted.publish(revocation)
        assert restarted.policy_epoch == 2

        # The revocation is not glued onto the torn line, so a second
        # restart serves it instead of the revoked grants.
        replica = VersionedPolicyStore(log_path=log)
        assert replica.policy_epoch == 2
        assert replica.active().digest == revocation.digest
        assert replica.replay_skipped_lines == 1


class TestPolicyWatcher:
    def write(self, path, text, mtime):
        path.write_text(text)
        import os

        os.utime(path, (mtime, mtime))

    def test_reload_on_mtime_change(self, tmp_path):
        clock = Clock()
        policy_file = tmp_path / "vo.policy"
        self.write(policy_file, VO_TEXT, 1000.0)
        store = VersionedPolicyStore(clock=clock)
        store.publish(bundle())
        watcher = PolicyWatcher(
            store, [("vo", str(policy_file))], clock, interval=5.0
        )
        watcher.start()

        clock.advance(5.0)
        assert watcher.polls == 1
        assert store.policy_epoch == 1  # untouched file: no reload

        self.write(policy_file, VO_TEXT_V2, 2000.0)
        clock.advance(5.0)
        assert watcher.reloads == 1
        assert store.policy_epoch == 2
        assert store.active().origin == "watcher"

    def test_paths_accept_a_mapping(self, tmp_path):
        clock = Clock()
        policy_file = tmp_path / "vo.policy"
        self.write(policy_file, VO_TEXT, 1000.0)
        store = VersionedPolicyStore(clock=clock)
        store.publish(bundle())
        # {name: path} is the natural shape; it must behave exactly
        # like the [(name, path)] pair form, not silently watch junk.
        watcher = PolicyWatcher(
            store, {"vo": str(policy_file)}, clock, interval=5.0
        )
        watcher.start()
        self.write(policy_file, VO_TEXT_V2, 2000.0)
        clock.advance(5.0)
        assert watcher.reloads == 1
        assert store.policy_epoch == 2

    def test_touched_but_identical_content_is_a_noop(self, tmp_path):
        clock = Clock()
        policy_file = tmp_path / "vo.policy"
        self.write(policy_file, VO_TEXT, 1000.0)
        store = VersionedPolicyStore(clock=clock)
        store.publish(PolicyBundle.from_files([("vo", str(policy_file))]))
        watcher = PolicyWatcher(
            store, [("vo", str(policy_file))], clock, interval=5.0
        )
        watcher.start()

        self.write(policy_file, VO_TEXT, 3000.0)  # touch, same bytes
        clock.advance(5.0)
        assert watcher.noops == 1
        assert watcher.reloads == 0
        assert store.policy_epoch == 1

    def test_broken_file_rejected_old_epoch_serves(self, tmp_path):
        clock = Clock()
        policy_file = tmp_path / "vo.policy"
        self.write(policy_file, VO_TEXT, 1000.0)
        store = VersionedPolicyStore(clock=clock)
        before = store.publish(
            PolicyBundle.from_files([("vo", str(policy_file))])
        )
        watcher = PolicyWatcher(
            store, [("vo", str(policy_file))], clock, interval=5.0
        )
        watcher.start()

        self.write(policy_file, BROKEN_TEXT, 2000.0)
        clock.advance(5.0)
        assert watcher.rejected == 1
        assert store.active() is before
        assert store.policy_epoch == 1

        # The polling loop survives the rejection and picks up the fix.
        self.write(policy_file, VO_TEXT_V2, 3000.0)
        clock.advance(5.0)
        assert watcher.reloads == 1
        assert store.policy_epoch == 2

    def test_stop_halts_polling(self, tmp_path):
        clock = Clock()
        policy_file = tmp_path / "vo.policy"
        self.write(policy_file, VO_TEXT, 1000.0)
        store = VersionedPolicyStore(clock=clock)
        watcher = PolicyWatcher(
            store, [("vo", str(policy_file))], clock, interval=5.0
        )
        watcher.start()
        clock.advance(5.0)
        watcher.stop()
        clock.advance(50.0)
        assert watcher.polls == 1


ALICE = f"{ORG}/CN=Alice"
BOB = f"{ORG}/CN=Bob"
RSL = "&(executable=sim)(count=1)(runtime=100)"


def build_store_service(**overrides):
    store = VersionedPolicyStore()
    defaults = dict(
        policies=(parse_policy(VO_TEXT, name="vo"),),
        policy_store=store,
    )
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults)), store


class TestServiceIntegration:
    def test_service_seeds_an_empty_store(self):
        service, store = build_store_service()
        assert store.policy_epoch == 1
        assert store.active().origin == "seed"
        assert store.active().bundle.source_names == ("vo",)

    def test_service_adopts_a_prepublished_store(self):
        store = VersionedPolicyStore()
        store.publish(bundle(VO_TEXT_V2))
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(VO_TEXT, name="vo"),),
                policy_store=store,
            )
        )
        # V2 allows peer cancel; the config's text would deny it.
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        bob = GramClient(service.add_user(BOB, "bob"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        assert bob.cancel(contact).code is GramErrorCode.SUCCESS

    def test_adopted_store_exports_its_epoch(self):
        store = VersionedPolicyStore()
        store.publish(bundle(VO_TEXT_V2))
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(VO_TEXT, name="vo"),),
                policy_store=store,
            )
        )
        assert service.telemetry.registry.value("policy_store_epoch") == 1.0

    def test_publish_swaps_decisions_atomically(self):
        service, store = build_store_service()
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        bob = GramClient(service.add_user(BOB, "bob"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        denied = bob.cancel(contact)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED

        store.publish(bundle(VO_TEXT_V2))
        assert bob.cancel(contact).code is GramErrorCode.SUCCESS

    def test_invalid_publish_leaves_old_epoch_serving(self):
        service, store = build_store_service(decision_cache=True)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        epoch_before = store.policy_epoch

        with pytest.raises(BundleRejected):
            store.publish(bundle(BROKEN_TEXT))

        # Zero failed decisions at the surviving epoch.
        assert store.policy_epoch == epoch_before
        assert alice.status(contact).code is GramErrorCode.SUCCESS
        assert alice.cancel(contact).code is GramErrorCode.SUCCESS

    def test_source_topology_change_is_vetoed(self):
        service, store = build_store_service()
        with pytest.raises(BundleRejected) as excinfo:
            store.publish(
                PolicyBundle.from_texts(
                    {"vo": VO_TEXT, "local": VO_TEXT_V2}
                )
            )
        assert excinfo.value.reason == REJECT_SOURCES

    def test_rejection_metric_exported(self):
        service, store = build_store_service()
        with pytest.raises(BundleRejected):
            store.publish(bundle(BROKEN_TEXT))
        registry = service.telemetry.registry
        assert registry.value(
            "policy_reload_rejected_total", reason=REJECT_PARSE
        ) == 1.0
        assert registry.value("policy_store_publish_total", origin="seed") == 1.0

    def test_hot_reload_through_the_service_watcher(self, tmp_path):
        policy_file = tmp_path / "vo.policy"
        policy_file.write_text(VO_TEXT)
        import os

        os.utime(policy_file, (1000.0, 1000.0))
        service, store = build_store_service()
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        bob = GramClient(service.add_user(BOB, "bob"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        service.watch_policy_files([("vo", str(policy_file))], interval=5.0)

        policy_file.write_text(VO_TEXT_V2)
        os.utime(policy_file, (2000.0, 2000.0))
        assert bob.cancel(contact).code is GramErrorCode.AUTHORIZATION_DENIED
        service.run(5.0)
        assert store.policy_epoch == 2
        assert bob.cancel(contact).code is GramErrorCode.SUCCESS

    def test_capability_revoked_on_publish_survives_noop(self):
        service, store = build_store_service(capability_grants=True)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        alice.status(contact)  # mints the information grant
        assert alice.status(contact).decision_context.cache_status == "capability"

        store.publish(store.active().bundle)  # digest no-op: survives
        assert alice.status(contact).decision_context.cache_status == "capability"
        capability = service.capability
        assert capability.revoked == 0

        store.publish(bundle(VO_TEXT_V2))  # real publish: revoked
        assert alice.status(contact).decision_context.cache_status != "capability"
        assert capability.revoked == 1
        assert capability.miss_reasons["epoch"] == 1

    def test_log_line_format(self, tmp_path):
        log = str(tmp_path / "log.jsonl")
        store = VersionedPolicyStore(log_path=log)
        store.publish(bundle())
        with open(log, "r", encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        assert record["epoch"] == 1
        assert record["sources"] == [["vo", VO_TEXT]]
