"""The reload/recovery bugfix sweep: regressions pinned one by one.

* ``CalloutRegistry.configure_from_file`` must not bump the policy
  epoch for byte-identical content (capability tokens survive a no-op
  reload).
* ``CompletedJobStore`` lazy age eviction must evict the looked-up
  record itself, exactly once, even when completion order is not age
  order.
* ``ShardRouter`` must drop memoized routes when the shard key is
  reconfigured.
* ``GramClient`` must clamp degenerate ``retry_after`` hints to a
  minimum positive backoff window.
"""

from repro.core.callout import GRAM_AUTHZ_CALLOUT, CalloutRegistry
from repro.core.parser import parse_policy
from repro.gram.client import MIN_RETRY_AFTER, GramClient
from repro.gram.dispatch import ShardRouter, ShardedGramService
from repro.gram.lifecycle import CompletedJobStore
from repro.gram.protocol import GramErrorCode, GramResponse
from repro.gram.service import GramService, ServiceConfig
from repro.sim.clock import Clock
from tests.gram.test_spill_recovery import ALICE, ORG, POLICY, RSL, make_record

CALLOUT_LINE = "gram.authz repro.core.builtin_callouts permit_all\n"
OTHER_LINE = "gram.authz repro.core.builtin_callouts initiator_only\n"


class TestCalloutReloadShortCircuit:
    def test_identical_content_does_not_bump_the_epoch(self, tmp_path):
        path = tmp_path / "callouts.conf"
        path.write_text(CALLOUT_LINE)
        registry = CalloutRegistry()
        assert registry.configure_from_file(str(path)) == 1
        epoch = registry.policy_epoch
        assert epoch == 1

        # Same bytes, any number of times: zero loads, zero bumps.
        for _ in range(3):
            assert registry.configure_from_file(str(path), reload=True) == 0
        assert registry.policy_epoch == epoch
        assert registry.callout_labels(GRAM_AUTHZ_CALLOUT) == (
            "repro.core.builtin_callouts:permit_all",
        )

    def test_changed_content_replaces_and_bumps_once(self, tmp_path):
        path = tmp_path / "callouts.conf"
        path.write_text(CALLOUT_LINE)
        registry = CalloutRegistry()
        registry.configure_from_file(str(path))

        path.write_text(OTHER_LINE)
        assert registry.configure_from_file(str(path), reload=True) == 1
        assert registry.policy_epoch == 2
        # Replaced, not appended: exactly one configured callout.
        assert registry.callout_labels(GRAM_AUTHZ_CALLOUT) == (
            "repro.core.builtin_callouts:initiator_only",
        )

    def test_broken_file_leaves_registry_and_epoch_untouched(self, tmp_path):
        import pytest

        from repro.core.errors import AuthorizationSystemFailure

        path = tmp_path / "callouts.conf"
        path.write_text(CALLOUT_LINE)
        registry = CalloutRegistry()
        registry.configure_from_file(str(path))

        path.write_text("gram.authz repro.no_such_module nope\n")
        with pytest.raises(AuthorizationSystemFailure):
            registry.configure_from_file(str(path), reload=True)
        assert registry.policy_epoch == 1
        assert registry.callout_labels(GRAM_AUTHZ_CALLOUT) == (
            "repro.core.builtin_callouts:permit_all",
        )

    def test_capability_tokens_survive_a_noop_reload(self, tmp_path):
        path = tmp_path / "callouts.conf"
        path.write_text("# no extra callouts configured\n")
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                capability_grants=True,
            )
        )
        # Apply once so the path is owned (a comment-only file stages
        # nothing and the registry epoch must not move either way).
        service.reload_callouts(str(path))
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        contact = client.submit(RSL).contact
        token = service.shard_state.job_managers[contact.job_id].capability
        issuer = service.capability.issuer
        assert issuer.validate(token) == "valid"

        # Reload the byte-identical file: the token must survive.
        assert service.reload_callouts(str(path)) == 0
        assert issuer.validate(token) == "valid"

    def test_changed_callout_config_revokes_capabilities(self, tmp_path):
        path = tmp_path / "callouts.conf"
        path.write_text("# empty\n")
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                capability_grants=True,
            )
        )
        service.reload_callouts(str(path))
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        contact = client.submit(RSL).contact
        token = service.shard_state.job_managers[contact.job_id].capability
        issuer = service.capability.issuer
        assert issuer.validate(token) == "valid"

        path.write_text(CALLOUT_LINE)
        assert service.reload_callouts(str(path)) == 1
        # The registry is a bound epoch source: changed configuration
        # fail-closes every outstanding capability.
        assert issuer.validate(token) == "epoch"


class TestLazyAgeEvictionExactlyOnce:
    def build(self, retention_age=100.0, retention=10):
        clock = Clock()
        store = CompletedJobStore(
            retention=retention, retention_age=retention_age, clock=clock
        )
        return store, clock

    def test_lazy_lookup_evicts_the_record_itself(self):
        store, clock = self.build()
        # Non-monotone completion order: the *newer* job id sits ahead
        # of an older finished_at (a recovery merge does exactly this).
        store.add(make_record("new", finished_at=90.0))
        store.add(make_record("old", finished_at=10.0))
        clock.advance(150.0)  # "old" is 140 old (expired), "new" is 60

        # The eager prefix sweep stops at "new" (live) and would never
        # reach "old"; the lazy path must evict it directly.
        assert store.get("old") is None
        assert store.evicted_by_reason[store.EVICT_AGE] == 1
        assert store.evicted_by_reason[store.EVICT_COUNT] == 0
        assert store.get("new") is not None

    def test_eager_and_lazy_paths_never_double_count(self):
        store, clock = self.build()
        store.add(make_record("a", finished_at=10.0))
        store.add(make_record("b", finished_at=20.0))
        clock.advance(200.0)  # both expired

        assert store.get("a") is None  # lazy: evicts "a", sweeps "b"
        assert store.get("a") is None  # repeat lookups count nothing
        assert store.get("b") is None
        assert store.evicted_by_reason[store.EVICT_AGE] == 2
        assert store.evicted == 2

    def test_aged_record_is_never_mislabeled_as_count(self):
        store, clock = self.build(retention=2)
        store.add(make_record("new", finished_at=90.0))
        store.add(make_record("old", finished_at=10.0))
        clock.advance(150.0)
        assert store.get("old") is None  # evicted under "age"...
        assert store.evicted_by_reason[store.EVICT_AGE] == 1

        # ...so when the count bound later trips, the record pushed
        # out is the live "new", not a lingering, mislabeled "old"
        # (the pre-fix behaviour: get() age-checked but left the
        # record in the map for the count bound to evict).
        store.add(make_record("x", finished_at=140.0))
        store.add(make_record("y", finished_at=145.0))
        assert store.evicted_by_reason[store.EVICT_AGE] == 1
        assert store.evicted_by_reason[store.EVICT_COUNT] == 1
        assert store.get("x") is not None
        assert store.get("y") is not None


class TestShardRouterRekey:
    def test_memo_invalidated_on_key_change(self):
        router = ShardRouter(shards=4)
        dns = [f"{ORG}/CN=User {i}" for i in range(16)]
        before = {dn: router.shard_for(dn) for dn in dns}
        assert router.memo_misses == 16
        assert {dn: router.shard_for(dn) for dn in dns} == before
        assert router.memo_hits == 16

        # Pin the whole org onto one key: every DN must re-route.
        router.key_fn = lambda dn: "pinned-vo"
        assert router.memo_invalidations == 1
        after = {dn: router.shard_for(dn) for dn in dns}
        assert len(set(after.values())) == 1  # all pinned together

    def test_same_key_fn_is_a_noop(self):
        def key(dn):
            return dn.rsplit("/", 1)[0]

        router = ShardRouter(shards=4, key_fn=key)
        router.shard_for(f"{ORG}/CN=A")
        router.key_fn = key
        assert router.memo_invalidations == 0
        assert router.memo_hits + router.memo_misses == 1

    def test_service_rekey_reroutes_pinned_vo(self):
        service = ShardedGramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                shards=4,
            )
        )
        dns = [f"{ORG}/CN=User {i:02d}" for i in range(12)]
        spread = {service.shard_of(dn) for dn in dns}
        assert len(spread) > 1  # default hashing spreads the org

        service.set_shard_key(lambda dn: dn.rsplit("/CN=", 1)[0])
        assert service.config.shard_key is not None
        pinned = {service.shard_of(dn) for dn in dns}
        # Without the memo invalidation the stale spread would persist.
        assert len(pinned) == 1


class TestRetryAfterClamp:
    def build_client(self):
        service = GramService(
            ServiceConfig(policies=(parse_policy(POLICY, name="vo"),))
        )
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        return service, client

    def respond(self, client, clock, retry_after):
        """Feed one RESOURCE_BUSY hint through the client's learner."""
        response = GramResponse(
            code=GramErrorCode.RESOURCE_BUSY,
            message="at capacity",
            retry_after=retry_after,
        )
        # Route through submit() by stubbing the gatekeeper call.
        original = client.gatekeeper.submit
        client.gatekeeper.submit = lambda credential, rsl: response
        try:
            return client.submit(RSL)
        finally:
            client.gatekeeper.submit = original

    def test_zero_hint_clamps_to_minimum_window(self):
        service, client = self.build_client()
        self.respond(client, service.clock, retry_after=0.0)
        assert client._retry_not_before == service.clock.now + MIN_RETRY_AFTER
        suppressed = client.submit(RSL)
        assert "suppressed" in suppressed.message
        assert client.suppressed_retries == 1

    def test_negative_hint_clamps_to_minimum_window(self):
        service, client = self.build_client()
        self.respond(client, service.clock, retry_after=-5.0)
        assert client._retry_not_before == service.clock.now + MIN_RETRY_AFTER
        # The clamped window still expires like a normal one.
        service.run(MIN_RETRY_AFTER * 2)
        assert client.submit(RSL).ok
        assert client.suppressed_retries == 0

    def test_absent_hint_opens_no_window(self):
        service, client = self.build_client()
        self.respond(client, service.clock, retry_after=None)
        assert client._retry_not_before == 0.0
        assert client.submit(RSL).ok

    def test_positive_hint_unchanged(self):
        service, client = self.build_client()
        self.respond(client, service.clock, retry_after=7.5)
        assert client._retry_not_before == service.clock.now + 7.5
