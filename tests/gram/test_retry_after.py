"""``RESOURCE_BUSY`` retry hints and client-side backoff.

Admission rejections now carry ``retry_after`` — advisory sim-clock
seconds derived from how far over its bound the admission state is —
and :class:`~repro.gram.client.GramClient` honours the hint by
answering retries locally until the window elapses.
"""

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
from repro.gram.lifecycle import NOMINAL_DRAIN_SECONDS
from repro.gram.protocol import GramErrorCode, GramResponse
from repro.gram.service import GramService, ServiceConfig

ORG = "/O=Grid/OU=busy.example.org"
ALICE = f"{ORG}/CN=Alice"
BOB = f"{ORG}/CN=Bob"

POLICY = f"""
{ORG}:
    &(action=start)(executable=sim)
    &(action=cancel)(jobowner=self)
"""

RSL = "&(executable=sim)(count=1)(runtime=50)"


def build_service(**overrides):
    defaults = dict(policies=(parse_policy(POLICY, name="vo"),))
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults))


class TestRetryAfterHint:
    def test_user_cap_rejection_carries_the_hint(self):
        service = build_service(max_jobs_per_user=1)
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        assert client.submit(RSL).ok
        busy = client.submit(RSL)
        assert busy.code is GramErrorCode.RESOURCE_BUSY
        assert busy.retry_after == NOMINAL_DRAIN_SECONDS

    def test_global_cap_rejection_carries_the_hint(self):
        service = build_service(max_active_jmis=1)
        alice = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        bob = GramClient(service.add_user(BOB, "bob"), service.gatekeeper)
        assert alice.submit(RSL).ok
        busy = bob.submit(RSL)
        assert busy.code is GramErrorCode.RESOURCE_BUSY
        assert busy.retry_after is not None
        assert busy.retry_after >= NOMINAL_DRAIN_SECONDS

    def test_hint_survives_the_wire(self):
        response = GramResponse(
            code=GramErrorCode.RESOURCE_BUSY,
            message="at capacity",
            retry_after=3.5,
        )
        assert GramResponse.from_wire(response.to_wire()).retry_after == 3.5

    def test_hint_defaults_to_none(self):
        ok = GramResponse(code=GramErrorCode.SUCCESS)
        assert ok.retry_after is None
        assert GramResponse.from_wire(ok.to_wire()).retry_after is None


class TestClientBackoff:
    def test_retries_inside_the_window_never_leave_the_client(self):
        service = build_service(max_jobs_per_user=1)
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        assert client.submit(RSL).ok
        busy = client.submit(RSL)
        assert busy.code is GramErrorCode.RESOURCE_BUSY

        checks_before = service.shard_state.admission.rejected_user
        suppressed = client.submit(RSL)
        assert suppressed.code is GramErrorCode.RESOURCE_BUSY
        assert "suppressed" in suppressed.message
        assert client.suppressed_retries == 1
        # The gatekeeper never saw the retry.
        assert service.shard_state.admission.rejected_user == checks_before

    def test_window_expiry_reopens_the_path(self):
        service = build_service(max_jobs_per_user=1)
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        assert client.submit(RSL).ok
        busy = client.submit(RSL)
        service.run(busy.retry_after)
        # The long-running job still holds the slot, so the retry is
        # rejected again — but by the *service* this time.
        retried = client.submit(RSL)
        assert retried.code is GramErrorCode.RESOURCE_BUSY
        assert "suppressed" not in retried.message
        assert client.suppressed_retries == 0

    def test_backoff_through_the_sharded_gatekeeper(self):
        service = ShardedGramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                max_jobs_per_user=1,
                shards=2,
            )
        )
        client = GramClient(
            service.add_user(ALICE, "alice"), service.gatekeeper
        )
        assert client.submit(RSL).ok
        busy = client.submit(RSL)
        assert busy.code is GramErrorCode.RESOURCE_BUSY
        assert busy.retry_after is not None
        client.submit(RSL)
        # ShardedGatekeeper exposes a clock, so backoff works there too.
        assert client.suppressed_retries == 1
