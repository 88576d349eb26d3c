"""The failure matrix: every policy source × every fault mode.

For each source backing the GRAM authorization callout (the versioned
policy store's serving path, CAS, Akenti, grid-mapfile) and each
injected fault (timeout, exception, intermittent flap, byzantine
wrong-answer), the GRAM protocol must keep the paper's §5.2
distinction intact: policy denials come back as
``AUTHORIZATION_DENIED``, broken infrastructure as
``AUTHORIZATION_SYSTEM_FAILURE`` naming the failed source — and
fail-static degradation must never serve a decision across a
policy-epoch bump.
"""

import pytest

from repro.core.builtin_callouts import gridmap_callout
from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.core.resilience import (
    DegradationMode,
    ResilienceConfig,
    RetryPolicy,
)
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.keys import KeyPair
from repro.testing import ByzantineFault, ExceptionFault, FlapFault, LatencyFault, inject
from repro.vo.akenti import akenti_callout, akenti_sources_from_policy
from repro.vo.cas import CASServer, attach_cas_policy, cas_callout
from repro.vo.organization import VirtualOrganization

ALICE = "/O=Grid/OU=fi/CN=Alice"
POLICY_TEXT = (
    f"{ALICE}: &(action=start)(executable=sim) &(action=information) "
    "&(action=cancel)(jobowner=self)"
)
#: A changed policy that still grants GOOD: publishing it moves the
#: store's epoch (republishing identical content would be a no-op).
REISSUED_TEXT = POLICY_TEXT + " &(action=signal)(jobowner=self)"
GOOD = "&(executable=sim)(count=1)(runtime=50)"
BAD = "&(executable=rogue)(count=1)"

SOURCES = ("policy-store", "cas", "akenti", "gridmap")
FAULTS = ("timeout", "exception", "byzantine")
EXPECTED_KIND = {"timeout": "timeout", "exception": "error", "byzantine": "error"}


class _Scenario:
    def __init__(self, service, client, label, epoch_source, deny):
        self.service = service
        self.client = client
        self.label = label
        self.epoch_source = epoch_source
        #: Callable returning a GramResponse expected to be a denial.
        self.deny = deny


def build_scenario(source_name) -> _Scenario:
    """A GramService whose GRAM authz callout is the named source.

    Built *un-hardened* so tests can inject faults first — the
    resilience wrapper then goes around the faulty callout, exactly
    like a slow real source behind the production wrapper.
    """
    policy = parse_policy(POLICY_TEXT, name="vo")
    if source_name == "policy-store":
        # The store's serving path: the combined callout the service
        # builds over the store's active snapshot, swapped on publish.
        store = VersionedPolicyStore()
        service = GramService(
            ServiceConfig(policies=(policy,), policy_store=store)
        )
        client = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        return _Scenario(
            service, client, "combined:vo", store,
            deny=lambda: client.submit(BAD),
        )

    service = GramService(ServiceConfig())
    credential = service.add_user(ALICE, "alice")
    service.registry.clear(GRAM_AUTHZ_CALLOUT)

    if source_name == "cas":
        vo = VirtualOrganization("NFC")
        vo.add_member(ALICE)
        cas_credential = service.ca.issue("/O=Grid/CN=NFC CAS", now=0.0)
        cas = CASServer(vo, cas_credential, policy)
        callout = cas_callout(
            cas_credential.key_pair.public, service.clock, source="cas"
        )
        service.registry.register(GRAM_AUTHZ_CALLOUT, callout, label="cas")
        signed = cas.issue(credential, now=service.clock.now)
        proxy = attach_cas_policy(credential, signed, now=service.clock.now)
        client = GramClient(proxy, service.gatekeeper)
        return _Scenario(
            service, client, "cas", callout.policy_source,
            deny=lambda: client.submit(BAD),
        )

    if source_name == "akenti":
        engine = akenti_sources_from_policy(
            policy, resource=service.config.host, stakeholder="ops",
            stakeholder_key=KeyPair("ops"),
        )
        service.registry.register(
            GRAM_AUTHZ_CALLOUT, akenti_callout(engine), label="akenti"
        )
        client = GramClient(credential, service.gatekeeper)
        return _Scenario(
            service, client, "akenti", engine,
            deny=lambda: client.submit(BAD),
        )

    assert source_name == "gridmap"
    service.registry.register(
        GRAM_AUTHZ_CALLOUT, gridmap_callout(service.gridmap), label="gridmap"
    )
    client = GramClient(credential, service.gatekeeper)

    def deny():
        submitted = client.submit(GOOD)
        assert submitted.ok
        # The ACL *is* the policy: dropping the entry turns further
        # management requests into denials, not system failures.
        service.gridmap.remove(ALICE)
        return client.cancel(submitted.contact)

    return _Scenario(service, client, "gridmap", service.gridmap, deny=deny)


def make_fault(fault_name, clock):
    if fault_name == "timeout":
        return LatencyFault(clock, latency=5.0)
    if fault_name == "exception":
        return ExceptionFault()
    if fault_name == "byzantine":
        return ByzantineFault()
    assert fault_name == "flap"
    return FlapFault(ExceptionFault(), period=2, failures=1)


def harden(service, **overrides):
    options = dict(
        clock=service.clock,
        timeout=2.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.0),
        failure_threshold=100,
        mode=DegradationMode.FAIL_CLOSED,
    )
    options.update(overrides)
    return service.harden(ResilienceConfig(**options))


class TestFailureMatrix:
    @pytest.mark.parametrize("source_name", SOURCES)
    @pytest.mark.parametrize("fault_name", FAULTS)
    def test_faulted_source_is_a_system_failure_naming_the_source(
        self, source_name, fault_name
    ):
        scenario = build_scenario(source_name)
        fault = make_fault(fault_name, scenario.service.clock)
        inject(scenario.service.registry, GRAM_AUTHZ_CALLOUT, fault)
        harden(scenario.service)

        response = scenario.client.submit(GOOD)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert response.failure_source == scenario.label
        assert response.failure_kind == EXPECTED_KIND[fault_name]
        assert scenario.service.gatekeeper.active_job_managers == 0

        fault.enabled = False
        assert scenario.client.submit(GOOD).ok

    @pytest.mark.parametrize("source_name", SOURCES)
    def test_intermittent_flap_is_absorbed_by_retry(self, source_name):
        scenario = build_scenario(source_name)
        fault = make_fault("flap", scenario.service.clock)
        inject(scenario.service.registry, GRAM_AUTHZ_CALLOUT, fault)
        resilience = harden(scenario.service)

        # Call 1 of every period faults; the bounded retry rides it out.
        response = scenario.client.submit(GOOD)
        assert response.ok
        assert fault.activations >= 1
        assert resilience.metrics.retries >= 1

    @pytest.mark.parametrize("source_name", SOURCES)
    def test_denial_and_system_failure_stay_distinct(self, source_name):
        scenario = build_scenario(source_name)
        harden(scenario.service)
        denied = scenario.deny()
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
        assert denied.code is not GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert denied.failure_source == ""


class TestBreakerThroughTheProtocol:
    def test_open_breaker_reports_breaker_open_kind(self):
        scenario = build_scenario("policy-store")
        fault = ExceptionFault()
        inject(scenario.service.registry, GRAM_AUTHZ_CALLOUT, fault)
        harden(scenario.service, retry=None, failure_threshold=2)

        for _ in range(2):
            response = scenario.client.submit(GOOD)
            assert response.failure_kind == "error"
        calls_before = fault.calls
        response = scenario.client.submit(GOOD)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert response.failure_kind == "breaker-open"
        assert response.failure_source == scenario.label
        assert fault.calls == calls_before  # fast-fail: source untouched

    def test_policy_epoch_bump_rearms_the_breaker(self):
        scenario = build_scenario("policy-store")
        fault = ExceptionFault()
        inject(scenario.service.registry, GRAM_AUTHZ_CALLOUT, fault)
        harden(scenario.service, retry=None, failure_threshold=2)

        for _ in range(3):
            scenario.client.submit(GOOD)
        assert scenario.client.submit(GOOD).failure_kind == "breaker-open"
        fault.enabled = False
        scenario.epoch_source.publish(PolicyBundle.from_texts({"vo": REISSUED_TEXT}))
        # New policy version: the half-open probe goes through and
        # the recovered source serves again.
        assert scenario.client.submit(GOOD).ok


class TestFailStaticAcrossEpochs:
    def test_fail_static_never_serves_across_an_epoch_bump(self):
        scenario = build_scenario("policy-store")
        fault = ExceptionFault()
        fault.enabled = False
        inject(scenario.service.registry, GRAM_AUTHZ_CALLOUT, fault)
        resilience = harden(
            scenario.service, retry=None, mode=DegradationMode.FAIL_STATIC
        )

        assert scenario.client.submit(GOOD).ok  # populates last-known-good
        fault.enabled = True
        degraded = scenario.client.submit(GOOD)
        assert degraded.ok
        assert degraded.decision_context is not None
        assert degraded.decision_context.degraded == "fail-static"
        assert resilience.metrics.degraded_static == 1

        # Revoked and reissued: a new epoch, same grant.
        scenario.epoch_source.publish(PolicyBundle.from_texts({"vo": REISSUED_TEXT}))
        after_bump = scenario.client.submit(GOOD)
        assert after_bump.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert resilience.metrics.degraded_static == 1  # not served again


class TestHardenBindsTheService:
    def test_clockless_config_still_times_out(self):
        scenario = build_scenario("policy-store")
        service = scenario.service
        inject(service.registry, GRAM_AUTHZ_CALLOUT, LatencyFault(service.clock, latency=5.0))
        resilience = service.harden(ResilienceConfig(timeout=1.0))

        response = scenario.client.submit(GOOD)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert response.failure_kind == "timeout"
        assert response.failure_source == scenario.label
        assert resilience.clock is service.clock
