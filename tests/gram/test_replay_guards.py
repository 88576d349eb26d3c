"""Default deny holds on every repeat path.

The decision cache, the capability store and the fail-static
last-known-good store replay earlier decisions.  A replay is only
sound when nothing the decision depended on has moved.  Two inputs
escaped that rule:

* policy carried *in the credential* (a CAS restricted proxy): the
  replay key leaves the credential out, so a decision made for the
  proxy was replayed for the bare identity, or after the carried
  assertion expired;
* a callout registered at run time whose own policy moves (a
  time-windowed grant): the repeat paths never saw its epoch, so a
  closed window kept permitting.

Every test drives the stock :class:`GramClient` and compares against
what a fresh decision says.
"""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.dynamic import DynamicEvaluator, DynamicPolicy
from repro.core.model import PolicyAssertion, PolicyStatement, Subject
from repro.core.parser import parse_policy
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.proxy import delegate
from repro.testing import ExceptionFault, FaultSchedule, inject
from repro.vo.cas import CASServer, attach_cas_policy, cas_callout
from repro.vo.organization import VirtualOrganization
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

from tests.conftest import BO

GOOD = "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(runtime=50)"

ALICE = "/O=Grid/OU=fusion/CN=Alice Analyst"
BASE_POLICY = f"""
{ALICE}:
    &(action=start)(executable=TRANSP)(count<=4)(jobtag!=NULL)
    &(action=information)(jobowner=self)
"""
DEMO_JOB = "&(executable=TRANSP)(count=16)(jobtag=DEMO)(runtime=50)"

DENIED = GramErrorCode.AUTHORIZATION_DENIED


@pytest.fixture(params=["decision_cache", "capability_grants"])
def repeat_path(request):
    """The ServiceConfig switch that turns one repeat path on."""
    return request.param


def build_cas_service(**config):
    service = GramService(ServiceConfig(**config))
    vo = VirtualOrganization("NFC")
    vo.add_member(BO)
    cas_credential = service.ca.issue("/O=Grid/CN=CAS", now=0.0)
    cas = CASServer(
        vo, cas_credential, parse_policy(FIGURE3_POLICY_TEXT, name="vo")
    )
    service.registry.clear(GRAM_AUTHZ_CALLOUT)
    service.registry.register(
        GRAM_AUTHZ_CALLOUT,
        cas_callout(cas_credential.key_pair.public, service.clock),
    )
    return service, cas


class TestPolicyCarriedInTheCredential:
    def test_bare_identity_is_not_served_the_proxys_permit(self, repeat_path):
        service, cas = build_cas_service(**{repeat_path: True})
        identity = service.add_user(BO, "boliu")
        proxy = attach_cas_policy(identity, cas.issue(identity, now=0.0), now=0.0)

        with_proxy = GramClient(proxy, service.gatekeeper).submit(GOOD)
        assert with_proxy.ok, with_proxy.message
        assert with_proxy.decision_context.cache_status == "bypass"

        bare = GramClient(identity, service.gatekeeper).submit(GOOD)
        assert bare.code is DENIED

    def test_expired_assertion_stops_permitting(self, repeat_path):
        service, cas = build_cas_service(**{repeat_path: True})
        identity = service.add_user(BO, "boliu")
        proxy = attach_cas_policy(
            identity, cas.issue(identity, now=0.0, lifetime=100.0), now=0.0
        )
        client = GramClient(proxy, service.gatekeeper)
        assert client.submit(GOOD).ok

        service.run(200.0)
        response = client.submit(GOOD)
        assert response.code is DENIED
        assert any("not valid" in reason for reason in response.reasons)

    def test_nothing_is_stored_for_a_policy_carrying_credential(self):
        service, cas = build_cas_service(
            decision_cache=True, capability_grants=True
        )
        identity = service.add_user(BO, "boliu")
        proxy = attach_cas_policy(identity, cas.issue(identity, now=0.0), now=0.0)
        client = GramClient(proxy, service.gatekeeper)
        for _ in range(3):
            assert client.submit(GOOD).ok
        assert len(service.pep.cache) == 0
        assert len(service.capability.store) == 0
        assert service.capability.issuer.minted == 0

    def test_impersonation_proxy_keeps_the_repeat_path(self, repeat_path):
        """A proxy that carries no policy of its own is replayed as usual."""
        policy = parse_policy(
            f"{BO}: &(action=start)(jobtag!=NULL) &(action=information)",
            name="vo",
        )
        service = GramService(ServiceConfig(policies=(policy,), **{repeat_path: True}))
        identity = service.add_user(BO, "boliu")
        client = GramClient(delegate(identity, now=0.0), service.gatekeeper)
        contact = client.submit(GOOD).contact
        assert client.status(contact).ok
        repeat = client.status(contact)
        assert repeat.decision_context.cache_status in ("hit", "capability")

    def test_fail_static_never_replays_a_proxy_decision(self):
        service, cas = build_cas_service()
        identity = service.add_user(BO, "boliu")
        proxy = attach_cas_policy(identity, cas.issue(identity, now=0.0), now=0.0)
        # The CAS source answers once, then becomes unreachable.
        inject(
            service.registry,
            GRAM_AUTHZ_CALLOUT,
            FaultSchedule([(1, None), (10, ExceptionFault())]),
        )
        service.harden(
            ResilienceConfig(
                clock=service.clock, mode=DegradationMode.FAIL_STATIC
            )
        )
        assert GramClient(proxy, service.gatekeeper).submit(GOOD).ok

        bare = GramClient(identity, service.gatekeeper).submit(GOOD)
        assert bare.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert service.pep.resilience.lkg_size == 0


def build_demo_window_service(wrapping, **config):
    """Alice's base grant plus a 16-CPU demo window open in [100, 200)."""
    service = GramService(ServiceConfig(node_count=8, cpus_per_node=4, **config))
    dynamic = DynamicPolicy(parse_policy(BASE_POLICY, name="vo"))
    dynamic.add_window(
        PolicyStatement(
            subject=Subject.identity(ALICE),
            assertions=(
                PolicyAssertion.parse(
                    "&(action=start)(executable=TRANSP)(count<=16)(jobtag=DEMO)"
                ),
            ),
        ),
        not_before=100.0,
        not_after=200.0,
    )
    evaluator = DynamicEvaluator(dynamic, service.clock)
    service.registry.clear(GRAM_AUTHZ_CALLOUT)
    service.registry.register(GRAM_AUTHZ_CALLOUT, evaluator.evaluate)
    if wrapping == "fault-injected":
        idle = ExceptionFault()
        idle.enabled = False
        inject(service.registry, GRAM_AUTHZ_CALLOUT, idle)
    if wrapping in ("hardened", "fault-injected"):
        service.harden()
    return service


class TestCalloutRegisteredAtRunTime:
    @pytest.mark.parametrize("wrapping", ["plain", "hardened", "fault-injected"])
    def test_demo_window_closes_on_the_repeat_path(self, repeat_path, wrapping):
        service = build_demo_window_service(wrapping, **{repeat_path: True})
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)

        assert alice.submit(DEMO_JOB).code is DENIED  # before the window
        service.run(150.0)
        assert alice.submit(DEMO_JOB).ok  # inside it
        service.run(100.0)
        assert alice.submit(DEMO_JOB).code is DENIED  # closed again

    def test_fail_static_never_replays_across_a_closed_window(self):
        service = build_demo_window_service("plain")
        # Healthy until the window has closed, then unreachable.
        inject(
            service.registry,
            GRAM_AUTHZ_CALLOUT,
            FaultSchedule([(1, None), (10, ExceptionFault())]),
        )
        service.harden(
            ResilienceConfig(
                clock=service.clock, mode=DegradationMode.FAIL_STATIC
            )
        )
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        service.run(150.0)
        assert alice.submit(DEMO_JOB).ok  # stored as last-known-good
        service.run(100.0)
        response = alice.submit(DEMO_JOB)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE

    def test_identical_republish_still_keeps_the_epoch(self, tmp_path):
        service = build_demo_window_service("plain", capability_grants=True)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        path = tmp_path / "callouts.conf"
        path.write_text("gram.authz repro.core.builtin_callouts permit_all\n")
        assert service.reload_callouts(str(path)) == 1
        service.run(150.0)
        assert alice.submit(DEMO_JOB).ok  # mints inside the window
        epoch = service.registry.policy_epoch

        assert service.reload_callouts(str(path)) == 0
        assert service.registry.policy_epoch == epoch
        assert alice.submit(DEMO_JOB).decision_context.cache_status == "capability"
