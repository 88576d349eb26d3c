"""Failure injection across the authorization path.

The system must fail *closed* and report authorization-system failures
distinctly from policy denials (paper §5.2 error extension).
"""


from repro.core.builtin_callouts import broken_callout
from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig

ALICE = "/O=Grid/OU=fi/CN=Alice"
POLICY = f"{ALICE}: &(action=start)(executable=sim) &(action=information) &(action=cancel)(jobowner=self)"
GOOD = "&(executable=sim)(count=1)(runtime=50)"


def build(policies=None):
    service = GramService(
        ServiceConfig(policies=policies or (parse_policy(POLICY, name="vo"),))
    )
    client = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
    return service, client


class TestBrokenCallouts:
    def test_crashing_callout_fails_closed_on_start(self):
        service, alice = build()
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(GRAM_AUTHZ_CALLOUT, broken_callout)
        response = alice.submit(GOOD)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert service.gatekeeper.active_job_managers == 0

    def test_crashing_callout_fails_closed_on_management(self):
        service, alice = build()
        submitted = alice.submit(GOOD)
        assert submitted.ok
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(GRAM_AUTHZ_CALLOUT, broken_callout)
        response = alice.cancel(submitted.contact)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        # The job keeps running: a broken authz system must not let
        # anyone (even the owner) act, but must not kill work either.
        service.run(10.0)
        assert service.scheduler.job(submitted.contact.job_id).state.value == "running"

    def test_unconfigured_callout_fails_closed(self):
        service, alice = build()
        service.registry.clear()
        response = alice.submit(GOOD)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE

    def test_failure_and_denial_use_distinct_codes(self):
        service, alice = build()
        denied = alice.submit("&(executable=rogue)(count=1)")
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(GRAM_AUTHZ_CALLOUT, broken_callout)
        failed = alice.submit(GOOD)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
        assert failed.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        assert denied.code is not failed.code


class TestBrokenPolicySources:
    def test_one_crashing_source_blocks_requests(self):
        class Exploder:
            source = "exploder"

            def evaluate(self, request):
                raise OSError("policy file unreadable")

        from repro.core.combination import CombinedEvaluator
        from repro.core.evaluator import PolicyEvaluator

        service, alice = build()
        combined = CombinedEvaluator(
            [PolicyEvaluator(parse_policy(POLICY, name="vo")), Exploder()]
        )
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(
            GRAM_AUTHZ_CALLOUT, lambda request: combined.evaluate(request)
        )
        response = alice.submit(GOOD)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE


class TestAuditTrail:
    def test_failures_land_in_the_audit_log(self):
        service, alice = build()
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(GRAM_AUTHZ_CALLOUT, broken_callout)
        alice.submit(GOOD)
        assert service.pep.failures == 1
        record = service.pep.audit_log[-1]
        assert record.failure
        assert record.outcome == "failure"

    def test_denials_land_in_the_audit_log_with_reasons(self):
        service, alice = build()
        alice.submit("&(executable=rogue)(count=1)")
        record = service.pep.audit_log[-1]
        assert record.outcome == "deny"
        assert record.reasons
