"""The RSL→XACML bridge: decision agreement with the native PDP."""

import pytest
from hypothesis import given, settings

from repro.core.evaluator import PolicyEvaluator
from repro.core.parser import parse_policy
from repro.core.request import AuthorizationRequest
from repro.rsl.parser import parse_specification
from repro.workloads.generator import (
    PolicyShape,
    WorkloadGenerator,
    generate_policy,
    generate_users,
)
from repro.xacml.bridge import XACMLEvaluator, xacml_callout, xacml_from_policy
from repro.xacml.model import RuleEffect

from tests.conftest import BO, KATE

import hypothesis.strategies as st


class TestTranslationStructure:
    def test_rule_counts(self, figure3_policy):
        xacml = xacml_from_policy(figure3_policy)
        grants = sum(
            len(s.assertions)
            for s in figure3_policy
            if s.kind.value == "grant"
        )
        obligations = sum(
            len(s.assertions)
            for s in figure3_policy
            if s.kind.value == "requirement"
        )
        permits = [r for r in xacml.rules if r.effect is RuleEffect.PERMIT]
        denies = [r for r in xacml.rules if r.effect is RuleEffect.DENY]
        assert len(permits) == grants
        assert len(denies) == obligations

    def test_policy_id_from_name(self, figure3_policy):
        assert xacml_from_policy(figure3_policy).policy_id == "figure3"


class TestFigure3Agreement:
    PROBES = [
        (BO, "start", "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)", None),
        (BO, "start", "&(executable=test1)(directory=/sandbox/test)(count=2)", None),
        (BO, "start", "&(executable=rogue)(jobtag=ADS)(count=2)", None),
        (BO, "start", "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)", None),
        (KATE, "start", "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)", None),
        (KATE, "cancel", "&(executable=test2)(jobtag=NFC)", BO),
        (KATE, "cancel", "&(executable=test1)(jobtag=ADS)", BO),
        (KATE, "signal", "&(executable=test2)(jobtag=NFC)", BO),
        ("/O=Other/CN=Eve", "start", "&(executable=test1)(jobtag=ADS)(count=1)", None),
    ]

    def test_every_probe_agrees(self, figure3_policy):
        native = PolicyEvaluator(figure3_policy)
        xacml = XACMLEvaluator(xacml_from_policy(figure3_policy))
        for who, action, rsl, owner in self.PROBES:
            spec = parse_specification(rsl)
            if action == "start":
                request = AuthorizationRequest.start(who, spec)
            else:
                request = AuthorizationRequest.manage(
                    who, action, spec, jobowner=owner
                )
            assert (
                native.evaluate(request).is_permit
                == xacml.evaluate(request).is_permit
            ), (who, action, rsl)


class TestNumberRuleAgreement:
    @pytest.mark.parametrize("bound", ["inf", "nan", "1_000", "1e400", "16"])
    def test_ordering_bound_reads_like_the_native_matcher(self, bound):
        policy = parse_policy(
            f"{BO}:\n    &(action=start)(executable=sim)(count<{bound})\n",
            name="bounds",
        )
        native = PolicyEvaluator(policy)
        xacml = XACMLEvaluator(xacml_from_policy(policy))
        request = AuthorizationRequest.start(
            BO, parse_specification("&(executable=sim)(count=2)")
        )
        assert native.evaluate(request).is_permit == (bound == "16")
        assert xacml.evaluate(request).is_permit == (bound == "16")


class TestPropertyAgreement:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_random_policies_and_requests_agree(self, seed):
        policy = generate_policy(PolicyShape(users=8, seed=seed))
        native = PolicyEvaluator(policy)
        xacml = XACMLEvaluator(xacml_from_policy(policy))
        generator = WorkloadGenerator(
            policy, generate_users(8), seed=seed + 1, permit_bias=0.5
        )
        for request in generator.batch(25):
            assert (
                native.evaluate(request).is_permit
                == xacml.evaluate(request).is_permit
            ), str(request)


class TestXACMLCallout:
    def test_callout_defaults_to_deny(self, figure3_policy):
        callout = xacml_callout(figure3_policy)
        outsider = AuthorizationRequest.start(
            "/O=Other/CN=Eve", parse_specification("&(executable=x)")
        )
        decision = callout(outsider)
        assert decision.is_deny
        assert decision.effect.value == "deny"

    def test_callout_through_a_live_resource(self, figure3_policy):
        from repro.core.callout import GRAM_AUTHZ_CALLOUT
        from repro.gram import GramClient, GramService, ServiceConfig
        from repro.gram.protocol import GramErrorCode

        service = GramService(ServiceConfig())
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(
            GRAM_AUTHZ_CALLOUT, xacml_callout(figure3_policy)
        )
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        kate = GramClient(service.add_user(KATE, "keahey"), service.gatekeeper)

        submitted = bo.submit(
            "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)"
            "(count=2)(runtime=50)"
        )
        assert submitted.ok
        rogue = bo.submit("&(executable=rogue)(jobtag=NFC)(count=1)")
        assert rogue.code is GramErrorCode.AUTHORIZATION_DENIED
        assert kate.cancel(submitted.contact).ok
