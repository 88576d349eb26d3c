"""The explainable decision pipeline: context, middleware, epoch cache."""

import pytest

from repro.core.builtin_callouts import (
    broken_callout,
    combined_policy_callout,
    deny_all,
    permit_all,
    policy_callout,
)
from repro.core.callout import GRAM_AUTHZ_CALLOUT, CalloutRegistry
from repro.core.capability import CapabilityIssuer, CapabilityMiddleware
from repro.core.decision import Effect
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.evaluator import PolicyEvaluator
from repro.core.parser import parse_policy
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import (
    CACHE_HIT,
    CACHE_MISS,
    DecisionCache,
    EpochView,
    DecisionContext,
    current_context,
)
from repro.core.request import AuthorizationRequest
from repro.core.resilience import ResilienceMiddleware
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.obs import Telemetry
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

ALICE = "/O=Grid/OU=org/CN=Alice"
BOB = "/O=Grid/OU=org/CN=Bob"

GRANT_ALICE = f"""
{ALICE}:
    &(action=start)(count<=4)
    &(action=information)
"""

DENY_EVERYONE = f"""
{ALICE}:
    &(action=signal)
"""


def make_pep(callout, **kwargs):
    registry = CalloutRegistry()
    registry.register(GRAM_AUTHZ_CALLOUT, callout)
    return EnforcementPoint(registry=registry, **kwargs)


def start_request(requester=ALICE, rsl="&(executable=x)(count=2)"):
    return AuthorizationRequest.start(requester, parse_specification(rsl))


class TestDecisionContext:
    def test_permit_carries_context_with_stages(self):
        pep = make_pep(permit_all)
        decision = pep.authorize(start_request())
        context = decision.context
        assert context is not None
        assert context.effect is Effect.PERMIT
        assert "pep" in context.stage_names
        assert any(name.startswith("callout:") for name in context.stage_names)
        assert all(stage.duration >= 0.0 for stage in context.stages)
        assert context.duration >= 0.0

    def test_denial_exception_carries_context(self):
        pep = make_pep(deny_all)
        with pytest.raises(AuthorizationDenied) as excinfo:
            pep.authorize(start_request())
        context = excinfo.value.context
        assert context is not None
        assert context.effect is Effect.DENY

    def test_system_failure_carries_context(self):
        pep = make_pep(broken_callout)
        with pytest.raises(AuthorizationSystemFailure) as excinfo:
            pep.authorize(start_request())
        context = excinfo.value.context
        assert context is not None
        assert context.effect is Effect.INDETERMINATE
        assert context.failure

    def test_context_identifies_the_request(self):
        pep = make_pep(permit_all)
        request = start_request(rsl="&(executable=x)(jobtag=exp7)(count=2)")
        context = pep.authorize(request).context
        assert context.requester == ALICE
        assert context.action == "start"
        assert context.jobtag == "exp7"
        assert context.jobowner == ALICE

    def test_provenance_derived_from_decision_source(self):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        assert context.source_names == ("permit_all",)

    def test_combined_policies_record_every_source(self):
        callout = combined_policy_callout(
            [
                parse_policy(GRANT_ALICE, name="vo"),
                parse_policy(GRANT_ALICE, name="local"),
            ]
        )
        pep = make_pep(callout)
        context = pep.authorize(start_request()).context
        assert context.source_names == ("vo", "local")
        assert {s.effect for s in context.sources} == {"permit"}
        assert "source:vo" in context.stage_names
        assert "source:local" in context.stage_names

    def test_json_round_trip(self):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        again = DecisionContext.from_dict(context.to_dict())
        assert again.request_id == context.request_id
        assert again.effect is Effect.PERMIT
        assert again.stage_names == context.stage_names
        assert again.source_names == context.source_names

    def test_explain_is_readable(self):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        text = context.explain()
        assert ALICE in text
        assert "permit" in text

    def test_no_context_outside_a_decision(self):
        assert current_context() is None
        pep = make_pep(permit_all)
        pep.authorize(start_request())
        assert current_context() is None


class TestMetricsMiddleware:
    """The PEP counts its own outcomes and feeds the ``authz_*`` series."""

    def test_counts_back_the_pep_counters(self):
        telemetry = Telemetry(clock=Clock())
        pep = make_pep(permit_all, telemetry=telemetry)
        pep.authorize(start_request())
        pep.authorize(start_request())
        assert pep.permits == pep.decisions_made == 2
        assert telemetry.registry.value(
            "authz_decisions_total", action="start", decision="permit"
        ) == 2
        assert telemetry.registry.value("authz_cache_total", status="bypass") == 2

    def test_outcome_classification(self):
        telemetry = Telemetry(clock=Clock())
        peps = []
        for callout, exc in (
            (permit_all, None),
            (deny_all, AuthorizationDenied),
            (broken_callout, AuthorizationSystemFailure),
        ):
            pep = make_pep(callout, telemetry=telemetry)
            peps.append(pep)
            if exc is None:
                pep.authorize(start_request())
            else:
                with pytest.raises(exc):
                    pep.authorize(start_request())
        assert [(p.permits, p.denials, p.failures) for p in peps] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]
        assert [p.decisions_made for p in peps] == [1, 1, 1]
        for outcome in ("permit", "deny", "failure"):
            assert telemetry.registry.value(
                "authz_decisions_total", action="start", decision=outcome
            ) == 1


class TestDecisionCache:
    def test_repeat_decision_hits(self):
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        first = pep.authorize(start_request())
        second = pep.authorize(start_request())
        assert first.context.cache_status == CACHE_MISS
        assert second.context.cache_status == CACHE_HIT
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_replays_provenance(self):
        callout = combined_policy_callout([parse_policy(GRANT_ALICE, name="vo")])
        cache = DecisionCache(EpochView([("policy", callout.evaluator)]))
        pep = make_pep(callout, cache=cache)
        pep.authorize(start_request())
        hit = pep.authorize(start_request())
        assert hit.context.cache_status == CACHE_HIT
        assert hit.context.source_names == ("vo",)

    def test_denials_are_cached_too(self):
        cache = DecisionCache()
        pep = make_pep(deny_all, cache=cache)
        for _ in range(2):
            with pytest.raises(AuthorizationDenied):
                pep.authorize(start_request())
        assert cache.hits == 1

    def test_system_failures_never_cached(self):
        cache = DecisionCache()
        pep = make_pep(broken_callout, cache=cache)
        for _ in range(2):
            with pytest.raises(AuthorizationSystemFailure):
                pep.authorize(start_request())
        assert cache.hits == 0
        assert len(cache) == 0

    def test_key_distinguishes_requesters(self):
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        pep.authorize(start_request(ALICE))
        pep.authorize(start_request(BOB))
        assert cache.hits == 0

    def test_key_distinguishes_job_descriptions(self):
        """Same subject/action/jobtag, different request — no collision."""
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        pep.authorize(start_request(rsl="&(executable=x)(jobtag=t)(count=2)"))
        pep.authorize(start_request(rsl="&(executable=y)(jobtag=t)(count=8)"))
        assert cache.hits == 0

    def test_lru_bound(self):
        cache = DecisionCache(maxsize=2)
        pep = make_pep(permit_all, cache=cache)
        for count in (1, 2, 3):
            pep.authorize(start_request(rsl=f"&(executable=x)(count={count})"))
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_metrics_count_cache_hits(self):
        pep = make_pep(permit_all, cache=DecisionCache())
        pep.authorize(start_request())
        pep.authorize(start_request())
        assert pep.cache.hits == 1
        assert pep.permits == 2  # hits still count as decisions


class TestPolicyEpochInvalidation:
    """The acceptance-criterion behaviour: a policy mutation bumps the
    epoch and invalidates the cached decision on the very next check."""

    def test_store_mutation_invalidates_cached_decision(self):
        evaluator = PolicyEvaluator(parse_policy(GRANT_ALICE, name="vo"))
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, policy_callout(evaluator))
        cache = DecisionCache(EpochView([("policy", evaluator)]))
        pep = EnforcementPoint(registry=registry, cache=cache)
        request = start_request()

        epoch_before = evaluator.policy_epoch
        assert pep.authorize(request).context.cache_status == CACHE_MISS
        assert pep.authorize(request).context.cache_status == CACHE_HIT

        evaluator.replace_policy(parse_policy(DENY_EVERYONE, name="vo"))
        assert evaluator.policy_epoch == epoch_before + 1

        with pytest.raises(AuthorizationDenied) as excinfo:
            pep.authorize(request)
        assert excinfo.value.context.cache_status == CACHE_MISS
        assert cache.hits == 1

    def test_rollback_also_bumps_the_epoch(self):
        store = VersionedPolicyStore()
        store.publish(PolicyBundle.from_texts({"vo": GRANT_ALICE}))
        store.publish(PolicyBundle.from_texts({"vo": DENY_EVERYONE}))
        before = store.policy_epoch
        store.rollback()
        assert store.policy_epoch == before + 1

    def test_combined_evaluator_epoch_covers_all_sources(self):
        callout = combined_policy_callout(
            [
                parse_policy(GRANT_ALICE, name="vo"),
                parse_policy(GRANT_ALICE, name="local"),
            ]
        )
        combined = callout.evaluator
        before = combined.policy_epoch
        combined.evaluators[1].replace_policy(parse_policy(DENY_EVERYONE))
        assert combined.policy_epoch != before

    def test_vo_membership_mutation_bumps_epoch(self):
        from repro.vo.organization import VirtualOrganization

        vo = VirtualOrganization("fusion")
        before = vo.policy_epoch
        vo.add_member(ALICE, groups=("analysts",))
        assert vo.policy_epoch == before + 1
        vo.remove_member(ALICE)
        assert vo.policy_epoch == before + 2


class TestMiddlewareStack:
    def test_stack_order(self):
        assert make_pep(permit_all).middlewares == ()
        pep = make_pep(
            permit_all,
            resilience=ResilienceMiddleware(),
            capability=CapabilityMiddleware(
                CapabilityIssuer(key=b"k", clock=Clock())
            ),
            cache=DecisionCache(),
        )
        names = [m.name for m in pep.middlewares]
        assert names == ["resilience", "capability", "decision-cache"]
