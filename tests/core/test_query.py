"""Unit tests for the reverse authorization index (repro.core.query)."""

import sys
import threading

import pytest

from repro.core.combination import CombinationAlgorithm, CombinedEvaluator
from repro.core.evaluator import PolicyEvaluator
from repro.core.parser import parse_policy
from repro.core.query import (
    ANY_ACTION,
    PreDecision,
    QueryEngine,
    QueryIndex,
    Reachability,
)
from repro.core.request import AuthorizationRequest
from repro.obs.registry import MetricsRegistry
from repro.rsl.parser import parse_specification

ALICE = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Alice"
BOB = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bob"
CAROL = "/O=Grid/O=Globus/OU=hep.example.org/CN=Carol"
STRANGER = "/O=Elsewhere/CN=Nobody"

POLICY_TEXT = f"""
# requirement: every start inside mcs.anl.gov must carry a jobtag
&/O=Grid/O=Globus/OU=mcs.anl.gov*:
    (action=start)(jobtag!=NULL)
{ALICE}:
    &(action=start)(executable=transp)(count<4)
    &(action=cancel)(jobowner=self)
{BOB}:
    &(action!=none)(maxwalltime<=600)
/O=Grid/O=Globus/OU=hep.example.org*:
    &(action=information)(jobowner=self)
"""


@pytest.fixture()
def policy():
    return parse_policy(POLICY_TEXT, name="vo")


@pytest.fixture()
def index(policy):
    return QueryIndex(policy)


def start(requester, rsl):
    return AuthorizationRequest.start(requester, parse_specification(rsl))


class TestProfiles:
    def test_permissions_enumerated_with_provenance(self, index):
        permissions = index.permissions_for(ALICE)
        by_action = {p.action: p for p in permissions}
        assert set(by_action) == {"start", "cancel"}
        assert "executable" in str(by_action["start"].constraints)
        assert by_action["start"].source == "vo"
        assert by_action["start"].granted_by == ALICE
        # statement orders are positions in the source policy
        assert by_action["start"].statement_order == 1

    def test_wildcard_guard_enumerates_any_action(self, index):
        permissions = index.permissions_for(BOB)
        assert [p.action for p in permissions] == [ANY_ACTION]

    def test_prefix_group_profile(self, index):
        profile = index.profile(CAROL)
        assert profile.grant_actions == {"information"}
        assert not profile.has_catchall
        # the mcs requirement does not apply to hep subjects
        assert not profile.requirements

    def test_requirements_listed(self, index):
        requirements = index.requirements_for(ALICE)
        assert len(requirements) == 1
        assert "jobtag" in str(requirements[0])

    def test_exact_subject_never_catches_longer_dn(self, policy):
        # mirrors the model-layer rule: CN=Alice must not match a
        # hypothetical CN=Aliceson even though it is a string prefix
        index = QueryIndex(policy)
        longer = ALICE + "son"
        profile = index.profile(longer)
        assert not profile.grants
        # the group requirement still applies via the OU prefix
        assert profile.requirements

    def test_profile_memo_bounded_and_counted(self, policy):
        index = QueryIndex(policy, profile_cap=2)
        index.profile(ALICE)
        index.profile(ALICE)
        index.profile(BOB)
        index.profile(CAROL)  # evicts ALICE
        assert index.profile_memo_size == 2
        assert index.profile_hits == 1
        index.profile(ALICE)  # rebuilt
        assert index.profile_misses == 4

    def test_shared_index_under_threads(self, policy):
        # One index, a memo small enough to evict, and buckets built by
        # whichever thread asks first: every answer matches a serial
        # index and every memo read is counted once.
        identities = (ALICE, BOB, CAROL, STRANGER, ALICE + "son")
        actions = ("start", "cancel", "information", "signal")
        serial = QueryIndex(policy)
        expected = {
            (who, action): serial.classify(who, action)
            for who in identities
            for action in actions
        }
        subjects = {action: serial.subjects_for(action) for action in actions}
        shared = QueryIndex(policy, profile_cap=3)
        rounds, workers = 200, 6
        wrong, errors = [0] * workers, []

        def worker(slot):
            try:
                for turn in range(rounds):
                    who = identities[(slot + turn) % len(identities)]
                    action = actions[turn % len(actions)]
                    if shared.classify(who, action) is not expected[who, action]:
                        wrong[slot] += 1
                    if shared.subjects_for(action) != subjects[action]:
                        wrong[slot] += 1
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors
        assert wrong == [0] * workers
        assert shared.profile_hits + shared.profile_misses == rounds * workers
        assert shared.profile_memo_size <= 3


class TestClassification:
    def test_reachable(self, index):
        assert index.classify(ALICE, "start") is Reachability.REACHABLE
        assert index.classify(ALICE, "cancel") is Reachability.REACHABLE

    def test_denied_for_unreachable_action(self, index):
        assert index.classify(ALICE, "signal") is Reachability.DENIED
        assert index.classify(CAROL, "start") is Reachability.DENIED

    def test_wildcard_reachable_for_every_action(self, index):
        for action in ("start", "cancel", "signal", "information"):
            assert index.classify(BOB, action) is Reachability.REACHABLE

    def test_not_applicable_for_stranger(self, index):
        assert index.classify(STRANGER, "start") is Reachability.NOT_APPLICABLE

    def test_case_insensitive_action(self, index):
        assert index.classify(ALICE, "START") is Reachability.REACHABLE


class TestDeepCheck:
    def test_matching_request_is_reachable(self, index):
        request = start(ALICE, "&(executable=transp)(count=2)(jobtag=NFC)")
        assert index.grant_reachable(request)

    def test_constraint_mismatch_is_not_reachable(self, index):
        request = start(ALICE, "&(executable=rogue)(jobtag=NFC)")
        assert not index.grant_reachable(request)

    def test_deep_check_matches_forward_non_permit(self, policy, index):
        # whenever the deep check says unreachable, forward evaluation
        # must not permit — spot-check the contract the differential
        # suite hammers at scale
        evaluator = PolicyEvaluator(policy, source="vo")
        for rsl in (
            "&(executable=rogue)(jobtag=NFC)",
            "&(executable=transp)(count=9)(jobtag=NFC)",
        ):
            request = start(ALICE, rsl)
            assert not index.grant_reachable(request)
            assert not evaluator.evaluate(request).is_permit


class TestReverseSubjects:
    def test_subjects_for_action(self, index):
        exact, groups = index.subjects_for("information")
        assert BOB in exact  # wildcard guard reaches every action
        assert "/O=Grid/O=Globus/OU=hep.example.org" in groups
        assert ALICE not in exact

    def test_permitted_subjects_verified_by_forward_evaluation(self, index):
        spec = parse_specification("&(executable=transp)(count=2)(jobtag=NFC)")
        result = index.permitted_subjects("start", job_description=spec)
        # Alice's grant matches and the jobtag requirement is met; Bob's
        # wildcard grant bounds maxwalltime which the spec omits -> his
        # catch-all assertion still matches (no maxwalltime attribute
        # relation fails open? no — maxwalltime<=600 with no value in
        # the request fails), so forward evaluation decides.
        assert ALICE in result.identities
        assert result.groups == ()

    def test_requirement_denials_honoured(self, index):
        # a requirement violation (missing jobtag) must exclude the
        # subject even though a grant matches
        spec = parse_specification("&(executable=transp)(count=2)")
        result = index.permitted_subjects("start", job_description=spec)
        assert ALICE not in result.identities

    def test_candidates_extend_verification(self, index):
        spec = parse_specification("&(jobowner=self)(jobtag=NFC)")
        result = index.permitted_subjects(
            "information",
            job_description=spec,
            jobowner=CAROL,
            candidates=[CAROL],
        )
        assert CAROL in result.identities


class TestQueryEngine:
    def make_engine(self, policy, algorithm=CombinationAlgorithm.ALL_MUST_PERMIT):
        evaluator = PolicyEvaluator(policy, source="vo")
        combined = CombinedEvaluator([evaluator], algorithm=algorithm)
        return QueryEngine.from_combined(combined), evaluator

    def test_undecided_for_reachable_request(self, policy):
        engine, _ = self.make_engine(policy)
        pre = engine.check_request(
            start(ALICE, "&(executable=transp)(count=2)(jobtag=NFC)")
        )
        assert pre == PreDecision(guaranteed_deny=False)

    def test_levels(self, policy):
        engine, _ = self.make_engine(policy)
        assert engine.check_action(STRANGER, "start").level == "subject"
        assert engine.check_action(ALICE, "signal").level == "action"
        deep = engine.check_request(start(ALICE, "&(executable=rogue)"))
        assert deep.guaranteed_deny and deep.level == "constraint"

    def test_rebuild_on_epoch_bump(self, policy):
        engine, evaluator = self.make_engine(policy)
        assert engine.check_action(STRANGER, "start").guaranteed_deny
        assert engine.rebuilds == 1
        evaluator.replace_policy(
            parse_policy(f"{STRANGER}:\n    &(action=start)\n", name="vo")
        )
        pre = engine.check_action(STRANGER, "start")
        assert not pre.guaranteed_deny
        assert engine.rebuilds == 2

    def test_metrics_exported(self, policy):
        registry = MetricsRegistry()
        evaluator = PolicyEvaluator(policy, source="vo")
        engine = QueryEngine(
            [evaluator], registry=registry, consumer="test"
        )
        engine.check_action(STRANGER, "start")
        engine.check_action(ALICE, "start")
        assert registry.value(
            "query_prefilter_checks_total", consumer="test"
        ) == 2.0
        assert registry.value(
            "query_prefilter_denied_total", consumer="test", level="subject"
        ) == 1.0
        assert registry.value(
            "query_index_rebuilds_total", consumer="test"
        ) == 1.0

    def test_explain_merges_sources(self, policy):
        local = parse_policy(
            f"{ALICE}:\n    &(action=signal)(jobowner=self)\n", name="local"
        )
        combined = CombinedEvaluator(
            [
                PolicyEvaluator(policy, source="vo"),
                PolicyEvaluator(local, source="local"),
            ]
        )
        engine = QueryEngine.from_combined(combined)
        explanation = engine.explain(ALICE)
        assert explanation.known
        assert explanation.actions() == ("cancel", "signal", "start")
        sources = {p.source for p in explanation.permissions}
        assert sources == {"vo", "local"}

    def test_explain_unknown_subject(self, policy):
        engine, _ = self.make_engine(policy)
        explanation = engine.explain(STRANGER)
        assert not explanation.known
        assert explanation.permissions == ()

    def test_needs_at_least_one_source(self):
        with pytest.raises(ValueError):
            QueryEngine([])


class TestCombinedGuarantees:
    """The guaranteed-deny matrix across combination algorithms."""

    def setup_method(self):
        vo = parse_policy(
            f"{ALICE}:\n    &(action=start)(jobtag!=NULL)\n", name="vo"
        )
        local = parse_policy(
            f"{BOB}:\n    &(action=start)(jobtag!=NULL)\n", name="local"
        )
        self.vo = PolicyEvaluator(vo, source="vo")
        self.local = PolicyEvaluator(local, source="local")

    def engine(self, algorithm):
        return QueryEngine(
            [self.vo, self.local], algorithm=algorithm
        )

    def test_all_must_permit_denies_on_any_abstain(self):
        engine = self.engine(CombinationAlgorithm.ALL_MUST_PERMIT)
        # Alice is unknown to local -> local abstains -> combined deny
        assert engine.check_action(ALICE, "start").guaranteed_deny
        assert engine.check_action(BOB, "start").guaranteed_deny
        assert engine.check_action(STRANGER, "start").guaranteed_deny

    def test_permit_overrides_defers_on_abstain(self):
        engine = self.engine(
            CombinationAlgorithm.PERMIT_OVERRIDES_NOT_APPLICABLE
        )
        # local abstains, vo could permit -> undecided
        assert not engine.check_action(ALICE, "start").guaranteed_deny
        assert not engine.check_action(BOB, "start").guaranteed_deny
        # nobody has a statement -> all abstain -> guaranteed deny
        assert engine.check_action(STRANGER, "start").guaranteed_deny

    def test_permit_overrides_explicit_deny_wins(self):
        engine = self.engine(
            CombinationAlgorithm.PERMIT_OVERRIDES_NOT_APPLICABLE
        )
        # vo has statements for Alice but no grant for cancel ->
        # explicit forward DENY from vo -> combined deny even though
        # local abstains
        pre = engine.check_action(ALICE, "cancel")
        assert pre.guaranteed_deny
        assert pre.level == "action"
