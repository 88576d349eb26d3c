"""Pushed epochs: one read says no stored epoch moved.

Every stored policy epoch is a :class:`~repro.core.pipeline.PushedEpoch`:
each store moves the process-wide epoch generation.  An
:class:`~repro.core.pipeline.EpochView` whose members all push answers
from its memo while the generation stands; any member not known to
push is pulled on every snapshot.  These tests pin both halves:

* every mutator of every pushing class moves the generation *and* the
  service view's snapshot, and a byte-identical callout republish
  moves neither;
* a member that does not push (a plain-attribute fake, a lambda, a
  time-windowed source crossing an edge) is seen to change although
  the generation never moved;
* deciding a request stores no epoch, so it moves nothing.
"""

import pytest

from repro.core.builtin_callouts import permit_all
from repro.core.callout import (
    GRAM_AUTHZ_CALLOUT,
    CalloutConfiguration,
    CalloutRegistry,
)
from repro.core.combination import CombinedEvaluator
from repro.core.decision import Decision
from repro.core.dynamic import DynamicEvaluator, DynamicPolicy
from repro.core.evaluator import PolicyEvaluator
from repro.core.model import PolicyAssertion, PolicyStatement, Subject
from repro.core.parser import parse_policy
from repro.core.pipeline import (
    DecisionContext,
    EpochCounter,
    EpochView,
    ReplayEntry,
    ReplayStore,
    activate,
    epoch_generation,
    pushes,
)
from repro.core.query import QueryEngine
from repro.core.request import AuthorizationRequest
from repro.gram.client import GramClient
from repro.gram.gridmap import GridMapFile
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.keys import KeyPair
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock
from repro.testing import ExceptionFault, faulty_source
from repro.vo.akenti import AkentiEngine, AttributeCertificate, UseCondition
from repro.vo.cas import CASPolicySource, CASServer, attach_cas_policy, cas_callout
from repro.vo.organization import VirtualOrganization
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT
from repro.xacml.bridge import XACMLEvaluator, xacml_from_policy

from tests.conftest import BO, KATE

VO_POLICY = f"""
{BO}:
    &(action=start)(executable=test1)(count<=4)
    &(action=information)(jobowner=self)
"""
OTHER_VO_POLICY = f"""
{BO}:
    &(action=start)(executable=test2)(count<=4)
"""
JOB = "&(executable=test1)(count=2)(jobtag=ADS)(runtime=50)"
#: The callout type the tests watch extra sources under; nothing
#: invokes it, so it changes no decision.
WATCH = "watch"


def build_service(**config):
    return GramService(
        ServiceConfig(policies=(parse_policy(VO_POLICY, name="vo"),), **config)
    )


def watch(service, source):
    """Register a callout deciding from *source* (as its policy source)."""

    def callout(request):
        return Decision.permit(reason="watched", source="watched")

    callout.policy_source = source
    service.registry.register(WATCH, callout, label=f"watch:{id(source)}")
    return source


def moved(service, mutate):
    """``(generation moved, service snapshot moved)`` across *mutate*."""
    view = service.epoch_view
    snapshot = view.snapshot()
    generation = epoch_generation()
    mutate()
    return epoch_generation() != generation, view.snapshot() != snapshot


def _akenti(service):
    key = KeyPair("stakeholder")
    engine = watch(service, AkentiEngine(resource="cluster"))
    engine.trust_stakeholder("site", key.public)
    return engine, key


def _condition(key):
    return UseCondition.issue(
        stakeholder="site",
        stakeholder_key=key,
        resource="cluster",
        subject=Subject.prefix("/O=Grid"),
        constraint=parse_specification("&(action=start)"),
    )


def _windowed_statement():
    return PolicyStatement(
        subject=Subject.identity(BO),
        assertions=(PolicyAssertion.parse("&(action=start)(executable=demo)"),),
    )


def _configure_file(service, path, symbol):
    """A call that writes *path* to configure *symbol*, then applies it."""

    def configure():
        path.write_text(f"{WATCH} repro.core.builtin_callouts {symbol}\n")
        return service.registry.configure_from_file(str(path), reload=True)

    return configure


def _mutations(service, tmp_path):
    """Per pushing class and mutator: the call that mutates it.

    Everything a mutator needs is set up here, before the measurement.
    """
    evaluator = service.combined_evaluator.evaluators[0]
    registry = service.registry
    gridmap = service.gridmap
    gridmap.add(KATE, "kate")
    vo = watch(service, VirtualOrganization("NFC"))
    vo.add_member(KATE)
    akenti, akenti_key = _akenti(service)
    cas = watch(service, CASPolicySource(KeyPair("cas").public))
    xacml = XACMLEvaluator(xacml_from_policy(parse_policy(VO_POLICY, name="x")))
    watch(service, xacml)
    dynamic = watch(service, DynamicPolicy(parse_policy(VO_POLICY, name="d")))
    counter = watch(service, EpochCounter())
    changed = tmp_path / "changed.conf"
    _configure_file(service, changed, "permit_all")()
    return {
        "PolicyEvaluator.replace_policy": lambda: evaluator.replace_policy(
            parse_policy(OTHER_VO_POLICY, name="vo")
        ),
        "GridMapFile.add": lambda: gridmap.add(BO, "boliu"),
        "GridMapFile.remove": lambda: gridmap.remove(KATE),
        "CalloutRegistry.register": lambda: registry.register(
            GRAM_AUTHZ_CALLOUT, permit_all
        ),
        "CalloutRegistry.clear": lambda: registry.clear(GRAM_AUTHZ_CALLOUT),
        "CalloutRegistry.configure": lambda: registry.configure(
            CalloutConfiguration(
                GRAM_AUTHZ_CALLOUT, "repro.core.builtin_callouts", "permit_all"
            )
        ),
        "CalloutRegistry.configure_from_file(new)": _configure_file(
            service, tmp_path / "new.conf", "permit_all"
        ),
        "CalloutRegistry.configure_from_file(changed)": _configure_file(
            service, changed, "deny_all"
        ),
        "VirtualOrganization.add_member": lambda: vo.add_member(BO),
        "VirtualOrganization.remove_member": lambda: vo.remove_member(KATE),
        "AkentiEngine.trust_stakeholder": lambda: akenti.trust_stakeholder(
            "vo", KeyPair("vo").public
        ),
        "AkentiEngine.trust_attribute_issuer": lambda: (
            akenti.trust_attribute_issuer("registry", KeyPair("reg").public)
        ),
        "AkentiEngine.add_condition": lambda: akenti.add_condition(
            _condition(akenti_key)
        ),
        "AkentiEngine.add_attribute_certificate": lambda: (
            akenti.add_attribute_certificate(
                AttributeCertificate.issue(
                    "registry", KeyPair("reg"), BO, "group", "analysis"
                )
            )
        ),
        "CASPolicySource.trust_key": lambda: cas.trust_key(KeyPair("next").public),
        "XACMLEvaluator.replace_policy": lambda: xacml.replace_policy(
            xacml_from_policy(parse_policy(OTHER_VO_POLICY, name="x"))
        ),
        "DynamicPolicy.add_window": lambda: dynamic.add_window(
            _windowed_statement(), not_before=10.0, not_after=20.0
        ),
        "EpochCounter.bump": counter.bump,
    }


#: Every mutator :func:`_mutations` builds, named so a parametrized
#: test reports which one failed.
MUTATORS = (
    "AkentiEngine.add_attribute_certificate",
    "AkentiEngine.add_condition",
    "AkentiEngine.trust_attribute_issuer",
    "AkentiEngine.trust_stakeholder",
    "CASPolicySource.trust_key",
    "CalloutRegistry.clear",
    "CalloutRegistry.configure",
    "CalloutRegistry.configure_from_file(changed)",
    "CalloutRegistry.configure_from_file(new)",
    "CalloutRegistry.register",
    "DynamicPolicy.add_window",
    "EpochCounter.bump",
    "GridMapFile.add",
    "GridMapFile.remove",
    "PolicyEvaluator.replace_policy",
    "VirtualOrganization.add_member",
    "VirtualOrganization.remove_member",
    "XACMLEvaluator.replace_policy",
)


class TestEveryMutatorPushes:
    @pytest.mark.parametrize("name", MUTATORS)
    def test_mutator_moves_the_generation_and_the_snapshot(self, name, tmp_path):
        service = build_service()
        mutate = _mutations(service, tmp_path)[name]
        assert pushes(service.registry), "every watched source pushes"
        generation_moved, snapshot_moved = moved(service, mutate)
        assert generation_moved, f"{name} did not move the epoch generation"
        assert snapshot_moved, f"{name} did not move the service view"

    def test_the_table_names_every_mutator(self, tmp_path):
        assert sorted(_mutations(build_service(), tmp_path)) == list(MUTATORS)

    def test_every_listed_class_stores_a_pushed_epoch(self, tmp_path):
        service = build_service()
        _mutations(service, tmp_path)
        sources = (
            service.gridmap,
            service.registry,
            service.combined_evaluator,
            *service.registry._sources(),
        )
        assert all(pushes(source) for source in sources)
        assert {type(source).__name__ for source in sources} >= {
            "AkentiEngine",
            "CASPolicySource",
            "CalloutRegistry",
            "CombinedEvaluator",
            "DynamicPolicy",
            "EpochCounter",
            "GridMapFile",
            "VirtualOrganization",
            "XACMLEvaluator",
        }

    def test_wrap_moves_the_generation(self):
        # A wrapper that keeps the callout's epoch source changes no
        # decision: the view asks again and finds the same snapshot.
        service = build_service()
        generation_moved, snapshot_moved = moved(
            service,
            lambda: service.registry.wrap(
                GRAM_AUTHZ_CALLOUT, lambda label, callout: callout
            ),
        )
        assert (generation_moved, snapshot_moved) == (True, False)

    def test_wrap_that_hides_the_source_moves_the_snapshot(self):
        service = build_service()

        def opaque(label, callout):
            return lambda request: callout(request)

        generation_moved, snapshot_moved = moved(
            service, lambda: service.registry.wrap(GRAM_AUTHZ_CALLOUT, opaque)
        )
        assert (generation_moved, snapshot_moved) == (True, True)

    def test_byte_identical_republish_moves_nothing(self, tmp_path):
        service = build_service()
        configure = _configure_file(service, tmp_path / "callouts.conf", "permit_all")
        assert configure() == 1
        assert moved(service, configure) == (False, False)
        assert configure() == 0

    def test_a_fresh_snapshot_after_the_move_is_one_read_again(self):
        service = build_service()
        view = service.epoch_view
        service.gridmap.add(KATE, "kate")
        first = view.snapshot()
        assert view.snapshot() is first
        assert view._memo[0] is epoch_generation()


class _PlainEpoch:
    def __init__(self):
        self.policy_epoch = 0


class _ComputedEpoch(PolicyEvaluator):
    """Overrides the stored epoch with a computed one."""

    reads = 0

    @property
    def policy_epoch(self):
        type(self).reads += 1
        return self.reads

    @policy_epoch.setter
    def policy_epoch(self, value):
        pass


class TestUnknownMembersArePulled:
    def test_plain_attribute_fake(self):
        fake = _PlainEpoch()
        view = EpochView([("fake", fake)])
        before = view.snapshot()
        generation = epoch_generation()
        fake.policy_epoch = 1
        assert epoch_generation() == generation
        assert view.snapshot() != before

    def test_zero_argument_callable(self):
        state = {"epoch": 0}
        view = EpochView([("fn", lambda: state["epoch"])])
        before = view.snapshot()
        generation = epoch_generation()
        state["epoch"] = 1
        assert epoch_generation() == generation
        assert view.snapshot() != before

    def test_windowed_source_crossing_an_edge(self):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(VO_POLICY, name="vo"))
        dynamic.add_window(_windowed_statement(), not_before=10.0, not_after=20.0)
        view = EpochView([("dynamic", DynamicEvaluator(dynamic, clock))])
        before = view.snapshot()
        generation = epoch_generation()
        clock.advance(15.0)
        assert epoch_generation() == generation
        assert view.snapshot() != before

    def test_one_pulled_member_makes_the_service_view_pull(self):
        service = build_service()
        fake = watch(service, _PlainEpoch())
        assert not pushes(service.registry)
        generation_moved, snapshot_moved = moved(
            service, lambda: setattr(fake, "policy_epoch", 1)
        )
        assert (generation_moved, snapshot_moved) == (False, True)

    def test_a_class_that_computes_its_epoch_is_pulled(self):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(VO_POLICY, name="vo"))
        assert pushes(dynamic)
        assert not pushes(DynamicEvaluator(dynamic, clock))
        assert not pushes(_ComputedEpoch(parse_policy(VO_POLICY, name="vo")))

    def test_forwarding_proxy_is_pulled(self):
        evaluator = PolicyEvaluator(parse_policy(VO_POLICY, name="vo"))
        proxy = faulty_source(evaluator, ExceptionFault())
        assert pushes(evaluator)
        assert not pushes(proxy)
        assert not pushes(CombinedEvaluator([evaluator, proxy]))
        assert pushes(CombinedEvaluator([evaluator]))

    def test_registry_pushes_only_while_every_source_does(self):
        registry = CalloutRegistry()
        assert pushes(registry)
        watched = GridMapFile()
        callout = lambda request: None  # noqa: E731
        callout.gridmap = watched
        registry.register(GRAM_AUTHZ_CALLOUT, callout)
        assert pushes(registry)
        other = lambda request: None  # noqa: E731
        other.gridmap = _PlainEpoch()
        registry.register(GRAM_AUTHZ_CALLOUT, other)
        assert not pushes(registry)


def _start(rsl=JOB, who=BO):
    return AuthorizationRequest.start(who, parse_specification(rsl))


class TestDecidingMovesNothing:
    def test_windowed_callout_decisions_move_no_generation(self):
        # No repeat path: every request is decided by the windowed
        # callout, and the clock opens its window before the last round.
        service = build_service()
        dynamic = DynamicPolicy(parse_policy(VO_POLICY, name="vo"))
        dynamic.add_window(_windowed_statement(), not_before=100.0, not_after=200.0)
        evaluator = DynamicEvaluator(dynamic, service.clock)
        service.registry.clear(GRAM_AUTHZ_CALLOUT)
        service.registry.register(GRAM_AUTHZ_CALLOUT, evaluator.evaluate)
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        generation = epoch_generation()
        for _ in range(3):
            for _ in range(20):
                response = client.submit(JOB)
                assert response.ok, response.message
                assert client.status(response.contact).ok
            service.run(60.0)
        assert service.pep.permits == 3 * 20 * 2
        assert epoch_generation() == generation

    def test_windowed_decision_keeps_its_provenance(self):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(VO_POLICY, name="vo"))
        dynamic.add_window(_windowed_statement(), not_before=10.0, not_after=20.0)
        evaluator = DynamicEvaluator(dynamic, clock)
        demo = _start("&(executable=demo)(count=2)")
        for now, permitted in ((0.0, False), (15.0, True), (25.0, False)):
            clock.run_until(now)
            context = DecisionContext.from_request(demo)
            with activate(context):
                assert evaluator.evaluate(demo).is_permit is permitted
            assert [(s.name, s.epoch) for s in context.sources] == [
                ("vo", evaluator.policy_epoch)
            ]

    def test_cas_decisions_move_no_generation(self):
        service = build_service(capability_grants=True)
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
        identity = service.add_user(BO, "boliu")
        proxy = attach_cas_policy(identity, cas.issue(identity, now=0.0), now=0.0)
        client = GramClient(proxy, service.gatekeeper)
        rsl = "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(runtime=50)"
        generation = epoch_generation()
        for _ in range(10):
            response = client.submit(rsl)
            assert response.ok, response.message
        assert epoch_generation() == generation


class TestQueryEngineReadsTheGeneration:
    def test_pushed_evaluators_are_read_once_per_generation(self):
        evaluator = PolicyEvaluator(parse_policy(VO_POLICY, name="vo"))
        engine = QueryEngine([evaluator])
        first = engine.ensure_fresh()
        epoch = engine.watched_epoch
        assert engine.watched_epoch is epoch
        assert engine.ensure_fresh() is first
        evaluator.replace_policy(parse_policy(OTHER_VO_POLICY, name="vo"))
        assert engine.watched_epoch != epoch
        assert engine.ensure_fresh()[0] is not first[0]

    def test_a_pulled_evaluator_is_read_every_time(self):
        _ComputedEpoch.reads = 0
        computed = _ComputedEpoch(parse_policy(VO_POLICY, name="vo"))
        engine = QueryEngine([computed])
        engine.ensure_fresh()
        reads = _ComputedEpoch.reads
        engine.ensure_fresh()
        assert _ComputedEpoch.reads == reads + 1


class TestReplayStorePut:
    @staticmethod
    def entry(tag):
        return ReplayEntry(Decision.permit(reason=tag, source="t"), (), ())

    def test_new_keys_append_and_evict_the_oldest(self):
        store = ReplayStore(maxsize=2)
        for key in "abc":
            store.put(key, self.entry(key))
        assert list(store._entries) == ["b", "c"]
        assert store.evictions == 1

    def test_a_replaced_key_moves_to_the_end(self):
        store = ReplayStore(maxsize=2)
        store.put("a", self.entry("a1"))
        store.put("b", self.entry("b"))
        store.put("a", self.entry("a2"))
        assert list(store._entries) == ["b", "a"]
        store.put("c", self.entry("c"))
        assert list(store._entries) == ["a", "c"]
        assert store.get("a").decision.reasons == ("a2",)
        assert store.evictions == 1
