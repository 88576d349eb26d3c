"""Gatekeeper admission fast-deny from the reverse authorization index.

With ``ServiceConfig(query_fast_deny=True)`` the Gatekeeper consults an
epoch-guarded :class:`~repro.core.query.QueryEngine` right after the
grid-mapfile lookup: a *guaranteed* deny (unknown subject, or a subject
whose statements can never reach the start action) is answered without
running the authorization pipeline at all.  Anything uncertain falls
through to the full pipeline unchanged.
"""

from repro.core.parser import parse_policy
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig

ORG = "/O=Grid/OU=query.example.org"
ALICE = f"{ORG}/CN=Alice"
BOB = f"{ORG}/CN=Bob"
CAROL = f"{ORG}/CN=Carol"
ERIN = f"{ORG}/CN=Erin"
MALLORY = f"{ORG}/CN=Mallory"

POLICY = f"""
{ALICE}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
{CAROL}:
    &(action=cancel)(jobowner=self)
"""

RSL = "&(executable=sim)(count=1)(runtime=10)"
ROGUE = "&(executable=rogue)(count=1)(runtime=10)"

LOCAL = f"""
{ORG}*:
    &(action=start)(count<8)
    &(action=cancel)(jobowner=self)
"""


def vo_granting(*members):
    return "".join(
        f"{member}:\n    &(action=start)(executable=sim)(count<4)\n"
        for member in members
    )


def build_service(**overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        query_fast_deny=True,
    )
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults))


def client_for(service, identity, account):
    return GramClient(service.add_user(identity, account), service.gatekeeper)


class TestFastDeny:
    def test_unknown_subject_is_fast_denied(self):
        service = build_service()
        client = client_for(service, MALLORY, "mallory")
        response = client.submit(RSL)
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        assert "fast deny" in response.message
        assert "subject" in response.message

    def test_action_level_fast_deny(self):
        # Carol holds only a cancel grant: start is statically
        # unreachable, so the pipeline never runs.
        service = build_service()
        client = client_for(service, CAROL, "carol")
        response = client.submit(RSL)
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        assert "fast deny" in response.message
        assert "action" in response.message

    def test_fast_deny_metrics(self):
        service = build_service()
        client = client_for(service, MALLORY, "mallory")
        client.submit(RSL)
        registry = service.telemetry.registry
        assert (
            registry.value(
                "query_prefilter_checks_total", consumer="gatekeeper"
            )
            >= 1
        )
        assert (
            registry.value(
                "query_prefilter_denied_total",
                consumer="gatekeeper",
                level="subject",
            )
            == 1
        )

    def test_uncertain_requests_fall_through_to_the_pipeline(self):
        # Alice *can* start jobs, so the index stays out of the way —
        # the rogue executable is denied by the forward pipeline.
        service = build_service()
        client = client_for(service, ALICE, "alice")
        denied = client.submit(ROGUE)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
        assert "fast deny" not in denied.message
        assert client.submit(RSL).ok

    def test_disabled_by_default(self):
        service = GramService(
            ServiceConfig(policies=(parse_policy(POLICY, name="vo"),))
        )
        assert service.query_engine is None
        client = client_for(service, MALLORY, "mallory")
        response = client.submit(RSL)
        # Same outcome, decided by the pipeline instead.
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        assert "fast deny" not in response.message


class TestEpochGuard:
    def test_policy_replacement_lifts_a_stale_deny(self):
        service = build_service()
        client = client_for(service, MALLORY, "mallory")
        assert "fast deny" in client.submit(RSL).message

        # Grant Mallory start rights; the epoch bump must rebuild the
        # index before the next answer — no stale denies.
        amended = parse_policy(
            POLICY + f"\n{MALLORY}:\n    &(action=start)(executable=sim)\n",
            name="vo",
        )
        service.combined_evaluator.evaluators[0].replace_policy(amended)
        assert client.submit(RSL).ok

    def test_rebuilds_are_counted(self):
        service = build_service()
        client = client_for(service, ALICE, "alice")
        client.submit(RSL)
        registry = service.telemetry.registry
        first = registry.value(
            "query_index_rebuilds_total", consumer="gatekeeper"
        )
        assert first == 1
        service.combined_evaluator.evaluators[0].replace_policy(
            parse_policy(POLICY, name="vo")
        )
        client.submit(RSL)
        assert (
            registry.value("query_index_rebuilds_total", consumer="gatekeeper")
            == first + 1
        )

    def test_publish_keeps_the_unchanged_source(self):
        # Each publish changes only the VO source: Bob is withdrawn and
        # Erin granted, then Erin withdrawn and Bob restored.  ``local``
        # stays byte-identical, so its policy, epoch and reverse index
        # survive while every answer matches a service built fresh.
        members = (ALICE, BOB, ERIN, MALLORY)
        switches = dict(
            query_fast_deny=True, decision_cache=True, capability_grants=True
        )

        def start(vo):
            store = VersionedPolicyStore()
            store.publish(PolicyBundle.from_texts({"vo": vo, "local": LOCAL}))
            service = GramService(ServiceConfig(policy_store=store, **switches))
            clients = {
                member: client_for(service, member, f"user{index}")
                for index, member in enumerate(members)
            }
            return store, service, clients

        def answers(clients):
            seen = []
            for member, client in clients.items():
                for rsl in (RSL, ROGUE):
                    response = client.submit(rsl)
                    seen.append(
                        (
                            member,
                            rsl,
                            response.code,
                            response.reasons,
                            "fast deny" in response.message,
                        )
                    )
                    if response.ok:
                        seen.append(
                            (member, client.cancel(response.contact).code)
                        )
            return seen

        store, service, clients = start(vo_granting(ALICE, BOB))
        answers(clients)
        local = service.combined_evaluator.evaluators[1]
        assert local.source == "local"
        for withdrawn, restored in ((BOB, ERIN), (ERIN, BOB)):
            policy, epoch = local.policy, local.policy_epoch
            index = service.query_engine.ensure_fresh()[1]
            vo = vo_granting(ALICE, restored)
            store.publish(PolicyBundle.from_texts({"vo": vo, "local": LOCAL}))
            assert local.policy is policy
            assert local.policy_epoch == epoch
            assert service.query_engine.ensure_fresh()[1] is index

            denied = clients[withdrawn].submit(RSL)
            assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
            assert "fast deny" in denied.message
            admitted = clients[restored].submit(RSL)
            assert admitted.ok
            clients[restored].cancel(admitted.contact)

            _, _, fresh = start(vo)
            assert answers(clients) == answers(fresh)
