"""Capability grants: mint, hit, expiry and revocation lifecycle."""

import pytest

from repro.core.callout import CalloutRegistry, GRAM_AUTHZ_CALLOUT
from repro.core.capability import (
    ABSENT,
    CAPABILITY_HIT,
    EPOCH,
    EXPIRED,
    CapabilityMiddleware,
)
from repro.core.decision import Decision, Effect
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import (
    DecisionCache,
    DecisionContext,
    EpochCounter,
    EpochView,
    ReplayStore,
    request_key,
)
from repro.core.request import AuthorizationRequest
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

ORG = "/O=Grid/O=Globus/OU=mcs.anl.gov"
BO = f"{ORG}/CN=Bo Liu"
KATE = f"{ORG}/CN=Kate Keahey"


def start(who=BO, rsl="&(executable=test1)(count=2)(jobtag=ADS)"):
    return AuthorizationRequest.start(who, parse_specification(rsl))


def manage(who, action, owner, rsl="&(executable=test1)(count=2)"):
    return AuthorizationRequest.manage(
        who, action, parse_specification(rsl), jobowner=owner
    )


def make_middleware(ttl=300.0, clock=None, epoch_sources=(), store=None):
    return CapabilityMiddleware(
        clock or Clock(), view=EpochView(epoch_sources), ttl=ttl, store=store
    )


def permit_callout(request, context=None):
    return Decision.permit(source="test")


def deny_callout(request, context=None):
    return Decision.deny(reasons=("no",), source="test")


def decide(middleware, request):
    """One permitted decision through *middleware*; returns its context."""
    context = DecisionContext.from_request(request)
    middleware(request, context, permit_callout)
    return context


def held(middleware, request):
    """The stored entry the middleware holds for *request*."""
    return middleware.store.get(request_key(request))


class TestMintValidateLifecycle:
    def test_token_scope_is_exactly_the_decided_request(self):
        middleware = make_middleware()
        request = start()
        context = decide(middleware, request)
        assert len(middleware.store) == 1
        entry = held(middleware, request)
        assert entry.grant.token_id == context.capability
        assert context.capability.startswith("cap-")
        assert entry.decision.effect is Effect.PERMIT

    def test_epochs_bound_at_mint_time(self):
        counter = EpochCounter()
        middleware = make_middleware(epoch_sources=[("policy", counter)])
        decide(middleware, start())
        assert held(middleware, start()).epochs == (("policy", "0"),)
        counter.bump()
        decide(middleware, start())
        assert held(middleware, start()).epochs == (("policy", "1"),)

    def test_mint_counts(self):
        middleware = make_middleware()
        decide(middleware, start())
        decide(middleware, start(who=KATE))
        assert middleware.minted == 2

    def test_zero_ttl_rejected(self):
        with pytest.raises(ValueError):
            make_middleware(ttl=0.0)


class TestTTLBoundary:
    """Expiry semantics on the sim clock, pinned at the boundary."""

    def test_expires_exactly_at_expires_at(self):
        clock = Clock()
        middleware = make_middleware(ttl=60.0, clock=clock)
        decide(middleware, start())
        assert held(middleware, start()).grant.expires_at == 60.0
        clock.advance(60.0 - 1e-9)
        assert decide(middleware, start()).cache_status == CAPABILITY_HIT
        clock.advance(1e-9)
        assert clock.now == 60.0
        # `now == expires_at` is already expired: a TTL of 60 means 60
        # seconds of validity, not 60-and-an-instant.
        assert decide(middleware, start()).cache_status != CAPABILITY_HIT
        assert middleware.miss_reasons[EXPIRED] == 1


class TestRejectionVectors:
    def test_scope_widening_rejected_without_tampering(self):
        """A held grant never answers a request outside the one it was
        minted for: different action, subject, owner or description."""
        middleware = make_middleware()
        decide(middleware, start())
        others = [
            manage(BO, "cancel", BO),
            start(who=KATE),
            start(rsl="&(executable=test1)(count=3)(jobtag=ADS)"),
        ]
        for request in others:
            assert decide(middleware, request).cache_status != CAPABILITY_HIT
        assert middleware.hits == 0
        assert middleware.miss_reasons[ABSENT] == 1 + len(others)

    def test_epoch_bump_revokes(self):
        counter = EpochCounter()
        middleware = make_middleware(epoch_sources=[("policy", counter)])
        decide(middleware, start())
        assert decide(middleware, start()).cache_status == CAPABILITY_HIT
        counter.bump()
        assert decide(middleware, start()).cache_status != CAPABILITY_HIT
        assert middleware.miss_reasons[EPOCH] == 1
        assert middleware.revoked == 1

    def test_expiry_outranks_epoch(self):
        """A grant both expired and stale counts as expired, not
        revoked: expiry is checked first."""
        clock = Clock()
        counter = EpochCounter()
        middleware = make_middleware(
            ttl=10.0, clock=clock, epoch_sources=[("p", counter)]
        )
        decide(middleware, start())
        clock.advance(100.0)
        counter.bump()
        assert decide(middleware, start()).cache_status != CAPABILITY_HIT
        assert middleware.miss_reasons[EXPIRED] == 1
        assert middleware.miss_reasons[EPOCH] == 0
        assert middleware.revoked == 0


class TestCapabilityStore:
    def test_lru_eviction(self):
        middleware = make_middleware(store=ReplayStore(maxsize=2))
        requests = [
            start(rsl=f"&(executable=test1)(count={n})") for n in (1, 2, 3)
        ]
        for request in requests:
            decide(middleware, request)
        assert len(middleware.store) == 2
        assert middleware.store.evictions == 1
        assert held(middleware, requests[0]) is None
        assert held(middleware, requests[2]) is not None


def build_pep(callout=permit_callout, middleware=None):
    registry = CalloutRegistry()
    registry.register(GRAM_AUTHZ_CALLOUT, callout)
    middleware = middleware or make_middleware()
    pep = EnforcementPoint(registry=registry, capability=middleware)
    return pep, middleware


class TestMiddlewareInThePEP:
    def test_first_decision_mints_second_hits(self):
        pep, middleware = build_pep()
        request = start()
        first = pep.authorize(request)
        assert first.context.cache_status != CAPABILITY_HIT
        assert first.context.capability
        second = pep.authorize(request)
        assert second.context.cache_status == CAPABILITY_HIT
        assert second.context.capability == first.context.capability
        assert middleware.hits == 1
        assert middleware.minted == 1
        assert "capability" in second.context.stage_names

    def test_denials_are_never_tokenized(self):
        pep, middleware = build_pep(callout=deny_callout)
        request = start()
        for _ in range(3):
            assert not pep.decide(request).is_permit
        assert middleware.minted == 0
        assert middleware.hits == 0
        assert middleware.miss_reasons[ABSENT] == 3

    def test_hit_preserves_provenance_sources(self):
        def sourced(request, context=None):
            if context is not None:
                context.add_source("vo", Effect.PERMIT, epoch=0)
            return Decision.permit(source="vo")

        pep, _ = build_pep(callout=sourced)
        request = start()
        fresh = pep.authorize(request)
        hit = pep.authorize(request)
        assert hit.context.source_names == fresh.context.source_names

    def test_epoch_bump_discards_and_remints(self):
        counter = EpochCounter()
        pep, middleware = build_pep(
            middleware=make_middleware(epoch_sources=[("policy", counter)])
        )
        request = start()
        first = pep.authorize(request)
        counter.bump()
        again = pep.authorize(request)
        assert again.context.cache_status != CAPABILITY_HIT
        assert middleware.revoked == 1
        assert middleware.miss_reasons[EPOCH] == 1
        # The replacement grant is a new one, bound to the new epoch.
        assert again.context.capability != first.context.capability
        assert held(middleware, request).epochs == (("policy", "1"),)
        assert pep.authorize(request).context.cache_status == CAPABILITY_HIT

    def test_expiry_discards_and_remints(self):
        clock = Clock()
        pep, middleware = build_pep(
            middleware=make_middleware(ttl=30.0, clock=clock)
        )
        request = start()
        pep.authorize(request)
        clock.advance(30.0)
        refreshed = pep.authorize(request)
        assert refreshed.context.cache_status != CAPABILITY_HIT
        assert middleware.miss_reasons[EXPIRED] == 1
        assert held(middleware, request).grant.expires_at == 60.0

    def test_capability_sits_in_front_of_the_cache(self):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_callout)
        pep = EnforcementPoint(
            registry=registry,
            capability=make_middleware(),
            cache=DecisionCache(),
        )
        names = [getattr(m, "name", "") for m in pep.middlewares]
        assert names == ["capability", "decision-cache"]
        request = start()
        pep.authorize(request)
        assert pep.authorize(request).context.cache_status == CAPABILITY_HIT
        assert pep.cache.hits == 0

    def test_use_capability_installs_on_a_plain_pep(self):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_callout)
        pep = EnforcementPoint(registry=registry, capability=make_middleware())
        assert pep.cache is None
        names = [getattr(m, "name", "") for m in pep.middlewares]
        assert names == ["capability"]
        request = start()
        pep.authorize(request)
        assert pep.authorize(request).context.cache_status == CAPABILITY_HIT

    def test_context_to_dict_carries_the_token_id(self):
        pep, _ = build_pep()
        request = start()
        decision = pep.authorize(request)
        data = decision.context.to_dict()
        assert data["capability"] == decision.context.capability
        assert data["capability"].startswith("cap-")
        plain = DecisionContext.from_request(request)
        assert plain.to_dict()["capability"] == ""
