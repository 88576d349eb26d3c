"""Signed capability grants: mint/validate lifecycle and rejection vectors."""

import dataclasses
import json

import pytest

from repro.core.callout import CalloutRegistry, GRAM_AUTHZ_CALLOUT
from repro.core.capability import (
    ABSENT,
    BAD_SIGNATURE,
    CAPABILITY_HIT,
    EPOCH,
    EXPIRED,
    SCOPE,
    VALID,
    CapabilityIssuer,
    CapabilityMiddleware,
    CapabilityToken,
    default_capability_key,
    spec_digest,
)
from repro.core.decision import Decision, Effect
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import (
    DecisionCache,
    DecisionContext,
    EpochCounter,
    EpochView,
    ReplayEntry,
    ReplayStore,
    request_key,
)
from repro.core.request import AuthorizationRequest
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

ORG = "/O=Grid/O=Globus/OU=mcs.anl.gov"
BO = f"{ORG}/CN=Bo Liu"
KATE = f"{ORG}/CN=Kate Keahey"

KEY = default_capability_key("grid.example.org")


def start(who=BO, rsl="&(executable=test1)(count=2)(jobtag=ADS)"):
    return AuthorizationRequest.start(who, parse_specification(rsl))


def manage(who, action, owner, rsl="&(executable=test1)(count=2)"):
    return AuthorizationRequest.manage(
        who, action, parse_specification(rsl), jobowner=owner
    )


def make_issuer(ttl=300.0, clock=None, epoch_sources=()):
    return CapabilityIssuer(
        key=KEY, clock=clock or Clock(), ttl=ttl, view=EpochView(epoch_sources)
    )


class TestMintValidateLifecycle:
    def test_mint_produces_a_signed_valid_token(self):
        issuer = make_issuer()
        request = start()
        token = issuer.mint(request)
        assert token.signature
        assert token.verify_signature(KEY)
        assert issuer.validate(token, request) == VALID

    def test_token_scope_is_exactly_the_decided_request(self):
        token = make_issuer().mint(start())
        assert token.subject == BO
        assert token.actions == ("start",)
        assert token.jobtag == "ADS"
        assert token.spec_digest == spec_digest(
            parse_specification("&(executable=test1)(count=2)(jobtag=ADS)")
        )

    def test_epochs_bound_at_mint_time(self):
        counter = EpochCounter()
        issuer = make_issuer(epoch_sources=[("policy", counter)])
        token = issuer.mint(start())
        assert token.epochs == (("policy", "0"),)
        counter.bump()
        assert issuer.mint(start()).epochs == (("policy", "1"),)

    def test_mint_counts(self):
        issuer = make_issuer()
        issuer.mint(start())
        issuer.mint(start())
        assert issuer.minted == 2

    def test_zero_ttl_rejected(self):
        with pytest.raises(ValueError):
            make_issuer(ttl=0.0)


class TestTTLBoundary:
    """Expiry semantics on the sim clock, pinned at the boundary."""

    def test_expires_exactly_at_expires_at(self):
        clock = Clock()
        issuer = make_issuer(ttl=60.0, clock=clock)
        token = issuer.mint(start())
        assert token.expires_at == 60.0
        clock.advance(60.0 - 1e-9)
        assert issuer.validate(token, start()) == VALID
        clock.advance(1e-9)
        assert clock.now == 60.0
        # `now == expires_at` is already expired: a TTL of 60 means 60
        # seconds of validity, not 60-and-an-instant.
        assert issuer.validate(token, start()) == EXPIRED

    def test_validate_at_explicit_now(self):
        issuer = make_issuer(ttl=60.0)
        token = issuer.mint(start())
        assert issuer.validate(token, start(), now=59.999) == VALID
        assert issuer.validate(token, start(), now=60.0) == EXPIRED
        assert issuer.validate(token, start(), now=1e9) == EXPIRED

    def test_expiry_is_judged_by_the_validating_clock(self):
        """Each issuer judges expiry on its own clock, so a token
        minted under a fast clock is simply expired there while a
        lagging issuer still honours the timestamp — validity can only
        shrink as any clock advances."""
        fast, slow = Clock(), Clock()
        minting = make_issuer(ttl=60.0, clock=fast)
        validating = make_issuer(ttl=60.0, clock=slow)
        token = minting.mint(start())
        fast.advance(120.0)
        assert minting.validate(token, start()) == EXPIRED
        assert validating.validate(token, start()) == VALID
        slow.advance(59.0)
        assert validating.validate(token, start()) == VALID
        slow.advance(1.0)
        assert validating.validate(token, start()) == EXPIRED


class TestRejectionVectors:
    def test_tampered_field_breaks_the_signature(self):
        issuer = make_issuer()
        token = issuer.mint(start())
        widened = dataclasses.replace(token, actions=("start", "cancel"))
        assert issuer.validate(widened, start()) == BAD_SIGNATURE

    def test_tampered_expiry_breaks_the_signature(self):
        issuer = make_issuer()
        token = issuer.mint(start())
        extended = dataclasses.replace(token, expires_at=1e12)
        assert issuer.validate(extended, start()) == BAD_SIGNATURE

    def test_forged_signature_rejected(self):
        issuer = make_issuer()
        token = issuer.mint(start())
        forged = dataclasses.replace(token, signature="ab" * 32)
        assert issuer.validate(forged, start()) == BAD_SIGNATURE

    def test_unsigned_token_rejected(self):
        issuer = make_issuer()
        token = dataclasses.replace(issuer.mint(start()), signature="")
        assert issuer.validate(token, start()) == BAD_SIGNATURE

    def test_wrong_key_rejected(self):
        token = make_issuer().mint(start())
        other = CapabilityIssuer(key=b"\x00" * 32, clock=Clock())
        assert other.validate(token, start()) == BAD_SIGNATURE

    def test_scope_widening_rejected_without_tampering(self):
        """A perfectly valid token presented for a request outside its
        scope: different action, subject, owner or job description."""
        issuer = make_issuer()
        token = issuer.mint(start())
        assert issuer.validate(token, manage(BO, "cancel", BO)) == SCOPE
        assert issuer.validate(token, start(who=KATE)) == SCOPE
        assert (
            issuer.validate(token, start(rsl="&(executable=test1)(count=3)(jobtag=ADS)"))
            == SCOPE
        )

    def test_epoch_bump_revokes(self):
        counter = EpochCounter()
        issuer = make_issuer(epoch_sources=[("policy", counter)])
        token = issuer.mint(start())
        assert issuer.validate(token, start()) == VALID
        counter.bump()
        assert issuer.validate(token, start()) == EPOCH

    def test_check_order_signature_first(self):
        """An expired, out-of-scope, tampered token reports the
        signature failure — nothing about an unauthenticated artifact
        is trusted enough to report on."""
        clock = Clock()
        counter = EpochCounter()
        issuer = make_issuer(ttl=10.0, clock=clock, epoch_sources=[("p", counter)])
        token = issuer.mint(start())
        clock.advance(100.0)
        counter.bump()
        tampered = dataclasses.replace(token, actions=("cancel",))
        assert issuer.validate(tampered, manage(KATE, "cancel", KATE)) == BAD_SIGNATURE
        # With a good signature, expiry outranks epoch and scope.
        assert issuer.validate(token, manage(KATE, "cancel", KATE)) == EXPIRED


class TestSerialization:
    def test_round_trip_preserves_signature_validity(self):
        issuer = make_issuer(epoch_sources=[("policy", EpochCounter())])
        token = issuer.mint(start())
        restored = CapabilityToken.from_json(token.to_json())
        assert restored == token
        assert restored.verify_signature(KEY)
        assert issuer.validate(restored, start()) == VALID

    def test_json_is_plain_data(self):
        token = make_issuer().mint(start())
        data = json.loads(token.to_json())
        assert data["subject"] == BO
        assert data["actions"] == ["start"]
        assert data["signature"] == token.signature

    def test_mutated_json_fails_verification(self):
        token = make_issuer().mint(start())
        data = token.to_dict()
        data["jobowner"] = KATE
        assert not CapabilityToken.from_dict(data).verify_signature(KEY)


class TestCapabilityStore:
    def test_lru_eviction(self):
        store = ReplayStore(maxsize=2)
        issuer = make_issuer()
        requests = [
            start(rsl=f"&(executable=test1)(count={n})") for n in (1, 2, 3)
        ]
        for request in requests:
            token = issuer.mint(request)
            store.put(
                request_key(request),
                ReplayEntry(Decision.permit(), (), token.epochs, token),
            )
        assert len(store) == 2
        assert store.evictions == 1
        assert store.get(request_key(requests[0])) is None
        assert store.get(request_key(requests[2])) is not None


def permit_callout(request, context=None):
    return Decision.permit(source="test")


def deny_callout(request, context=None):
    return Decision.deny(reasons=("no",), source="test")


def build_pep(callout=permit_callout, issuer=None):
    registry = CalloutRegistry()
    registry.register(GRAM_AUTHZ_CALLOUT, callout)
    middleware = CapabilityMiddleware(issuer or make_issuer())
    pep = EnforcementPoint(registry=registry, capability=middleware)
    return pep, middleware


class TestMiddlewareInThePEP:
    def test_first_decision_mints_second_hits(self):
        pep, middleware = build_pep()
        request = start()
        first = pep.authorize(request)
        assert first.context.cache_status != CAPABILITY_HIT
        assert first.context.capability is not None
        second = pep.authorize(request)
        assert second.context.cache_status == CAPABILITY_HIT
        assert second.context.capability.token_id == first.context.capability.token_id
        assert middleware.hits == 1
        assert middleware.issuer.minted == 1
        assert "capability" in second.context.stage_names

    def test_denials_are_never_tokenized(self):
        pep, middleware = build_pep(callout=deny_callout)
        request = start()
        for _ in range(3):
            assert not pep.decide(request).is_permit
        assert middleware.issuer.minted == 0
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
        issuer = make_issuer(epoch_sources=[("policy", counter)])
        pep, middleware = build_pep(issuer=issuer)
        request = start()
        first = pep.authorize(request)
        counter.bump()
        again = pep.authorize(request)
        assert again.context.cache_status != CAPABILITY_HIT
        assert middleware.revoked == 1
        assert middleware.miss_reasons[EPOCH] == 1
        # The replacement token binds the new epoch.
        assert again.context.capability.epochs != first.context.capability.epochs
        assert pep.authorize(request).context.cache_status == CAPABILITY_HIT

    def test_expiry_discards_and_remints(self):
        clock = Clock()
        issuer = make_issuer(ttl=30.0, clock=clock)
        pep, middleware = build_pep(issuer=issuer)
        request = start()
        pep.authorize(request)
        clock.advance(30.0)
        refreshed = pep.authorize(request)
        assert refreshed.context.cache_status != CAPABILITY_HIT
        assert middleware.miss_reasons[EXPIRED] == 1
        assert refreshed.context.capability.expires_at == 60.0

    def test_capability_sits_in_front_of_the_cache(self):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_callout)
        pep = EnforcementPoint(
            registry=registry,
            capability=CapabilityMiddleware(make_issuer()),
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
        pep = EnforcementPoint(
            registry=registry, capability=CapabilityMiddleware(make_issuer())
        )
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
        assert data["capability"] == decision.context.capability.token_id
        plain = DecisionContext.from_request(request)
        assert plain.to_dict()["capability"] == ""


class TestCLIInspect:
    def token_file(self, tmp_path, token):
        path = tmp_path / "token.json"
        path.write_text(token.to_json(), encoding="utf-8")
        return str(path)

    def test_inspect_valid_token(self, tmp_path, capsys):
        from repro.cli import main

        token = make_issuer(ttl=60.0).mint(start())
        path = self.token_file(tmp_path, token)
        code = main(
            ["capability", "inspect", path, "--key", KEY.hex(), "--now", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "signature: valid" in out
        assert "live" in out
        assert token.token_id in out

    def test_inspect_host_derived_key(self, tmp_path, capsys):
        from repro.cli import main

        token = make_issuer().mint(start())
        path = self.token_file(tmp_path, token)
        assert main(
            ["capability", "inspect", path, "--host", "grid.example.org"]
        ) == 0
        assert "signature: valid" in capsys.readouterr().out

    def test_inspect_flags_expired_and_forged(self, tmp_path, capsys):
        from repro.cli import main

        token = make_issuer(ttl=60.0).mint(start())
        path = self.token_file(tmp_path, token)
        assert main(["capability", "inspect", path, "--now", "60"]) == 1
        assert "EXPIRED" in capsys.readouterr().out
        assert main(
            ["capability", "inspect", path, "--key", "00" * 32, "--now", "10"]
        ) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_inspect_rejects_non_token_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        assert main(["capability", "inspect", str(path)]) == 2
