"""Degradation modes: fail-closed vs fail-static, through a real PEP."""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT, default_registry
from repro.core.decision import Decision
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import EpochView
from repro.core.request import AuthorizationRequest
from repro.core.resilience import (
    DegradationMode,
    ResilienceConfig,
    ResilienceMiddleware,
)
from repro.rsl.parser import parse_specification

from tests.conftest import BO, KATE


class _EpochStub:
    def __init__(self):
        self.policy_epoch = 0


class _Toggleable:
    """Permits BO / denies others while healthy; raises when down."""

    def __init__(self):
        self.down = False

    def __call__(self, request):
        if self.down:
            raise ConnectionError("policy source unreachable")
        if str(request.requester) == BO:
            return Decision.permit(reason="known user", source="toggle")
        return Decision.deny(reasons=("unknown user",), source="toggle")


def request_for(who, executable="test1"):
    return AuthorizationRequest.start(
        who, parse_specification(f"&(executable={executable})(count=1)")
    )


def build(mode, epoch_source=None):
    registry = default_registry()
    source = _Toggleable()
    registry.register(GRAM_AUTHZ_CALLOUT, source, label="toggle")
    config = ResilienceConfig(mode=mode)
    middleware = config.middleware(
        EpochView([("stub", epoch_source)] if epoch_source is not None else [])
    )
    pep = EnforcementPoint(registry=registry, resilience=middleware)
    return pep, source, config, middleware


class TestFailClosed:
    def test_failure_propagates_with_source(self):
        pep, source, config, _ = build(DegradationMode.FAIL_CLOSED)
        source.down = True
        with pytest.raises(AuthorizationSystemFailure) as excinfo:
            pep.authorize(request_for(BO))
        assert excinfo.value.source == "toggle"
        assert config.metrics.failed_closed == 1

    def test_failure_even_with_a_fresh_last_known_good(self):
        pep, source, config, _ = build(DegradationMode.FAIL_CLOSED)
        assert pep.authorize(request_for(BO)).is_permit
        source.down = True
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_for(BO))
        assert config.metrics.degraded_static == 0


class TestFailStatic:
    def test_serves_last_known_good_and_flags_provenance(self):
        pep, source, config, _ = build(DegradationMode.FAIL_STATIC)
        healthy = pep.authorize(request_for(BO))
        assert healthy.context.degraded == ""
        source.down = True
        degraded = pep.authorize(request_for(BO))
        assert degraded.is_permit
        assert degraded.context.degraded == "fail-static"
        assert any(
            record.name == "resilience" and "last-known-good" in record.detail
            for record in degraded.context.stages
        )
        assert any(
            record.detail == "last-known-good"
            for record in degraded.context.sources
        )
        assert config.metrics.degraded_static == 1

    def test_denials_are_served_statically_too(self):
        pep, source, config, _ = build(DegradationMode.FAIL_STATIC)
        with pytest.raises(AuthorizationDenied):
            pep.authorize(request_for(KATE))
        source.down = True
        # Still a *denial*, not a system failure: the stale decision
        # keeps the deny/failure distinction intact.
        with pytest.raises(AuthorizationDenied):
            pep.authorize(request_for(KATE))
        assert config.metrics.degraded_static == 1

    def test_no_last_known_good_fails_closed(self):
        pep, source, config, _ = build(DegradationMode.FAIL_STATIC)
        source.down = True
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_for(BO))
        assert config.metrics.failed_closed == 1

    def test_different_request_does_not_reuse_anothers_decision(self):
        pep, source, _, _ = build(DegradationMode.FAIL_STATIC)
        pep.authorize(request_for(BO, executable="test1"))
        source.down = True
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_for(BO, executable="other"))

    def test_epoch_bump_invalidates_the_stale_decision(self):
        epochs = _EpochStub()
        pep, source, _, _ = build(DegradationMode.FAIL_STATIC, epoch_source=epochs)
        pep.authorize(request_for(BO))
        source.down = True
        assert pep.authorize(request_for(BO)).is_permit  # same epoch: served
        epochs.policy_epoch += 1
        # The policy changed; yesterday's PERMIT must never outlive it.
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_for(BO))

    def test_recovery_refreshes_the_store_under_the_new_epoch(self):
        epochs = _EpochStub()
        pep, source, _, _ = build(DegradationMode.FAIL_STATIC, epoch_source=epochs)
        pep.authorize(request_for(BO))
        epochs.policy_epoch += 1
        pep.authorize(request_for(BO))  # healthy call under the new epoch
        source.down = True
        assert pep.authorize(request_for(BO)).is_permit

    def test_store_is_bounded(self):
        middleware = ResilienceMiddleware(
            mode=DegradationMode.FAIL_STATIC, lkg_limit=2
        )
        registry = default_registry()
        source = _Toggleable()
        registry.register(GRAM_AUTHZ_CALLOUT, source, label="toggle")
        pep = EnforcementPoint(registry=registry, resilience=middleware)
        for executable in ("a", "b", "c", "d"):
            pep.authorize(request_for(BO, executable=executable))
        assert middleware.lkg_size == 2


class TestMiddlewarePlacement:
    def test_resilience_sits_between_extras_and_cache(self):
        from repro.core.pipeline import DecisionCache

        middleware = ResilienceMiddleware()
        pep = EnforcementPoint(resilience=middleware, cache=DecisionCache())
        stack = pep.middlewares
        assert stack.index(middleware) == len(stack) - 2
        assert stack[-1] is pep.cache

    def test_use_resilience_rebuilds_the_chain(self):
        pep, source, _, _ = build(DegradationMode.FAIL_CLOSED)
        source.down = True
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_for(BO))
        replacement = ResilienceMiddleware(mode=DegradationMode.FAIL_STATIC)
        pep.use_resilience(replacement)
        assert pep.resilience is replacement
