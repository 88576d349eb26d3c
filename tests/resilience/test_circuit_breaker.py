"""Circuit-breaker state machine: closed → open → half-open."""

import pytest

from repro.core.decision import Decision
from repro.core.errors import AuthorizationSystemFailure
from repro.core.request import AuthorizationRequest
from repro.core.resilience import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    ResilientCallout,
    RetryPolicy,
)
from repro.obs.registry import MetricsRegistry
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

from tests.conftest import BO

REQUEST = AuthorizationRequest.start(
    BO, parse_specification("&(executable=test1)(count=1)")
)


class _EpochStub:
    def __init__(self):
        self.policy_epoch = 0


def _fail_times(breaker, n):
    for _ in range(n):
        breaker.before_call()
        breaker.record_failure()


class TestStateMachine:
    def test_starts_closed(self):
        assert CircuitBreaker("s").state is BreakerState.CLOSED

    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker("s", failure_threshold=3)
        _fail_times(breaker, 2)
        assert breaker.state is BreakerState.CLOSED
        _fail_times(breaker, 1)
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("s", failure_threshold=3)
        _fail_times(breaker, 2)
        breaker.before_call()
        breaker.record_success()
        _fail_times(breaker, 2)
        assert breaker.state is BreakerState.CLOSED

    def test_open_breaker_fast_fails(self):
        breaker = CircuitBreaker("s", failure_threshold=1)
        _fail_times(breaker, 1)
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.before_call()
        assert excinfo.value.source == "s"
        assert excinfo.value.kind == "breaker-open"
        assert breaker.registry.value("resilience_fast_fails_total", source="s") == 1

    def test_reset_timeout_moves_to_half_open(self):
        clock = Clock()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=30.0
        )
        _fail_times(breaker, 1)
        clock.advance(29.0)
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_success_closes(self):
        clock = Clock()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=10.0
        )
        _fail_times(breaker, 1)
        clock.advance(10.0)
        breaker.before_call()  # the probe
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = Clock()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=10.0
        )
        _fail_times(breaker, 1)
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = Clock()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=10.0
        )
        _fail_times(breaker, 1)
        clock.advance(10.0)
        breaker.before_call()  # probe in flight
        with pytest.raises(BreakerOpen):
            breaker.before_call()  # concurrent caller sheds

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("s", failure_threshold=0)


class TestEpochAwareReset:
    def test_policy_epoch_bump_moves_to_half_open_immediately(self):
        clock = Clock()
        epochs = _EpochStub()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=1000.0,
            epoch_source=epochs,
        )
        _fail_times(breaker, 1)
        assert breaker.state is BreakerState.OPEN
        epochs.policy_epoch += 1
        # No time has passed; the new policy version alone re-arms it.
        assert breaker.state is BreakerState.HALF_OPEN

    def test_unchanged_epoch_keeps_breaker_open(self):
        clock = Clock()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=1000.0,
            epoch_source=_EpochStub(),
        )
        _fail_times(breaker, 1)
        assert breaker.state is BreakerState.OPEN


class TestTransitionLog:
    def test_transitions_form_an_unbroken_chain(self):
        clock = Clock()
        breaker = CircuitBreaker(
            "s", clock=clock, failure_threshold=1, reset_timeout=5.0
        )
        for _ in range(3):
            _fail_times(breaker, 1)  # -> OPEN
            clock.advance(5.0)
            breaker.before_call()  # -> HALF_OPEN probe
            breaker.record_success()  # -> CLOSED
        states = [t.to_state for t in breaker.transitions]
        assert states == [
            BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.CLOSED,
        ] * 3
        assert breaker.is_consistent()

    def test_transitions_carry_reasons_and_times(self):
        clock = Clock()
        breaker = CircuitBreaker("s", clock=clock, failure_threshold=2)
        clock.advance(7.0)
        _fail_times(breaker, 2)
        (transition,) = breaker.transitions
        assert transition.at == 7.0
        assert "2 consecutive" in transition.reason


class _AlwaysFails:
    def __init__(self):
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        raise ConnectionError("down")


class TestBreakerInsideResilientCallout:
    def test_threshold_failures_open_then_fast_fail(self):
        clock = Clock()
        source = _AlwaysFails()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            "cas", clock=clock, failure_threshold=3, reset_timeout=60.0,
            registry=registry,
        )
        wrapped = ResilientCallout(
            source, name="cas", clock=clock, breaker=breaker, registry=registry
        )
        for _ in range(3):
            with pytest.raises(AuthorizationSystemFailure):
                wrapped(REQUEST)
        assert source.calls == 3
        with pytest.raises(BreakerOpen):
            wrapped(REQUEST)
        assert source.calls == 3  # fast-fail: the source was not touched
        # Counted once, though breaker and wrapper share the registry.
        assert registry.value("resilience_fast_fails_total", source="cas") == 1
        assert [t.to_state for t in breaker.transitions] == [BreakerState.OPEN]

    def test_open_breaker_short_circuits_the_retry_loop(self):
        clock = Clock()
        source = _AlwaysFails()
        wrapped = ResilientCallout(
            source, name="cas", clock=clock,
            retry=RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0),
            breaker=CircuitBreaker("cas", clock=clock, failure_threshold=1),
        )
        with pytest.raises(BreakerOpen):
            wrapped(REQUEST)
        # Attempt 1 failed and opened the breaker; retrying against an
        # open breaker is load-shedding's whole point, so no 5 attempts.
        assert source.calls == 1

    def test_healthy_call_never_reads_the_transition_log(self, monkeypatch):
        clock = Clock()
        source = {"down": False}

        def flapping(request):
            if source["down"]:
                raise ConnectionError("down")
            return Decision.permit(reason="up", source="cas")

        breaker = CircuitBreaker(
            "cas", clock=clock, failure_threshold=1, reset_timeout=1.0
        )
        wrapped = ResilientCallout(flapping, name="cas", clock=clock, breaker=breaker)
        for _ in range(50):
            source["down"] = True
            with pytest.raises(AuthorizationSystemFailure):
                wrapped(REQUEST)
            clock.advance(1.0)
            source["down"] = False
            assert wrapped(REQUEST).is_permit
        # closed -> open, open -> half-open, half-open -> closed per flap.
        assert len(breaker.transitions) == 150

        reads = []
        log = CircuitBreaker.transitions

        def counted(self):
            reads.append(self.name)
            return log.fget(self)

        monkeypatch.setattr(CircuitBreaker, "transitions", property(counted))
        assert wrapped(REQUEST).is_permit
        assert reads == []

    def test_recovery_after_reset_timeout(self):
        clock = Clock()
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionError("down")
            return Decision.permit(reason="back", source="cas")

        breaker = CircuitBreaker(
            "cas", clock=clock, failure_threshold=2, reset_timeout=10.0
        )
        wrapped = ResilientCallout(flaky, name="cas", clock=clock, breaker=breaker)
        for _ in range(2):
            with pytest.raises(AuthorizationSystemFailure):
                wrapped(REQUEST)
        clock.advance(10.0)
        assert wrapped(REQUEST).is_permit  # the half-open probe
        assert breaker.state is BreakerState.CLOSED
        closes = [
            t for t in breaker.transitions if t.to_state is BreakerState.CLOSED
        ]
        assert len(closes) == 1
