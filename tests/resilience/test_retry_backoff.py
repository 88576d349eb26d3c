"""Retry policy and the resilient-callout retry/timeout loop.

Everything is deterministic: backoff jitter comes from a seeded RNG
and "time" is the simulated clock, so the exact delays and the exact
number of attempts are assertable.
"""

import pytest

from repro.core.decision import Decision
from repro.core.errors import AuthorizationSystemFailure
from repro.core.pipeline import DecisionContext, activate
from repro.core.request import AuthorizationRequest
from repro.core.resilience import (
    CalloutTimeout,
    ResilientCallout,
    RetryPolicy,
)
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

from tests.conftest import BO

REQUEST = AuthorizationRequest.start(
    BO, parse_specification("&(executable=test1)(count=1)")
)


class TestRetryPolicy:
    def test_delay_count_is_attempts_minus_one(self):
        policy = RetryPolicy(max_attempts=4)
        assert len(list(policy.delays())) == 3

    def test_delays_are_deterministic(self):
        policy = RetryPolicy(max_attempts=5, seed=42)
        assert list(policy.delays()) == list(policy.delays())

    def test_delays_grow_exponentially_within_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, jitter=0.1,
            max_delay=100.0,
        )
        for index, delay in enumerate(policy.delays()):
            nominal = 1.0 * 2.0**index
            assert nominal * 0.9 <= delay <= nominal * 1.1

    def test_delays_are_capped_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=10.0, max_delay=5.0,
            jitter=0.1,
        )
        assert all(d <= 5.0 * 1.1 for d in policy.delays())

    def test_different_seeds_desynchronise(self):
        a = RetryPolicy(max_attempts=5, seed=1)
        b = RetryPolicy(max_attempts=5, seed=2)
        assert list(a.delays()) != list(b.delays())

    def test_zero_jitter_gives_exact_exponential(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.5, multiplier=2.0, jitter=0.0,
            max_delay=100.0,
        )
        assert list(policy.delays()) == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class _Flaky:
    """Fails the first *failures* calls, then permits."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("transient outage")
        return Decision.permit(reason="recovered", source="flaky")


class TestResilientCalloutRetry:
    def test_transient_failure_is_retried_to_success(self):
        clock = Clock()
        flaky = _Flaky(failures=2)
        wrapped = ResilientCallout(
            flaky, name="flaky", clock=clock,
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
        )
        decision = wrapped(REQUEST)
        assert decision.is_permit
        assert flaky.calls == 3
        registry = wrapped.registry
        assert registry.value("resilience_retries_total", source="flaky") == 2
        assert registry.value(
            "resilience_failures_total", source="flaky", failure_kind="error"
        ) == 2
        # Backoff advanced the simulated clock: 1.0 + 2.0.
        assert clock.now == pytest.approx(3.0)

    def test_exhausted_retries_raise_with_source(self):
        flaky = _Flaky(failures=10)
        wrapped = ResilientCallout(
            flaky, name="cas",
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        )
        with pytest.raises(AuthorizationSystemFailure) as excinfo:
            wrapped(REQUEST)
        assert excinfo.value.source == "cas"
        assert flaky.calls == 3

    def test_no_retry_policy_means_single_attempt(self):
        flaky = _Flaky(failures=1)
        wrapped = ResilientCallout(flaky, name="once")
        with pytest.raises(AuthorizationSystemFailure):
            wrapped(REQUEST)
        assert flaky.calls == 1

    def test_attempts_and_backoffs_land_on_the_decision_context(self):
        clock = Clock()
        flaky = _Flaky(failures=1)
        wrapped = ResilientCallout(
            flaky, name="flaky", clock=clock,
            retry=RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0),
        )
        context = DecisionContext.from_request(REQUEST)
        with activate(context):
            wrapped(REQUEST)
        stages = [record.name for record in context.stages]
        assert "attempt:flaky#1" in stages
        assert "retry:flaky" in stages


class _Slow:
    """Advances the simulated clock before answering."""

    def __init__(self, clock, latency):
        self.clock = clock
        self.latency = latency

    def __call__(self, request):
        self.clock.advance(self.latency)
        return Decision.permit(reason="eventually", source="slow")


class TestSimulatedTimeouts:
    def test_call_exceeding_budget_becomes_timeout(self):
        clock = Clock()
        wrapped = ResilientCallout(
            _Slow(clock, latency=5.0), name="akenti", clock=clock, timeout=1.0,
        )
        with pytest.raises(CalloutTimeout) as excinfo:
            wrapped(REQUEST)
        assert excinfo.value.source == "akenti"
        assert excinfo.value.kind == "timeout"
        assert wrapped.registry.value(
            "resilience_timeouts_total", source="akenti"
        ) == 1

    def test_call_within_budget_passes(self):
        clock = Clock()
        wrapped = ResilientCallout(
            _Slow(clock, latency=0.5), name="akenti", clock=clock, timeout=1.0
        )
        assert wrapped(REQUEST).is_permit

    def test_timeouts_are_retried_like_any_failure(self):
        clock = Clock()
        wrapped = ResilientCallout(
            _Slow(clock, latency=5.0), name="slow", clock=clock, timeout=1.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        )
        with pytest.raises(CalloutTimeout):
            wrapped(REQUEST)
        registry = wrapped.registry
        assert registry.value("resilience_timeouts_total", source="slow") == 3
        assert registry.value("resilience_retries_total", source="slow") == 2
