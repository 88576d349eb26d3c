"""B-RES — cost and payoff of the resilience layer.

(Extension bench: the paper assumes remote policy sources — CAS,
Akenti — answer; this quantifies what the callout path does when they
don't.)  Two claims:

* **Breaker fast-fail.**  Against a source that times out on every
  call, an open circuit breaker answers in zero simulated seconds and
  a fraction of the wall-clock cost of riding out the timeout — at
  least 10x cheaper in simulated time over a burst of requests.
* **Fail-static degradation bound.**  With a 100%-timeout source,
  fail-static mode keeps serving last-known-good decisions at no
  worse than 2x the healthy-path per-decision cost, and every
  degraded decision says so in provenance and metrics (the
  acceptance criterion: degradation is bounded *and* visible).
"""

import time

from repro.core.builtin_callouts import combined_policy_callout
from repro.core.callout import GRAM_AUTHZ_CALLOUT, CalloutRegistry
from repro.core.errors import AuthorizationSystemFailure
from repro.core.parser import parse_policy
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import EpochView
from repro.core.request import AuthorizationRequest
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock
from repro.testing import LatencyFault, inject
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

from benchmarks.conftest import BO, SITE_POLICY_TEXT, emit

JOB = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(runtime=5)"

#: Simulated seconds a faulted source takes; above the 2.0s budget.
SOURCE_LATENCY = 5.0
TIMEOUT = 2.0
BURST = 100
REPEATS = 200


def build(mode, failure_threshold):
    """A PEP over the paper's VO ∧ local callout, hardened."""
    clock = Clock()
    registry = CalloutRegistry()
    callout = combined_policy_callout(
        [
            parse_policy(FIGURE3_POLICY_TEXT, name="vo"),
            parse_policy(SITE_POLICY_TEXT, name="local"),
        ]
    )
    registry.register(GRAM_AUTHZ_CALLOUT, callout, label="vo+local")
    fault = LatencyFault(clock, latency=SOURCE_LATENCY)
    fault.enabled = False
    inject(registry, GRAM_AUTHZ_CALLOUT, fault)
    config = ResilienceConfig(
        clock=clock,
        timeout=TIMEOUT,
        failure_threshold=failure_threshold,
        reset_timeout=10**9,  # keep an open breaker open for the bench
        mode=mode,
    )
    registry.wrap(
        GRAM_AUTHZ_CALLOUT,
        lambda label, wrapped: config.wrap(
            wrapped, name=label, epoch_source=callout.evaluator
        ),
    )
    pep = EnforcementPoint(
        registry=registry,
        resilience=config.middleware(EpochView([("policy", callout.evaluator)])),
    )
    return pep, clock, fault, config


def counted(config, series):
    """One ``resilience_*`` count of the hardened ``vo+local`` source."""
    return config.registry.value(series, source="vo+local")


def start_request():
    return AuthorizationRequest.start(BO, parse_specification(JOB))


def burst_of_failures(pep, request, calls):
    for _ in range(calls):
        try:
            pep.authorize(request)
        except AuthorizationSystemFailure:
            pass


class TestBreakerFastFail:
    def test_breaker_saves_at_least_10x_simulated_time(self):
        """Deterministic claim: simulated seconds spent per burst."""
        request = start_request()
        spent = {}
        for label, threshold in (("timeout-per-call", 10**9), ("breaker", 5)):
            pep, clock, fault, config = build(
                DegradationMode.FAIL_CLOSED, failure_threshold=threshold
            )
            fault.enabled = True
            started = clock.now
            burst_of_failures(pep, request, BURST)
            spent[label] = clock.now - started
        ratio = spent["timeout-per-call"] / spent["breaker"]
        emit(
            "B-RES — simulated time burned by a 100%-timeout source "
            f"({BURST} requests)",
            [
                f"timeout-per-call: {spent['timeout-per-call']:8.1f} sim-s",
                f"open breaker:     {spent['breaker']:8.1f} sim-s",
                f"saving: {ratio:.1f}x",
            ],
        )
        # Only the first `failure_threshold` calls ride out the
        # timeout; the other 95 fast-fail without touching the source.
        assert spent["breaker"] == SOURCE_LATENCY * 5
        assert ratio >= 10.0, f"breaker saving only {ratio:.1f}x"

    def test_bench_timeout_per_call(self, benchmark):
        pep, clock, fault, config = build(
            DegradationMode.FAIL_CLOSED, failure_threshold=10**9
        )
        fault.enabled = True
        request = start_request()
        benchmark(burst_of_failures, pep, request, 10)

    def test_bench_breaker_fast_fail(self, benchmark):
        pep, clock, fault, config = build(
            DegradationMode.FAIL_CLOSED, failure_threshold=5
        )
        fault.enabled = True
        request = start_request()
        burst_of_failures(pep, request, 5)  # open the breaker
        assert counted(config, "resilience_fast_fails_total") == 0
        benchmark(burst_of_failures, pep, request, 10)
        assert counted(config, "resilience_fast_fails_total") > 0


class TestFailStaticDegradationBound:
    """The acceptance bar: degraded throughput within 2x of healthy."""

    def serve_repeatedly(self, pep, request):
        for _ in range(REPEATS):
            decision = pep.authorize(request)
        return decision

    def test_fail_static_is_within_2x_of_baseline_and_visible(self):
        pep, clock, fault, config = build(
            DegradationMode.FAIL_STATIC, failure_threshold=10**9
        )
        request = start_request()
        # Warm both paths: healthy evaluations populate the
        # last-known-good store, one degraded pass warms that path.
        self.serve_repeatedly(pep, request)
        fault.enabled = True
        self.serve_repeatedly(pep, request)
        fault.enabled = False

        best = {}
        for label in ("baseline", "degraded"):
            fault.enabled = label == "degraded"
            timings = []
            for _ in range(5):
                started = time.perf_counter()
                decision = self.serve_repeatedly(pep, request)
                timings.append(time.perf_counter() - started)
            best[label] = min(timings) / REPEATS
            if label == "degraded":
                assert decision.context.degraded == "fail-static"
        slowdown = best["degraded"] / best["baseline"]
        emit(
            "B-RES — fail-static throughput under a 100%-timeout source",
            [
                f"healthy  per decision: {best['baseline'] * 1e6:9.2f} us",
                f"degraded per decision: {best['degraded'] * 1e6:9.2f} us",
                f"slowdown: {slowdown:.2f}x (bound: 2x)",
            ],
        )
        # Degradation is visible, not silent.
        assert counted(config, "resilience_degraded_total") >= REPEATS
        assert counted(config, "resilience_timeouts_total") >= REPEATS
        assert (
            sum(1 for record in pep.audit_log if record.degraded)
            >= REPEATS
        )
        assert slowdown <= 2.0, f"fail-static degraded {slowdown:.2f}x"

    def test_bench_fail_static_serving(self, benchmark):
        pep, clock, fault, config = build(
            DegradationMode.FAIL_STATIC, failure_threshold=10**9
        )
        request = start_request()
        pep.authorize(request)  # populate last-known-good
        fault.enabled = True
        decision = benchmark(self.serve_repeatedly, pep, request)
        assert decision.is_permit
        assert decision.context.degraded == "fail-static"
