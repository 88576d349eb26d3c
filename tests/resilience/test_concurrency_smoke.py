"""Concurrency smoke test: one PEP hammered from many threads.

A policy source flapping while N threads authorize through the same
EnforcementPoint must produce no deadlock, a consistent breaker
transition log, correctly-summing counters and a bounded audit log.
Faults here are exception-based only — the simulated clock is
single-threaded by design, so latency faults stay out of this test.

Calls that share one resilient wrapper must each get their own
decision: a granted subject is never denied and an ungranted one never
permitted because another call finished in between.

A policy that flips under readers must never be outlived: once a
``replace_policy`` has returned, no decision cache entry or capability
grant made under the old policy answers again.
"""

import sys
import threading
import time

import pytest

from repro.core.builtin_callouts import permit_all
from repro.core.callout import GRAM_AUTHZ_CALLOUT, default_registry
from repro.core.decision import Decision
from repro.core.errors import AuthorizationSystemFailure
from repro.core.parser import parse_policy
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import EpochView
from repro.core.request import AuthorizationRequest
from repro.core.resilience import (
    CircuitBreaker,
    DegradationMode,
    ResilienceConfig,
    ResilientCallout,
)
from repro.gram.service import GramService, ServiceConfig
from repro.rsl.parser import parse_specification
from repro.testing import ExceptionFault, FlapFault, inject

from tests.conftest import BO, KATE

THREADS = 8
CALLS_PER_THREAD = 60
AUDIT_LIMIT = 100


class _EpochStub:
    def __init__(self):
        self.policy_epoch = 0


def build():
    registry = default_registry()
    registry.register(GRAM_AUTHZ_CALLOUT, permit_all, label="flappy")
    fault = FlapFault(ExceptionFault(), period=5, failures=2)
    inject(registry, GRAM_AUTHZ_CALLOUT, fault)
    epochs = _EpochStub()
    config = ResilienceConfig(
        failure_threshold=3, mode=DegradationMode.FAIL_CLOSED
    )
    registry.wrap(
        GRAM_AUTHZ_CALLOUT,
        lambda label, callout: config.wrap(
            callout, name=label, epoch_source=epochs
        ),
    )
    pep = EnforcementPoint(
        registry=registry,
        resilience=config.middleware(EpochView([("stub", epochs)])),
        audit_limit=AUDIT_LIMIT,
    )
    return pep, config, fault, epochs


def fast_fails(config):
    return config.registry.value("resilience_fast_fails_total", source="flappy")


class TestConcurrencySmoke:
    def test_no_deadlock_consistent_breakers_bounded_audit(self):
        pep, config, fault, epochs = build()
        outcomes = [0] * THREADS
        errors = []

        def worker(slot):
            request = AuthorizationRequest.start(
                BO, parse_specification(f"&(executable=sim{slot})(count=1)")
            )
            for call in range(CALLS_PER_THREAD):
                try:
                    pep.decide(request)
                except AuthorizationSystemFailure:
                    pass
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)
                    return
                outcomes[slot] += 1
                if call % 20 == 19:
                    # A concurrent policy update: re-arms any open
                    # breaker without needing the (single-threaded)
                    # simulated clock.
                    epochs.policy_epoch += 1

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors
        total = sum(outcomes)
        assert total == THREADS * CALLS_PER_THREAD

        # Breaker transition logs all form unbroken chains.
        for breaker in config.breakers.values():
            assert breaker.is_consistent(), breaker.transitions

        # The audit log stayed bounded despite hundreds of decisions.
        assert len(pep.audit_log) <= AUDIT_LIMIT

        # The fault saw every underlying (non-fast-failed) invocation.
        assert fault.calls <= total
        assert fault.calls == total - fast_fails(config)

    def test_metrics_counters_are_race_free(self):
        pep, config, fault, _ = build()
        request = AuthorizationRequest.start(
            BO, parse_specification("&(executable=sim)(count=1)")
        )

        def worker():
            for _ in range(40):
                try:
                    pep.decide(request)
                except AuthorizationSystemFailure:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

        registry = config.registry
        # Failures observed by the wrapper equal the fault activations
        # (every activation raised; none were lost to races).
        assert registry.value(
            "resilience_failures_total", source="flappy", failure_kind="error"
        ) == fault.activations
        # Every call either reached the source or was shed and counted.
        assert fast_fails(config) == 6 * 40 - fault.calls


# -- decision isolation ---------------------------------------------------

SPEC = parse_specification("&(executable=sim)(count=1)")
GRANTED = AuthorizationRequest.start(BO, SPEC)
UNGRANTED = AuthorizationRequest.start(KATE, SPEC)
VO_POLICY = f"""
{BO}:
    &(action=start)(executable=sim)
"""
HAMMER_THREADS = 4
HAMMER_CALLS = 5000


def by_subject(request):
    """Permits BO, denies everyone else."""
    if str(request.requester) == BO:
        return Decision.permit(reason="granted", source="vo")
    return Decision.deny(reasons=("no grant",), source="vo")


class _Interleaving(CircuitBreaker):
    """Before recording a call's success, sends one more request
    through the same wrapper, as a second thread scheduled at that
    moment would."""

    def __init__(self, interloper):
        super().__init__("vo")
        self.interloper = interloper
        self.wrapper = None
        self.answers = []

    def record_success(self):
        request, self.interloper = self.interloper, None
        if request is not None:
            self.answers.append(self.wrapper(request))
        super().record_success()


class TestDecisionIsolation:
    @pytest.mark.parametrize(
        "first, second", [(GRANTED, UNGRANTED), (UNGRANTED, GRANTED)]
    )
    def test_interleaved_call_does_not_replace_the_first_decision(
        self, first, second
    ):
        breaker = _Interleaving(second)
        wrapper = ResilientCallout(by_subject, name="vo", breaker=breaker)
        breaker.wrapper = wrapper
        assert wrapper(first).is_permit is (first is GRANTED)
        (answer,) = breaker.answers
        assert answer.is_permit is (second is GRANTED)

    def test_hardened_service_pep_gives_no_wrong_answer_under_contention(self):
        service = GramService(
            ServiceConfig(policies=(parse_policy(VO_POLICY, name="vo"),))
        )
        service.harden()
        wrong = [0] * HAMMER_THREADS
        answered = [0] * HAMMER_THREADS
        errors = []

        def worker(slot):
            granted = slot % 2 == 0
            request = GRANTED if granted else UNGRANTED
            try:
                for _ in range(HAMMER_CALLS):
                    if service.pep.decide(request).is_permit is not granted:
                        wrong[slot] += 1
                    answered[slot] += 1
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(HAMMER_THREADS)
        ]
        interval = sys.getswitchinterval()
        # Switch threads as often as the interpreter allows, so calls
        # interleave inside the wrapper.
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors
        assert answered == [HAMMER_CALLS] * HAMMER_THREADS
        assert wrong == [0] * HAMMER_THREADS


# -- policy flips under the repeat paths ------------------------------------

#: The two versions the writer flips between: the first grants BO's
#: request, the second grants BO something else.
FLIP_POLICIES = (
    parse_policy(VO_POLICY, name="vo"),
    parse_policy(
        f"""
{BO}:
    &(action=start)(executable=other)
""",
        name="vo",
    ),
)
FLIP_READERS = 8
#: The writer flips at least this often, and until the readers have
#: decided at least FLIP_DECISIONS requests (or FLIP_SECONDS passed).
MIN_FLIPS = 100
FLIP_DECISIONS = 20_000
FLIP_SECONDS = 30.0


class TestPolicyFlipHammer:
    def test_no_decision_outlives_a_completed_flip(self):
        """Readers decide one request while a writer flips its policy.

        The writer brackets every flip with a version counter that is
        odd while the flip is in progress (a seqlock).  A decision that
        read the same even version before and after ran wholly under
        one policy, so it must equal a fresh evaluation under it; with
        the decision cache and capability grants on, a hit that
        survived a completed flip would not.
        """
        service = GramService(
            ServiceConfig(
                policies=(FLIP_POLICIES[0],),
                decision_cache=True,
                capability_grants=True,
            )
        )
        evaluator = service.combined_evaluator.evaluators[0]
        expected = []
        for policy in FLIP_POLICIES:
            evaluator.replace_policy(policy)
            expected.append(service.combined_evaluator.evaluate(GRANTED).effect)
        assert expected[0] is not expected[1]
        evaluator.replace_policy(FLIP_POLICIES[0])

        version = [0]
        done = threading.Event()
        decided = [0] * FLIP_READERS
        checked = [[0, 0] for _ in range(FLIP_READERS)]
        mismatches = [0] * FLIP_READERS
        errors = []

        def writer():
            deadline = time.monotonic() + FLIP_SECONDS
            flip = 0
            try:
                while flip < MIN_FLIPS or (
                    sum(decided) < FLIP_DECISIONS and time.monotonic() < deadline
                ):
                    flip += 1
                    version[0] += 1
                    evaluator.replace_policy(FLIP_POLICIES[flip % 2])
                    version[0] += 1
                    time.sleep(0.0005)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader(slot):
            try:
                while not done.is_set():
                    before = version[0]
                    effect = service.pep.decide(GRANTED).effect
                    decided[slot] += 1
                    if before % 2 or version[0] != before:
                        continue
                    in_force = (before // 2) % 2
                    checked[slot][in_force] += 1
                    if effect is not expected[in_force]:
                        mismatches[slot] += 1
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(FLIP_READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors
        assert mismatches == [0] * FLIP_READERS
        # Both versions were decided, and mostly from the repeat paths.
        assert all(sum(slot[version] for slot in checked) for version in (0, 1))
        assert service.capability.hits + service.pep.cache.hits > 0
