"""B-OVH — authorization overhead of the callout path.

(Extension bench: the paper's prototype evaluation was qualitative;
this quantifies what it deployed.)  Compares per-request latency of

* stock GT2 (LEGACY: no callout at all),
* extended GRAM with the PEP in the Job Manager (the paper's design),
* extended GRAM with an *additional* Gatekeeper PEP (§6.2 placement
  ablation: the decision happens earlier but the trusted component
  grows).

Shape expectation: EXTENDED costs more than LEGACY (one policy
evaluation per action); the double-PEP variant costs the most.  The
absolute numbers are simulator-scale, the ordering is the result.
"""


from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.jobmanager import AuthorizationMode
from repro.gram.service import GramService, ServiceConfig
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

from benchmarks.conftest import BO, SITE_POLICY_TEXT, emit

#: Bo's conforming job, with a self-cancel grant added so the bench
#: can drain jobs and keep scheduler state bounded.
VO_TEXT = FIGURE3_POLICY_TEXT + f"""
{BO}:
    &(action=cancel)(jobowner=self)
    &(action=information)(jobowner=self)
"""

JOB = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(runtime=5)"


def build(mode, pep_in_gatekeeper=False):
    policies = ()
    if mode is AuthorizationMode.EXTENDED:
        policies = (
            parse_policy(VO_TEXT, name="vo"),
            parse_policy(SITE_POLICY_TEXT, name="local"),
        )
    service = GramService(
        ServiceConfig(
            mode=mode,
            policies=policies,
            pep_in_gatekeeper=pep_in_gatekeeper,
            enforcement=None,
        )
    )
    client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
    return service, client


def submit_and_drain(service, client):
    """One submit+cancel round-trip with bounded scheduler state."""
    response = client.submit(JOB)
    assert response.ok, response
    client.cancel(response.contact)
    return response


class TestCalloutOverheadBench:
    def test_bench_legacy_round_trip(self, benchmark):
        service, client = build(AuthorizationMode.LEGACY)
        benchmark(submit_and_drain, service, client)

    def test_bench_extended_round_trip(self, benchmark):
        service, client = build(AuthorizationMode.EXTENDED)
        benchmark(submit_and_drain, service, client)

    def test_bench_extended_double_pep_round_trip(self, benchmark):
        service, client = build(AuthorizationMode.EXTENDED, pep_in_gatekeeper=True)
        benchmark(submit_and_drain, service, client)

    def test_bench_management_authorization_only(self, benchmark):
        """Per-management-request callout cost (information query)."""
        service, client = build(AuthorizationMode.EXTENDED)
        submitted = client.submit(JOB)

        def status():
            return client.status(submitted.contact)

        response = benchmark(status)
        assert response.ok


class TestDecisionCacheBench:
    """B-OVH extension: the policy-epoch decision cache on repeats.

    The paper's job-monitoring pattern — a client polling the same
    job's status over and over — asks the PEP the exact same question
    each time.  With the decision cache keyed on (subject, action,
    jobtag, jobowner, job description, policy epochs), every repeat
    after the first skips policy evaluation entirely.
    """

    REPEATS = 200

    @staticmethod
    def build_pep(cached):
        from repro.core.builtin_callouts import combined_policy_callout
        from repro.core.callout import GRAM_AUTHZ_CALLOUT, CalloutRegistry
        from repro.core.pep import EnforcementPoint
        from repro.core.pipeline import DecisionCache, EpochView

        callout = combined_policy_callout(
            [
                parse_policy(VO_TEXT, name="vo"),
                parse_policy(SITE_POLICY_TEXT, name="local"),
            ]
        )
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, callout)
        cache = (
            DecisionCache(EpochView([("policy", callout.evaluator)]))
            if cached
            else None
        )
        return EnforcementPoint(registry=registry, cache=cache)

    @staticmethod
    def poll_request():
        from repro.core.request import AuthorizationRequest
        from repro.rsl.parser import parse_specification

        return AuthorizationRequest.manage(
            BO,
            "information",
            parse_specification(JOB),
            jobowner=BO,
            job_id="job-1",
        )

    def repeated_polls(self, pep, request):
        for _ in range(self.REPEATS):
            decision = pep.authorize(request)
        return decision

    def test_bench_uncached_repeated_decisions(self, benchmark):
        pep = self.build_pep(cached=False)
        request = self.poll_request()
        decision = benchmark(self.repeated_polls, pep, request)
        assert decision.is_permit

    def test_bench_cached_repeated_decisions(self, benchmark):
        pep = self.build_pep(cached=True)
        request = self.poll_request()
        pep.authorize(request)  # warm: the one real evaluation
        decision = benchmark(self.repeated_polls, pep, request)
        assert decision.is_permit
        assert decision.context.cache_status == "hit"

    def test_cached_repeats_are_faster(self):
        """Cached repeat decisions must clearly beat re-evaluation.

        The floor was 5x against the interpreted evaluator; the
        compiled policy engine (docs/performance.md) cut uncached
        evaluation by an order of magnitude, so the cache's *relative*
        win shrank while absolute latency improved across the board.
        2x over the compiled engine is the new bar.
        """
        import time

        request = self.poll_request()
        uncached = self.build_pep(cached=False)
        cached = self.build_pep(cached=True)
        # Warm both paths (imports, cache population, bytecode).
        self.repeated_polls(uncached, request)
        self.repeated_polls(cached, request)

        best = {}
        for label, pep in (("uncached", uncached), ("cached", cached)):
            timings = []
            for _ in range(5):
                started = time.perf_counter()
                self.repeated_polls(pep, request)
                timings.append(time.perf_counter() - started)
            best[label] = min(timings) / self.REPEATS
        speedup = best["uncached"] / best["cached"]
        emit(
            "B-OVH — decision cache on repeated identical requests",
            [
                f"uncached per decision: {best['uncached'] * 1e6:9.2f} us",
                f"cached   per decision: {best['cached'] * 1e6:9.2f} us",
                f"speedup: {speedup:.1f}x",
            ],
        )
        assert cached.cache.hits > 0
        assert speedup >= 2.0, f"cache speedup only {speedup:.1f}x"


class TestOverheadShape:
    def test_extended_does_more_authorization_work_than_legacy(self):
        """The structural claim behind the overhead: counts, not time."""
        rows = []
        counts = {}
        for label, mode, double in (
            ("legacy", AuthorizationMode.LEGACY, False),
            ("extended", AuthorizationMode.EXTENDED, False),
            ("extended+gk-pep", AuthorizationMode.EXTENDED, True),
        ):
            service, client = build(mode, pep_in_gatekeeper=double)
            for _ in range(10):
                submit_and_drain(service, client)
            decisions = service.pep.decisions_made + (
                service.gatekeeper_pep.decisions_made
                if service.gatekeeper_pep
                else 0
            )
            counts[label] = decisions
            rows.append(f"{label:18s} policy decisions per 10 jobs: {decisions}")
        emit("B-OVH — authorization work per request path", rows)
        assert counts["legacy"] == 0
        assert counts["extended"] == 20          # start + cancel per job
        assert counts["extended+gk-pep"] == 30   # + gatekeeper start check
