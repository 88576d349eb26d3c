"""B-OBS — cost of the always-on telemetry subsystem.

The observability layer (span tracing + labeled metrics registry) is
enabled by default, so its overhead must stay in the noise next to
the real work of a request: GSI handshake, RSL parsing, two policy
evaluations and scheduler bookkeeping.  This bench runs the same
submit+cancel round-trip with ``ServiceConfig(telemetry=...)`` off
and on and asserts the instrumented path stays within
:data:`MAX_OVERHEAD` of the bare one.

The assertion uses best-of-N wall timings (minimum over several
measured rounds) so scheduler jitter on shared CI runners cannot
fail the bound spuriously; the pytest-benchmark cases below give the
full distribution when timing is enabled.
"""

import time

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

from benchmarks.conftest import BO, SITE_POLICY_TEXT, emit

#: Bo's conforming job plus a self-cancel grant so the round-trip can
#: drain each job and keep scheduler state bounded.
VO_TEXT = FIGURE3_POLICY_TEXT + f"""
{BO}:
    &(action=cancel)(jobowner=self)
"""

JOB = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(runtime=5)"

#: The worst of 32 runs on a shared 2-vCPU host read 1.180x once
#: per-request telemetry bookkeeping was cut (docs/performance.md,
#: "Telemetry"); the bound is that plus a 0.02 margin.  It was 1.25
#: before, and 1.15 against the interpreted policy engine.
MAX_OVERHEAD = 1.20


def build(telemetry: bool):
    service = GramService(
        ServiceConfig(
            policies=(
                parse_policy(VO_TEXT, name="vo"),
                parse_policy(SITE_POLICY_TEXT, name="local"),
            ),
            telemetry=telemetry,
            enforcement=None,
        )
    )
    client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
    return service, client


def round_trip(client):
    response = client.submit(JOB)
    assert response.ok, response
    client.cancel(response.contact)


def paired_overhead_ratio(pairs, rounds=40, iterations=5):
    """Median over rounds of the paired telemetry/bare latency ratio.

    Shared-runner timing noise is mostly *drift*: multi-second windows
    where everything runs slower.  Each round times every bare and
    telemetry instance back to back inside one such window and takes
    the ratio, so the drift divides out; the median over many rounds
    then discards the rounds a regime change landed in the middle of.
    Instances come in independent pairs so a single service landing in
    an unlucky heap layout cannot skew its variant.
    """
    ratios = []
    timings = {"bare": float("inf"), "telemetry": float("inf")}
    for _ in range(rounds):
        spent = {"bare": 0.0, "telemetry": 0.0}
        for bare_client, telemetry_client in pairs:
            for label, client in (
                ("bare", bare_client),
                ("telemetry", telemetry_client),
            ):
                started = time.perf_counter()
                for _ in range(iterations):
                    round_trip(client)
                elapsed = (time.perf_counter() - started) / iterations
                spent[label] += elapsed
                timings[label] = min(timings[label], elapsed)
        ratios.append(spent["telemetry"] / spent["bare"])
    ratios.sort()
    return ratios[len(ratios) // 2], timings


class TestTelemetryOverheadBound:
    def test_telemetry_overhead_within_bound(self):
        pairs = []
        for _ in range(2):
            pair = []
            for enabled in (False, True):
                service, client = build(enabled)
                for _ in range(25):  # warm caches and code paths
                    round_trip(client)
                pair.append(client)
            pairs.append(tuple(pair))
        # Best of three independent measurements: per-process and
        # per-window disturbances on a shared runner only ever inflate
        # the apparent overhead, so the calmest measurement is the
        # faithful one for a regression gate.
        ratio, timings = min(
            (paired_overhead_ratio(pairs) for _ in range(3)),
            key=lambda item: item[0],
        )
        emit(
            "B-OBS — telemetry overhead on a submit+cancel round-trip",
            [
                f"bare:      {timings['bare'] * 1e6:9.1f} us (best)",
                f"telemetry: {timings['telemetry'] * 1e6:9.1f} us (best)",
                f"overhead:  {ratio:.3f}x median (bound {MAX_OVERHEAD}x)",
            ],
        )
        assert ratio <= MAX_OVERHEAD, (
            f"telemetry costs {ratio:.3f}x, over the {MAX_OVERHEAD}x bound"
        )

    def test_telemetry_records_while_benched(self):
        """The instrumented variant must actually be instrumenting."""
        service, client = build(True)
        round_trip(client)
        assert len(service.telemetry.tracer) == 2  # submit + cancel
        assert (
            service.telemetry.registry.value(
                "authz_decisions_total", action="start", decision="permit"
            )
            == 1
        )


class TestTelemetryOverheadBench:
    def test_bench_round_trip_bare(self, benchmark):
        service, client = build(False)
        benchmark(round_trip, client)

    def test_bench_round_trip_telemetry(self, benchmark):
        service, client = build(True)
        benchmark(round_trip, client)
