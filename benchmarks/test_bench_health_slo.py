"""B-HEALTH — cost and payoff of the health & SLO engine.

Two claims, both emitted into ``BENCH_health_slo.json``:

* **Cost**: running the churn workload with ``health_slo=True``
  (windowed aggregation + burn-rate evaluation every window + flight
  recording on every finished root span) stays within 1.10x of the
  same workload with health off.  The monitor only does real work
  when a window closes, and recording is one dict append per request,
  so the steady-state tax is small.

* **Payoff**: in a fault-injected federation, a health-aware
  :class:`~repro.vo.federation.VOBroker` places jobs with fewer site
  round-trips than a naive broker that keeps knocking on the sick
  site's door.  Fewer rejection->retry hops is the simulated-world
  stand-in for "rejection->retry->placed latency improves".

The overhead assertion uses the paired-ratio pattern from
``test_bench_observability.py`` (back-to-back timing inside one noise
window, median over rounds, best of three measurements) so shared-CI
jitter cannot fail the bound spuriously.  The two arms alternate which
runs first, and each timed stage starts after a full collection, so a
collector pause over garbage the *other* arm left behind lands in
neither; what each arm allocates is still collected inside its own
stage.
"""

from __future__ import annotations

import gc
import os
import time

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.gram.service import ServiceConfig
from repro.testing import ExceptionFault, inject
from repro.vo.federation import FederatedDeployment, VOBroker
from repro.workloads.churn import ChurnConfig, build_churn_service, run_churn

from benchmarks.conftest import emit, write_artifact

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_health_slo.json"
)

MAX_OVERHEAD = 1.10

BO = "/O=Grid/OU=fed/CN=Bo"
VO_TEXT = f"""
{BO}:
    &(action=start)(executable=TRANSP)(count<=8)(jobtag!=NULL)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobowner=self)
"""
JOB = "&(executable=TRANSP)(count=2)(jobtag=NFC)(runtime=6)"


# -- cost: churn overhead with the monitor on --------------------------------


def build_churn(health: bool):
    config = ChurnConfig(users=40, cycles=80, runtime=4.0, step=1.0)
    service, clients = build_churn_service(
        config,
        ServiceConfig(
            host="churn.example.org",
            node_count=16,
            cpus_per_node=4,
            health_slo=health,
            health_window=5.0,
        ),
    )
    return config, service, clients


def paired_churn_ratio(rounds=7):
    """Median health/bare churn-stage ratio over paired rounds."""
    instances = {
        label: build_churn(enabled)
        for label, enabled in (("bare", False), ("health", True))
    }
    # Warm both stacks (account setup, compiled policy, code paths).
    for config, service, clients in instances.values():
        run_churn(service, clients, config)
    ratios = []
    best = {"bare": float("inf"), "health": float("inf")}
    for round_ in range(rounds):
        spent = {}
        # Alternate which arm goes first: neither always runs on the
        # heap the other just left.
        labels = ("bare", "health") if round_ % 2 == 0 else ("health", "bare")
        for label in labels:
            config, service, clients = instances[label]
            gc.collect()
            started = time.perf_counter()
            run_churn(service, clients, config)
            spent[label] = time.perf_counter() - started
            best[label] = min(best[label], spent[label])
        ratios.append(spent["health"] / spent["bare"])
    ratios.sort()
    return ratios[len(ratios) // 2], best, instances


def test_health_overhead_under_churn_within_bound():
    ratio, best, instances = min(
        (paired_churn_ratio() for _ in range(3)), key=lambda item: item[0]
    )
    _, service, _ = instances["health"]
    # The monitored variant must actually be monitoring.
    assert service.health is not None
    assert service.health.latest_report is not None
    assert service.health.recorder.recorded > 0
    assert service.health.status_of("service") == "healthy"
    data = {
        "bare_seconds_best": best["bare"],
        "health_seconds_best": best["health"],
        "overhead_ratio_median": ratio,
        "bound": MAX_OVERHEAD,
        "evaluations": len(service.health.reports),
    }
    emit(
        "B-HEALTH — churn overhead with the SLO engine on",
        [
            f"bare:   {best['bare'] * 1e3:8.1f} ms (best stage)",
            f"health: {best['health'] * 1e3:8.1f} ms (best stage)",
            f"overhead: {ratio:.3f}x median (bound {MAX_OVERHEAD}x)",
        ],
    )
    write_artifact(ARTIFACT_PATH, "churn-overhead", data)
    assert ratio <= MAX_OVERHEAD, (
        f"health engine costs {ratio:.3f}x under churn, "
        f"over the {MAX_OVERHEAD}x bound"
    )


# -- payoff: health-aware placement under site faults ------------------------


def build_federation(health: bool):
    deployment = FederatedDeployment(parse_policy(VO_TEXT, name="vo"))
    deployment.add_site("anl", node_count=4, cpus_per_node=4)
    deployment.add_site("lbnl", node_count=6, cpus_per_node=4)
    deployment.add_site("isi", node_count=4, cpus_per_node=4)
    credential = deployment.add_member(BO, "bo")
    if health:
        deployment.enable_health(window=2.0)
    broker = VOBroker(deployment, credential)
    fault = ExceptionFault()
    inject(
        deployment.site("lbnl").service.registry, GRAM_AUTHZ_CALLOUT, fault
    )
    return deployment, broker


def drive_faulted_federation(health: bool, cycles=20):
    """Mean site round-trips per placed job with one sick site."""
    deployment, broker = build_federation(health)
    attempts = []
    placed = 0
    for _ in range(cycles):
        placement = broker.submit(JOB)
        if placement.ok:
            placed += 1
        attempts.append(placement.attempts)
        deployment.run(2.0)
    return {
        "placed": placed,
        "cycles": cycles,
        "total_attempts": sum(attempts),
        "mean_attempts": sum(attempts) / len(attempts),
    }


def test_health_aware_broker_places_with_fewer_round_trips():
    naive = drive_faulted_federation(health=False)
    aware = drive_faulted_federation(health=True)
    # Both brokers place every job (the fault is site-local, capacity
    # elsewhere is plentiful) — the difference is how many doors they
    # knock on first.
    assert naive["placed"] == naive["cycles"]
    assert aware["placed"] == aware["cycles"]
    data = {"naive": naive, "health_aware": aware}
    emit(
        "B-HEALTH — placement round-trips with one sick site",
        [
            f"naive broker:        {naive['mean_attempts']:.2f} "
            f"attempts/job ({naive['total_attempts']} total)",
            f"health-aware broker: {aware['mean_attempts']:.2f} "
            f"attempts/job ({aware['total_attempts']} total)",
        ],
    )
    write_artifact(ARTIFACT_PATH, "faulted-federation-placement", data)
    assert aware["total_attempts"] < naive["total_attempts"], (
        "health-aware placement should knock on fewer doors: "
        f"{aware['total_attempts']} vs {naive['total_attempts']}"
    )
