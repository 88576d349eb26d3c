"""B-LIFECYCLE: the serving path stays bounded under sustained churn.

Drives the closed-loop churn workload (:mod:`repro.workloads.churn`)
in stages against one long-lived :class:`GramService` and asserts the
job-lifecycle guarantees:

* live-JMI count and pending terminal registrations stay **bounded**
  while cumulative jobs grow 10×;
* per-request cost stays **flat** across that growth (no O(N) scan,
  no unbounded dict on the hot path);
* once per-user or service-wide admission caps are hit the front
  door answers ``RESOURCE_BUSY`` — and recovers as jobs finish.

Emits ``BENCH_service_lifecycle.json`` next to this file; CI uploads
it alongside the policy-engine artifact.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.gram.protocol import GramErrorCode
from repro.gram.service import ServiceConfig
from repro.workloads.churn import (
    ChurnConfig,
    ChurnStats,
    build_churn_service,
    churn_live_bound,
    churn_rsl,
    run_churn,
)

from benchmarks.conftest import emit, write_artifact

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_service_lifecycle.json"
)

#: Stages of equal work; cumulative jobs grow STAGES× start to finish.
STAGES = 10
STAGE_CYCLES = 120
#: Completed-record retention used by the bench (intentionally smaller
#: than the total so eviction provably bounds the store).
RETENTION = 256


def test_live_state_bounded_and_cost_flat_under_10x_growth():
    config = ChurnConfig(users=100, cycles=STAGE_CYCLES, runtime=4.0, step=1.0)
    service, clients = build_churn_service(
        config,
        ServiceConfig(
            host="churn.example.org",
            node_count=16,
            cpus_per_node=4,
            completed_retention=RETENTION,
        ),
    )
    gatekeeper = service.gatekeeper

    stats = ChurnStats()
    rows = []
    stage_seconds = []
    for stage in range(STAGES):
        started_before = stats.started
        polls_before = stats.polls
        begin = time.perf_counter()
        run_churn(service, clients, config, stats=stats)
        elapsed = time.perf_counter() - begin
        requests = (
            STAGE_CYCLES + (stats.started - started_before)
            + (stats.polls - polls_before)
        )
        stage_seconds.append(elapsed / max(requests, 1))
        rows.append(
            {
                "cumulative_jobs": stats.started,
                "live_jmis": gatekeeper.active_job_managers,
                "max_live_jmis": stats.max_live_jmis,
                "terminal_callbacks": service.scheduler.terminal_callback_count,
                "max_terminal_callbacks": stats.max_terminal_callbacks,
                "completed_records": gatekeeper.completed_jobs,
                "scheduler_jobs": len(service.scheduler.jobs()),
                "seconds_per_request": stage_seconds[-1],
            }
        )

    bound = churn_live_bound(config)
    # Bounded: live state never tracks cumulative volume.
    assert stats.started == STAGES * STAGE_CYCLES
    assert stats.errors == 0
    assert stats.max_live_jmis <= bound
    assert stats.max_terminal_callbacks <= 2 * bound + 2
    assert stats.final_live_jmis == 0
    assert stats.final_terminal_callbacks == 0
    assert gatekeeper.completed_jobs <= RETENTION
    assert gatekeeper.completed.evicted == stats.started - RETENTION
    assert stats.final_scheduler_jobs == 0
    # Balanced accounting after churn (per-account running_jobs -> 0).
    assert stats.running_jobs_after == 0
    # Flat: per-request cost of the last stages tracks the first
    # stages while cumulative jobs grew 10×.  Generous factor — the
    # point is catching O(cumulative) behaviour, not timer jitter.
    early = statistics.median(stage_seconds[:3])
    late = statistics.median(stage_seconds[-3:])
    flatness = late / early
    assert flatness < 3.0, (
        f"per-request cost grew {flatness:.2f}x across 10x job growth"
    )

    data = {
        "stages": rows,
        "live_jmi_bound": bound,
        "flatness_late_over_early": flatness,
        "reaped": gatekeeper.reaped,
        "evicted": gatekeeper.completed.evicted,
    }
    write_artifact(ARTIFACT_PATH, "service-lifecycle-churn", data)
    emit(
        "B-LIFECYCLE churn (10x cumulative growth)",
        [
            f"{row['cumulative_jobs']:>6} jobs | live {row['live_jmis']:>3} "
            f"(peak {row['max_live_jmis']:>3}, bound {bound}) | "
            f"callbacks {row['terminal_callbacks']:>3} | "
            f"records {row['completed_records']:>4} | "
            f"{row['seconds_per_request'] * 1e6:8.1f} us/req"
            for row in rows
        ]
        + [f"flatness (late/early median): {flatness:.2f}x"],
    )


def test_admission_control_returns_resource_busy_at_caps():
    # Long jobs, no cancellation: in-flight only grows until caps bite.
    config = ChurnConfig(
        users=4, cycles=40, runtime=500.0, step=0.1, cancel_fraction=0.0
    )
    per_user_cap = 3
    global_ceiling = 10
    service, clients = build_churn_service(
        config,
        ServiceConfig(
            host="churn.example.org",
            node_count=64,
            cpus_per_node=4,
            max_jobs_per_user=per_user_cap,
            max_active_jmis=global_ceiling,
        ),
    )
    stats = run_churn(service, clients, config)
    admission = service.gatekeeper.admission

    # The ceiling admits exactly global_ceiling jobs, then sheds load.
    assert stats.started == global_ceiling
    assert stats.rejected_busy == config.cycles - global_ceiling
    assert stats.max_live_jmis == global_ceiling
    assert admission.rejected_global > 0
    registry = service.telemetry.registry
    assert registry.value(
        "gram_admission_rejected_total", scope="global"
    ) == admission.rejected_global

    # Per-user cap (no global ceiling): 4 users * 3 in-flight each.
    service2, clients2 = build_churn_service(
        config,
        ServiceConfig(
            host="churn.example.org",
            node_count=64,
            cpus_per_node=4,
            max_jobs_per_user=per_user_cap,
        ),
    )
    stats2 = run_churn(service2, clients2, config)
    admission2 = service2.gatekeeper.admission
    assert stats2.started == config.users * per_user_cap
    assert stats2.rejected_busy == config.cycles - stats2.started
    # Every busy response is either a service-side admission rejection
    # or a client-local suppression inside the retry_after window the
    # rejection advertised — the backoff keeps most retries off the
    # service entirely.
    suppressed = sum(client.suppressed_retries for client in clients2)
    assert admission2.rejected_user + suppressed == stats2.rejected_busy
    assert admission2.rejected_user > 0
    assert suppressed > 0
    assert admission2.rejected_global == 0
    registry2 = service2.telemetry.registry
    assert registry2.value(
        "gram_admission_rejected_total", scope="user"
    ) == admission2.rejected_user

    # Recovery: once the long jobs drain, the same user may submit again.
    service2.run(600.0)
    assert clients2[0].submit(churn_rsl(config)).ok

    write_artifact(
        ARTIFACT_PATH,
        "service-lifecycle-admission",
        {
            "global_ceiling": global_ceiling,
            "per_user_cap": per_user_cap,
            "ceiling_started": stats.started,
            "ceiling_rejected_busy": stats.rejected_busy,
            "per_user_started": stats2.started,
            "per_user_rejected_busy": stats2.rejected_busy,
        },
    )
    emit(
        "B-LIFECYCLE admission control",
        [
            f"global ceiling {global_ceiling}: started {stats.started}, "
            f"RESOURCE_BUSY {stats.rejected_busy}",
            f"per-user cap {per_user_cap} x {config.users} users: started "
            f"{stats2.started}, RESOURCE_BUSY {stats2.rejected_busy}",
        ],
    )


def test_resource_busy_is_distinct_from_resource_unavailable():
    assert GramErrorCode.RESOURCE_BUSY is not GramErrorCode.RESOURCE_UNAVAILABLE
    assert GramErrorCode.RESOURCE_BUSY.value != GramErrorCode.RESOURCE_UNAVAILABLE.value
