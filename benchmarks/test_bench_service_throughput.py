"""B-THROUGHPUT: sharding multiplies service throughput.

Drives the churn workload through :class:`ShardedGramService` at 1, 4
and 8 shards, with a non-zero ``request_service_time`` so every
gatekeeper request costs simulated time on its shard's clock.
Requests for different users land on different shards, whose clocks
advance independently — so the simulated makespan of a fixed workload
shrinks as shards are added, and jobs/sec and decisions/sec (work /
simulated makespan) scale up.

Simulated throughput is the only metric here: every request runs on
the caller's thread, so wall time does not shrink with shards and is
recorded informationally but never asserted.

Emits ``BENCH_service_throughput.json`` next to this file; CI's
``shards`` leg uploads it.
"""

from __future__ import annotations

import json
import os
import time

from repro.gram.service import ServiceConfig
from repro.workloads.churn import (
    ChurnConfig,
    build_sharded_churn,
    run_sharded_churn,
)

from benchmarks.conftest import emit

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_service_throughput.json"
)

SHARD_COUNTS = (1, 4, 8)
#: Simulated seconds the gatekeeper spends serving one request.
SERVICE_TIME = 0.05
#: The workload: every run issues the same submit/poll/cancel stream.
CHURN = ChurnConfig(users=64, cycles=400, runtime=4.0, step=0.0)


def _emit_artifact(key: str, data) -> None:
    """Merge *data* under *key* into the throughput artifact (atomic)."""
    try:
        with open(ARTIFACT_PATH, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict):
            document = {}
    except (OSError, ValueError):
        document = {}
    document[key] = data
    tmp_path = ARTIFACT_PATH + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    os.replace(tmp_path, ARTIFACT_PATH)


def _drive(shards: int) -> dict:
    """One churn run at *shards* shards; returns the measured row."""
    service, clients = build_sharded_churn(
        CHURN,
        ServiceConfig(
            host="churn.example.org",
            node_count=16,
            cpus_per_node=4,
            shards=shards,
            request_service_time=SERVICE_TIME,
            decision_cache=True,
        ),
    )
    wall_start = time.perf_counter()
    stats = run_sharded_churn(service, clients, CHURN)
    wall_seconds = time.perf_counter() - wall_start
    assert stats.errors == 0
    assert stats.final_live_jmis == 0

    # The makespan is the busiest shard's clock: all clocks start
    # at zero and service.run() advances them in lockstep, so the
    # max is total elapsed simulated time.
    sim_seconds = max(shard.clock.now for shard in service.shards)
    decisions = sum(
        series["value"]
        for family in service.merged_snapshot()
        if family["name"] == "authz_decisions_total"
        for series in family["series"]
    )
    return {
        "shards": shards,
        "route_memo_hits": service.router.memo_hits,
        "route_memo_misses": service.router.memo_misses,
        "service_time": SERVICE_TIME,
        "submitted": stats.submitted,
        "started": stats.started,
        "polls": stats.polls,
        "cancelled": stats.cancelled,
        "decisions": decisions,
        "sim_seconds": round(sim_seconds, 3),
        "jobs_per_sec": round(stats.started / sim_seconds, 3),
        "decisions_per_sec": round(decisions / sim_seconds, 3),
        "wall_seconds": round(wall_seconds, 3),
    }


def test_throughput_scales_with_shards():
    rows = [_drive(shards) for shards in SHARD_COUNTS]

    # Every run served the identical workload to completion.
    assert len({row["started"] for row in rows}) == 1
    assert len({row["decisions"] for row in rows}) == 1

    by_shards = {row["shards"]: row for row in rows}
    speedup4 = by_shards[4]["jobs_per_sec"] / by_shards[1]["jobs_per_sec"]
    speedup8 = by_shards[8]["jobs_per_sec"] / by_shards[1]["jobs_per_sec"]

    # The acceptance bar: four shards at least double single-shard
    # throughput (measured ~2.7x; the drain window is the fixed cost
    # that keeps it below the ideal 4x).
    assert speedup4 >= 2.0, f"4-shard speedup only {speedup4:.2f}x"
    # More shards never hurt.
    assert speedup8 >= speedup4

    # The DN→shard routing memo absorbs repeat traffic: each distinct
    # user hashes at most once, every later request routes from the
    # memo (single-shard routing short-circuits and never hashes).
    for row in rows:
        if row["shards"] > 1:
            assert row["route_memo_misses"] <= CHURN.users
            assert row["route_memo_hits"] > row["route_memo_misses"]

    lines = [
        (
            f"{row['shards']} shard(s): {row['jobs_per_sec']:>8.2f} jobs/s  "
            f"{row['decisions_per_sec']:>8.2f} decisions/s  "
            f"(sim {row['sim_seconds']:.1f}s, wall {row['wall_seconds']:.2f}s)"
        )
        for row in rows
    ]
    lines.append(
        f"speedup vs 1 shard: 4 shards {speedup4:.2f}x, "
        f"8 shards {speedup8:.2f}x"
    )
    data = {
        "workload": {
            "users": CHURN.users,
            "cycles": CHURN.cycles,
            "runtime": CHURN.runtime,
            "polls_per_job": CHURN.polls_per_job,
            "cancel_fraction": CHURN.cancel_fraction,
        },
        "rows": rows,
        "speedup_4_shards": round(speedup4, 3),
        "speedup_8_shards": round(speedup8, 3),
    }
    emit("service throughput vs shard count", lines, data=data,
         key="service_throughput")
    _emit_artifact("service_throughput", data)
