"""B-POLICY-STORE: the durable control plane stays off the hot path.

Three quantities gate the policy store design:

* **Publish cost proportional to the change** — a publish parses and
  compiles only the statements whose text changed, so withdrawing 1%
  of a 1000-member VO's grants (the ``vo_churn`` shape) must cost at
  least 10x less than publishing the whole VO into an empty store.
* **Publish-to-first-decision latency** — a publish pre-compiles the
  bundle and the subscriber swap is a reference flip, so the first
  decision at the new epoch should cost little more than one
  cache-miss decision at steady state.  A control plane that stalls
  the data plane on every reload would show up here.
* **Recovery time vs store size** — a restarted service replays its
  completed-job spill before serving; the replay is line-at-a-time
  JSON, so it must scale linearly and stay far below any realistic
  restart budget.

Safety rides along: the artifact embeds a restart-recovery
differential run (``repro.workloads.recovery``) and asserts zero
divergences — recovery speed is only worth reporting because the
recovered service answers identically.

Emits ``BENCH_policy_store.json`` next to this file; CI's
policy-store leg uploads it.  All timing is plain ``perf_counter``
looping, so the bench runs identically under ``--benchmark-disable``.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.parser import parse_policy
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.lifecycle import CompletedJobRecord, CompletedJobStore
from repro.gram.protocol import GramJobState, JobContact
from repro.gram.service import GramService, ServiceConfig
from repro.gram.spill import CompletedJobSpill
from repro.gsi.names import DistinguishedName
from repro.rsl.parser import parse_specification
from repro.workloads.generator import PolicyShape, generate_policy
from repro.workloads.recovery import (
    RecoveryDifferentialConfig,
    run_recovery_differential,
)

from benchmarks.conftest import emit, write_artifact

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_policy_store.json"
)

ORG = "/O=Grid/OU=bench-store.example.org"
ALICE = f"{ORG}/CN=Alice"

POLICY_A = f"""
{ORG}:
    &(action=start)(executable=sim)
    &(action=cancel)(jobowner=self)
    &(action=information)
"""

POLICY_B = f"""
{ORG}:
    &(action=start)(executable=sim)(count<64)
    &(action=cancel)(jobowner=self)
    &(action=information)
"""

RSL = "&(executable=sim)(count=1)(runtime=100000)"

#: Publish/decide cycles timed for the reload-latency figure.
PUBLISH_ROUNDS = 60
#: Steady-state decisions timed for the baseline.
STEADY_ROUNDS = 2000
#: Spill sizes for the recovery-scaling figure.
RECOVERY_SIZES = (100, 1000, 5000)
#: Differential floor embedded in the artifact.
DIFFERENTIAL_REQUESTS = 10_000

#: Members of the generated VO, and the share of their grants each
#: churn publish withdraws (the ``vo_churn`` workload's shape).
VO_MEMBERS = 1000
CHURN_SHARE = 0.01
#: Cold publishes (each into a fresh store) and churn publishes timed.
COLD_PUBLISHES = 3
CHURN_PUBLISHES = 8
#: A cold publish parses and compiles every statement; a churn publish
#: parses only what changed.  Runs on a shared 2-vCPU Xeon read 42-83x;
#: a store that parses everything again reads ~1.0x.
MIN_PUBLISH_SCALING = 10.0

#: Loose wall-clock ceilings — regressions show up as order-of-
#: magnitude jumps, not percent-level jitter, so the bars are generous.
MAX_FIRST_DECISION_MS = 50.0
MAX_RECOVERY_SECONDS_AT_5K = 10.0


def test_publish_to_first_decision_latency():
    store = VersionedPolicyStore()
    service = GramService(
        ServiceConfig(
            policies=(parse_policy(POLICY_A, name="vo"),),
            policy_store=store,
            decision_cache=True,
        )
    )
    client = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
    contact = client.submit(RSL).contact
    assert contact is not None

    # Steady state: repeat information decisions (cache hits).
    for _ in range(50):
        client.status(contact)
    start = time.perf_counter()
    for _ in range(STEADY_ROUNDS):
        client.status(contact)
    steady_s = (time.perf_counter() - start) / STEADY_ROUNDS

    # Publish cycles: alternate two bundles; time publish() (validate +
    # pre-compile + swap) and the first decision at the new epoch.
    bundles = (
        PolicyBundle.from_texts({"vo": POLICY_A}),
        PolicyBundle.from_texts({"vo": POLICY_B}),
    )
    publish_best = float("inf")
    first_decision_best = float("inf")
    epoch_before = store.policy_epoch
    for round_index in range(PUBLISH_ROUNDS):
        bundle = bundles[(round_index + 1) % 2]
        start = time.perf_counter()
        store.publish(bundle)
        publish_s = time.perf_counter() - start
        start = time.perf_counter()
        response = client.status(contact)
        first_decision_s = time.perf_counter() - start
        assert response.ok
        publish_best = min(publish_best, publish_s)
        first_decision_best = min(first_decision_best, first_decision_s)
    assert store.policy_epoch == epoch_before + PUBLISH_ROUNDS

    data = {
        "steady_us_per_decision": round(steady_s * 1e6, 3),
        "publish_us": round(publish_best * 1e6, 3),
        "first_decision_at_new_epoch_us": round(first_decision_best * 1e6, 3),
        "first_decision_over_steady": round(first_decision_best / steady_s, 2),
        "publish_rounds": PUBLISH_ROUNDS,
        "max_first_decision_ms": MAX_FIRST_DECISION_MS,
    }
    lines = [
        f"steady-state decision:          {steady_s * 1e6:8.2f} us",
        f"publish (validate+compile+swap):{publish_best * 1e6:8.2f} us",
        f"first decision at new epoch:    {first_decision_best * 1e6:8.2f} us "
        f"({data['first_decision_over_steady']}x steady)",
    ]
    emit("B-POLICY-STORE — publish-to-first-decision latency", lines,
         data=data, key="policy_store_publish")
    write_artifact(ARTIFACT_PATH, "publish_latency", data)

    assert first_decision_best * 1e3 < MAX_FIRST_DECISION_MS, (
        f"first decision after publish took "
        f"{first_decision_best * 1e3:.1f} ms (bar: {MAX_FIRST_DECISION_MS} ms)"
    )


def test_publish_cost_scales_with_the_change():
    policy = generate_policy(PolicyShape(users=VO_MEMBERS), name="vo")
    header, *grants = policy.statements
    lines = [str(statement) for statement in grants]

    def vo_bundle(withdrawn=frozenset()) -> PolicyBundle:
        kept = [line for index, line in enumerate(lines) if index not in withdrawn]
        return PolicyBundle.from_texts({"vo": "\n".join([str(header), *kept])})

    cold_best = float("inf")
    for _ in range(COLD_PUBLISHES):
        store = VersionedPolicyStore()
        bundle = vo_bundle()
        start = time.perf_counter()
        store.publish(bundle)
        cold_best = min(cold_best, time.perf_counter() - start)

    rng = random.Random(VO_MEMBERS)
    withdrawn = int(VO_MEMBERS * CHURN_SHARE)
    churn_best = float("inf")
    for _ in range(CHURN_PUBLISHES):
        bundle = vo_bundle(frozenset(rng.sample(range(VO_MEMBERS), withdrawn)))
        start = time.perf_counter()
        store.publish(bundle)
        churn_best = min(churn_best, time.perf_counter() - start)
    assert store.policy_epoch == 1 + CHURN_PUBLISHES

    ratio = cold_best / churn_best
    data = {
        "members": VO_MEMBERS,
        "withdrawn_per_publish": withdrawn,
        "cold_publish_ms": round(cold_best * 1e3, 3),
        "churn_publish_ms": round(churn_best * 1e3, 3),
        "cold_over_churn": round(ratio, 2),
        "cold_publishes": COLD_PUBLISHES,
        "churn_publishes": CHURN_PUBLISHES,
        "min_cold_over_churn": MIN_PUBLISH_SCALING,
    }
    emit(
        "B-POLICY-STORE — publish cost vs the change",
        [
            f"cold publish ({VO_MEMBERS} members): {cold_best * 1e3:8.2f} ms",
            f"withdraw {withdrawn} grants:          {churn_best * 1e3:8.2f} ms "
            f"({ratio:.1f}x cheaper)",
        ],
        data=data,
        key="policy_store_publish_scaling",
    )
    write_artifact(ARTIFACT_PATH, "publish_scaling", data)

    assert ratio >= MIN_PUBLISH_SCALING, (
        f"a 1% churn publish cost {churn_best * 1e3:.1f} ms against "
        f"{cold_best * 1e3:.1f} ms cold ({ratio:.1f}x, bar: "
        f"{MIN_PUBLISH_SCALING}x)"
    )


def _spill_of_size(path: str, count: int) -> None:
    spill = CompletedJobSpill(path)
    spec = parse_specification(RSL)
    owner = DistinguishedName.parse(ALICE)
    for index in range(count):
        spill.append_insert(
            CompletedJobRecord(
                contact=JobContact(host="bench.example.org", job_id=str(index)),
                owner=owner,
                state=GramJobState.DONE,
                exit_reason="completed",
                finished_at=float(index),
                account="alice",
                spec=spec,
            )
        )


def test_recovery_time_scales_with_store_size(tmp_path):
    points = []
    lines = []
    for size in RECOVERY_SIZES:
        path = str(tmp_path / f"spill-{size}.jsonl")
        _spill_of_size(path, size)
        start = time.perf_counter()
        result = CompletedJobSpill(path).recover()
        store = CompletedJobStore(retention=size)
        store.preload(result.records)
        recovery_s = time.perf_counter() - start
        assert len(result.records) == size
        assert len(store.live_records()) == size
        points.append(
            {
                "records": size,
                "recovery_ms": round(recovery_s * 1e3, 3),
                "us_per_record": round(recovery_s * 1e6 / size, 3),
            }
        )
        lines.append(
            f"{size:>6} records: {recovery_s * 1e3:8.2f} ms "
            f"({recovery_s * 1e6 / size:6.1f} us/record)"
        )
        if size == max(RECOVERY_SIZES):
            assert recovery_s < MAX_RECOVERY_SECONDS_AT_5K, (
                f"recovering {size} records took {recovery_s:.1f}s "
                f"(bar: {MAX_RECOVERY_SECONDS_AT_5K}s)"
            )

    emit("B-POLICY-STORE — recovery time vs store size", lines,
         data={"points": points}, key="policy_store_recovery")
    write_artifact(ARTIFACT_PATH, "recovery_scaling", {"points": points})


def test_restart_differential_embedded_in_artifact(tmp_path):
    """The artifact carries the safety evidence alongside the speed:
    >= 10k randomized post-restart requests, zero divergences."""
    stats = run_recovery_differential(
        RecoveryDifferentialConfig(
            spill_path=str(tmp_path / "diff.jsonl"),
            jobs=48,
            requests=DIFFERENTIAL_REQUESTS,
        )
    )
    data = {
        "completed": stats.completed,
        "recovered_records": stats.recovered_records,
        "requests": stats.requests,
        "divergences": stats.divergences,
        "skipped_lines": stats.skipped_lines,
    }
    write_artifact(ARTIFACT_PATH, "restart_differential", data)
    emit(
        "B-POLICY-STORE — restart-recovery differential",
        [f"requests={stats.requests} divergences={stats.divergences}"],
        data=data,
        key="policy_store_differential",
    )

    assert stats.requests >= DIFFERENTIAL_REQUESTS
    assert stats.divergences == 0, stats.examples
