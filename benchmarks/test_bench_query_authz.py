"""B-QUERY — reverse authorization index: O(subject) queries at scale.

Two claims, both emitted into ``BENCH_query_authz.json``:

* **Scaling**: answering "what can this subject do?" through the
  reverse index costs what the *subject's own* statements cost, not
  what the store costs.  Cold per-subject queries against a
  1,000,000-user policy stay within ``MAX_FLAT_RATIO`` of the same
  queries against a 1,000-user policy, while the forward full scan
  (:func:`repro.core.analysis.capabilities`, which walks every
  statement) blows up by orders of magnitude over the same range.
  Every store's index is built before any probe, and the stores'
  probe rounds alternate, so a slow stretch of a shared host lands on
  every store alike; each store's cost is the median over its rounds.

* **Churn payoff**: a :class:`~repro.vo.federation.VOBroker` with the
  reverse-index prefilter places the *same* jobs as a naive broker
  while spending fewer submit round-trips — statically-denied
  submissions are answered at the broker with zero site visits.

The big stores share assertion objects across statements (as a real
generated store would), so per-assertion summaries amortise: the
index summarises each distinct assertion once regardless of how many
million statements reference it.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core.analysis import capabilities
from repro.core.model import (
    Policy,
    PolicyAssertion,
    PolicyStatement,
    Subject,
)
from repro.core.parser import parse_policy
from repro.core.query import QueryIndex
from repro.vo.federation import FederatedDeployment, VOBroker

from benchmarks.conftest import emit, write_artifact

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_query_authz.json"
)

#: Cold per-subject query cost at the largest store may be at most
#: this multiple of the 1k-store cost.
MAX_FLAT_RATIO = 1.5

#: The full scan must grow at least this much over the same range —
#: the contrast that makes the flat reverse-index line meaningful.
MIN_SCAN_BLOWUP = 50.0

SIZES = (1_000, 100_000, 1_000_000)
PROBES = 1_000
#: Probe rounds per store, taken in turn across the stores.
ROUNDS = 31


# -- scaling: flat reverse queries vs linear full scan -----------------------

#: Shared assertion pool: 64 distinct objects referenced by every
#: statement in every store, so summary caching works as in a real
#: generated policy.
_POOL = [
    PolicyAssertion.parse(
        f"&(action=start)(executable=app{i})(count<{2 + i % 7})"
    )
    for i in range(64)
]


def _subject(index: int) -> str:
    return f"/O=Grid/OU=big.example.org/CN=User {index:07d}"


def build_store(users: int) -> Policy:
    """One exact-subject statement per user, two pooled assertions."""
    statements = [
        PolicyStatement(
            subject=Subject.identity(_subject(i)),
            assertions=(_POOL[i % 64], _POOL[(i * 7 + 3) % 64]),
        )
        for i in range(users)
    ]
    return Policy.make(statements, name=f"store-{users}")


def _probe_round(index: QueryIndex, users: int, round_: int) -> float:
    """Seconds per cold ``profile`` over one round of PROBES subjects."""
    started = time.perf_counter()
    for i in range(PROBES):
        index.profile(_subject((i * 997 + round_) % users))
    return (time.perf_counter() - started) / PROBES


def _full_scan_seconds(policy: Policy, users: int) -> float:
    """Best seconds per forward full-scan query over three rounds."""
    # The forward comparator walks every statement per query, so a
    # handful of probes is plenty (and all 1M statements get walked).
    scan_probes = max(2, min(50, 50_000 // users))
    best_scan = float("inf")
    for round_ in range(3):
        started = time.perf_counter()
        for i in range(scan_probes):
            capabilities(policy, _subject((i * 31 + round_) % users))
        best_scan = min(
            best_scan, (time.perf_counter() - started) / scan_probes
        )
    return best_scan


def _measure_stores() -> list:
    """One row per store of SIZES, probed in alternating rounds."""
    policies = {}
    indexes = {}
    for users in SIZES:
        # Smallest first, so no index build pays for collecting a
        # larger store.  profile_cap=0 disables the memo: every probe
        # pays the full cold per-subject cost, which is what must stay
        # flat.
        policies[users] = build_store(users)
        indexes[users] = QueryIndex(policies[users], source="big", profile_cap=0)
    rounds = {users: [] for users in SIZES}
    for round_ in range(ROUNDS):
        # Forward, then backward: no store always goes first.
        order = SIZES if round_ % 2 == 0 else SIZES[::-1]
        for users in order:
            rounds[users].append(_probe_round(indexes[users], users, round_))
    return [
        {
            "users": users,
            "index_build_seconds": indexes[users].stats.build_seconds,
            "query_us": statistics.median(rounds[users]) * 1e6,
            "full_scan_us": _full_scan_seconds(policies[users], users) * 1e6,
        }
        for users in SIZES
    ]


def test_reverse_query_cost_is_flat_in_store_size():
    rows = _measure_stores()
    base = rows[0]
    top = rows[-1]
    query_ratio = top["query_us"] / base["query_us"]
    scan_ratio = top["full_scan_us"] / base["full_scan_us"]
    data = {
        "stores": rows,
        "query_ratio_1k_to_1m": query_ratio,
        "full_scan_ratio_1k_to_1m": scan_ratio,
        "flat_bound": MAX_FLAT_RATIO,
    }
    write_artifact(ARTIFACT_PATH, "reverse-query-scaling", data)
    emit(
        "B-QUERY — per-subject query cost vs store size",
        [
            f"{row['users']:>9} users: query {row['query_us']:8.2f} us, "
            f"full scan {row['full_scan_us']:12.2f} us, "
            f"index build {row['index_build_seconds']:6.2f} s"
            for row in rows
        ]
        + [
            f"query ratio 1k->1M: {query_ratio:.3f} "
            f"(bound {MAX_FLAT_RATIO})",
            f"full-scan ratio 1k->1M: {scan_ratio:.1f} "
            f"(must exceed {MIN_SCAN_BLOWUP})",
        ],
        data=data,
        key="query-authz-scaling",
    )
    assert query_ratio <= MAX_FLAT_RATIO, rows
    assert scan_ratio >= MIN_SCAN_BLOWUP, rows


# -- churn payoff: fewer wasted submit round-trips ----------------------------

ORG = "/O=Grid/OU=churnq.example.org"

VO_TEXT = f"""
{ORG}/CN=Member 0:
    &(action=start)(executable=sim)(count<=4)
    &(action=cancel)(jobowner=self)
{ORG}/CN=Member 1:
    &(action=start)(executable=sim)(count<=4)
    &(action=cancel)(jobowner=self)
{ORG}/CN=Lurker 0:
    &(action=information)(jobowner=self)
{ORG}/CN=Lurker 1:
    &(action=information)(jobowner=self)
"""

JOB = "&(executable=sim)(count=1)(runtime=4)"


def _build_federation(prefilter: bool) -> FederatedDeployment:
    deployment = FederatedDeployment(parse_policy(VO_TEXT, name="vo"))
    deployment.add_site("east", node_count=4, cpus_per_node=4)
    deployment.add_site("west", node_count=4, cpus_per_node=4)
    if prefilter:
        deployment.enable_query_prefilter()
    return deployment


def _run_churn(deployment: FederatedDeployment) -> dict:
    # Two members who can start jobs, two who provably cannot, and
    # two strangers with no statements at all.
    users = (
        [(f"{ORG}/CN=Member {i}", f"member{i}", True) for i in range(2)]
        + [(f"{ORG}/CN=Lurker {i}", f"lurker{i}", False) for i in range(2)]
        + [(f"{ORG}/CN=Stranger {i}", f"stranger{i}", False) for i in range(2)]
    )
    brokers = [
        (VOBroker(deployment, deployment.add_member(dn, account)), can)
        for dn, account, can in users
    ]
    placed = denied = round_trips = 0
    for cycle in range(12):
        for broker, can in brokers:
            placement = broker.submit(JOB)
            round_trips += placement.attempts
            if placement.ok:
                placed += 1
                assert can
            else:
                denied += 1
                assert not can
        deployment.run(5.0)  # drain: runtime=4 < 5
    return {
        "placed": placed,
        "denied": denied,
        "round_trips": round_trips,
        "prefiltered": sum(b.prefiltered for b, _ in brokers),
    }


def test_prefilter_saves_round_trips_without_losing_placements():
    naive = _run_churn(_build_federation(prefilter=False))
    filtered = _run_churn(_build_federation(prefilter=True))

    data = {
        "naive": naive,
        "prefiltered": filtered,
        "round_trips_saved": naive["round_trips"] - filtered["round_trips"],
    }
    write_artifact(ARTIFACT_PATH, "federation-churn-delta", data)
    emit(
        "B-QUERY — federation churn with the broker prefilter",
        [
            f"naive     : {naive['placed']} placed, {naive['denied']} denied, "
            f"{naive['round_trips']} round-trips",
            f"prefilter : {filtered['placed']} placed, "
            f"{filtered['denied']} denied, "
            f"{filtered['round_trips']} round-trips "
            f"({filtered['prefiltered']} answered at the broker)",
        ],
        data=data,
        key="query-authz-churn",
    )
    # Same work placed, same denials surfaced...
    assert filtered["placed"] == naive["placed"]
    assert filtered["denied"] == naive["denied"]
    # ...with strictly fewer site round-trips: every statically-denied
    # submission was answered at the broker.
    assert naive["round_trips"] > filtered["round_trips"]
    assert filtered["prefiltered"] == filtered["denied"]
