"""The one deployment every workload runs against.

Every workload, and the reference replay that checks it, is built by
:func:`build_service`; only the cluster size differs between
workloads.  A change that retires a ``ServiceConfig`` switch edits
this function and nothing else in the benchmark.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig


def build_service(
    bundle: PolicyBundle,
    node_count: int,
    cpus_per_node: int,
    reference: bool = False,
) -> GramService:
    """Publish *bundle* into a fresh policy store and serve it.

    The benchmarked deployment turns on the three repeat/deny fast
    paths (decision cache, capability grants, reverse-index fast
    deny).  The *reference* deployment turns them off, so every
    request takes the full decision path; the benchmark compares the
    two answer by answer.  Everything else keeps its default:
    telemetry on, reaping on, one shard, inline dispatch.
    """
    fast = not reference
    store = VersionedPolicyStore()
    store.publish(bundle, origin="seed")
    return GramService(
        ServiceConfig(
            node_count=node_count,
            cpus_per_node=cpus_per_node,
            enforcement="static",
            decision_cache=fast,
            capability_grants=fast,
            query_fast_deny=fast,
            policy_store=store,
        )
    )


def enrol(service: GramService, members: Sequence) -> List[GramClient]:
    """Issue credentials and grid-mapfile entries; one client each.

    *members* are ``(identity, account)`` pairs.
    """
    return [
        GramClient(service.add_user(identity, account), service.gatekeeper)
        for identity, account in members
    ]
