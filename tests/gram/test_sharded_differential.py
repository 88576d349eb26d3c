"""Differential check: sharding must not change authorization outcomes.

The same seeded request stream is driven through a plain single-shard
``GramService`` and through ``ShardedGramService`` at four shards.
Contacts and job ids differ (each shard mints contacts under its own
host), so the comparison is over what the paper cares about: the
per-request decision — code, reasons, and observed job state.  A
multi-shard run is itself deterministic: rerun in one process with the
global counters reset, it exports byte-identical telemetry.
"""

import itertools
import random

from repro.core import capability
from repro.core.parser import parse_policy
from repro.gram import protocol
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
from repro.gram.service import GramService, ServiceConfig
from repro.workloads.churn import (
    ChurnConfig,
    build_sharded_churn,
    run_sharded_churn,
)

PREFIX = "/O=Grid/O=Globus/OU=diff.example.org"

POLICY = f"""
{PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobtag=DIFF)
"""

USERS = 12
CYCLES = 60
SEED = 2026


def build_config(**overrides):
    defaults = dict(
        host="diff.example.org",
        # Ample capacity: no queueing anywhere, so job states depend
        # only on the stream, not on which cluster a shard owns.
        node_count=32,
        cpus_per_node=4,
        policies=(parse_policy(POLICY, name="vo"),),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def enroll(service, facade):
    return [
        GramClient(
            service.add_user(f"{PREFIX}/CN=User {i:03d}", f"d{i:03d}"), facade
        )
        for i in range(USERS)
    ]


def drive(service, facade):
    """One deterministic stream of submits, polls and cancels.

    Returns the observable outcome of every request, in stream order.
    """
    clients = enroll(service, facade)
    rng = random.Random(SEED)
    outcomes = []
    contacts = []  # (owner_index, contact) of accepted jobs

    def record(kind, response):
        outcomes.append(
            (
                kind,
                response.code.name,
                tuple(response.reasons),
                response.state.value if response.state else None,
            )
        )

    for cycle in range(CYCLES):
        owner = cycle % USERS
        count = rng.choice((1, 2, 4, 8))  # count>=4 is denied
        response = clients[owner].submit(
            f"&(executable=sim)(count={count})(runtime=12)(jobtag=DIFF)"
        )
        record("submit", response)
        if response.ok:
            contacts.append((owner, response.contact))
        if contacts:
            target = rng.randrange(len(contacts))
            job_owner, contact = contacts[target]
            # A peer may poll (jobtag grant) but never cancel.
            peer = (job_owner + 1 + rng.randrange(USERS - 1)) % USERS
            record("peer-status", clients[peer].status(contact))
            if rng.random() < 0.25:
                record("peer-cancel", clients[peer].cancel(contact))
                record("owner-cancel", clients[job_owner].cancel(contact))
                contacts.pop(target)
        service.run(1.0)
    service.run(60.0)
    for job_owner, contact in contacts:
        record("final-status", clients[job_owner].status(contact))
    return outcomes


def test_sharded_outcomes_match_single_shard():
    plain = GramService(build_config())
    baseline = drive(plain, plain.gatekeeper)

    sharded = ShardedGramService(build_config(shards=4))
    outcomes = drive(sharded, sharded.gatekeeper)

    assert len(baseline) == len(outcomes)
    for index, (expected, got) in enumerate(zip(baseline, outcomes)):
        assert got == expected, f"request #{index}: {got!r} != {expected!r}"

    # Sanity: the stream exercised every outcome class.
    kinds = {(kind, code) for kind, code, _, _ in baseline}
    assert ("submit", "SUCCESS") in kinds
    assert ("submit", "AUTHORIZATION_DENIED") in kinds
    assert ("peer-status", "SUCCESS") in kinds
    assert ("peer-cancel", "AUTHORIZATION_DENIED") in kinds
    assert ("owner-cancel", "SUCCESS") in kinds


def test_inline_single_shard_is_byte_identical_to_plain():
    """shards=1, served inline on the caller's thread, is the plain
    service, observably."""
    protocol._contact_counter = itertools.count(1)
    plain = GramService(build_config())
    baseline = drive(plain, plain.gatekeeper)
    plain_contacts = sorted(plain.gatekeeper.completed._records)

    protocol._contact_counter = itertools.count(1)
    sharded = ShardedGramService(build_config(shards=1))
    outcomes = drive(sharded, sharded.gatekeeper)
    sharded_contacts = sorted(sharded.shards[0].gatekeeper.completed._records)

    assert outcomes == baseline
    # With the counter reset, even job ids line up.
    assert sharded_contacts == plain_contacts


def _four_shard_churn():
    """One 4-shard churn with every repeat path and the ceiling on."""
    protocol._contact_counter = itertools.count(1)
    capability._token_counter = itertools.count(1)
    churn = ChurnConfig(users=24, cycles=120, runtime=4.0, step=0.5)
    service, clients = build_sharded_churn(
        churn,
        ServiceConfig(
            host="churn.example.org",
            node_count=16,
            cpus_per_node=4,
            shards=4,
            decision_cache=True,
            capability_grants=True,
            max_active_jmis=6,
        ),
    )
    return service, run_sharded_churn(service, clients, churn)


def test_multi_shard_reruns_are_byte_identical():
    first, first_stats = _four_shard_churn()
    second, second_stats = _four_shard_churn()

    # The run reached every mechanism it claims to pin down, and the
    # service-wide ceiling held exactly across shards.
    assert first_stats.rejected_busy > 0
    assert first_stats.max_live_jmis == 6
    assert first.merged_value("capability_hit_total") > 0
    assert len({contact.host for _, contact in first_stats.contacts}) == 4

    assert second_stats.contacts == first_stats.contacts
    assert second.merged_prometheus() == first.merged_prometheus()
    assert second.merged_spans() == first.merged_spans()
