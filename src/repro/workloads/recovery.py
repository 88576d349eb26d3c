"""Restart-recovery differential: a recovered service must not drift.

The durable control plane claims that a :class:`~repro.gram.service
.GramService` (or its sharded sibling) restarted over a completed-job
spill answers post-completion management requests *identically* to the
service that never died.  This module pins that claim the way the
other differential suites pin theirs: build service A with a JSONL
spill, complete a population of jobs against it, build service B from
nothing but the same configuration and the spill file, then drive the
same randomized stream of ``information``/``cancel`` requests — owners
and peers, permits and denials — at both and compare every response
on the wire.  Capability tokens reaped with the jobs are re-validated
on both sides too.

Everything runs on simulated time with seeded randomness, so a run is
deterministic end to end and a single divergence is a hard failure,
not noise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.credentials import CertificateAuthority

#: DN root of the generated recovery population.
RECOVERY_PREFIX = "/O=Grid/O=Recovery/OU=durable.example.org"

#: Grants mirroring the sharded differential: starts bounded by count,
#: cancel only by the owner, information open to the jobtag community.
RECOVERY_POLICY = f"""
{RECOVERY_PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobtag=RECOVER)
"""


@dataclass(frozen=True)
class RecoveryDifferentialConfig:
    """Shape of one restart-recovery differential run."""

    #: Where service A spills and service B recovers from.
    spill_path: str
    #: Distinct users submitting and managing jobs.
    users: int = 8
    #: Jobs completed into the store before the restart.
    jobs: int = 48
    #: Randomized post-completion requests compared A-vs-B.
    requests: int = 10_000
    #: Declared runtime of every job, in simulated seconds.
    runtime: float = 4.0
    seed: int = 2026
    #: ``shards > 1`` runs the differential through the sharded
    #: service (spill files per shard, recovery per shard).
    shards: int = 1


@dataclass
class RecoveryDifferentialStats:
    """What a differential run observed."""

    #: Jobs that completed into service A's store.
    completed: int = 0
    #: Records service B recovered from the spill.
    recovered_records: int = 0
    #: Truncated/garbled spill lines skipped during recovery.
    skipped_lines: int = 0
    #: Post-completion requests compared.
    requests: int = 0
    #: Capability tokens re-validated on both services.
    capability_checks: int = 0
    #: Total response mismatches (must be 0).
    divergences: int = 0
    #: Total capability-validation mismatches (must be 0).
    capability_divergences: int = 0
    #: First few mismatches, for the failure message.
    examples: List[Tuple[int, str, Any, Any]] = field(default_factory=list)

    def record_divergence(
        self, index: int, kind: str, expected: Any, got: Any
    ) -> None:
        if kind == "capability":
            self.capability_divergences += 1
        else:
            self.divergences += 1
        if len(self.examples) < 8:
            self.examples.append((index, kind, expected, got))


def build_recovery_config(config: RecoveryDifferentialConfig, **overrides):
    """The :class:`ServiceConfig` both services are built from."""
    defaults = dict(
        host="recover.example.org",
        # Ample capacity: every submitted job starts, so the completed
        # population depends only on the stream.
        node_count=32,
        cpus_per_node=4,
        policies=(parse_policy(RECOVERY_POLICY, name="vo"),),
        capability_grants=True,
        decision_cache=True,
        spill_path=config.spill_path,
        shards=config.shards,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def build_recovery_service(
    config: RecoveryDifferentialConfig,
    ca: CertificateAuthority,
    service_config: Optional[ServiceConfig] = None,
):
    """One wired service over the spill path, flat or sharded.

    The certificate authority is passed in rather than created, for
    the same reason the spill file is: trust anchors survive a
    restart on disk, so service B must be built over the *same* CA
    that signed service A's user credentials.
    """
    service_config = service_config or build_recovery_config(config)
    if config.shards > 1:
        return ShardedGramService(service_config, ca=ca)
    return GramService(service_config, ca=ca)


def enroll(service, config: RecoveryDifferentialConfig) -> List[GramClient]:
    """Register the user population; returns one client per user."""
    return [
        GramClient(
            service.add_user(
                f"{RECOVERY_PREFIX}/CN=User {index:03d}", f"rec{index:03d}"
            ),
            service.gatekeeper,
        )
        for index in range(config.users)
    ]


def populate(service, clients, config: RecoveryDifferentialConfig):
    """Complete ``config.jobs`` jobs; returns (owner_index, contact)s."""
    contacts = []
    rsl = f"&(executable=sim)(count=1)(runtime={config.runtime:g})(jobtag=RECOVER)"
    for index in range(config.jobs):
        owner = index % len(clients)
        response = clients[owner].submit(rsl)
        assert response.ok, f"populate submit #{index}: {response.message}"
        contacts.append((owner, response.contact))
        service.run(0.5)
    # Drain until every job has finished and been reaped.
    service.run(config.runtime * 3 + 10.0)
    return contacts


def normalized_wire(response) -> Dict[str, Any]:
    """A response's wire form with per-request bookkeeping removed.

    Correlation ids, decision ids and wall-clock stage durations
    differ trivially between the two services (A also served the
    populate phase and runs on a different machine instant); every
    *semantic* field — code, message, reasons, state, owner, the
    decision's effect, per-source outcomes **and policy epochs**, and
    the cache/capability fast-path status — is kept and compared.
    """
    wire = json.loads(response.to_wire())
    context = wire.get("decision_context")
    if isinstance(context, dict):
        context = dict(context)
        for volatile in ("correlation_id", "request_id", "duration"):
            context.pop(volatile, None)
        stages = context.get("stages")
        if isinstance(stages, list):
            context["stages"] = [
                {
                    key: value
                    for key, value in stage.items()
                    if key != "duration"
                }
                for stage in stages
            ]
        wire["decision_context"] = context
    return wire


def _sync_clock(service, target_now: float) -> None:
    """Advance a (possibly sharded) service's clock(s) to *target_now*.

    Recovery restores the clock to the spill's last timestamp; the
    uninterrupted service kept running past that point while its jobs
    drained.  Age-based answers must be compared at the same instant.
    """
    shards = getattr(service, "shards", None) or (service,)
    for shard in shards:
        if shard.clock.now < target_now:
            shard.clock.advance(target_now - shard.clock.now)


def _completed_records(service) -> Dict[str, Any]:
    """job id -> completed record, merged across shards."""
    shards = getattr(service, "shards", None) or (service,)
    merged: Dict[str, Any] = {}
    for shard in shards:
        for record in shard.gatekeeper.completed.live_records():
            merged[record.job_id] = record
    return merged


def _issuer_for(service, contact, identity: str):
    """The capability issuer owning *contact*'s job on *service*."""
    shards = getattr(service, "shards", None)
    if shards is None:
        return service.capability.issuer if service.capability else None
    index = service.shard_of_contact(contact, identity)
    shard = shards[index]
    return shard.capability.issuer if shard.capability else None


def run_recovery_differential(
    config: RecoveryDifferentialConfig,
) -> RecoveryDifferentialStats:
    """The full differential: populate, restart, compare.

    Returns stats; callers assert ``divergences == 0`` and
    ``capability_divergences == 0``.
    """
    stats = RecoveryDifferentialStats()
    ca = CertificateAuthority("/O=Grid/CN=Recovery CA")

    # -- phase 1: service A completes the job population ---------------
    service_a = build_recovery_service(config, ca)
    clients_a = enroll(service_a, config)
    contacts = populate(service_a, clients_a, config)
    records_a = _completed_records(service_a)
    stats.completed = len(records_a)
    assert stats.completed == config.jobs, (
        f"populate left {stats.completed}/{config.jobs} completed records"
    )

    # -- phase 2: service B rises from the spill alone ------------------
    service_b = build_recovery_service(config, ca)
    enroll(service_b, config)
    recoveries = getattr(service_b, "recovery", None)
    if not isinstance(recoveries, tuple):
        recoveries = (recoveries,) if recoveries is not None else ()
    stats.recovered_records = sum(len(r.records) for r in recoveries)
    stats.skipped_lines = sum(r.skipped_lines for r in recoveries)
    clock_a = getattr(service_a, "shards", None)
    now_a = (clock_a[0] if clock_a else service_a).clock.now
    _sync_clock(service_b, now_a)

    # -- phase 3: the randomized request stream, A vs B ------------------
    rng = random.Random(config.seed)
    for index in range(config.requests):
        owner, contact = contacts[rng.randrange(len(contacts))]
        requester = owner
        if rng.random() < 0.5:
            requester = (owner + 1 + rng.randrange(config.users - 1)) % (
                config.users
            )
        action = rng.choice(("information", "cancel"))
        credential = clients_a[requester].credential
        answer_a = normalized_wire(
            service_a.gatekeeper.manage(credential, contact, action)
        )
        answer_b = normalized_wire(
            service_b.gatekeeper.manage(credential, contact, action)
        )
        stats.requests += 1
        if answer_a != answer_b:
            stats.record_divergence(index, action, answer_a, answer_b)

    # -- phase 4: reaped capability tokens validate identically -----------
    records_b = _completed_records(service_b)
    for owner, contact in contacts:
        record = records_a.get(contact.job_id)
        recovered = records_b.get(contact.job_id)
        if record is None or record.capability is None:
            continue
        identity = clients_a[owner].identity
        issuer_a = _issuer_for(service_a, contact, identity)
        issuer_b = _issuer_for(service_b, contact, identity)
        if issuer_a is None or issuer_b is None:
            continue
        token_b = recovered.capability if recovered is not None else None
        verdict_a = issuer_a.validate(record.capability)
        verdict_b = (
            issuer_b.validate(token_b) if token_b is not None else "missing"
        )
        stats.capability_checks += 1
        if verdict_a != verdict_b:
            stats.record_divergence(
                -1, "capability", verdict_a, verdict_b
            )

    return stats
