"""Restart-recovery differential: a recovered service must not drift.

The durable control plane claims that a :class:`~repro.gram.service
.GramService` restarted over a completed-job spill answers
post-completion management requests *identically* to the service that
never died.  This module pins that claim the way the
other differential suites pin theirs: build service A with a JSONL
spill, complete a population of jobs against it, build service B from
nothing but the same configuration and the spill file, then drive the
same randomized stream of ``information``/``cancel`` requests — owners
and peers, permits and denials — at both and compare every response
on the wire.  :func:`run_torn_tail_differential` restarts over
a spill whose last line a crash tore, keeps serving, and restarts
again: nothing written after the torn line may be lost.

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
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.credentials import CertificateAuthority

#: DN root of the generated recovery population.
RECOVERY_PREFIX = "/O=Grid/O=Recovery/OU=durable.example.org"

#: Starts bounded by count, cancel only by the owner, information open
#: to the jobtag community.
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
    #: Total response mismatches (must be 0).
    divergences: int = 0
    #: First few mismatches, for the failure message.
    examples: List[Tuple[int, str, Any, Any]] = field(default_factory=list)

    def record_divergence(
        self, index: int, kind: str, expected: Any, got: Any
    ) -> None:
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
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def build_recovery_service(
    config: RecoveryDifferentialConfig,
    ca: CertificateAuthority,
    service_config: Optional[ServiceConfig] = None,
) -> GramService:
    """One wired service over the spill path.

    The certificate authority is passed in rather than created, for
    the same reason the spill file is: trust anchors survive a
    restart on disk, so service B must be built over the *same* CA
    that signed service A's user credentials.
    """
    return GramService(
        service_config or build_recovery_config(config), ca=ca
    )


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

    Correlation ids, decision ids, capability grant ids and wall-clock
    stage durations differ trivially between the two services (A also
    served the populate phase, grant ids are numbered per process, and
    A runs on a different machine instant); every *semantic* field —
    code, message, reasons, state, owner, the decision's effect,
    per-source outcomes **and policy epochs**, and the cache/capability
    fast-path status — is kept and compared.
    """
    wire = json.loads(response.to_wire())
    context = wire.get("decision_context")
    if isinstance(context, dict):
        context = dict(context)
        for volatile in ("correlation_id", "request_id", "duration", "capability"):
            context.pop(volatile, None)
        stages = context.get("stages")
        if isinstance(stages, list):
            # A capability stage's detail names its grant id.
            context["stages"] = [
                {
                    key: value
                    for key, value in stage.items()
                    if key != "duration"
                    and not (key == "detail" and stage.get("name") == "capability")
                }
                for stage in stages
            ]
        wire["decision_context"] = context
    return wire


def _sync_clock(service: GramService, target_now: float) -> None:
    """Advance *service*'s clock to *target_now*.

    Recovery restores the clock to the spill's last timestamp; the
    uninterrupted service kept running past that point while its jobs
    drained.  Age-based answers must be compared at the same instant.
    """
    if service.clock.now < target_now:
        service.clock.advance(target_now - service.clock.now)


def _restart(
    before: GramService,
    config: RecoveryDifferentialConfig,
    ca: CertificateAuthority,
    stats: RecoveryDifferentialStats,
) -> Tuple[GramService, List[GramClient]]:
    """A fresh service over *before*'s spill, at *before*'s instant,
    with the population enrolled again."""
    after = build_recovery_service(config, ca)
    clients = enroll(after, config)
    stats.recovered_records = len(after.recovery.records)
    stats.skipped_lines += after.recovery.skipped_lines
    _sync_clock(after, before.clock.now)
    return after, clients


def _compare(
    reference: GramService,
    candidate: GramService,
    clients: List[GramClient],
    contacts: List[Tuple[int, Any]],
    config: RecoveryDifferentialConfig,
    stats: RecoveryDifferentialStats,
) -> None:
    """Drive the randomized request stream at both; count mismatches."""
    rng = random.Random(config.seed)
    for index in range(config.requests):
        owner, contact = contacts[rng.randrange(len(contacts))]
        requester = owner
        if rng.random() < 0.5:
            requester = (owner + 1 + rng.randrange(config.users - 1)) % (
                config.users
            )
        action = rng.choice(("information", "cancel"))
        credential = clients[requester].credential
        expected = normalized_wire(
            reference.gatekeeper.manage(credential, contact, action)
        )
        answer = normalized_wire(
            candidate.gatekeeper.manage(credential, contact, action)
        )
        stats.requests += 1
        if expected != answer:
            stats.record_divergence(index, action, expected, answer)


def _populated(
    config: RecoveryDifferentialConfig,
    ca: CertificateAuthority,
    stats: RecoveryDifferentialStats,
):
    """Service A with ``config.jobs`` jobs completed into its spill."""
    service = build_recovery_service(config, ca)
    clients = enroll(service, config)
    contacts = populate(service, clients, config)
    stats.completed = len(service.gatekeeper.completed)
    assert stats.completed == config.jobs, (
        f"populate left {stats.completed}/{config.jobs} completed records"
    )
    return service, clients, contacts


def run_recovery_differential(
    config: RecoveryDifferentialConfig,
) -> RecoveryDifferentialStats:
    """The full differential: populate, restart, compare.

    Returns stats; callers assert ``divergences == 0``.
    """
    stats = RecoveryDifferentialStats()
    ca = CertificateAuthority("/O=Grid/CN=Recovery CA")
    service_a, clients, contacts = _populated(config, ca, stats)
    service_b, _ = _restart(service_a, config, ca, stats)
    _compare(service_a, service_b, clients, contacts, config, stats)
    return stats


def _tear_tail(path: str) -> None:
    """Leave *path* the way a crash mid-append does: the first half of
    a record line, with no newline after it."""
    with open(path, "r", encoding="utf-8") as handle:
        last = handle.read().splitlines()[-1]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(last[: len(last) // 2])


def run_torn_tail_differential(
    config: RecoveryDifferentialConfig,
) -> RecoveryDifferentialStats:
    """A restart over a torn spill tail must lose nothing written after.

    Service A completes ``config.jobs`` jobs and the spill's tail is
    torn.  Service B recovers them all (skipping the torn line),
    completes ``config.jobs`` more, and service C restarts over the
    same file.  C must answer every job of both populations exactly
    like B.  ``stats.completed`` counts B's records.
    """
    stats = RecoveryDifferentialStats()
    ca = CertificateAuthority("/O=Grid/CN=Recovery CA")
    service_a, clients, contacts = _populated(config, ca, stats)
    _tear_tail(config.spill_path)
    service_b, clients_b = _restart(service_a, config, ca, stats)
    contacts = contacts + populate(service_b, clients_b, config)
    stats.completed = len(service_b.gatekeeper.completed)
    service_c, _ = _restart(service_b, config, ca, stats)
    _compare(service_b, service_c, clients, contacts, config, stats)
    return stats
