"""Closed-loop job-churn workload: sustained submit/poll/cancel traffic.

The ROADMAP's north star is heavy traffic from very many users; what
kills a GRAM resource under that load is not a single burst but
*churn* — jobs continuously submitted, polled, cancelled and completed
over days.  This module drives exactly that against a fully wired
:class:`~repro.gram.service.GramService` on simulated time, and
reports the lifecycle quantities the leak guards assert on: live JMI
count, pending terminal-callback registrations, completed-record
count, admission rejections, and the per-account ``running_jobs``
balance.

Everything is seeded and driven by the sim clock, so a churn run is
deterministic end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
from repro.gram.protocol import GramErrorCode, JobContact
from repro.gram.service import GramService, ServiceConfig

#: DN root of the generated churn population.
CHURN_PREFIX = "/O=Grid/O=Churn/OU=load.example.org"


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of one churn run."""

    #: Distinct users cycling through submissions.
    users: int = 50
    #: Total submit attempts (each followed by poll(s) and maybe cancel).
    cycles: int = 500
    #: Declared runtime of every job, in simulated seconds.
    runtime: float = 4.0
    #: Simulated time advanced between consecutive submissions.
    step: float = 1.0
    #: Fraction of started jobs cancelled right after their first poll.
    cancel_fraction: float = 0.25
    #: Status polls issued per started job.
    polls_per_job: int = 1
    seed: int = 17


@dataclass
class ChurnStats:
    """What a churn run observed (all monotone or end-of-run values)."""

    submitted: int = 0
    started: int = 0
    cancelled: int = 0
    rejected_busy: int = 0
    errors: int = 0
    polls: int = 0
    #: Peak ``gatekeeper.active_job_managers`` over the run.
    max_live_jmis: int = 0
    #: Peak pending per-job terminal registrations in the scheduler.
    max_terminal_callbacks: int = 0
    final_live_jmis: int = 0
    final_terminal_callbacks: int = 0
    final_completed_records: int = 0
    final_scheduler_jobs: int = 0
    #: Sum of ``account.running_jobs`` after the drain — must be 0 if
    #: enforcement accounting balances.
    running_jobs_after: int = 0
    #: Contacts of started jobs, for post-run management probes.
    contacts: List[Tuple[int, JobContact]] = field(default_factory=list)


def churn_rsl(config: ChurnConfig) -> str:
    """The RSL every churn job submits."""
    return (
        f"&(executable=sim)(count=1)(runtime={config.runtime:g})"
        f"(jobtag=CHURN)"
    )


def build_churn_service(
    config: ChurnConfig,
    service_config: Optional[ServiceConfig] = None,
) -> Tuple[GramService, List[GramClient]]:
    """A wired service plus one enrolled client per churn user.

    The default service runs the extended architecture with the stock
    initiator rule (no policies installed), static-account
    enforcement, and reaping on — callers pass their own
    :class:`ServiceConfig` to change retention, caps, or policy.
    """
    service = GramService(
        service_config
        or ServiceConfig(host="churn.example.org", node_count=16, cpus_per_node=4)
    )
    clients: List[GramClient] = []
    for index in range(config.users):
        identity = f"{CHURN_PREFIX}/CN=User {index:05d}"
        credential = service.add_user(identity, f"churn{index:05d}")
        clients.append(GramClient(credential, service.gatekeeper))
    return service, clients


def run_churn(
    service: GramService,
    clients: List[GramClient],
    config: ChurnConfig,
    stats: Optional[ChurnStats] = None,
) -> ChurnStats:
    """Drive *config.cycles* submit/poll/cancel cycles, then drain.

    Passing an existing *stats* continues accumulating into it — the
    lifecycle benchmark runs several stages against one service to
    watch live state stay flat while cumulative jobs grow.
    """
    rng = random.Random(config.seed)
    stats = stats if stats is not None else ChurnStats()
    gatekeeper = service.gatekeeper
    scheduler = service.scheduler
    rsl = churn_rsl(config)

    for cycle in range(config.cycles):
        client = clients[cycle % len(clients)]
        response = client.submit(rsl)
        stats.submitted += 1
        if response.code is GramErrorCode.RESOURCE_BUSY:
            stats.rejected_busy += 1
        elif response.ok:
            stats.started += 1
            assert response.contact is not None
            stats.contacts.append((cycle, response.contact))
            for _ in range(config.polls_per_job):
                client.status(response.contact)
                stats.polls += 1
            if rng.random() < config.cancel_fraction:
                if client.cancel(response.contact).ok:
                    stats.cancelled += 1
        else:
            stats.errors += 1
        stats.max_live_jmis = max(
            stats.max_live_jmis, gatekeeper.active_job_managers
        )
        stats.max_terminal_callbacks = max(
            stats.max_terminal_callbacks, scheduler.terminal_callback_count
        )
        service.run(config.step)

    # Drain: give every in-flight job time to finish.
    service.run(config.runtime * 2 + config.step)
    stats.final_live_jmis = gatekeeper.active_job_managers
    stats.final_terminal_callbacks = scheduler.terminal_callback_count
    stats.final_completed_records = gatekeeper.completed_jobs
    stats.final_scheduler_jobs = len(scheduler.jobs())
    stats.running_jobs_after = sum(
        account.running_jobs for account in service.accounts.accounts()
    )
    return stats


def build_sharded_churn(
    config: ChurnConfig,
    service_config: Optional[ServiceConfig] = None,
) -> Tuple[ShardedGramService, List[GramClient]]:
    """A sharded service plus one enrolled client per churn user.

    The sharded sibling of :func:`build_churn_service`: same user
    population, same defaults, but the service is a
    :class:`~repro.gram.dispatch.ShardedGramService` built from
    ``service_config.shards``.
    """
    service = ShardedGramService(
        service_config
        or ServiceConfig(host="churn.example.org", node_count=16, cpus_per_node=4)
    )
    clients: List[GramClient] = []
    for index in range(config.users):
        identity = f"{CHURN_PREFIX}/CN=User {index:05d}"
        credential = service.add_user(identity, f"churn{index:05d}")
        clients.append(GramClient(credential, service.gatekeeper))
    return service, clients


def run_sharded_churn(
    service: ShardedGramService,
    clients: List[GramClient],
    config: ChurnConfig,
    stats: Optional[ChurnStats] = None,
) -> ChurnStats:
    """Drive the churn loop against a sharded service, in waves.

    Each wave submits one job per shard-pool slot, then polls and
    cancels the started jobs, every request on the caller's thread.
    The wave order and the cancel lottery are seeded exactly like
    :func:`run_churn`, so a one-shard run observes the same request
    stream the plain driver would issue.
    """
    rng = random.Random(config.seed)
    stats = stats if stats is not None else ChurnStats()
    gatekeeper = service.gatekeeper
    rsl = churn_rsl(config)
    wave_size = max(1, len(service.shards))

    cycle = 0
    while cycle < config.cycles:
        wave = [
            clients[(cycle + offset) % len(clients)]
            for offset in range(min(wave_size, config.cycles - cycle))
        ]
        cycle += len(wave)
        started: List[Tuple[GramClient, JobContact]] = []
        for client in wave:
            response = gatekeeper.submit(client.credential, rsl)
            stats.submitted += 1
            if response.code is GramErrorCode.RESOURCE_BUSY:
                stats.rejected_busy += 1
            elif response.ok:
                stats.started += 1
                assert response.contact is not None
                stats.contacts.append((cycle, response.contact))
                started.append((client, response.contact))
            else:
                stats.errors += 1
        for _ in range(config.polls_per_job):
            for client, contact in started:
                gatekeeper.manage(client.credential, contact, "information")
                stats.polls += 1
        for client, contact in started:
            if rng.random() < config.cancel_fraction:
                if gatekeeper.manage(client.credential, contact, "cancel").ok:
                    stats.cancelled += 1
        stats.max_live_jmis = max(
            stats.max_live_jmis, gatekeeper.active_job_managers
        )
        stats.max_terminal_callbacks = max(
            stats.max_terminal_callbacks,
            sum(s.scheduler.terminal_callback_count for s in service.shards),
        )
        service.run(config.step)

    service.run(config.runtime * 2 + config.step)
    stats.final_live_jmis = gatekeeper.active_job_managers
    stats.final_terminal_callbacks = sum(
        s.scheduler.terminal_callback_count for s in service.shards
    )
    stats.final_completed_records = gatekeeper.completed_jobs
    stats.final_scheduler_jobs = sum(
        len(s.scheduler.jobs()) for s in service.shards
    )
    stats.running_jobs_after = sum(
        account.running_jobs
        for shard in service.shards
        for account in shard.accounts.accounts()
    )
    return stats


def churn_live_bound(config: ChurnConfig) -> int:
    """A generous ceiling on simultaneously live JMIs for *config*.

    Jobs live ``runtime`` sim-seconds (queue time excluded) and one is
    submitted every ``step``, so steady state holds about
    ``runtime / step`` live jobs; the bound doubles that and adds
    slack for queueing so the leak guards fail on leaks, not jitter.
    """
    steady = config.runtime / max(config.step, 1e-9)
    return int(2 * steady + 10)
