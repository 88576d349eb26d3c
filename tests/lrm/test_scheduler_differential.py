"""Differential suite: the incremental scheduler against the frozen full-pass one.

Both schedulers replay the same seeded operation sequences: submit,
cancel, suspend, resume, signal_priority and clock advances, including
advances of zero so that many jobs share ``submitted_at`` and ties fall
to queue order.  Clusters have 1-4 nodes, three queues have different
priorities, and some jobs carry walltime limits.  After every
operation each job's (state, started_at, finished_at, allocation,
exit_reason), the free CPUs, the queue depth, per-account CPU seconds
and the order of terminal hooks must agree.

Zero-walltime jobs are left out: the reference mishandles them (see
``reference_scheduler.py``), and ``test_scheduler.py`` pins the fix.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

import pytest

from repro.lrm.cluster import Cluster
from repro.lrm.errors import LRMError
from repro.lrm.jobs import BatchJob, JobState
from repro.lrm.queues import JobQueue
from repro.lrm.scheduler import BatchScheduler
from repro.sim.clock import Clock
from tests.lrm.reference_scheduler import ReferenceCluster, ReferenceScheduler

SEQUENCES = 2000
OPS = 120
CHUNKS = 8
ACCOUNTS = ("alice", "bob", "carol")
QUEUES = (
    JobQueue(name="default"),
    JobQueue(name="express", priority=10, max_walltime=40.0),
    JobQueue(name="bulk", priority=-5),
)

Op = Tuple[Any, ...]


def generate(seed: int) -> Tuple[int, int, List[Op]]:
    """One sequence: cluster shape and OPS operations, all from *seed*."""
    rng = random.Random(seed)
    node_count = rng.randint(1, 4)
    cpus_per_node = rng.randint(1, 4)
    total = node_count * cpus_per_node
    ops: List[Op] = []
    for index in range(OPS):
        roll = rng.random()
        if roll < 0.35:
            queue = rng.choice(QUEUES).name
            walltime = None
            if queue == "express" or rng.random() < 0.3:
                walltime = float(rng.randint(1, 40))
            ops.append((
                "submit",
                f"j{index:03d}",
                rng.choice(ACCOUNTS),
                min(rng.randint(1, total), rng.randint(1, total)),
                float(rng.choice((0, rng.randint(1, 30), rng.randint(1, 30)))),
                queue,
                rng.randint(0, 3),
                walltime,
            ))
        elif roll < 0.45:
            ops.append(("cancel", rng.random()))
        elif roll < 0.53:
            ops.append(("suspend", rng.random()))
        elif roll < 0.61:
            ops.append(("resume", rng.random()))
        elif roll < 0.70:
            ops.append(("signal", rng.random(), rng.randint(-2, 5)))
        else:
            ops.append(("advance", float(rng.choice((0, 0, 1, 2, 5, 13)))))
    return node_count, cpus_per_node, ops


class Side:
    """One scheduler under test, with its own clock, cluster and jobs."""

    def __init__(self, scheduler_cls, cluster: Any) -> None:
        self.clock = Clock()
        self.scheduler = scheduler_cls(cluster, self.clock, queues=list(QUEUES))
        self.jobs: List[BatchJob] = []
        self.hooks: List[Tuple[str, str]] = []
        self.scheduler.on_terminal.append(
            lambda job: self.hooks.append((job.job_id, job.state.value))
        )

    def apply(self, op: Op) -> str:
        """Run *op*; returns the name of the error it raised, if any."""
        kind = op[0]
        try:
            if kind == "submit":
                _, job_id, account, cpus, runtime, queue, priority, walltime = op
                job = BatchJob(
                    account=account,
                    executable="sim",
                    cpus=cpus,
                    runtime=runtime,
                    queue=queue,
                    priority=priority,
                    max_walltime=walltime,
                    job_id=job_id,
                )
                self.jobs.append(job)
                self.scheduler.submit(job)
            elif kind == "advance":
                self.clock.advance(op[1])
            elif self.jobs:
                # Suspend and resume mostly pick a job they apply to.
                wanted = {"suspend": JobState.RUNNING, "resume": JobState.SUSPENDED}
                pool = [job for job in self.jobs if job.state is wanted.get(kind)]
                pool = pool or self.jobs
                target = pool[int(op[1] * len(pool))].job_id
                if kind == "cancel":
                    self.scheduler.cancel(target)
                elif kind == "suspend":
                    self.scheduler.suspend(target)
                elif kind == "resume":
                    self.scheduler.resume(target)
                else:
                    self.scheduler.signal_priority(target, op[2])
        except LRMError as exc:
            return type(exc).__name__
        return ""

    def observe(self) -> Tuple[Any, ...]:
        scheduler = self.scheduler
        return (
            [
                (
                    job.job_id,
                    job.state,
                    job.started_at,
                    job.finished_at,
                    job.allocation,
                    job.exit_reason,
                )
                for job in self.jobs
            ],
            scheduler.cluster.free_cpus,
            scheduler.queue_depth,
            [scheduler.usage(account).cpu_seconds for account in ACCOUNTS],
            list(self.hooks),
        )


def first_divergence(seed: int):
    """``None``, or where and how the two schedulers disagree on *seed*."""
    node_count, cpus_per_node, ops = generate(seed)
    reference = Side(
        ReferenceScheduler,
        ReferenceCluster.homogeneous("c", node_count, cpus_per_node),
    )
    candidate = Side(
        BatchScheduler, Cluster.homogeneous("c", node_count, cpus_per_node)
    )
    for step, op in enumerate(ops):
        want = (reference.apply(op), reference.observe())
        got = (candidate.apply(op), candidate.observe())
        if got != want:
            return {"seed": seed, "step": step, "op": op, "want": want, "got": got}
    return None


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_incremental_scheduler_matches_full_pass_reference(chunk):
    seeds = range(chunk, SEQUENCES, CHUNKS)
    divergences = [d for d in map(first_divergence, seeds) if d is not None]
    assert divergences == [], divergences[0]


def test_sequences_reach_the_cases_where_order_matters():
    """Deep queues, tied submissions, requeued resumes, re-prioritised
    waiting jobs and walltime kills all occur in the generated mix."""
    seen = {"deep": 0, "tied": 0, "requeued": 0, "reprioritised": 0, "killed": 0}
    for seed in range(0, SEQUENCES, 20):
        node_count, cpus_per_node, ops = generate(seed)
        side = Side(BatchScheduler, Cluster.homogeneous("c", node_count, cpus_per_node))
        for op in ops:
            waiting = {job.job_id for job in side.scheduler.jobs(JobState.QUEUED)}
            side.apply(op)
            queued = side.scheduler.jobs(JobState.QUEUED)
            seen["deep"] += len(queued) >= 8
            if op[0] == "submit" and op[1] in {job.job_id for job in queued}:
                seen["tied"] += any(
                    job.submitted_at == side.clock.now and job.job_id in waiting
                    for job in queued
                )
            elif op[0] == "resume":
                seen["requeued"] += len(queued) > len(waiting)
            elif op[0] == "signal" and side.jobs:
                target = side.jobs[int(op[1] * len(side.jobs))]
                seen["reprioritised"] += target.job_id in waiting
        seen["killed"] += sum(job.exit_reason == "walltime exceeded" for job in side.jobs)
    assert all(count >= 20 for count in seen.values()), seen
