"""The batch scheduler before incremental scheduling, frozen as a reference.

:class:`ReferenceCluster` re-sums every node on each capacity question,
and :class:`ReferenceScheduler` re-sorts the whole wait queue and asks
the cluster about every waiting job on every pass.  That is the simple
algorithm :mod:`repro.lrm.scheduler` must agree with, job for job, in
``test_scheduler_differential.py``.

The copy is faithful, bugs included: a job that fails inside ``_start``
(a zero walltime budget) runs ``_finish`` in the middle of a pass,
which mutates the list being scanned and recurses into a second pass.
Compare against it only on inputs without zero-walltime jobs.

Only the scheduling core is kept: no per-job terminal callbacks, no
``forget``, no usage summaries.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lrm.cluster import Allocation, Node
from repro.lrm.errors import AllocationError, QueueError, UnknownJobError
from repro.lrm.jobs import BatchJob, JobState
from repro.lrm.queues import JobQueue
from repro.lrm.scheduler import AccountUsage
from repro.sim.clock import Clock, ScheduledEvent
from repro.sim.process import SimProcess


class ReferenceCluster:
    """First-fit allocation, every capacity figure summed over the nodes."""

    def __init__(self, name: str, nodes: Iterable[Node]) -> None:
        self.name = name
        self.nodes: List[Node] = list(nodes)
        if not self.nodes:
            raise ValueError(f"cluster {name!r} needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in cluster {name!r}")

    @classmethod
    def homogeneous(
        cls, name: str, node_count: int, cpus_per_node: int
    ) -> "ReferenceCluster":
        return cls(
            name,
            [Node(f"{name}-n{i:03d}", cpus_per_node) for i in range(node_count)],
        )

    @property
    def total_cpus(self) -> int:
        return sum(node.cpus for node in self.nodes)

    @property
    def free_cpus(self) -> int:
        return sum(node.free for node in self.nodes)

    def can_allocate(self, cpus: int) -> bool:
        return 0 < cpus <= self.free_cpus

    def fits(self, cpus: int) -> bool:
        return 0 < cpus <= self.total_cpus

    def allocate(self, cpus: int) -> Allocation:
        if cpus <= 0:
            raise AllocationError(f"cannot allocate {cpus} CPUs")
        if cpus > self.free_cpus:
            raise AllocationError(
                f"cluster {self.name!r} has {self.free_cpus} free CPUs, "
                f"asked for {cpus}"
            )
        remaining = cpus
        parts: List[Tuple[str, int]] = []
        for node in self.nodes:
            if remaining == 0:
                break
            grab = min(node.free, remaining)
            if grab > 0:
                node.take(grab)
                parts.append((node.name, grab))
                remaining -= grab
        assert remaining == 0, "free_cpus accounting is inconsistent"
        return Allocation(parts=tuple(parts))

    def release(self, allocation: Allocation) -> None:
        by_name: Dict[str, Node] = {node.name: node for node in self.nodes}
        for name, count in allocation.parts:
            node = by_name.get(name)
            if node is None:
                raise AllocationError(f"allocation references unknown node {name!r}")
            node.give_back(count)


class ReferenceScheduler:
    """Priority/FIFO scheduling with a full sort and scan on every pass."""

    def __init__(
        self,
        cluster: ReferenceCluster,
        clock: Clock,
        queues: Optional[List[JobQueue]] = None,
    ) -> None:
        self.cluster = cluster
        self.clock = clock
        self.queues: Dict[str, JobQueue] = {
            q.name: q for q in (queues or [JobQueue(name="default")])
        }
        self._jobs: Dict[str, BatchJob] = {}
        self._waiting: List[BatchJob] = []
        self._usage: Dict[str, AccountUsage] = {}
        self._walltime_events: Dict[str, ScheduledEvent] = {}
        self.on_terminal: List[Callable[[BatchJob], None]] = []

    def submit(self, job: BatchJob) -> str:
        if job.job_id in self._jobs:
            raise QueueError(f"duplicate job id {job.job_id}")
        queue = self.queues.get(job.queue)
        if queue is None:
            raise QueueError(f"unknown queue {job.queue!r}")
        queue.admit(job)
        if not self.cluster.fits(job.cpus):
            raise AllocationError(
                f"job {job.job_id} requests {job.cpus} CPUs but cluster "
                f"{self.cluster.name!r} only has {self.cluster.total_cpus}"
            )
        job.submitted_at = self.clock.now
        job.state = JobState.QUEUED
        self._jobs[job.job_id] = job
        self._waiting.append(job)
        self._account(job.account).jobs_submitted += 1
        self._schedule_pass()
        return job.job_id

    def job(self, job_id: str) -> BatchJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"no job {job_id!r}")

    def cancel(self, job_id: str, reason: str = "cancelled") -> None:
        job = self.job(job_id)
        if job.is_terminal:
            return
        self._finish(job, JobState.CANCELLED, reason)

    def suspend(self, job_id: str) -> None:
        job = self.job(job_id)
        if job.state is not JobState.RUNNING:
            raise UnknownJobError(
                f"job {job_id} is {job.state.value}, cannot suspend"
            )
        assert job.process is not None
        job.process.suspend()
        job.state = JobState.SUSPENDED
        self._disarm_walltime(job)
        if job.allocation is not None:
            self.cluster.release(job.allocation)
            job.allocation = None
        self._schedule_pass()

    def resume(self, job_id: str) -> None:
        job = self.job(job_id)
        if job.state is not JobState.SUSPENDED:
            raise UnknownJobError(f"job {job_id} is {job.state.value}, cannot resume")
        if self.cluster.can_allocate(job.cpus):
            self._start(job, resuming=True)
        else:
            job.state = JobState.QUEUED
            self._waiting.insert(0, job)
        self._schedule_pass()

    def signal_priority(self, job_id: str, priority: int) -> None:
        job = self.job(job_id)
        if job.is_terminal:
            raise UnknownJobError(f"job {job_id} already finished")
        job.priority = priority
        self._schedule_pass()

    def usage(self, account: str) -> AccountUsage:
        return self._account(account)

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    def _account(self, account: str) -> AccountUsage:
        usage = self._usage.get(account)
        if usage is None:
            usage = AccountUsage(account=account)
            self._usage[account] = usage
        return usage

    def _schedule_pass(self) -> None:
        self._waiting.sort(
            key=lambda j: (
                -(self.queues[j.queue].priority),
                -j.priority,
                j.submitted_at,
            )
        )
        still_waiting: List[BatchJob] = []
        for job in self._waiting:
            if job.is_terminal:
                continue
            if self.cluster.can_allocate(job.cpus):
                self._start(job)
            else:
                still_waiting.append(job)
        self._waiting = still_waiting

    def _start(self, job: BatchJob, resuming: bool = False) -> None:
        job.allocation = self.cluster.allocate(job.cpus)
        if resuming:
            assert job.process is not None
            job.process.resume()
        else:
            job.process = SimProcess(
                clock=self.clock,
                duration=job.runtime,
                name=job.job_id,
                on_complete=lambda _proc, j=job: self._on_complete(j),
            )
            job.started_at = self.clock.now
            job.process.start()
        job.state = JobState.RUNNING
        self._arm_walltime(job)

    def _arm_walltime(self, job: BatchJob) -> None:
        queue = self.queues[job.queue]
        bound = queue.effective_walltime(job)
        if bound is None or job.started_at is None:
            return
        deadline = job.started_at + bound
        if deadline <= self.clock.now:
            self._finish(job, JobState.FAILED, "walltime exceeded")
            return
        self._walltime_events[job.job_id] = self.clock.call_at(
            deadline,
            lambda j=job: self._walltime_exceeded(j),
            name=f"walltime:{job.job_id}",
        )

    def _disarm_walltime(self, job: BatchJob) -> None:
        event = self._walltime_events.pop(job.job_id, None)
        if event is not None:
            event.cancel()

    def _walltime_exceeded(self, job: BatchJob) -> None:
        self._walltime_events.pop(job.job_id, None)
        if not job.is_terminal:
            self._finish(job, JobState.FAILED, "walltime exceeded")

    def _on_complete(self, job: BatchJob) -> None:
        if job.is_terminal:
            return
        self._finish(job, JobState.COMPLETED, "completed")

    def _finish(self, job: BatchJob, state: JobState, reason: str) -> None:
        usage = self._account(job.account)
        if job.process is not None and job.process.is_active:
            job.process.kill()
        usage.cpu_seconds += job.cpu_seconds
        if job.allocation is not None:
            self.cluster.release(job.allocation)
            job.allocation = None
        if job in self._waiting:
            self._waiting.remove(job)
        job.state = state
        job.finished_at = self.clock.now
        job.exit_reason = reason
        if state is JobState.COMPLETED:
            usage.jobs_completed += 1
        elif state is JobState.CANCELLED:
            usage.jobs_cancelled += 1
        else:
            usage.jobs_failed += 1
        for hook in list(self.on_terminal):
            hook(job)
        self._schedule_pass()
