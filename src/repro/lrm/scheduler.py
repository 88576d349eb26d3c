"""The batch scheduler.

A priority scheduler with FIFO order within equal priority: queued
jobs start whenever enough CPUs are free, higher (queue priority +
job priority) first.  Supports the full management vocabulary the
GRAM Job Manager needs — cancel, suspend, resume, signal (priority
change) — plus walltime enforcement and per-account accounting.

Scheduling is event-driven: submissions, completions and cancellations
all trigger a scheduling pass on the shared :class:`~repro.sim.Clock`.
A pass returns at once while fewer CPUs are free than a lower bound on
every waiting job's request, and it never recurses: an event raised
inside it restarts its ordered scan instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.lrm.cluster import Cluster
from repro.lrm.errors import AllocationError, QueueError, UnknownJobError
from repro.lrm.jobs import BatchJob, JobState
from repro.lrm.queues import JobQueue
from repro.sim.clock import Clock, ScheduledEvent
from repro.sim.process import SimProcess


@dataclass
class AccountUsage:
    """Accumulated resource usage of one local account."""

    account: str
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    cpu_seconds: float = 0.0

    @property
    def jobs_finished(self) -> int:
        return self.jobs_completed + self.jobs_failed + self.jobs_cancelled

    def summary(self) -> Dict[str, Any]:
        """This account's usage as JSON-ready plain data."""
        return {
            "account": self.account,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_finished": self.jobs_finished,
            "cpu_seconds": self.cpu_seconds,
        }


class BatchScheduler:
    """An LSF/PBS-like scheduler over a :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        clock: Clock,
        queues: Optional[List[JobQueue]] = None,
    ) -> None:
        self.cluster = cluster
        self.clock = clock
        self.queues: Dict[str, JobQueue] = {
            q.name: q for q in (queues or [JobQueue(name="default")])
        }
        self._jobs: Dict[str, BatchJob] = {}
        #: Exactly the QUEUED jobs.  Unless ``_unsorted``, in start order;
        #: a stable sort restores that order after any change.
        self._waiting: List[BatchJob] = []
        self._unsorted = False
        #: A lower bound on the CPUs of every waiting job (inf when none
        #: waits): while fewer CPUs are free, no waiting job can start.
        self._min_waiting_cpus: float = math.inf
        self._in_pass = False
        self._rescan = False
        self._usage: Dict[str, AccountUsage] = {}
        self._walltime_events: Dict[str, ScheduledEvent] = {}
        #: Hooks fired for *every* job reaching a terminal state.
        #: Broadcast subscribers only — per-job consumers (the GRAM
        #: layers) must use :meth:`on_job_terminal` instead, which
        #: dispatches in O(1) and cannot leak registrations.
        self.on_terminal: List[Callable[[BatchJob], None]] = []
        #: One-shot callbacks keyed by job id (see :meth:`on_job_terminal`).
        self._terminal_callbacks: Dict[str, List[Callable[[BatchJob], None]]] = {}

    # -- submission --------------------------------------------------------

    def submit(self, job: BatchJob) -> str:
        """Queue *job*; returns its LRM job id."""
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
        self._enqueue(job)
        self._account(job.account).jobs_submitted += 1
        self._schedule_pass()
        return job.job_id

    # -- management --------------------------------------------------------

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

    def fail(self, job_id: str, reason: str) -> None:
        """Terminate a job as a system-initiated failure (limit kill)."""
        job = self.job(job_id)
        if job.is_terminal:
            return
        self._finish(job, JobState.FAILED, reason)

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
        # Suspension frees the CPUs — that is its purpose in the use
        # case (freeing resources for high-priority work).
        if job.allocation is not None:
            self.cluster.release(job.allocation)
            job.allocation = None
        self._schedule_pass()

    def resume(self, job_id: str) -> None:
        job = self.job(job_id)
        if job.state is not JobState.SUSPENDED:
            raise UnknownJobError(f"job {job_id} is {job.state.value}, cannot resume")
        # Resumption needs CPUs again; if none are free the job goes
        # back to the head of the queue.
        if self.cluster.can_allocate(job.cpus):
            self._start(job, resuming=True)
        else:
            job.state = JobState.QUEUED
            self._enqueue(job, at_head=True)
        self._schedule_pass()

    def signal_priority(self, job_id: str, priority: int) -> None:
        """Change a job's priority (the paper's ``signal`` example)."""
        job = self.job(job_id)
        if job.is_terminal:
            raise UnknownJobError(f"job {job_id} already finished")
        if job.state is JobState.QUEUED:
            # Ties under the new key keep the order the old key gave them.
            self._sort_waiting()
            self._unsorted = True
        job.priority = priority
        self._schedule_pass()

    def status(self, job_id: str) -> JobState:
        return self.job(job_id).state

    # -- terminal notification ---------------------------------------------

    def on_job_terminal(
        self, job_id: str, callback: Callable[[BatchJob], None]
    ) -> None:
        """Register a one-shot *callback* for *job_id*'s terminal event.

        Dispatch is O(1) in the number of jobs: callbacks live in a
        dict keyed by job id and are consumed when they fire, so a
        registration can never outlive its job.  If the job is
        *already* terminal the callback fires immediately — a job can
        complete inside ``submit()`` (zero walltime budget), and the
        caller must not miss the event it subscribed for.
        """
        job = self._jobs.get(job_id)
        if job is not None and job.is_terminal:
            callback(job)
            return
        self._terminal_callbacks.setdefault(job_id, []).append(callback)

    def drop_job_terminal(self, job_id: str) -> None:
        """Discard any pending terminal callbacks for *job_id*."""
        self._terminal_callbacks.pop(job_id, None)

    @property
    def terminal_callback_count(self) -> int:
        """Pending per-job callback registrations (leak-guard metric)."""
        return sum(len(cbs) for cbs in self._terminal_callbacks.values())

    def forget(self, job_id: str) -> None:
        """Drop a *terminal* job's record from the scheduler.

        The serving layer reaps completed jobs into its own bounded
        store; forgetting the LRM-side record afterwards keeps the
        scheduler's memory O(active jobs) under sustained churn.
        Aggregated :class:`AccountUsage` is unaffected.
        """
        job = self.job(job_id)
        if not job.is_terminal:
            raise QueueError(f"job {job_id} is {job.state.value}, not terminal")
        del self._jobs[job_id]
        self._terminal_callbacks.pop(job_id, None)
        self._disarm_walltime(job)

    # -- inspection ----------------------------------------------------------

    def jobs(self, state: Optional[JobState] = None) -> Tuple[BatchJob, ...]:
        if state is None:
            return tuple(self._jobs.values())
        return tuple(j for j in self._jobs.values() if j.state is state)

    def usage(self, account: str) -> AccountUsage:
        return self._account(account)

    def usage_summary(
        self, account: Optional[str] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Cumulative per-account usage as JSON-ready plain data.

        The accounting survives :meth:`forget` — aggregated
        :class:`AccountUsage` is never dropped — so this is the
        resource's whole usage history, keyed by account and sorted
        for deterministic export.  Pass *account* to restrict the
        summary to one account (unknown accounts report zeroes, like
        :meth:`usage`).
        """
        if account is not None:
            return {account: self._account(account).summary()}
        return {
            name: self._usage[name].summary() for name in sorted(self._usage)
        }

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    # -- internals -------------------------------------------------------------

    def _account(self, account: str) -> AccountUsage:
        usage = self._usage.get(account)
        if usage is None:
            usage = AccountUsage(account=account)
            self._usage[account] = usage
        return usage

    def _enqueue(self, job: BatchJob, at_head: bool = False) -> None:
        if at_head:
            self._waiting.insert(0, job)
        else:
            self._waiting.append(job)
        self._unsorted = True
        if job.cpus < self._min_waiting_cpus:
            self._min_waiting_cpus = job.cpus

    def _dequeue(self, job: BatchJob) -> None:
        waiting = self._waiting
        for index, queued in enumerate(waiting):
            if queued is job:
                del waiting[index]
                return

    def _sort_waiting(self) -> None:
        if self._unsorted:
            # Higher queue priority, then higher job priority, then
            # submission order (stable sort preserves FIFO).
            self._waiting.sort(
                key=lambda j: (
                    -(self.queues[j.queue].priority),
                    -j.priority,
                    j.submitted_at,
                )
            )
            self._unsorted = False

    def _schedule_pass(self) -> None:
        """Start every waiting job that fits, best priority first.

        Invariant: when no pass is running, no waiting job fits.  An
        event inside a pass (a job failing as it starts, a terminal
        hook that submits or cancels) does not run a nested pass; it
        makes this one scan again from the head.
        """
        if self._in_pass:
            self._rescan = True
            return
        self._in_pass = True
        try:
            while self.cluster.free_cpus >= self._min_waiting_cpus:
                self._rescan = False
                self._sort_waiting()
                self._scan()
                if not self._rescan:
                    break
        finally:
            self._in_pass = False

    def _scan(self) -> None:
        waiting = self._waiting
        floor = self._min_waiting_cpus
        free = self.cluster.free_cpus
        smallest: float = math.inf
        index = 0
        while index < len(waiting):
            job = waiting[index]
            if job.cpus <= free:
                del waiting[index]
                self._start(job)
                if self._rescan:
                    return
                free = self.cluster.free_cpus
                if free < floor:
                    return  # nothing further down can fit either
            else:
                smallest = min(smallest, job.cpus)
                index += 1
        self._min_waiting_cpus = smallest

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
        if job.state is JobState.QUEUED:
            self._dequeue(job)
        job.state = state
        job.finished_at = self.clock.now
        job.exit_reason = reason
        if state is JobState.COMPLETED:
            usage.jobs_completed += 1
        elif state is JobState.CANCELLED:
            usage.jobs_cancelled += 1
        else:
            usage.jobs_failed += 1
        # Per-job callbacks first (enforcement accounting before the
        # serving layer reaps), then the broadcast hooks.  The pop
        # makes dispatch O(1) per terminal event regardless of how
        # many other jobs hold registrations.
        for hook in self._terminal_callbacks.pop(job.job_id, ()):
            hook(job)
        for hook in list(self.on_terminal):
            hook(job)
        self._schedule_pass()

    def __str__(self) -> str:
        return (
            f"Scheduler[{self.cluster.name}: {len(self._jobs)} jobs, "
            f"{self.queue_depth} waiting, {self.cluster.used_cpus} CPUs busy]"
        )
