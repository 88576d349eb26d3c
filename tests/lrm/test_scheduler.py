"""Batch scheduler behaviour."""

import pytest

from repro.lrm.cluster import Cluster
from repro.lrm.errors import AllocationError, QueueError, UnknownJobError
from repro.lrm.jobs import BatchJob, JobState
from repro.lrm.queues import JobQueue
from repro.lrm.scheduler import BatchScheduler
from repro.sim.clock import Clock


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def scheduler(clock):
    cluster = Cluster.homogeneous("c", node_count=2, cpus_per_node=4)
    queues = [
        JobQueue(name="default"),
        JobQueue(name="fast", priority=10, max_cpus_per_job=2, max_walltime=100.0),
    ]
    return BatchScheduler(cluster, clock, queues=queues)


def job(**kwargs):
    defaults = dict(account="alice", executable="sim", cpus=1, runtime=10.0)
    defaults.update(kwargs)
    return BatchJob(**defaults)


class TestSubmission:
    def test_job_starts_when_cpus_free(self, scheduler, clock):
        j = job()
        scheduler.submit(j)
        assert j.state is JobState.RUNNING
        clock.advance(10.0)
        assert j.state is JobState.COMPLETED

    def test_job_queues_when_cluster_busy(self, scheduler, clock):
        big = job(cpus=8, runtime=50.0)
        small = job(cpus=1, runtime=5.0)
        scheduler.submit(big)
        scheduler.submit(small)
        assert small.state is JobState.QUEUED
        clock.advance(50.0)
        assert small.state is JobState.RUNNING

    def test_unknown_queue_rejected(self, scheduler):
        with pytest.raises(QueueError):
            scheduler.submit(job(queue="nope"))

    def test_oversized_job_rejected_immediately(self, scheduler):
        with pytest.raises(AllocationError):
            scheduler.submit(job(cpus=100))

    def test_queue_cpu_cap_enforced(self, scheduler):
        with pytest.raises(QueueError):
            scheduler.submit(job(queue="fast", cpus=3, max_walltime=50.0))

    def test_queue_walltime_cap_enforced(self, scheduler):
        with pytest.raises(QueueError):
            scheduler.submit(job(queue="fast", max_walltime=1000.0))
        with pytest.raises(QueueError):
            scheduler.submit(job(queue="fast"))  # unlimited request

    def test_duplicate_job_id_rejected(self, scheduler):
        j = job()
        scheduler.submit(j)
        with pytest.raises(QueueError):
            scheduler.submit(job(job_id=j.job_id))


class TestOrdering:
    def test_fifo_within_priority(self, scheduler, clock):
        blocker = job(cpus=8, runtime=10.0)
        first = job(cpus=8, runtime=1.0)
        second = job(cpus=8, runtime=1.0)
        scheduler.submit(blocker)
        clock.advance(1.0)
        scheduler.submit(first)
        clock.advance(1.0)
        scheduler.submit(second)
        clock.advance(20.0)
        assert first.started_at < second.started_at

    def test_higher_job_priority_jumps_queue(self, scheduler, clock):
        blocker = job(cpus=8, runtime=10.0)
        normal = job(cpus=8, runtime=1.0)
        urgent = job(cpus=8, runtime=1.0, priority=5)
        scheduler.submit(blocker)
        scheduler.submit(normal)
        scheduler.submit(urgent)
        clock.advance(30.0)
        assert urgent.started_at < normal.started_at

    def test_higher_queue_priority_wins(self, scheduler, clock):
        blocker = job(cpus=8, runtime=10.0)
        normal = job(cpus=8, runtime=1.0)
        fast = job(cpus=2, runtime=1.0, queue="fast", max_walltime=50.0)
        scheduler.submit(blocker)
        scheduler.submit(normal)
        scheduler.submit(fast)
        clock.advance(30.0)
        assert fast.started_at < normal.started_at


class TestManagement:
    def test_cancel_queued_job(self, scheduler, clock):
        blocker = job(cpus=8, runtime=10.0)
        waiting = job(cpus=8)
        scheduler.submit(blocker)
        scheduler.submit(waiting)
        scheduler.cancel(waiting.job_id)
        assert waiting.state is JobState.CANCELLED
        clock.advance(50.0)
        assert waiting.state is JobState.CANCELLED

    def test_cancel_running_job_frees_cpus(self, scheduler, clock):
        j = job(cpus=8, runtime=100.0)
        scheduler.submit(j)
        clock.advance(5.0)
        scheduler.cancel(j.job_id)
        assert j.state is JobState.CANCELLED
        assert scheduler.cluster.free_cpus == 8

    def test_cancel_is_idempotent(self, scheduler):
        j = job()
        scheduler.submit(j)
        scheduler.cancel(j.job_id)
        scheduler.cancel(j.job_id)
        assert j.state is JobState.CANCELLED

    def test_suspend_frees_cpus_and_resume_continues(self, scheduler, clock):
        j = job(cpus=8, runtime=10.0)
        scheduler.submit(j)
        clock.advance(4.0)
        scheduler.suspend(j.job_id)
        assert j.state is JobState.SUSPENDED
        assert scheduler.cluster.free_cpus == 8
        clock.advance(100.0)
        scheduler.resume(j.job_id)
        clock.advance(6.0)
        assert j.state is JobState.COMPLETED

    def test_suspension_enables_preemption(self, scheduler, clock):
        """The use case: suspend a long job to run an urgent one."""
        long_job = job(cpus=8, runtime=1000.0)
        scheduler.submit(long_job)
        urgent = job(cpus=8, runtime=10.0, account="admin")
        scheduler.submit(urgent)
        assert urgent.state is JobState.QUEUED
        scheduler.suspend(long_job.job_id)
        assert urgent.state is JobState.RUNNING
        clock.advance(10.0)
        assert urgent.state is JobState.COMPLETED
        scheduler.resume(long_job.job_id)
        assert long_job.state is JobState.RUNNING

    def test_resume_without_cpus_requeues(self, scheduler, clock):
        first = job(cpus=8, runtime=100.0)
        scheduler.submit(first)
        clock.advance(1.0)
        scheduler.suspend(first.job_id)
        second = job(cpus=8, runtime=50.0)
        scheduler.submit(second)
        scheduler.resume(first.job_id)
        assert first.state is JobState.QUEUED
        clock.advance(50.0)
        assert first.state is JobState.RUNNING

    def test_signal_changes_priority(self, scheduler, clock):
        blocker = job(cpus=8, runtime=10.0)
        a = job(cpus=8, runtime=1.0)
        b = job(cpus=8, runtime=1.0)
        scheduler.submit(blocker)
        scheduler.submit(a)
        scheduler.submit(b)
        scheduler.signal_priority(b.job_id, 99)
        clock.advance(30.0)
        assert b.started_at < a.started_at

    def test_management_of_unknown_job_rejected(self, scheduler):
        with pytest.raises(UnknownJobError):
            scheduler.cancel("ghost")
        with pytest.raises(UnknownJobError):
            scheduler.suspend("ghost")

    def test_suspend_requires_running(self, scheduler):
        blocker = job(cpus=8, runtime=10.0)
        waiting = job(cpus=8)
        scheduler.submit(blocker)
        scheduler.submit(waiting)
        with pytest.raises(UnknownJobError):
            scheduler.suspend(waiting.job_id)

    def test_fail_marks_failed(self, scheduler):
        j = job(runtime=100.0)
        scheduler.submit(j)
        scheduler.fail(j.job_id, "killed by sandbox: cpu")
        assert j.state is JobState.FAILED
        assert "sandbox" in j.exit_reason


class TestWalltime:
    def test_walltime_kill(self, scheduler, clock):
        j = job(runtime=1000.0, max_walltime=50.0)
        scheduler.submit(j)
        clock.advance(51.0)
        assert j.state is JobState.FAILED
        assert j.exit_reason == "walltime exceeded"

    def test_job_finishing_before_walltime_is_fine(self, scheduler, clock):
        j = job(runtime=10.0, max_walltime=50.0)
        scheduler.submit(j)
        clock.advance(60.0)
        assert j.state is JobState.COMPLETED

    def test_suspension_disarms_walltime(self, scheduler, clock):
        j = job(cpus=1, runtime=40.0, max_walltime=50.0)
        scheduler.submit(j)
        clock.advance(10.0)
        scheduler.suspend(j.job_id)
        clock.advance(100.0)  # would exceed walltime if still armed
        assert j.state is JobState.SUSPENDED


class TestEventsInsideAPass:
    """A pass that starts a zero-walltime job sees it fail inside ``_start``.

    The failure must not disturb the pass: the queue holds exactly the
    QUEUED jobs, no job starts twice and no CPU is left allocated.
    """

    @pytest.fixture
    def flooded(self, clock):
        scheduler = BatchScheduler(Cluster.homogeneous("c", 1, 8), clock)
        blocker = job(cpus=8, runtime=100.0)
        doomed = job(cpus=4, runtime=10.0, max_walltime=0.0)
        short = job(cpus=4, runtime=10.0)
        long_job = job(cpus=4, runtime=500.0, account="dave")
        for each in (blocker, doomed, short, long_job):
            scheduler.submit(each)
        scheduler.cancel(blocker.job_id)
        return scheduler, doomed, short, long_job

    def test_queue_holds_exactly_the_queued_jobs(self, flooded):
        scheduler, doomed, short, long_job = flooded
        assert doomed.state is JobState.FAILED
        assert doomed.exit_reason == "walltime exceeded"
        assert short.state is JobState.RUNNING
        assert long_job.state is JobState.RUNNING
        assert scheduler.queue_depth == len(scheduler.jobs(JobState.QUEUED)) == 0
        assert scheduler.cluster.free_cpus == 0

    def test_no_job_starts_twice_and_no_cpu_leaks(self, flooded, clock):
        scheduler, _, short, long_job = flooded
        clock.advance(10.0)
        assert short.state is JobState.COMPLETED
        assert long_job.started_at == 0.0
        clock.advance(1000.0)
        assert long_job.finished_at == 500.0
        assert scheduler.usage("dave").cpu_seconds == pytest.approx(2000.0)
        assert scheduler.cluster.free_cpus == scheduler.cluster.total_cpus

    def test_hook_that_submits_inside_a_pass_is_scheduled_once(self, clock):
        scheduler = BatchScheduler(Cluster.homogeneous("c", 1, 8), clock)
        blocker = job(cpus=8, runtime=100.0)
        doomed = job(cpus=4, runtime=10.0, max_walltime=0.0)
        waiting = job(cpus=4, runtime=10.0)
        late = job(cpus=4, runtime=10.0)
        for each in (blocker, doomed, waiting):
            scheduler.submit(each)
        scheduler.on_job_terminal(doomed.job_id, lambda _: scheduler.submit(late))
        scheduler.cancel(blocker.job_id)
        assert waiting.state is JobState.RUNNING
        assert late.state is JobState.RUNNING
        assert scheduler.queue_depth == 0
        clock.advance(10.0)
        assert (waiting.state, late.state) == (JobState.COMPLETED, JobState.COMPLETED)
        assert scheduler.cluster.free_cpus == 8


class TestAccounting:
    def test_cpu_seconds_accumulate(self, scheduler, clock):
        j = job(cpus=4, runtime=10.0)
        scheduler.submit(j)
        clock.advance(10.0)
        usage = scheduler.usage("alice")
        assert usage.cpu_seconds == pytest.approx(40.0)
        assert usage.jobs_completed == 1

    def test_cancelled_jobs_count_partial_usage(self, scheduler, clock):
        j = job(cpus=2, runtime=100.0)
        scheduler.submit(j)
        clock.advance(10.0)
        scheduler.cancel(j.job_id)
        usage = scheduler.usage("alice")
        assert usage.cpu_seconds == pytest.approx(20.0)
        assert usage.jobs_cancelled == 1

    def test_terminal_hook_fires(self, scheduler, clock):
        seen = []
        j = job(runtime=5.0)
        scheduler.submit(j)
        scheduler.on_job_terminal(j.job_id, lambda j: seen.append(j.job_id))
        clock.advance(5.0)
        assert seen == [j.job_id]

    def test_usage_summary_all_accounts_sorted(self, scheduler, clock):
        scheduler.submit(job(runtime=5.0, account="zed"))
        scheduler.submit(job(runtime=5.0))  # alice
        clock.advance(5.0)
        summary = scheduler.usage_summary()
        assert list(summary) == ["alice", "zed"]
        assert summary["alice"]["jobs_completed"] == 1
        assert summary["alice"]["cpu_seconds"] == pytest.approx(5.0)

    def test_usage_summary_survives_forget(self, scheduler, clock):
        j = job(runtime=5.0)
        scheduler.submit(j)
        clock.advance(5.0)
        scheduler.forget(j.job_id)
        summary = scheduler.usage_summary("alice")
        assert summary["alice"]["jobs_completed"] == 1
        assert summary["alice"]["jobs_finished"] == 1

    def test_jobs_filter_by_state(self, scheduler, clock):
        done = job(runtime=1.0)
        running = job(runtime=100.0)
        scheduler.submit(done)
        scheduler.submit(running)
        clock.advance(2.0)
        assert done in scheduler.jobs(JobState.COMPLETED)
        assert running in scheduler.jobs(JobState.RUNNING)
        assert len(scheduler.jobs()) == 2


class TestPerJobTerminalCallbacks:
    def test_callback_fires_once_for_its_job_only(self, scheduler, clock):
        seen = []
        a = job(runtime=5.0)
        b = job(runtime=7.0)
        scheduler.submit(a)
        scheduler.submit(b)
        scheduler.on_job_terminal(a.job_id, lambda j: seen.append(("a", j.job_id)))
        scheduler.on_job_terminal(b.job_id, lambda j: seen.append(("b", j.job_id)))
        clock.advance(5.0)
        assert seen == [("a", a.job_id)]
        clock.advance(2.0)
        assert seen == [("a", a.job_id), ("b", b.job_id)]

    def test_registrations_consumed_on_fire(self, scheduler, clock):
        a = job(runtime=5.0)
        scheduler.submit(a)
        scheduler.on_job_terminal(a.job_id, lambda j: None)
        assert scheduler.terminal_callback_count == 1
        clock.advance(5.0)
        assert scheduler.terminal_callback_count == 0

    def test_already_terminal_job_fires_immediately(self, scheduler, clock):
        a = job(runtime=1.0)
        scheduler.submit(a)
        clock.advance(1.0)
        seen = []
        scheduler.on_job_terminal(a.job_id, lambda j: seen.append(j.state))
        assert seen == [JobState.COMPLETED]
        assert scheduler.terminal_callback_count == 0

    def test_multiple_callbacks_fire_in_registration_order(self, scheduler, clock):
        order = []
        a = job(runtime=5.0)
        scheduler.submit(a)
        scheduler.on_job_terminal(a.job_id, lambda j: order.append("first"))
        scheduler.on_job_terminal(a.job_id, lambda j: order.append("second"))
        clock.advance(5.0)
        assert order == ["first", "second"]

    def test_drop_job_terminal_discards_pending(self, scheduler, clock):
        seen = []
        a = job(runtime=5.0)
        scheduler.submit(a)
        scheduler.on_job_terminal(a.job_id, lambda j: seen.append(j))
        scheduler.drop_job_terminal(a.job_id)
        clock.advance(5.0)
        assert seen == []

    def test_cancellation_also_dispatches(self, scheduler, clock):
        seen = []
        a = job(runtime=50.0)
        scheduler.submit(a)
        scheduler.on_job_terminal(a.job_id, lambda j: seen.append(j.state))
        scheduler.cancel(a.job_id)
        assert seen == [JobState.CANCELLED]


class TestForget:
    def test_forget_drops_terminal_record(self, scheduler, clock):
        a = job(runtime=1.0)
        scheduler.submit(a)
        clock.advance(1.0)
        scheduler.forget(a.job_id)
        assert len(scheduler.jobs()) == 0
        with pytest.raises(UnknownJobError):
            scheduler.job(a.job_id)

    def test_forget_preserves_aggregated_usage(self, scheduler, clock):
        a = job(cpus=2, runtime=10.0)
        scheduler.submit(a)
        clock.advance(10.0)
        scheduler.forget(a.job_id)
        usage = scheduler.usage("alice")
        assert usage.jobs_completed == 1
        assert usage.cpu_seconds == pytest.approx(20.0)

    def test_forget_rejects_non_terminal_jobs(self, scheduler, clock):
        a = job(runtime=50.0)
        scheduler.submit(a)
        with pytest.raises(QueueError):
            scheduler.forget(a.job_id)

    def test_forgotten_job_id_can_be_reused(self, scheduler, clock):
        a = job(runtime=1.0, job_id="fixed-id")
        scheduler.submit(a)
        clock.advance(1.0)
        scheduler.forget("fixed-id")
        b = job(runtime=1.0, job_id="fixed-id")
        scheduler.submit(b)
        assert b.state is JobState.RUNNING
