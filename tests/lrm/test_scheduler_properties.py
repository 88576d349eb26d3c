"""Property-based invariants of the batch scheduler."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lrm.cluster import Cluster
from repro.lrm.errors import UnknownJobError
from repro.lrm.jobs import BatchJob, JobState
from repro.lrm.scheduler import BatchScheduler
from repro.sim.clock import Clock

job_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),   # cpus
        st.floats(min_value=0.5, max_value=50.0),  # runtime
        st.integers(min_value=0, max_value=5),   # priority
    ),
    min_size=1,
    max_size=20,
)

#: Submissions (some with a zero walltime budget, so they fail inside
#: the pass that starts them), management by index into the submitted
#: jobs, and clock steps of one to four events.
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=1, max_value=8),
            st.floats(min_value=0.5, max_value=50.0),
            st.integers(min_value=0, max_value=5),
            st.sampled_from((None, None, 0.0, 3.0, 30.0)),
        ),
        st.tuples(
            st.sampled_from(("cancel", "suspend", "resume")),
            st.integers(min_value=0, max_value=40),
        ),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=40,
)


def run_workload(specs):
    clock = Clock()
    cluster = Cluster.homogeneous("c", node_count=2, cpus_per_node=4)
    scheduler = BatchScheduler(cluster, clock)
    jobs = []
    for index, (cpus, runtime, priority) in enumerate(specs):
        job = BatchJob(
            account=f"acct{index % 3}",
            executable="sim",
            cpus=cpus,
            runtime=runtime,
            priority=priority,
        )
        scheduler.submit(job)
        jobs.append(job)
        clock.advance(0.25)
    clock.advance(sum(runtime for _, runtime, _ in specs) + 100.0)
    return scheduler, cluster, jobs, clock


class TestSchedulerProperties:
    @given(specs=job_specs)
    @settings(max_examples=60, deadline=None)
    def test_every_job_eventually_completes(self, specs):
        _, _, jobs, _ = run_workload(specs)
        assert all(job.state is JobState.COMPLETED for job in jobs)

    @given(specs=job_specs)
    @settings(max_examples=60, deadline=None)
    def test_cluster_is_fully_released_at_the_end(self, specs):
        _, cluster, _, _ = run_workload(specs)
        assert cluster.free_cpus == cluster.total_cpus

    @given(specs=job_specs)
    @settings(max_examples=60, deadline=None)
    def test_cpus_never_oversubscribed(self, specs):
        """Check the invariant at every event boundary."""
        clock = Clock()
        cluster = Cluster.homogeneous("c", node_count=2, cpus_per_node=4)
        scheduler = BatchScheduler(cluster, clock)
        for index, (cpus, runtime, priority) in enumerate(specs):
            scheduler.submit(
                BatchJob(
                    account="a",
                    executable="sim",
                    cpus=cpus,
                    runtime=runtime,
                    priority=priority,
                )
            )
            assert 0 <= cluster.used_cpus <= cluster.total_cpus
        while clock.step() is not None:
            assert 0 <= cluster.used_cpus <= cluster.total_cpus
            running = scheduler.jobs(JobState.RUNNING)
            assert sum(j.cpus for j in running) == cluster.used_cpus

    @given(specs=job_specs)
    @settings(max_examples=60, deadline=None)
    def test_accounting_conserves_cpu_seconds(self, specs):
        scheduler, _, jobs, _ = run_workload(specs)
        expected = sum(job.cpus * job.runtime for job in jobs)
        recorded = sum(
            scheduler.usage(acct).cpu_seconds for acct in {j.account for j in jobs}
        )
        assert recorded == pytest.approx(expected, rel=1e-6)

    @given(specs=job_specs)
    @settings(max_examples=40, deadline=None)
    def test_wait_times_are_nonnegative(self, specs):
        _, _, jobs, _ = run_workload(specs)
        for job in jobs:
            assert job.wait_time is not None
            assert job.wait_time >= 0.0


def check_invariants(scheduler):
    cluster = scheduler.cluster
    assert cluster.free_cpus == sum(node.free for node in cluster.nodes)
    queued = scheduler.jobs(JobState.QUEUED)
    assert scheduler.queue_depth == len(queued)
    # Between passes no waiting job fits.
    assert all(job.cpus > cluster.free_cpus for job in queued)
    held = Counter()
    for job in scheduler.jobs():
        if job.state is JobState.RUNNING:
            assert job.allocation is not None
            assert job.allocation.total_cpus == job.cpus
            held.update(dict(job.allocation.parts))
        else:
            assert job.allocation is None
    assert held == Counter({node.name: node.used for node in cluster.nodes if node.used})


class TestInvariantsAtEveryEventBoundary:
    @given(ops=operations)
    @settings(max_examples=300, deadline=None)
    def test_accounting_queue_and_allocations_stay_consistent(self, ops):
        clock = Clock()
        scheduler = BatchScheduler(Cluster.homogeneous("c", 2, 4), clock)
        jobs = []
        for op in ops:
            kind = op[0]
            if kind == "submit":
                _, cpus, runtime, priority, walltime = op
                job = BatchJob(
                    account="a",
                    executable="sim",
                    cpus=cpus,
                    runtime=runtime,
                    priority=priority,
                    max_walltime=walltime,
                )
                jobs.append(job)
                scheduler.submit(job)
            elif kind == "step":
                for _ in range(op[1]):
                    clock.step()
                    check_invariants(scheduler)
            elif jobs:
                job_id = jobs[op[1] % len(jobs)].job_id
                try:
                    getattr(scheduler, kind)(job_id)
                except UnknownJobError:
                    pass  # suspend/resume of a job in the wrong state
            check_invariants(scheduler)
        while clock.step() is not None:
            check_invariants(scheduler)
