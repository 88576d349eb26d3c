"""Closed-loop driver: one thread, one request at a time.

:func:`run_pass` feeds an op stream to one service through its
``GramClient``s, timing every call with ``perf_counter_ns``, and
records each answer as ``(code, job state)`` so a second pass over a
reference service can check it answer by answer.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from bench.deploy import build_service, enrol
from bench.speed import probe
from bench.workloads import (
    CANCEL,
    CHUNK_OPS,
    OPS_PER_TICK,
    PUBLISH,
    REAPED_INFO,
    STATUS,
    SUBMIT,
    TICK_SECONDS,
    USER_KINDS,
    OpStream,
    Population,
    Workload,
)
from repro.gram.protocol import GramErrorCode

#: Reaped jobs the driver addresses: the most recent ones, well inside
#: the service's completed-job retention (1024), so a reaped-job
#: ``information`` is always answered from the completed-job store.
REAPED_WINDOW = 512
#: The host's speed is probed at the first clock tick after this much
#: timed wall time, and at the end of every chunk (~6% of the wall
#: time).  Halving the probes per chunk doubled some spreads.
PROBE_EVERY_NS = 50_000_000


@dataclass
class Deployment:
    service: Any
    clients: List[Any]
    setup_s: float


def deploy(workload: Workload, population: Population, reference: bool = False) -> Deployment:
    """Build the service and enrol every actor (timed as set-up)."""
    started = perf_counter()
    service = build_service(
        population.bundle,
        node_count=workload.node_count,
        cpus_per_node=workload.cpus_per_node,
        reference=reference,
    )
    clients = enrol(service, population.members)
    return Deployment(service, clients, perf_counter() - started)


@dataclass
class PassResult:
    #: ``(code, state)`` per op, in stream order (publishes included).
    outcomes: List[Tuple[Any, Any]] = field(default_factory=list)
    #: Timed-phase latency samples in ns, per executed user-op kind.
    samples: Dict[str, List[int]] = field(
        default_factory=lambda: {kind: [] for kind in USER_KINDS}
    )
    publish_ns: List[int] = field(default_factory=list)
    #: Timed-phase wall time: user ops, clock ticks and publishes.
    wall_ns: int = 0
    timed_ops: int = 0
    submits: int = 0
    submits_denied: int = 0
    queue_depth_max: int = 0
    #: At the end of every :data:`CHUNK_OPS` timed ops (and of the
    #: timed phase): the timed ops, the timed wall time and the sample
    #: count of each kind so far.
    chunk_ends: List[Tuple[int, int, Dict[str, int]]] = field(default_factory=list)
    #: Per timed chunk, the host speed factors probed during it
    #: (:func:`bench.speed.probe`, outside every timed interval).
    speeds: List[List[float]] = field(default_factory=list)
    #: Ops that raised, by op index.
    errors: Dict[int, str] = field(default_factory=dict)


def run_pass(
    deployment: Deployment,
    workload: Workload,
    population: Population,
    stream: OpStream,
    ledger=None,
) -> PassResult:
    """Drive *stream* through *deployment*; time the timed phase."""
    service = deployment.service
    clients = deployment.clients
    gatekeeper = service.gatekeeper
    scheduler = service.scheduler
    store = service.config.policy_store
    submitters = [clients[actor] for actor, _ in population.submitters]
    submit_actors = [population.actors[actor] for actor, _ in population.submitters]
    admins = [clients[actor] for actor in population.admins]
    runtime = workload.runtime
    live: List[Tuple[Any, Any]] = []
    reaped: deque = deque(maxlen=REAPED_WINDOW)
    result = PassResult()
    outcomes = result.outcomes
    samples = result.samples
    timed_start = stream.timed_start
    user_ops = 0
    timed_seen = 0
    speeds: List[float] = []
    probed_at = 0

    def close_chunk() -> None:
        speeds.append(probe())
        result.chunk_ends.append(
            (timed_seen, result.wall_ns, {name: len(values) for name, values in samples.items()})
        )
        result.speeds.append(speeds[:])
        speeds.clear()

    for index, (kind, actor, draw) in enumerate(stream.ops):
        timed = index >= timed_start
        if kind == PUBLISH:
            if ledger is not None:
                ledger.begin(PUBLISH if timed else "untimed", -1)
            started = perf_counter_ns()
            snapshot = store.publish(population.publishes[actor])
            elapsed = perf_counter_ns() - started
            outcomes.append((PUBLISH, snapshot.epoch))
            if timed:
                result.publish_ns.append(elapsed)
                result.wall_ns += elapsed
            continue

        # An empty job list turns the op into the nearest one that can
        # run; both passes see the same lists, so they fall back alike.
        if kind == REAPED_INFO and not reaped:
            kind = STATUS
        if kind in (STATUS, CANCEL) and not live:
            kind = SUBMIT
            actor = int(draw * len(submitters))
        if kind == SUBMIT:
            client = submitters[actor]
            rsl = submit_actors[actor].rsl(draw, runtime)
        else:
            jobs = reaped if kind == REAPED_INFO else live
            position = int(draw * len(jobs))
            job = jobs[position]
            client = job[1] if actor < 0 else admins[actor]
        if ledger is not None:
            ledger.begin(kind if timed else "untimed", timed_seen if timed else -1)

        if kind == SUBMIT:
            call, argument = client.submit, rsl
        else:
            call, argument = (client.cancel if kind == CANCEL else client.status), job[0]
        try:
            started = perf_counter_ns()
            response = call(argument)
            elapsed = perf_counter_ns() - started
        except Exception as exc:  # recorded as a failed op, never fatal
            result.errors[index] = f"{type(exc).__name__}: {exc}"
            outcomes.append(("exception", type(exc).__name__))
            response = None
        else:
            outcomes.append((response.code, response.state))

        if timed:
            timed_seen += 1
            if response is not None:
                samples[kind].append(elapsed)
                result.wall_ns += elapsed
            if timed_seen % CHUNK_OPS == 0:
                close_chunk()
                probed_at = result.wall_ns
            if kind == SUBMIT:
                result.submits += 1
                if response is not None and response.code is GramErrorCode.AUTHORIZATION_DENIED:
                    result.submits_denied += 1
        if response is not None and response.ok:
            if kind == SUBMIT:
                live.append((response.contact, client))
            elif kind == CANCEL and response.state is not None and response.state.is_terminal:
                live[position] = live[-1]
                live.pop()
                reaped.append(job)

        user_ops += 1
        if user_ops % OPS_PER_TICK == 0:
            depth = scheduler.queue_depth
            if depth > result.queue_depth_max:
                result.queue_depth_max = depth
            if ledger is not None:
                ledger.begin("tick" if timed else "untimed", -1)
            started = perf_counter_ns()
            service.run(TICK_SECONDS)
            elapsed = perf_counter_ns() - started
            if timed:
                result.wall_ns += elapsed
                if result.wall_ns - probed_at >= PROBE_EVERY_NS:
                    speeds.append(probe())
                    probed_at = result.wall_ns
            # Jobs end between ticks only when the driver cancels them;
            # everything else that ended did so inside the tick.
            still = []
            for entry in live:
                if gatekeeper.job_manager(entry[0]) is None:
                    reaped.append(entry)
                else:
                    still.append(entry)
            live[:] = still

    result.timed_ops = timed_seen
    if timed_seen % CHUNK_OPS:
        close_chunk()
    return result


def mismatches(candidate: PassResult, reference: PassResult, timed_start: int) -> Tuple[int, int]:
    """Ops answered differently from the reference, or failed outright.

    Returns ``(failed timed ops, failed ops anywhere in the stream)``.
    A failure is a ``(code, state)`` that differs from the reference,
    an authorization-system failure, or an exception.
    """
    failed_timed = failed_all = 0
    for index, (got, want) in enumerate(zip(candidate.outcomes, reference.outcomes)):
        bad = (
            got != want
            or got[0] is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
            or got[0] == "exception"
        )
        if bad:
            failed_all += 1
            if index >= timed_start and got[0] != PUBLISH:
                failed_timed += 1
    return failed_timed, failed_all


def percentile(sorted_values: List[int], share: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = math.ceil(share * len(sorted_values) - 1e-9)
    return float(sorted_values[min(max(rank, 1), len(sorted_values)) - 1])
