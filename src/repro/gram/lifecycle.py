"""Job-lifecycle management for the Gatekeeper front door.

The paper's companion work (*Fine-Grained Authorization for Job
Execution in the Grid*, cs/0311025) observes that at scale it is
per-job *state management*, not policy evaluation, that dominates a
GRAM resource.  This module keeps the serving path bounded under
sustained churn:

* :class:`CompletedJobStore` — terminal Job Manager Instances are
  **reaped** into a bounded record store, so resident state is
  O(active jobs) while post-completion ``information``/``status``
  requests still answer with the final state and owner, as the GRAM
  protocol promises (and as the Akenti/GT integration paper,
  cs/0306070, motivates: management questions outlive jobs).
* :class:`AdmissionControl` — per-user in-flight caps and a
  service-wide active-JMI ceiling, rejected up front with
  ``RESOURCE_BUSY`` so overload sheds load instead of leaking it.

:class:`LifecycleConfig` bundles the knobs; the Gatekeeper builds its
completed-job store and admission control from one, and the
:class:`~repro.gram.service.ServiceConfig` exposes the knobs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.gram.protocol import GramJobState, JobContact
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import Specification
from repro.sim.clock import Clock


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the Gatekeeper's job-lifecycle layer.

    Reaping itself is not a knob: every terminal JMI is reaped into the
    completed-job store and its LRM-side record dropped.
    """

    #: How many completed-job records to retain (FIFO eviction).
    completed_retention: int = 1024
    #: Maximum age, in *simulated* seconds, of a retained completed
    #: record (None = no age bound).  Records older than this are
    #: evicted alongside the count bound, with the eviction reason
    #: distinguished on the store's counters.
    completed_retention_age: Optional[float] = None
    #: Per-user in-flight job cap (None = unlimited).
    max_jobs_per_user: Optional[int] = None
    #: Service-wide ceiling on simultaneously active JMIs
    #: (None = unlimited).
    max_active_jmis: Optional[int] = None


@dataclass(frozen=True)
class CompletedJobRecord:
    """The final state of a reaped job, kept for late management requests."""

    contact: JobContact
    owner: DistinguishedName
    state: GramJobState
    exit_reason: str
    finished_at: float
    account: str
    #: The job description, retained so post-completion management
    #: requests can still be *authorized* (the PEP callout evaluates
    #: against the description, §5.2).
    spec: Specification

    @property
    def job_id(self) -> str:
        return self.contact.job_id


class CompletedJobStore:
    """Bounded FIFO store of :class:`CompletedJobRecord`.

    Insertion order is completion order; once ``retention`` records
    are held the oldest is evicted, so memory is bounded no matter how
    many jobs the resource has ever run.  When ``retention_age`` is
    set (simulated seconds, read from *clock*), records older than
    that are evicted too — at insert time and lazily on lookup, so an
    aged-out job answers ``NO_SUCH_JOB`` exactly like one past the
    count bound.  Evictions are counted by reason (``"count"`` /
    ``"age"``); :attr:`evicted` stays the total for compatibility.

    ``spill`` (a :class:`~repro.gram.spill.CompletedJobSpill`) makes
    the store durable: inserts and evictions append JSONL lines, and
    :meth:`preload` rehydrates recovered records on restart without
    re-appending them.  Every eviction is counted (and spilled)
    exactly once, whether the eager path (:meth:`expire`, the insert
    sweep) or the lazy lookup path (:meth:`get`) drops the record.
    """

    #: The eviction-reason vocabulary of :attr:`evicted_by_reason`.
    EVICT_COUNT = "count"
    EVICT_AGE = "age"

    def __init__(
        self,
        retention: int = 1024,
        retention_age: Optional[float] = None,
        clock: Optional[Clock] = None,
        spill=None,
    ) -> None:
        if retention < 0:
            raise ValueError("retention must be >= 0")
        if retention_age is not None and retention_age < 0:
            raise ValueError("retention_age must be >= 0")
        if retention_age is not None and clock is None:
            raise ValueError("retention_age needs a clock to read ages from")
        self.retention = retention
        self.retention_age = retention_age
        self.clock = clock
        self.spill = spill
        self._records: "OrderedDict[str, CompletedJobRecord]" = OrderedDict()
        #: Records dropped per retention bound:
        #: ``{"count": ..., "age": ...}``.
        self.evicted_by_reason: Dict[str, int] = {
            self.EVICT_COUNT: 0,
            self.EVICT_AGE: 0,
        }

    @property
    def evicted(self) -> int:
        """Total records dropped to honour either retention bound."""
        return sum(self.evicted_by_reason.values())

    def _expired(self, record: CompletedJobRecord) -> bool:
        if self.retention_age is None:
            return False
        assert self.clock is not None
        return self.clock.now - record.finished_at > self.retention_age

    def _evict(self, record: CompletedJobRecord, reason: str) -> None:
        """Count (and spill) one eviction.

        The record has already been removed from the map, so a given
        id can only pass through here once per residence — the eager
        (insert-time sweep) and lazy (lookup) paths can never
        double-count the same record.
        """
        self.evicted_by_reason[reason] += 1
        if self.spill is not None:
            now = self.clock.now if self.clock is not None else 0.0
            self.spill.append_evict(record.job_id, reason, now)

    def expire(self) -> int:
        """Evict every record past ``retention_age``; returns the count.

        Insertion order is completion order, so expired records form a
        prefix of the FIFO and the scan stops at the first live one.
        """
        if self.retention_age is None:
            return 0
        dropped = 0
        while self._records:
            oldest = next(iter(self._records.values()))
            if not self._expired(oldest):
                break
            self._records.popitem(last=False)
            self._evict(oldest, self.EVICT_AGE)
            dropped += 1
        return dropped

    def add(self, record: CompletedJobRecord, _append: bool = True) -> None:
        self.expire()
        self._records.pop(record.job_id, None)
        self._records[record.job_id] = record
        if _append and self.spill is not None:
            self.spill.append_insert(record)
        while len(self._records) > self.retention:
            _, evicted = self._records.popitem(last=False)
            self._evict(evicted, self.EVICT_COUNT)
        self._maybe_compact()

    def preload(self, records) -> int:
        """Rehydrate recovered *records* (already in the spill file).

        Normal retention bounds apply — a recovered backlog larger
        than ``retention`` evicts down to the bound, counted like any
        other eviction — but the inserts are not re-appended.
        """
        loaded = 0
        for record in records:
            self.add(record, _append=False)
            loaded += 1
        return loaded

    def get(self, job_id: str) -> Optional[CompletedJobRecord]:
        record = self._records.get(job_id)
        if record is not None and self._expired(record):
            # Lazy age eviction: drop the looked-up record itself
            # (exactly once — it leaves the map here, so the eager
            # sweep below cannot count it again), then sweep the
            # expired prefix.  Popping directly matters when
            # completion order is not age order — e.g. a recovery
            # merge inserted a late-arriving older record behind a
            # fresh one — where the prefix sweep alone would stop
            # early and the aged record would linger until the count
            # bound evicted it under the wrong reason label.
            self._records.pop(job_id, None)
            self._evict(record, self.EVICT_AGE)
            self.expire()
            self._maybe_compact()
            return None
        return record

    def live_records(self):
        """The retained records in FIFO order (compaction input)."""
        return list(self._records.values())

    def _maybe_compact(self) -> None:
        if self.spill is not None:
            self.spill.maybe_compact(self.live_records())

    def __contains__(self, job_id: str) -> bool:
        return self.get(job_id) is not None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())


#: Nominal simulated seconds for one in-flight job to drain — the unit
#: :meth:`AdmissionControl.retry_after_hint` quotes its advice in.
NOMINAL_DRAIN_SECONDS = 1.0


class AdmissionControl:
    """Front-door backpressure: who may start a job right now.

    Tracks in-flight jobs per Grid identity; the Gatekeeper asks
    :meth:`check` before spawning a JMI, records successful starts
    with :meth:`note_started`, and releases the slot from the job's
    terminal event with :meth:`release`.  The per-identity map only
    holds identities with at least one job in flight, so it is
    O(active users), not O(all users ever seen).
    """

    def __init__(self, config: LifecycleConfig) -> None:
        self.config = config
        self._in_flight: Dict[str, int] = {}
        self.admitted = 0
        self.rejected_user = 0
        self.rejected_global = 0

    def check_global(self, active_jmis: int) -> Optional[Tuple[str, str]]:
        """``None`` when admissible, else ``("global", reason)``."""
        ceiling = self.config.max_active_jmis
        if ceiling is not None and active_jmis >= ceiling:
            self.rejected_global += 1
            return (
                "global",
                f"resource at capacity: {active_jmis} active job managers "
                f"(ceiling {ceiling})",
            )
        return None

    def check_user(self, identity: str) -> Optional[Tuple[str, str]]:
        """``None`` when admissible, else ``("user", reason)``."""
        cap = self.config.max_jobs_per_user
        if cap is not None and self._in_flight.get(identity, 0) >= cap:
            self.rejected_user += 1
            return (
                "user",
                f"{identity} already has {self._in_flight[identity]} job(s) "
                f"in flight (cap {cap})",
            )
        return None

    def retry_after_hint(
        self,
        scope: str,
        identity: Optional[str] = None,
        active_jmis: int = 0,
    ) -> float:
        """Advisory sim-clock seconds before a retry could admit.

        Derived from the admission state that produced the rejection:
        how far past the violated bound the service currently is,
        times a nominal one-second drain per in-flight job.  Carried
        on ``RESOURCE_BUSY`` responses as ``retry_after`` so clients
        back off instead of blind-retrying into the same rejection.
        """
        if scope == "user" and identity is not None:
            cap = self.config.max_jobs_per_user or 0
            excess = self._in_flight.get(identity, 0) - cap + 1
        else:
            ceiling = self.config.max_active_jmis or 0
            excess = active_jmis - ceiling + 1
        return max(1, excess) * NOMINAL_DRAIN_SECONDS

    def note_started(self, identity: str) -> None:
        self._in_flight[identity] = self._in_flight.get(identity, 0) + 1
        self.admitted += 1

    def release(self, identity: str) -> None:
        count = self._in_flight.get(identity, 0)
        if count <= 1:
            self._in_flight.pop(identity, None)
        else:
            self._in_flight[identity] = count - 1

    def in_flight(self, identity: str) -> int:
        return self._in_flight.get(identity, 0)

    @property
    def total_in_flight(self) -> int:
        return sum(self._in_flight.values())

    @property
    def tracked_identities(self) -> int:
        return len(self._in_flight)
