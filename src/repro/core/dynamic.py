"""Dynamic policies: time-bounded statements.

The paper's §1 motivates policies that are "dynamic, adapting over
time depending on factors such as current resource utilization, a
member's role in the VO, an active demo for a funding agency that
should have priority".  :class:`TimeWindow` and :class:`DynamicPolicy`
cover the time-bounded case: statements that only apply inside a
simulated-time window — the "active demo" pattern is a high-priority
grant valid for the demo slot and gone afterwards.  Versioned,
hot-reloaded policy content lives in
:class:`repro.core.store.VersionedPolicyStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.decision import Decision
from repro.core.evaluator import PolicyEvaluator
from repro.core.model import Policy, PolicyStatement
from repro.core.request import AuthorizationRequest
from repro.sim.clock import Clock


@dataclass(frozen=True)
class TimeWindow:
    """A half-open validity interval in simulated time."""

    not_before: float
    not_after: float

    def __post_init__(self) -> None:
        if self.not_after <= self.not_before:
            raise ValueError(
                f"empty time window [{self.not_before}, {self.not_after})"
            )

    def contains(self, when: float) -> bool:
        return self.not_before <= when < self.not_after


@dataclass(frozen=True)
class WindowedStatement:
    """A policy statement active only inside its window."""

    statement: PolicyStatement
    window: TimeWindow


class DynamicPolicy:
    """A policy assembled from a base plus time-windowed statements.

    ``snapshot(now)`` produces the plain :class:`Policy` in force at a
    given instant; :class:`DynamicEvaluator` does this per request.
    """

    #: Bound on the per-active-signature snapshot cache; distinct
    #: overlapping-window combinations rarely exceed a handful.
    SNAPSHOT_CACHE_CAP = 64

    def __init__(self, base: Policy) -> None:
        self.base = base
        self._windowed: List[WindowedStatement] = []
        #: Bumped on every mutation — the decision-cache invalidation
        #: hook (see :mod:`repro.core.pipeline`).
        self.policy_epoch = 0
        #: Snapshot :class:`Policy` per active-window signature.
        #: Reusing the same instance while the same windows are active
        #: lets :func:`repro.core.compiled.compiled_for` reuse the
        #: compiled form instead of recompiling on every request.
        self._snapshots: dict = {}

    def add_window(
        self, statement: PolicyStatement, not_before: float, not_after: float
    ) -> WindowedStatement:
        entry = WindowedStatement(
            statement=statement,
            window=TimeWindow(not_before=not_before, not_after=not_after),
        )
        self._windowed.append(entry)
        self.policy_epoch += 1
        self._snapshots.clear()
        return entry

    @property
    def windowed_statements(self) -> Tuple[WindowedStatement, ...]:
        return tuple(self._windowed)

    def snapshot(self, now: float) -> Policy:
        signature = tuple(
            index
            for index, entry in enumerate(self._windowed)
            if entry.window.contains(now)
        )
        if not signature:
            return self.base
        cached = self._snapshots.get(signature)
        if cached is None:
            if len(self._snapshots) >= self.SNAPSHOT_CACHE_CAP:
                self._snapshots.clear()
            cached = Policy(
                statements=self.base.statements
                + tuple(self._windowed[i].statement for i in signature),
                name=self.base.name,
            )
            self._snapshots[signature] = cached
        return cached


class DynamicEvaluator:
    """Evaluates against the policy in force at the clock's *now*."""

    def __init__(
        self, dynamic: DynamicPolicy, clock: Clock, source: str = ""
    ) -> None:
        self.dynamic = dynamic
        self.clock = clock
        self.source = source or dynamic.base.name or "dynamic"

    @property
    def policy_epoch(self) -> Tuple:
        """Mutation count plus the set of windows active *right now*.

        Including the active-window signature means a cached decision
        expires the instant a time window opens or closes — not just
        when a statement is added — so the decision cache stays
        correct across simulated time.
        """
        now = self.clock.now
        active = tuple(
            index
            for index, entry in enumerate(self.dynamic.windowed_statements)
            if entry.window.contains(now)
        )
        return (self.dynamic.policy_epoch, active)

    def evaluate(self, request: AuthorizationRequest) -> Decision:
        policy = self.dynamic.snapshot(self.clock.now)
        evaluator = PolicyEvaluator(policy, source=self.source)
        evaluator.policy_epoch = self.policy_epoch
        return evaluator.evaluate(request)
