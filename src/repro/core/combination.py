"""Combining policies from multiple sources (paper requirement 1).

The resource outsources part of its policy administration to the VO,
so the enforcement mechanism "needs to be able to combine policies
from two different sources: the resource owner and the VO".  Both must
permit — a deny (or system failure) from either side blocks the
request.

Two combination algorithms are provided:

``ALL_MUST_PERMIT`` (the paper's model)
    Every source must return PERMIT.  NOT_APPLICABLE from a source is
    a denial: a source that says nothing has not granted anything.

``PERMIT_OVERRIDES_NOT_APPLICABLE``
    A pragmatic variant in which a source with *no applicable
    statements* abstains rather than denies, so a VO that has no
    opinion about a user defers entirely to the local policy (and
    vice versa).  At least one source must still PERMIT, and an
    explicit DENY from any source still wins.  This matches how the
    prototype's grid-mapfile + VO-policy-file deployment behaved for
    users outside the VO.

INDETERMINATE from any source is always a system failure: the
combined evaluator fails closed and reports it as such, never as a
plain denial (§5.2's error distinction).
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import List, Sequence, Tuple

from repro.core.decision import Decision, Effect
from repro.core.errors import AuthorizationSystemFailure
from repro.core.evaluator import PolicyEvaluator
from repro.core.pipeline import StageRecord, current_context, epoch_of, pushes
from repro.core.request import AuthorizationRequest
from repro.obs.spans import span as obs_span


class CombinationAlgorithm(enum.Enum):
    ALL_MUST_PERMIT = "all-must-permit"
    PERMIT_OVERRIDES_NOT_APPLICABLE = "permit-overrides-not-applicable"


class CombinedEvaluator:
    """Evaluates a request against every policy source and combines."""

    def __init__(
        self,
        evaluators: Sequence[PolicyEvaluator],
        algorithm: CombinationAlgorithm = CombinationAlgorithm.ALL_MUST_PERMIT,
    ) -> None:
        if not evaluators:
            raise ValueError("need at least one policy source")
        self.evaluators = list(evaluators)
        self.algorithm = algorithm
        #: Each source with its stage and span name, named once here.
        self._stages = tuple(
            (evaluator, f"source:{evaluator.source}")
            for evaluator in self.evaluators
        )

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(e.source for e in self.evaluators)

    def bind_registry(self, registry) -> None:
        """Export per-source ``policy_compile_*``/``policy_index_*``
        metrics for every member evaluator that supports binding."""
        for evaluator in self.evaluators:
            bind = getattr(evaluator, "bind_registry", None)
            if bind is not None:
                bind(registry)

    @property
    def policy_epoch(self) -> Tuple:
        """Combined epoch over all sources (for the decision cache)."""
        return tuple(map(epoch_of, self.evaluators))

    def epoch_pushed(self) -> bool:
        """Every source pushes (see :func:`~repro.core.pipeline.pushes`)."""
        return all(map(pushes, self.evaluators))

    def evaluate(self, request: AuthorizationRequest) -> Decision:
        """Combined decision over all sources.

        When a decision pipeline is active, every source becomes a
        timed stage on the current
        :class:`~repro.core.pipeline.DecisionContext`; sources that do
        not record their own provenance (anything without the
        :class:`PolicyEvaluator` hook) are recorded here so the
        combined decision always names its contributors.
        """
        context = current_context()
        decisions = []
        for evaluator, stage in self._stages:
            started = perf_counter()
            recorded_before = len(context.sources) if context is not None else 0
            try:
                with obs_span(stage):
                    decision = evaluator.evaluate(request)
            except Exception as exc:  # a broken PDP must fail closed
                decision = Decision.indeterminate(
                    f"policy source {evaluator.source!r} failed: {exc}",
                    source=evaluator.source,
                )
            if context is not None:
                context.stages.append(StageRecord(stage, perf_counter() - started))
                if len(context.sources) == recorded_before:
                    context.add_source(
                        evaluator.source,
                        decision.effect,
                        epoch=epoch_of(evaluator),
                    )
            decisions.append(decision)
        return self.combine(decisions)

    def combine(self, decisions: Sequence[Decision]) -> Decision:
        """Apply the combination algorithm to per-source decisions."""
        permits, denies, abstains, indeterminate = [], [], [], []
        for decision in decisions:
            effect = decision.effect
            if effect is Effect.PERMIT:
                permits.append(decision)
            elif effect is Effect.DENY:
                denies.append(decision)
            elif effect is Effect.NOT_APPLICABLE:
                abstains.append(decision)
            else:
                indeterminate.append(decision)
        if indeterminate:
            raise AuthorizationSystemFailure(
                "; ".join(r for d in indeterminate for r in d.reasons),
                source=self._collect_sources(indeterminate),
            )

        if denies:
            return Decision.deny(
                reasons=self._collect_reasons(denies),
                source=self._collect_sources(denies),
            )

        if self.algorithm is CombinationAlgorithm.ALL_MUST_PERMIT:
            if abstains:
                return Decision.deny(
                    reasons=tuple(
                        f"source {d.source!r} grants nothing to the requester"
                        for d in abstains
                    ),
                    source=self._collect_sources(abstains),
                )
            return Decision.permit(
                reason="all sources permit",
                source=self._collect_sources(permits),
            )

        # PERMIT_OVERRIDES_NOT_APPLICABLE
        if permits:
            return Decision.permit(
                reason="permitted; abstaining sources defer",
                source=self._collect_sources(permits),
            )
        return Decision.deny(
            reasons=("no source permits the request",),
            source=self._collect_sources(abstains),
        )

    @staticmethod
    def _collect_reasons(decisions: Sequence[Decision]) -> Tuple[str, ...]:
        reasons: List[str] = []
        for decision in decisions:
            for reason in decision.reasons:
                tagged = f"[{decision.source}] {reason}" if decision.source else reason
                if tagged not in reasons:
                    reasons.append(tagged)
        return tuple(reasons)

    @staticmethod
    def _collect_sources(decisions: Sequence[Decision]) -> str:
        return "+".join([d.source for d in decisions if d.source])
