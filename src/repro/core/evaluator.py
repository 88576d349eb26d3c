"""The policy decision point (PDP).

Evaluation follows the language's default-deny rule (§5.1: "the
policy assumes that unless a specific stipulation has been made, an
action will not be allowed"):

1. **Requirements first.**  Every requirement statement applying to
   the requester is checked.  Within a requirement, each assertion's
   ``action`` relations act as a guard: when the guard matches the
   request, the assertion's remaining relations must be satisfied.  A
   violated requirement denies the request outright, regardless of
   any grant.
2. **Grants.**  The request is permitted iff at least one assertion of
   at least one applicable grant statement matches it completely.
3. Otherwise the request is denied.  If *no* statement applied to the
   requester at all the decision is NOT_APPLICABLE (still a denial
   under default deny, but combination logic and GRAM's error
   reporting distinguish the two).

Two execution engines implement these semantics:

* the **compiled** engine (the default) evaluates against the
  indexed, pre-lowered form built by :mod:`repro.core.compiled` —
  subject hash/bisect lookup instead of the statement scan, action
  buckets instead of probing every assertion, and relations lowered
  once at compile time;
* the **interpreted** engine (``compiled=False``) walks the raw
  :class:`~repro.core.model.Policy` per request.  It is retained as
  the reference implementation: the differential suite replays
  workloads through both and requires decision-for-decision equality.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.compiled import compiled_for, evaluation_view, is_compiled
from repro.core.decision import Decision
from repro.core.matching import MatchContext, match_assertion
from repro.core.model import Policy, PolicyStatement
from repro.core.pipeline import PushedEpoch
from repro.core.pipeline import current_context as _current_context
from repro.core.request import AuthorizationRequest


class PolicyEvaluator:
    """Evaluates requests against a single policy source.

    Exposes a ``policy_epoch`` for the decision cache
    (:mod:`repro.core.pipeline`): a plain :class:`Policy` is
    immutable, so the epoch only moves when :meth:`replace_policy`
    installs a different one — which also recompiles the indexed form,
    so the compiled engine and the decision cache invalidate on the
    same event.  Every evaluation reports itself as a provenance entry
    on the active :class:`~repro.core.pipeline.DecisionContext`, so
    combined and single-source decisions alike can name the sources
    that contributed.

    ``registry`` (optional) is a
    :class:`~repro.obs.registry.MetricsRegistry`; when bound, compile
    cost and index selectivity are exported as the
    ``policy_compile_*`` / ``policy_index_*`` metric families (see
    ``docs/performance.md``).
    """

    policy_epoch = PushedEpoch()

    def __init__(
        self,
        policy: Policy,
        source: str = "",
        *,
        compiled: bool = True,
        registry=None,
    ) -> None:
        self.source = source or policy.name or "policy"
        self.evaluations = 0
        self.policy_epoch = 0
        self.use_compiled = compiled
        self._registry = None
        self._m_lookup_memo = None
        self._m_lookup_index = None
        self._m_candidates = None
        self.policy = policy
        self.compiled = None
        self._install(policy)
        if registry is not None:
            self.bind_registry(registry)

    def _install(self, policy: Policy) -> None:
        self.policy = policy
        if not self.use_compiled:
            self.compiled = None
            return
        fresh = not is_compiled(policy)
        self.compiled = compiled_for(policy)
        if self._registry is not None:
            self._record_compile(fresh)

    def replace_policy(self, policy: Policy) -> None:
        """Swap the policy; bumps the epoch so cached decisions expire
        and recompiles the indexed form."""
        self._install(policy)
        self.policy_epoch += 1

    # -- observability -----------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Export ``policy_compile_*`` / ``policy_index_*`` metrics.

        Instruments are resolved once here so the per-evaluation cost
        of metrics is two counter increments, not label lookups.
        """
        self._registry = registry
        lookups = registry.counter(
            "policy_index_lookups_total",
            help="subject-index lookups by result (memo hit vs index probe)",
            labelnames=("source", "result"),
        )
        self._m_lookup_memo = lookups.labels(source=self.source, result="memo")
        self._m_lookup_index = lookups.labels(source=self.source, result="index")
        self._m_candidates = registry.counter(
            "policy_index_candidate_statements_total",
            help="statements selected by the subject index "
            "(selectivity numerator; policy_index_statements is the "
            "denominator)",
            labelnames=("source",),
        ).labels(source=self.source)
        if self.compiled is not None:
            self._record_compile(True)

    def _record_compile(self, fresh: bool) -> None:
        """Export compile/index shape metrics.

        Only deterministic values go into the registry (its exports
        are byte-identical run to run); wall-clock compile cost stays
        on ``CompiledPolicy.stats.compile_seconds`` for programmatic
        inspection.
        """
        stats = self.compiled.stats
        registry = self._registry
        if fresh:
            registry.count(
                "policy_compile_total",
                help="policy compilations into indexed form",
                source=self.source,
            )
        registry.set_gauge(
            "policy_index_statements",
            stats.statements,
            help="statements in the compiled policy",
            source=self.source,
        )
        registry.set_gauge(
            "policy_index_exact_entries",
            stats.exact_entries,
            help="exact-DN subject-index entries",
            source=self.source,
        )
        registry.set_gauge(
            "policy_index_prefix_entries",
            stats.prefix_entries,
            help="DN-prefix subject-index entries",
            source=self.source,
        )
        registry.set_gauge(
            "policy_index_bucketed_assertions",
            stats.bucketed_assertions,
            help="grant assertions reachable through the action index",
            source=self.source,
        )
        registry.set_gauge(
            "policy_index_catchall_assertions",
            stats.catchall_assertions,
            help="assertions probed for every action (non-indexable guard)",
            source=self.source,
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, request: AuthorizationRequest) -> Decision:
        """Decide *request* under this policy alone."""
        self.evaluations += 1
        compiled = self.compiled
        if compiled is not None:
            decision = self._evaluate_compiled(request, compiled)
        else:
            decision = self._evaluate_interpreted(request, self.policy)
        context = _current_context()
        if context is not None:
            context.add_source(
                self.source, decision.effect, epoch=self.policy_epoch
            )
        return decision

    def evaluate_policy(
        self, policy: Policy, request: AuthorizationRequest
    ) -> Decision:
        """Decide *request* under *policy*, which the caller chose for it.

        For a source whose policy changes with no mutation: a time
        window's snapshot, a policy carried in the credential.  This
        evaluator's engine and source name decide; its own policy and
        epoch stay as they are, and the caller records provenance
        under its own epoch.
        """
        self.evaluations += 1
        if self.use_compiled:
            return self._evaluate_compiled(request, compiled_for(policy))
        return self._evaluate_interpreted(request, policy)

    # -- compiled engine ---------------------------------------------------

    def _evaluate_compiled(
        self, request: AuthorizationRequest, compiled
    ) -> Decision:
        identity = str(request.requester)
        (grants, requirements), from_memo = compiled.slices_for(identity)
        if self._m_lookup_memo is not None:
            (self._m_lookup_memo if from_memo else self._m_lookup_index).inc()
            self._m_candidates.inc(len(grants) + len(requirements))

        if not grants and not requirements:
            return Decision.not_applicable(
                reason=f"no statement applies to {request.requester}",
                source=self.source,
            )

        values = evaluation_view(request)
        context = MatchContext(requester=request.requester)

        for compiled_statement in requirements:
            for assertion in compiled_statement.assertions:
                if not assertion.guard_matches(values, context):
                    continue
                outcome = assertion.match_body(values, context)
                if not outcome.satisfied:
                    return Decision.deny(
                        reasons=(
                            compiled_statement.violation_prefix + outcome.reason,
                        ),
                        source=self.source,
                    )

        if not grants:
            return Decision.deny(
                reasons=(
                    f"no grant statement applies to {request.requester} "
                    "(default deny)",
                ),
                source=self.source,
            )

        action_key = str(request.action)
        for compiled_statement in grants:
            for assertion in compiled_statement.candidates(action_key):
                if assertion.match(values, context).satisfied:
                    return Decision.permit(
                        reason=assertion.permit_reason,
                        source=self.source,
                    )

        # Deny path: replay every assertion in source order so failure
        # reasons accumulate exactly as the interpreted engine reports
        # them (the action index is invisible in deny summaries).
        failures: List[str] = []
        for compiled_statement in grants:
            for assertion in compiled_statement.assertions:
                outcome = assertion.match(values, context)
                if outcome.satisfied:  # pragma: no cover - index is sound
                    return Decision.permit(
                        reason=assertion.permit_reason,
                        source=self.source,
                    )
                failures.append(outcome.reason)
        return Decision.deny(
            reasons=self._summarise_failures(failures), source=self.source
        )

    # -- interpreted engine (the differential reference) -------------------

    def _evaluate_interpreted(
        self, request: AuthorizationRequest, policy: Policy
    ) -> Decision:
        request_spec = request.evaluation_specification()
        context = MatchContext(requester=request.requester)

        requirements = policy.requirements_for(request.requester)
        for statement in requirements:
            violation = self._check_requirement(statement, request_spec, context)
            if violation is not None:
                return Decision.deny(
                    reasons=(violation,),
                    source=self.source,
                )

        grants = policy.grants_for(request.requester)
        if not grants and not requirements:
            return Decision.not_applicable(
                reason=f"no statement applies to {request.requester}",
                source=self.source,
            )

        failures: List[str] = []
        for statement in grants:
            for assertion in statement.assertions:
                outcome = match_assertion(assertion.spec, request_spec, context)
                if outcome.satisfied:
                    return Decision.permit(
                        reason=f"granted by {statement.subject}: {assertion}",
                        source=self.source,
                    )
                failures.append(outcome.reason)

        if not grants:
            return Decision.deny(
                reasons=(
                    f"no grant statement applies to {request.requester} "
                    "(default deny)",
                ),
                source=self.source,
            )
        summary = self._summarise_failures(failures)
        return Decision.deny(reasons=summary, source=self.source)

    def _check_requirement(
        self,
        statement: PolicyStatement,
        request_spec,
        context: MatchContext,
    ) -> Optional[str]:
        """Return a violation description, or None when satisfied."""
        for assertion in statement.assertions:
            guard = assertion.guard()
            if len(guard) == 0:
                guard_applies = True
            else:
                guard_applies = match_assertion(guard, request_spec, context).satisfied
            if not guard_applies:
                continue
            outcome = match_assertion(assertion.body(), request_spec, context)
            if not outcome.satisfied:
                return (
                    f"requirement {statement.subject} violated: {outcome.reason}"
                )
        return None

    @staticmethod
    def _summarise_failures(
        failures: Sequence[str], limit: int = 5
    ) -> Tuple[str, ...]:
        """Deduplicate failure reasons, keeping the first few distinct.

        Returns the fixed header line plus up to *limit* distinct
        failure reasons in first-seen order; the header is **not**
        counted against the limit.  Membership is tracked in a set
        alongside the ordered list — wide grant statements produce
        hundreds of near-duplicate reasons, and the previous
        in-list scan made summarising them O(n²).
        """
        header = "no grant assertion matched the request"
        kept: List[str] = [header]
        seen = {header}
        for failure in failures:
            if failure in seen:
                continue
            seen.add(failure)
            kept.append(failure)
            if len(kept) > limit:
                break
        return tuple(kept)
