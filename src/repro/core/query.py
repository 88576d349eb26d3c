"""Reverse authorization index: O(subject) capability queries.

The forward engines (:mod:`repro.core.evaluator`,
:mod:`repro.core.compiled`) answer "may *this request* proceed?".
Administrators, brokers and admission controllers ask the inverse
questions — *what can this subject do?* and *who could perform this
job?* — and the openedx-authz foundation work makes exactly those
query patterns a first-class requirement of a policy system.  This
module inverts the compiled engine's subject/action indexes so both
questions cost O(the subject's statements), not O(total policy size):

* :class:`QueryIndex` — built once per immutable
  :class:`~repro.core.model.Policy`; per subject it enumerates the
  permitted ``(action, constraint)`` tuples with provenance
  (:class:`SubjectPermission`), and per action it enumerates the
  subjects that could be permitted (:meth:`QueryIndex.permitted_subjects`,
  verified by real forward evaluation so requirements and default
  deny are honoured exactly).
* :class:`QueryEngine` — the *epoch-guarded* production wrapper over
  one or more live :class:`~repro.core.evaluator.PolicyEvaluator`
  sources.  Every answer first compares the watched policy epochs and
  atomically rebuilds the indexes on any change, so a stale index
  never serves a decision — the same fail-closed discipline as
  capability grants.

**Deny-safety.**  The engine's :meth:`QueryEngine.check_request` /
:meth:`QueryEngine.check_action` answer a *pre-decision*: either
``guaranteed_deny`` (forward evaluation provably cannot PERMIT) or
undecided (run the real pipeline).  The claim is one-sided by
construction — a permit requires at least one grant assertion to
match, so a subject with no applicable statements, no grant assertion
reachable for the request's action, or (in deep mode) no grant
assertion matching the concrete request, cannot be permitted;
requirements only ever deny *more*.  Classification mirrors the
compiled engine's conservative action bucketing
(:func:`repro.core.compiled._indexable_action_keys`): an assertion
whose guard is not statically indexable counts as reachable for
*every* action.  Combined (VO ∧ local) semantics follow the
configured :class:`~repro.core.combination.CombinationAlgorithm`
exactly.  The differential suite
(``tests/core/test_query_differential.py``, driven by
:mod:`repro.workloads.query_audit`) pins zero divergences over
randomized probes, including post-epoch-bump runs.
"""

from __future__ import annotations

import enum
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.combination import CombinationAlgorithm
from repro.core.compiled import _AssertionSummary, _summarise, evaluation_view
from repro.core.matching import MatchContext, match_lowered_relation
from repro.core.model import (
    Policy,
    PolicyAssertion,
    PolicyStatement,
    StatementKind,
)
from repro.core.pipeline import epoch_of
from repro.core.request import AuthorizationRequest
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import Specification

#: Action marker for assertions whose guard is not statically
#: indexable — they are reachable for every action.
ANY_ACTION = "<any>"

#: Default bound on the per-identity profile memo of a QueryIndex.
DEFAULT_PROFILE_CAP = 4096


class Reachability(enum.Enum):
    """What the index can prove about (subject, action) without a request.

    ``NOT_APPLICABLE``
        No statement applies to the subject; forward evaluation is
        NOT_APPLICABLE (a denial under ``ALL_MUST_PERMIT``, an
        abstention under ``PERMIT_OVERRIDES_NOT_APPLICABLE``).
    ``DENIED``
        Statements apply, but no grant assertion could possibly match
        the action; forward evaluation is an explicit DENY.
    ``REACHABLE``
        At least one grant assertion could match the action; forward
        evaluation must run (a permit is possible, not promised).
    """

    NOT_APPLICABLE = "not-applicable"
    DENIED = "denied"
    REACHABLE = "reachable"


@dataclass(frozen=True)
class SubjectPermission:
    """One reachable permission: an action plus its constraints.

    The reverse-index analogue of
    :class:`repro.core.analysis.Capability`, with full provenance:
    which statement (by source-policy position) of which policy source
    granted it, via which assertion.
    """

    action: str
    constraints: Specification
    granted_by: str
    source: str
    statement_order: int
    assertion: PolicyAssertion

    def __str__(self) -> str:
        return (
            f"{self.action}: {self.constraints} "
            f"(granted by {self.granted_by} [{self.source} "
            f"statement {self.statement_order}])"
        )


@dataclass(frozen=True)
class _StatementView:
    """One applicable statement with its assertion summaries."""

    statement: PolicyStatement
    order: int
    summaries: Tuple[_AssertionSummary, ...]

    @property
    def kind(self) -> StatementKind:
        return self.statement.kind


@dataclass(frozen=True)
class SubjectProfile:
    """Everything the index knows about one subject identity."""

    identity: str
    grants: Tuple[_StatementView, ...]
    requirements: Tuple[_StatementView, ...]
    #: Lowered action values reachable through some grant assertion.
    grant_actions: frozenset
    #: Whether any grant assertion is reachable for *every* action.
    has_catchall: bool
    permissions: Tuple[SubjectPermission, ...]

    @property
    def statement_count(self) -> int:
        return len(self.grants) + len(self.requirements)

    def classify(self, action: str) -> Reachability:
        """What forward evaluation could do for this subject × action."""
        if not self.grants and not self.requirements:
            return Reachability.NOT_APPLICABLE
        if self.has_catchall or action.lower() in self.grant_actions:
            return Reachability.REACHABLE
        return Reachability.DENIED


@dataclass(frozen=True)
class PermittedSubjects:
    """Who could perform a job: verified identities plus open groups."""

    #: Exact-subject identities forward evaluation *permits* for the
    #: job (requirements and default deny honoured).
    identities: Tuple[str, ...]
    #: DN-prefix groups with a reachable grant for the action.  A
    #: prefix names an open set of identities, so members can only be
    #: verified when concrete candidates are supplied.
    groups: Tuple[str, ...]


@dataclass
class QueryStats:
    """What building a :class:`QueryIndex` produced."""

    statements: int = 0
    exact_subjects: int = 0
    prefix_subjects: int = 0
    build_seconds: float = 0.0


class QueryIndex:
    """The reverse index of one immutable :class:`Policy`.

    Subject lookup mirrors :class:`~repro.core.compiled.CompiledPolicy`
    exactly — exact-DN hash map plus a sorted prefix array probed once
    per distinct prefix length — so selecting a subject's statements is
    O(distinct prefix lengths + hits).  Per-assertion summaries (action
    keys, lowered relations) are cached on the assertion instances,
    so policies that share assertion objects across many statements
    (large generated stores) summarise each distinct assertion once.

    Thread-safe: the only mutable state is the bounded LRU profile
    memo, guarded by a lock.  An index is tied to the exact ``Policy``
    it was built from and can never go stale; liveness against policy
    *replacement* is the :class:`QueryEngine`'s job.
    """

    def __init__(
        self,
        policy: Policy,
        source: str = "",
        profile_cap: int = DEFAULT_PROFILE_CAP,
    ) -> None:
        started = time.perf_counter()
        self.policy = policy
        self.source = source or policy.name or "policy"

        exact: Dict[str, List[int]] = {}
        prefix_map: Dict[str, List[int]] = {}
        actions_exact: Dict[str, set] = {}
        actions_prefix: Dict[str, set] = {}
        catchall_exact: set = set()
        catchall_prefix: set = set()
        for order, statement in enumerate(policy.statements):
            subject = statement.subject
            target = exact if subject.exact else prefix_map
            target.setdefault(subject.pattern, []).append(order)
            if statement.kind is not StatementKind.GRANT:
                continue
            by_action = actions_exact if subject.exact else actions_prefix
            catchall = catchall_exact if subject.exact else catchall_prefix
            for assertion in statement.assertions:
                summary = _summarise(assertion)
                if summary.action_keys is None:
                    catchall.add(subject.pattern)
                else:
                    for key in summary.action_keys:
                        by_action.setdefault(key, set()).add(subject.pattern)

        self._exact: Dict[str, Tuple[int, ...]] = {
            pattern: tuple(orders) for pattern, orders in exact.items()
        }
        self._prefixes: Tuple[str, ...] = tuple(sorted(prefix_map))
        self._prefix_orders: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(prefix_map[pattern]) for pattern in self._prefixes
        )
        self._prefix_lengths: Tuple[int, ...] = tuple(
            sorted({len(pattern) for pattern in self._prefixes})
        )
        self._actions_exact = {
            key: tuple(sorted(subjects))
            for key, subjects in actions_exact.items()
        }
        self._actions_prefix = {
            key: tuple(sorted(subjects))
            for key, subjects in actions_prefix.items()
        }
        self._catchall_exact = tuple(sorted(catchall_exact))
        self._catchall_prefix = tuple(sorted(catchall_prefix))

        self._profiles: "OrderedDict[str, SubjectProfile]" = OrderedDict()
        self._profile_cap = profile_cap
        self._lock = threading.Lock()
        self.profile_hits = 0
        self.profile_misses = 0

        self.stats = QueryStats(
            statements=len(policy.statements),
            exact_subjects=len(self._exact),
            prefix_subjects=len(self._prefixes),
            build_seconds=time.perf_counter() - started,
        )

    # -- per-subject queries -------------------------------------------------

    def profile(self, identity: Union[str, DistinguishedName]) -> SubjectProfile:
        """The subject's reachable-permission profile, memoized."""
        key = str(identity)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self._profiles.move_to_end(key)
                self.profile_hits += 1
                return cached
        built = self._build_profile(key)
        with self._lock:
            self.profile_misses += 1
            self._profiles[key] = built
            if len(self._profiles) > self._profile_cap:
                self._profiles.popitem(last=False)
        return built

    def _build_profile(self, identity: str) -> SubjectProfile:
        orders: List[int] = list(self._exact.get(identity, ()))
        prefixes = self._prefixes
        for length in self._prefix_lengths:
            if length > len(identity):
                break
            probe = identity[:length]
            index = bisect_left(prefixes, probe)
            if index < len(prefixes) and prefixes[index] == probe:
                orders.extend(self._prefix_orders[index])
        orders.sort()

        grants: List[_StatementView] = []
        requirements: List[_StatementView] = []
        grant_actions: set = set()
        has_catchall = False
        permissions: List[SubjectPermission] = []
        for order in orders:
            statement = self.policy.statements[order]
            view = _StatementView(
                statement=statement,
                order=order,
                summaries=tuple(
                    _summarise(a) for a in statement.assertions
                ),
            )
            if statement.kind is not StatementKind.GRANT:
                requirements.append(view)
                continue
            grants.append(view)
            for summary in view.summaries:
                if summary.action_keys is None:
                    has_catchall = True
                    actions: Tuple[str, ...] = (ANY_ACTION,)
                else:
                    grant_actions.update(summary.action_keys)
                    actions = summary.action_keys
                body = summary.assertion.body()
                for action in actions:
                    permissions.append(
                        SubjectPermission(
                            action=action,
                            constraints=body,
                            granted_by=str(statement.subject),
                            source=self.source,
                            statement_order=order,
                            assertion=summary.assertion,
                        )
                    )
        return SubjectProfile(
            identity=identity,
            grants=tuple(grants),
            requirements=tuple(requirements),
            grant_actions=frozenset(grant_actions),
            has_catchall=has_catchall,
            permissions=tuple(permissions),
        )

    def permissions_for(
        self, identity: Union[str, DistinguishedName]
    ) -> Tuple[SubjectPermission, ...]:
        """The permitted (action, constraint) tuples for *identity*."""
        return self.profile(identity).permissions

    def requirements_for(
        self, identity: Union[str, DistinguishedName]
    ) -> Tuple[PolicyStatement, ...]:
        """The requirement statements that constrain *identity*."""
        return tuple(
            view.statement for view in self.profile(identity).requirements
        )

    def classify(
        self, identity: Union[str, DistinguishedName], action: str
    ) -> Reachability:
        """Static subject × action classification (no job description)."""
        return self.profile(identity).classify(action)

    def grant_reachable(self, request: AuthorizationRequest) -> bool:
        """Deep check: could any grant assertion match *request*?

        Replays the compiled engine's grant loop — same candidate
        filtering, same lowered relations, same evaluation view — so
        ``False`` means forward evaluation provably cannot PERMIT
        under this policy (requirements can only deny further).
        """
        profile = self.profile(str(request.requester))
        if not profile.grants:
            return False
        action_key = str(request.action)
        values = evaluation_view(request)
        context = MatchContext(requester=request.requester)
        for view in profile.grants:
            for summary in view.summaries:
                keys = summary.action_keys
                if keys is not None and action_key not in keys:
                    continue
                for relation in summary.relations:
                    if not match_lowered_relation(
                        relation, values, context
                    ).satisfied:
                        break
                else:
                    return True
        return False

    # -- per-job queries -----------------------------------------------------

    def subjects_for(self, action: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Subjects with a reachable grant for *action*.

        Returns ``(exact identities, prefix groups)``, each the union
        of the action's bucket and the catch-all bucket — the inverse
        of :meth:`classify`, straight off the build-time index.
        """
        key = action.lower()
        exact = set(self._actions_exact.get(key, ()))
        exact.update(self._catchall_exact)
        groups = set(self._actions_prefix.get(key, ()))
        groups.update(self._catchall_prefix)
        return tuple(sorted(exact)), tuple(sorted(groups))

    def permitted_subjects(
        self,
        action: str,
        job_description: Optional[Specification] = None,
        jobowner: Optional[Union[str, DistinguishedName]] = None,
        candidates: Sequence[Union[str, DistinguishedName]] = (),
    ) -> PermittedSubjects:
        """Who could perform a job: the reverse of the forward question.

        Exact subjects are taken from the action index and — when a
        *job_description* is given — verified by real forward
        evaluation under this policy, so requirements and default deny
        are honoured exactly; without a description the reachable set
        is returned unverified.  Prefix groups are reported as groups
        (they name open identity sets); *candidates* are extra
        concrete identities to verify, e.g. known members of those
        groups.  Cost scales with the subjects that have statements
        mentioning the action, never with the total user population.
        """
        exact, groups = self.subjects_for(action)
        to_check: List[str] = list(exact)
        for candidate in candidates:
            text = str(candidate)
            if text not in to_check:
                to_check.append(text)
        if job_description is None:
            return PermittedSubjects(
                identities=tuple(to_check), groups=groups
            )
        from repro.core.attributes import Action
        from repro.core.evaluator import PolicyEvaluator

        act = Action.parse(action)
        evaluator = PolicyEvaluator(self.policy, source=self.source)
        permitted: List[str] = []
        for identity in to_check:
            if act is Action.START:
                request = AuthorizationRequest.start(identity, job_description)
            else:
                owner = jobowner if jobowner is not None else identity
                request = AuthorizationRequest.manage(
                    identity, act, job_description, jobowner=owner
                )
            if evaluator.evaluate(request).is_permit:
                permitted.append(identity)
        return PermittedSubjects(identities=tuple(permitted), groups=groups)

    def known_subjects(self) -> Tuple[str, ...]:
        """Every subject pattern in the policy, exact and prefix."""
        return tuple(sorted(set(self._exact) | set(self._prefixes)))

    @property
    def profile_memo_size(self) -> int:
        return len(self._profiles)

    def __len__(self) -> int:
        return len(self.policy.statements)


@dataclass(frozen=True)
class PreDecision:
    """A deny-safe pre-decision: guaranteed-DENY, or run the pipeline.

    ``guaranteed_deny`` is one-sided: ``True`` promises forward
    evaluation cannot PERMIT; ``False`` promises nothing.  ``level``
    records how the denial was proven — ``"subject"`` (no applicable
    statements anywhere it matters), ``"action"`` (no grant assertion
    reachable for the action), or ``"constraint"`` (deep check: no
    grant assertion matches the concrete request).
    """

    guaranteed_deny: bool
    level: str = ""
    reasons: Tuple[str, ...] = ()


#: Per-source statuses feeding the combination logic.
_MAYBE = "maybe"


def _combine_statuses(
    statuses: Sequence[Tuple[str, object]],
    algorithm: CombinationAlgorithm,
) -> bool:
    """Is the combined outcome a guaranteed deny?

    *statuses* holds ``(source, Reachability | "maybe")`` per policy
    source; ``"maybe"`` means a permit is possible.  Mirrors
    :meth:`repro.core.combination.CombinedEvaluator.combine`:

    * ``ALL_MUST_PERMIT`` — every source must permit, and a source
      that is NOT_APPLICABLE denies; any non-``maybe`` source makes
      the combined outcome a guaranteed deny.
    * ``PERMIT_OVERRIDES_NOT_APPLICABLE`` — an explicit DENY from any
      source wins, and all-abstain is a deny; a NOT_APPLICABLE source
      merely defers, so a deny is only guaranteed when some source is
      provably DENIED or *no* source could permit.
    """
    if algorithm is CombinationAlgorithm.ALL_MUST_PERMIT:
        return any(status is not _MAYBE for _, status in statuses)
    if any(status is Reachability.DENIED for _, status in statuses):
        return True
    return all(status is not _MAYBE for _, status in statuses)


class QueryEngine:
    """Epoch-guarded reverse index over live policy sources.

    Wraps the :class:`~repro.core.evaluator.PolicyEvaluator` members
    of a combined evaluator.  Every answer calls
    :meth:`ensure_fresh` first: the watched epoch tuple is compared
    and, on any change, every index is rebuilt before the answer is
    produced — a policy bump atomically invalidates the reverse index,
    so a stale index never serves a decision.
    """

    def __init__(
        self,
        evaluators: Sequence,
        algorithm: CombinationAlgorithm = CombinationAlgorithm.ALL_MUST_PERMIT,
        registry=None,
        consumer: str = "engine",
    ) -> None:
        if not evaluators:
            raise ValueError("need at least one policy source")
        self.evaluators = list(evaluators)
        self.algorithm = algorithm
        #: The combined evaluator these members belong to, when built
        #: by :meth:`from_combined`.
        self.combined = None
        self.consumer = consumer
        self._indexes: Optional[Tuple[QueryIndex, ...]] = None
        self._built_epoch: Optional[Tuple] = None
        self._lock = threading.Lock()
        self.rebuilds = 0
        self.checks = 0
        self.denied = 0
        self._registry = registry
        #: ``query_prefilter_checks_total``, bound at the first check.
        self._checks_series = None

    @classmethod
    def from_combined(cls, combined, **kwargs) -> "QueryEngine":
        """Build over a :class:`~repro.core.combination.CombinedEvaluator`."""
        engine = cls(combined.evaluators, algorithm=combined.algorithm, **kwargs)
        engine.combined = combined
        return engine

    def _epoch(self) -> Tuple:
        return tuple(epoch_of(e) for e in self.evaluators)

    @property
    def watched_epoch(self) -> Tuple:
        return self._epoch()

    def ensure_fresh(self) -> Tuple[QueryIndex, ...]:
        """The live indexes, rebuilt if any watched epoch moved."""
        epoch = self._epoch()
        with self._lock:
            if self._indexes is not None and self._built_epoch == epoch:
                return self._indexes
            self._indexes = tuple(
                QueryIndex(evaluator.policy, source=evaluator.source)
                for evaluator in self.evaluators
            )
            self._built_epoch = epoch
            self.rebuilds += 1
            if self._registry is not None:
                self._registry.count(
                    "query_index_rebuilds_total",
                    help="reverse-index (re)builds, one per epoch change",
                    consumer=self.consumer,
                )
            return self._indexes

    @property
    def indexes(self) -> Tuple[QueryIndex, ...]:
        return self.ensure_fresh()

    # -- pre-decisions -------------------------------------------------------

    def check_action(
        self, identity: Union[str, DistinguishedName], action: str
    ) -> PreDecision:
        """Static pre-decision for subject × action (no job description).

        The cheap form — no RSL parse — used by the gatekeeper's
        admission fast-deny: after one profile memoization it is a
        set-membership test per source.
        """
        indexes = self.ensure_fresh()
        self._count_check()
        identity_text = str(identity)
        statuses: List[Tuple[str, object]] = []
        reasons: List[str] = []
        level = "subject"
        for index in indexes:
            reachability = index.classify(identity_text, action)
            if reachability is Reachability.REACHABLE:
                statuses.append((index.source, _MAYBE))
                continue
            statuses.append((index.source, reachability))
            if reachability is Reachability.NOT_APPLICABLE:
                reasons.append(
                    f"[{index.source}] no statement applies to {identity_text}"
                )
            else:
                level = "action"
                reasons.append(
                    f"[{index.source}] no grant assertion for action "
                    f"{action!r} applies to {identity_text}"
                )
        return self._finish(statuses, reasons, level)

    def check_request(
        self, request: AuthorizationRequest, deep: bool = True
    ) -> PreDecision:
        """Pre-decision for a concrete request.

        With ``deep`` the per-source check replays the compiled grant
        loop against the request's evaluation view, so constraint
        mismatches (wrong executable, oversized count, missing jobtag)
        are also caught — still deny-safe: a failed deep check means
        no grant assertion matches, which forward evaluation cannot
        turn into a PERMIT.
        """
        indexes = self.ensure_fresh()
        self._count_check()
        identity_text = str(request.requester)
        action_key = str(request.action)
        statuses: List[Tuple[str, object]] = []
        reasons: List[str] = []
        level = "subject"
        for index in indexes:
            reachability = index.classify(identity_text, action_key)
            if reachability is Reachability.REACHABLE:
                if deep and not index.grant_reachable(request):
                    statuses.append((index.source, Reachability.DENIED))
                    level = "constraint"
                    reasons.append(
                        f"[{index.source}] no grant assertion matches the "
                        f"request ({identity_text}, action {action_key!r})"
                    )
                else:
                    statuses.append((index.source, _MAYBE))
                continue
            statuses.append((index.source, reachability))
            if reachability is Reachability.NOT_APPLICABLE:
                reasons.append(
                    f"[{index.source}] no statement applies to {identity_text}"
                )
            else:
                if level == "subject":
                    level = "action"
                reasons.append(
                    f"[{index.source}] no grant assertion for action "
                    f"{action_key!r} applies to {identity_text}"
                )
        return self._finish(statuses, reasons, level)

    def _finish(
        self,
        statuses: Sequence[Tuple[str, object]],
        reasons: List[str],
        level: str,
    ) -> PreDecision:
        if not _combine_statuses(statuses, self.algorithm):
            return PreDecision(guaranteed_deny=False)
        self.denied += 1
        if self._registry is not None:
            self._registry.count(
                "query_prefilter_denied_total",
                help="requests answered guaranteed-DENY by the reverse index",
                consumer=self.consumer,
                level=level,
            )
        return PreDecision(
            guaranteed_deny=True, level=level, reasons=tuple(reasons)
        )

    def _count_check(self) -> None:
        self.checks += 1
        if self._registry is not None:
            series = self._checks_series
            if series is None:
                series = self._checks_series = self._registry.counter(
                    "query_prefilter_checks_total",
                    help="pre-decisions asked of the reverse index",
                    labelnames=("consumer",),
                ).labels(consumer=self.consumer)
            series.inc()

    # -- enumeration (the ops/CLI view) --------------------------------------

    def known_subjects(self) -> Tuple[str, ...]:
        """Every subject pattern across every source, sorted."""
        merged: set = set()
        for index in self.ensure_fresh():
            merged.update(index.known_subjects())
        return tuple(sorted(merged))

    def explain(
        self, identity: Union[str, DistinguishedName]
    ) -> "SubjectExplanation":
        """The subject's reachable permissions across every source."""
        indexes = self.ensure_fresh()
        identity_text = str(identity)
        permissions: List[SubjectPermission] = []
        requirements: List[Tuple[str, PolicyStatement]] = []
        applicable = 0
        for index in indexes:
            profile = index.profile(identity_text)
            applicable += profile.statement_count
            permissions.extend(profile.permissions)
            requirements.extend(
                (index.source, view.statement)
                for view in profile.requirements
            )
        return SubjectExplanation(
            identity=identity_text,
            algorithm=self.algorithm,
            sources=tuple(index.source for index in indexes),
            applicable_statements=applicable,
            permissions=tuple(permissions),
            requirements=tuple(requirements),
        )


@dataclass(frozen=True)
class SubjectExplanation:
    """What ``repro authz explain`` renders: the reachable set."""

    identity: str
    algorithm: CombinationAlgorithm
    sources: Tuple[str, ...]
    applicable_statements: int
    permissions: Tuple[SubjectPermission, ...]
    requirements: Tuple[Tuple[str, PolicyStatement], ...] = field(
        default_factory=tuple
    )

    @property
    def known(self) -> bool:
        """Does any source have a statement for this subject at all?"""
        return self.applicable_statements > 0

    def actions(self) -> Tuple[str, ...]:
        """The distinct reachable action names, sorted."""
        return tuple(sorted({p.action for p in self.permissions}))
