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
  atomically rebuilds the index of every source whose epoch moved, so
  a stale index never serves a decision — the same fail-closed
  discipline as capability grants.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.combination import CombinationAlgorithm
from repro.core.compiled import _summarise, evaluation_view
from repro.core.matching import MatchContext, match_lowered_relation
from repro.core.model import (
    Policy,
    PolicyAssertion,
    PolicyStatement,
    StatementKind,
)
from repro.core.pipeline import EpochView
from repro.core.request import AuthorizationRequest
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import Specification

#: Action marker for assertions whose guard is not statically
#: indexable — they are reachable for every action.
ANY_ACTION = "<any>"

#: Default bound on the per-identity memo of a QueryIndex.
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


class _Reach(NamedTuple):
    """One identity's memo entry: what it can reach in one policy."""

    #: Orders of the applicable grant statements, ascending.
    grants: Tuple[int, ...]
    #: Orders of the applicable requirement statements, ascending.
    requirements: Tuple[int, ...]
    #: Lowered action values reachable through some grant assertion.
    grant_actions: frozenset
    #: Whether any grant assertion is reachable for *every* action.
    has_catchall: bool

    def classify(self, action: str) -> Reachability:
        """What forward evaluation could do for this subject × action."""
        if not self.grants and not self.requirements:
            return Reachability.NOT_APPLICABLE
        if self.has_catchall or action.lower() in self.grant_actions:
            return Reachability.REACHABLE
        return Reachability.DENIED


@dataclass(frozen=True)
class SubjectProfile:
    """Everything the index knows about one subject identity."""

    identity: str
    grants: Tuple[PolicyStatement, ...]
    requirements: Tuple[PolicyStatement, ...]
    #: Lowered action values reachable through some grant assertion.
    grant_actions: frozenset
    #: Whether any grant assertion is reachable for *every* action.
    has_catchall: bool
    permissions: Tuple[SubjectPermission, ...]

    @property
    def statement_count(self) -> int:
        return len(self.grants) + len(self.requirements)


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

    Construction builds only the subject lookup, which mirrors
    :class:`~repro.core.compiled.CompiledPolicy` exactly — exact-DN
    hash map plus a sorted prefix array probed once per distinct
    prefix length — so selecting a subject's statements is
    O(distinct prefix lengths + hits).  Per-assertion summaries
    (action keys, lowered relations) are cached on the assertion
    instances, so policies that share assertion objects across many
    statements (large generated stores) summarise each distinct
    assertion once.

    One bounded LRU memo per identity holds what a pre-decision
    reads: the applicable statement orders and the reachability they
    give (applicable, grant action keys, catch-all).
    :meth:`classify` and :meth:`grant_reachable` read only that entry;
    :meth:`profile` and the queries over it build provenance from the
    entry on demand.  The per-action subject buckets, which only
    :meth:`subjects_for` reads, are built on the first per-job query.

    Thread-safe: the memo and the lazy buckets are guarded by a lock.
    An index is tied to the exact ``Policy`` it was built from and can
    never go stale; liveness against policy *replacement* is the
    :class:`QueryEngine`'s job.
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
        for order, statement in enumerate(policy.statements):
            subject = statement.subject
            target = exact if subject.exact else prefix_map
            target.setdefault(subject.pattern, []).append(order)

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
        #: ``(exact by action, prefix by action, exact catch-all,
        #: prefix catch-all)``, built by the first per-job query.
        self._buckets: Optional[Tuple] = None

        self._memo: "OrderedDict[str, _Reach]" = OrderedDict()
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

    def _reach(self, identity: str) -> _Reach:
        """The identity's memo entry, built on a miss."""
        with self._lock:
            cached = self._memo.get(identity)
            if cached is not None:
                self._memo.move_to_end(identity)
                self.profile_hits += 1
                return cached
        built = self._build_reach(identity)
        with self._lock:
            self.profile_misses += 1
            self._memo[identity] = built
            if len(self._memo) > self._profile_cap:
                self._memo.popitem(last=False)
        return built

    def _build_reach(self, identity: str) -> _Reach:
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

        statements = self.policy.statements
        grants: List[int] = []
        requirements: List[int] = []
        grant_actions: set = set()
        has_catchall = False
        for order in orders:
            statement = statements[order]
            if statement.kind is not StatementKind.GRANT:
                requirements.append(order)
                continue
            grants.append(order)
            for assertion in statement.assertions:
                keys = _summarise(assertion).action_keys
                if keys is None:
                    has_catchall = True
                else:
                    grant_actions.update(keys)
        return _Reach(
            grants=tuple(grants),
            requirements=tuple(requirements),
            grant_actions=frozenset(grant_actions),
            has_catchall=has_catchall,
        )

    def profile(self, identity: Union[str, DistinguishedName]) -> SubjectProfile:
        """The subject's reachable-permission profile.

        Built from the memoized entry on every call: provenance is
        only paid for by the callers that read it.
        """
        key = str(identity)
        reach = self._reach(key)
        statements = self.policy.statements
        permissions: List[SubjectPermission] = []
        for order in reach.grants:
            statement = statements[order]
            granted_by = str(statement.subject)
            for assertion in statement.assertions:
                keys = _summarise(assertion).action_keys
                body = assertion.body()
                for action in (ANY_ACTION,) if keys is None else keys:
                    permissions.append(
                        SubjectPermission(
                            action=action,
                            constraints=body,
                            granted_by=granted_by,
                            source=self.source,
                            statement_order=order,
                            assertion=assertion,
                        )
                    )
        return SubjectProfile(
            identity=key,
            grants=tuple(statements[order] for order in reach.grants),
            requirements=tuple(
                statements[order] for order in reach.requirements
            ),
            grant_actions=reach.grant_actions,
            has_catchall=reach.has_catchall,
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
        return self.profile(identity).requirements

    def classify(
        self, identity: Union[str, DistinguishedName], action: str
    ) -> Reachability:
        """Static subject × action classification (no job description)."""
        return self._reach(str(identity)).classify(action)

    def grant_reachable(self, request: AuthorizationRequest) -> bool:
        """Deep check: could any grant assertion match *request*?

        Replays the compiled engine's grant loop — same candidate
        filtering, same lowered relations, same evaluation view — so
        ``False`` means forward evaluation provably cannot PERMIT
        under this policy (requirements can only deny further).
        """
        reach = self._reach(str(request.requester))
        if not reach.grants:
            return False
        action_key = str(request.action)
        values = evaluation_view(request)
        context = MatchContext(requester=request.requester)
        statements = self.policy.statements
        for order in reach.grants:
            for assertion in statements[order].assertions:
                summary = _summarise(assertion)
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
        of :meth:`classify`.
        """
        by_action_exact, by_action_prefix, catchall_exact, catchall_prefix = (
            self._subject_buckets()
        )
        key = action.lower()
        exact = set(by_action_exact.get(key, ()))
        exact.update(catchall_exact)
        groups = set(by_action_prefix.get(key, ()))
        groups.update(catchall_prefix)
        return tuple(sorted(exact)), tuple(sorted(groups))

    def _subject_buckets(self) -> Tuple:
        """The per-action subject buckets, built once under the lock."""
        with self._lock:
            if self._buckets is None:
                by_action: Tuple[Dict[str, set], Dict[str, set]] = ({}, {})
                catchall: Tuple[set, set] = (set(), set())
                for statement in self.policy.statements:
                    if statement.kind is not StatementKind.GRANT:
                        continue
                    side = 0 if statement.subject.exact else 1
                    pattern = statement.subject.pattern
                    for assertion in statement.assertions:
                        keys = _summarise(assertion).action_keys
                        if keys is None:
                            catchall[side].add(pattern)
                            continue
                        for key in keys:
                            by_action[side].setdefault(key, set()).add(pattern)
                self._buckets = by_action + catchall
            return self._buckets

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
        return len(self._memo)

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
    of a combined evaluator, one :class:`QueryIndex` each.  Every
    answer calls :meth:`ensure_fresh` first: each evaluator's epoch is
    compared with the one its index was built at, and every index
    whose evaluator's epoch moved is rebuilt before the answer is
    produced — a policy bump atomically invalidates that source's
    reverse index, so a stale index never serves a decision.  A source
    the bump left alone keeps its index and the identities memoized
    in it: a policy-store publish that keeps a source's text keeps
    its evaluator's ``Policy`` and epoch, so only the sources whose
    text changed are rebuilt.  The evaluators' epochs are read through
    an :class:`~repro.core.pipeline.EpochView`: while the epoch
    generation has not moved and every evaluator pushes, that is one
    read.

    A pre-decision (:meth:`check_action`, :meth:`check_request`) reads
    each index's per-identity reachability entry and nothing else;
    :meth:`explain` builds the permissions, with provenance, from the
    same entries on demand.
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
        self._view = EpochView((e.source, e) for e in self.evaluators)
        self.algorithm = algorithm
        #: The combined evaluator these members belong to, when built
        #: by :meth:`from_combined`.
        self.combined = None
        self.consumer = consumer
        #: One index per evaluator; ``None`` until the first answer.
        self._indexes: Tuple[Optional[QueryIndex], ...] = (
            (None,) * len(self.evaluators)
        )
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

    @property
    def watched_epoch(self) -> Tuple:
        return self._view.epochs()

    def ensure_fresh(self) -> Tuple[QueryIndex, ...]:
        """The live indexes, each rebuilt if its evaluator's epoch moved."""
        epoch = self._view.epochs()
        with self._lock:
            if self._built_epoch == epoch:
                return self._indexes
            self._indexes = tuple(
                index
                if index is not None and then == now
                else QueryIndex(evaluator.policy, source=evaluator.source)
                for evaluator, index, then, now in zip(
                    self.evaluators,
                    self._indexes,
                    self._built_epoch or epoch,
                    epoch,
                )
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
        admission fast-deny: after one reachability memoization it is
        a set-membership test per source.
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
                (index.source, statement) for statement in profile.requirements
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
