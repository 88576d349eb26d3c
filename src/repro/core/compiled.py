"""One-shot policy compilation for the PDP hot path.

The paper's enforcement model evaluates VO + local policy on *every*
job-start and job-management request (§5–6), so decision latency is
dominated by how fast a single :class:`~repro.core.model.Policy` can
be consulted.  The interpreted path re-scans every statement per
request (``Policy.grants_for`` / ``requirements_for`` are
O(statements) with a per-statement subject match) and rebuilds the
``guard()`` / ``body()`` specifications of every assertion it touches.
Both the journal version of the paper (Keahey et al., CCPE 2004) and
the Akenti companion work flag exactly this per-request policy
evaluation cost as the scaling bottleneck of callout-based
authorization.

:func:`compile_policy` lowers an immutable policy once into a
:class:`CompiledPolicy` holding three structures:

**Subject index.**  Exact-DN statements land in a hash map keyed on
the one-line DN form; DN-prefix (group) statements land in a sorted
array probed by :func:`bisect.bisect_left` once per distinct prefix
length — a matching prefix of length ``L`` must equal
``identity[:L]`` exactly, so each length needs one probe instead of a
scan.  Selecting the statements that apply to a requester becomes
O(distinct prefix lengths + hits) instead of O(statements).

**Action-guard index.**  Within each grant statement, assertions are
bucketed by the lowered values of their ``action`` equality guard;
assertions whose guard is not statically indexable (variable
references, ``self``, ``NULL``, numeric action values, no equality
relation on ``action``) fall into a catch-all bucket that is probed
for every request.  Bucketing is *conservative*: an assertion is only
excluded from a bucket when its guard provably cannot match that
action, so the first satisfied assertion found through the index is
the same one the interpreted scan would find.

**Pre-lowered assertions.**  Every relation is lowered once via
:func:`~repro.core.matching.lower_relation`: asserted value texts are
resolved, unresolved-variable failures and malformed ordering bounds
become precomputed outcomes, and numeric bounds are parsed at compile
time.  Guard/body splits — rebuilt per request by the interpreted
requirement check — are computed once.  Lowered relations are cached
on each assertion and compiled statements on each statement, so a
statement that a new policy version keeps from the last one is not
compiled again.

Decision parity with the interpreted evaluator is exact (effects,
reasons, source, NOT_APPLICABLE vs DENY) and pinned by the
differential suite in ``tests/core/test_compiled_differential.py``.
On the deny path the compiled evaluator deliberately replays the full
assertion list so failure reasons accumulate in the interpreted order
— denials are the cold path, and explainability of a denial is the
paper's point.

Compilation cost and index selectivity are observable through the
``policy_compile_*`` / ``policy_index_*`` metric families (see
``docs/performance.md``).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import ACTION, JOBOWNER, NULL, SELF
from repro.core.matching import (
    SATISFIED,
    LoweredRelation,
    MatchContext,
    RelationOutcome,
    lower_relation,
    match_lowered_relation,
)
from repro.core.model import (
    Policy,
    PolicyAssertion,
    PolicyStatement,
    StatementKind,
)
from repro.core.request import AuthorizationRequest
from repro.rsl.ast import Concatenation, Relop, Specification, Value, VariableReference

#: Default bound on the per-requester statement-slice memo.
DEFAULT_MEMO_CAP = 4096

#: Attribute the compiled policy caches on its source ``Policy``
#: instance (see :func:`compiled_for`).
_CACHE_ATTR = "_compiled_policy_cache"

#: Attribute each statement's :class:`CompiledStatement` is cached
#: under on the (frozen, slot-less) :class:`PolicyStatement`, so a
#: statement that several policies share is compiled once.
_STATEMENT_ATTR = "_compiled_statement_cache"

#: Attribute a job description's own request values are cached under
#: on the (frozen) :class:`Specification` (see :func:`evaluation_view`).
_VIEW_ATTR = "_request_values_cache"

#: Attribute the per-assertion summary is cached under on the
#: :class:`PolicyAssertion` instance — shared assertions are lowered
#: once, which is what keeps index builds over very large generated
#: policies cheap.
_SUMMARY_ATTR = "_assertion_summary_cache"


@dataclass(frozen=True)
class CompiledAssertion:
    """One assertion with every request-independent step precomputed."""

    #: The source assertion — reason strings must quote it verbatim.
    assertion: PolicyAssertion
    #: Full conjunction in original relation order (permit matching).
    relations: Tuple[LoweredRelation, ...]
    #: Relations on ``action`` only (the requirement guard).
    guard: Tuple[LoweredRelation, ...]
    #: Everything except the action guard (the requirement body).
    body: Tuple[LoweredRelation, ...]
    #: Lowered action values this assertion can possibly match, or
    #: ``None`` when the guard is not statically indexable (catch-all).
    action_keys: Optional[Tuple[str, ...]]
    #: ``granted by <subject>: <assertion>`` — unparsing the assertion
    #: per permit showed up in profiles, so the string is baked here.
    permit_reason: str = ""

    def match(
        self, values: Dict[str, Tuple[str, ...]], context: MatchContext
    ) -> RelationOutcome:
        """Whole-conjunction check; first failure wins."""
        for relation in self.relations:
            outcome = match_lowered_relation(relation, values, context)
            if not outcome.satisfied:
                return outcome
        return SATISFIED

    def guard_matches(
        self, values: Dict[str, Tuple[str, ...]], context: MatchContext
    ) -> bool:
        """Does the action guard apply?  Empty guards always apply."""
        for relation in self.guard:
            if not match_lowered_relation(relation, values, context).satisfied:
                return False
        return True

    def match_body(
        self, values: Dict[str, Tuple[str, ...]], context: MatchContext
    ) -> RelationOutcome:
        for relation in self.body:
            outcome = match_lowered_relation(relation, values, context)
            if not outcome.satisfied:
                return outcome
        return SATISFIED


def _indexable_action_keys(
    assertion: PolicyAssertion,
) -> Optional[Tuple[str, ...]]:
    """Lowered action values the assertion can match, or None.

    Sound bucketing needs one ``action`` *equality* relation whose
    values are all plain, non-``NULL``, non-``self``, non-numeric
    literals: such a relation forces any matching request's action to
    be (case-insensitively) among its values.  Additional action
    relations only constrain further, so the first qualifying relation
    suffices.  Numeric values are excluded because equality goes
    numeric when both sides parse (``4`` matches ``4.0``), which would
    need alias keys; real action vocabularies are words.
    """
    for relation in assertion.spec.relations_for(ACTION):
        if relation.op is not Relop.EQ:
            continue
        texts: List[str] = []
        for value in relation.values:
            if not isinstance(value, Value):
                break
            text = value.text
            if text == NULL or text == SELF or value.is_numeric:
                break
            texts.append(text.lower())
        else:
            return tuple(texts)
    return None


@dataclass(frozen=True)
class _AssertionSummary:
    """Request-independent facts about one grant/requirement assertion."""

    assertion: PolicyAssertion
    #: Lowered action values the assertion can match, or ``None`` when
    #: its guard is not statically indexable (reachable for any action).
    action_keys: Optional[Tuple[str, ...]]
    #: Full conjunction, lowered once.
    relations: Tuple[LoweredRelation, ...]


def _summarise(assertion: PolicyAssertion) -> _AssertionSummary:
    cached = assertion.__dict__.get(_SUMMARY_ATTR)
    if cached is None:
        cached = _AssertionSummary(
            assertion=assertion,
            action_keys=_indexable_action_keys(assertion),
            relations=tuple(lower_relation(r) for r in assertion.spec),
        )
        object.__setattr__(assertion, _SUMMARY_ATTR, cached)
    return cached


@dataclass(frozen=True)
class CompiledStatement:
    """A statement with compiled assertions and an action-bucket index."""

    statement: PolicyStatement
    assertions: Tuple[CompiledAssertion, ...]
    #: Premerged candidate lists: action value -> assertions that can
    #: match it (bucketed ∪ catch-all, in original assertion order).
    buckets: Dict[str, Tuple[CompiledAssertion, ...]]
    #: Assertions probed for *every* action (non-indexable guards).
    catch_all: Tuple[CompiledAssertion, ...]
    #: ``requirement <subject> violated: `` — precomputed prefix for
    #: requirement-violation reasons.
    violation_prefix: str = ""

    @property
    def kind(self) -> StatementKind:
        return self.statement.kind

    def candidates(self, action_key: str) -> Tuple[CompiledAssertion, ...]:
        """Assertions that could match a request with *action_key*."""
        return self.buckets.get(action_key, self.catch_all)


def _compile_statement(statement: PolicyStatement) -> CompiledStatement:
    """The compiled form of *statement*, cached on the instance."""
    cached = statement.__dict__.get(_STATEMENT_ATTR)
    if cached is not None:
        return cached
    compiled: List[CompiledAssertion] = []
    for assertion in statement.assertions:
        summary = _summarise(assertion)
        relations = summary.relations
        guard = tuple(r for r in relations if r.lookup == ACTION)
        body = tuple(r for r in relations if r.lookup != ACTION)
        compiled.append(
            CompiledAssertion(
                assertion=assertion,
                relations=relations,
                guard=guard,
                body=body,
                action_keys=summary.action_keys,
                permit_reason=(
                    f"granted by {statement.subject}: {assertion}"
                ),
            )
        )
    catch_all = tuple(c for c in compiled if c.action_keys is None)
    keys = {key for c in compiled if c.action_keys for key in c.action_keys}
    buckets = {
        key: tuple(
            c
            for c in compiled
            if c.action_keys is None or key in c.action_keys
        )
        for key in keys
    }
    cached = CompiledStatement(
        statement=statement,
        assertions=tuple(compiled),
        buckets=buckets,
        catch_all=catch_all,
        violation_prefix=f"requirement {statement.subject} violated: ",
    )
    object.__setattr__(statement, _STATEMENT_ATTR, cached)
    return cached


@dataclass
class CompileStats:
    """What compilation produced — exported as ``policy_compile_*`` /
    ``policy_index_*`` gauges when a registry is bound."""

    statements: int = 0
    grant_statements: int = 0
    requirement_statements: int = 0
    exact_entries: int = 0
    prefix_entries: int = 0
    prefix_lengths: int = 0
    assertions: int = 0
    bucketed_assertions: int = 0
    catchall_assertions: int = 0
    compile_seconds: float = 0.0


#: One requester's applicable statements: (grants, requirements),
#: each in source-policy order.
StatementSlices = Tuple[
    Tuple[CompiledStatement, ...], Tuple[CompiledStatement, ...]
]


class CompiledPolicy:
    """An immutable policy lowered into indexed, evaluation-ready form.

    Thread-safe: the only mutable state is the bounded per-requester
    slice memo, guarded by a lock.  A compiled policy is tied to the
    exact :class:`Policy` it was built from; evaluators recompile on
    :meth:`~repro.core.evaluator.PolicyEvaluator.replace_policy`
    (which also bumps the policy epoch, expiring decision-cache
    entries — the memo never needs its own invalidation because a new
    policy means a new ``CompiledPolicy``).
    """

    __slots__ = (
        "policy",
        "statements",
        "stats",
        "_exact",
        "_prefixes",
        "_prefix_orders",
        "_prefix_lengths",
        "_memo",
        "_memo_cap",
        "_lock",
        "memo_hits",
        "memo_misses",
    )

    def __init__(self, policy: Policy, memo_cap: int = DEFAULT_MEMO_CAP) -> None:
        started = time.perf_counter()
        self.policy = policy
        self.statements: Tuple[CompiledStatement, ...] = tuple(
            _compile_statement(statement) for statement in policy.statements
        )

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

        self._memo: "OrderedDict[str, StatementSlices]" = OrderedDict()
        self._memo_cap = memo_cap
        self._lock = threading.Lock()
        self.memo_hits = 0
        self.memo_misses = 0

        self.stats = CompileStats(
            statements=len(self.statements),
            grant_statements=sum(
                1 for c in self.statements if c.kind is StatementKind.GRANT
            ),
            requirement_statements=sum(
                1 for c in self.statements if c.kind is StatementKind.REQUIREMENT
            ),
            exact_entries=len(self._exact),
            prefix_entries=len(self._prefixes),
            prefix_lengths=len(self._prefix_lengths),
            assertions=sum(len(c.assertions) for c in self.statements),
            bucketed_assertions=sum(
                1
                for c in self.statements
                for a in c.assertions
                if a.action_keys is not None
            ),
            catchall_assertions=sum(
                len(c.catch_all) for c in self.statements
            ),
            compile_seconds=time.perf_counter() - started,
        )

    # -- subject index -----------------------------------------------------

    def _probe(self, identity: str) -> StatementSlices:
        """Index lookup: which statements apply to *identity*."""
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
        grants: List[CompiledStatement] = []
        requirements: List[CompiledStatement] = []
        for order in orders:
            compiled = self.statements[order]
            if compiled.kind is StatementKind.GRANT:
                grants.append(compiled)
            else:
                requirements.append(compiled)
        return tuple(grants), tuple(requirements)

    def slices_for(self, identity: str) -> Tuple[StatementSlices, bool]:
        """Applicable (grants, requirements) for *identity*, memoized.

        Returns the slices plus whether they came from the memo.  The
        memo is bounded LRU: repeat identities (the paper's poll-loop
        pattern) skip even the index probes.
        """
        with self._lock:
            cached = self._memo.get(identity)
            if cached is not None:
                self._memo.move_to_end(identity)
                self.memo_hits += 1
                return cached, True
        slices = self._probe(identity)
        with self._lock:
            self.memo_misses += 1
            self._memo[identity] = slices
            if len(self._memo) > self._memo_cap:
                self._memo.popitem(last=False)
        return slices, False

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def __len__(self) -> int:
        return len(self.statements)


def _description_values(spec: Specification) -> Dict[str, Tuple[str, ...]]:
    """The job description's part of the evaluation view, kept on it.

    A description is frozen and shared by every question about its job
    (start, then each status, cancel and ``information``), so it is
    scanned once.  ``action`` and ``jobowner`` are left out: each
    request computes its own.  Never hand this map to a caller.
    """
    cached = spec.__dict__.get(_VIEW_ATTR)
    if cached is None:
        collected: Dict[str, List[str]] = {}
        for relation in spec.relations:
            if relation.op is not Relop.EQ:
                continue
            attribute = relation.attribute
            if attribute == ACTION or attribute == JOBOWNER:
                continue
            for value in relation.values:
                if isinstance(value, (VariableReference, Concatenation)):
                    continue
                text = str(value)
                if text and text != NULL:
                    collected.setdefault(attribute, []).append(text)
        cached = {attribute: tuple(texts) for attribute, texts in collected.items()}
        object.__setattr__(spec, _VIEW_ATTR, cached)
    return cached


def evaluation_view(request: AuthorizationRequest) -> Dict[str, Tuple[str, ...]]:
    """The request-value view of the evaluation specification, directly.

    Produces exactly
    ``request_value_view(request.evaluation_specification())`` without
    materialising the intermediate :class:`Specification`.  The
    computed ``action`` / ``jobowner`` attributes replace any the
    client wrote into its RSL (the anti-spoofing rule), matching
    ``evaluation_specification`` clause for clause: only relations
    whose attribute is *exactly* the lowered form are replaced, and
    the NULL/empty-value filter applies to every contributed text.
    Each call copies the description's kept part and adds the two
    computed attributes, so a caller may change what it gets.
    """
    view = dict(_description_values(request.job_description))
    action = request.action._value_
    if action and action != NULL:
        view[ACTION] = (action,)
    owner = str(request.owner)
    if owner and owner != NULL:
        view[JOBOWNER] = (owner,)
    return view


def compile_policy(policy: Policy, memo_cap: int = DEFAULT_MEMO_CAP) -> CompiledPolicy:
    """Compile *policy*; always builds a fresh :class:`CompiledPolicy`."""
    return CompiledPolicy(policy, memo_cap=memo_cap)


def compiled_for(policy: Policy) -> CompiledPolicy:
    """The compiled form of *policy*, cached on the instance.

    :class:`Policy` is a frozen dataclass, so the compiled form can
    never go stale; caching it on the instance makes per-request
    evaluator construction (``DynamicEvaluator.evaluate``) compile
    once per active-window snapshot instead of once per request.
    """
    cached = policy.__dict__.get(_CACHE_ATTR)
    if cached is None:
        cached = CompiledPolicy(policy)
        object.__setattr__(policy, _CACHE_ATTR, cached)
    return cached


def is_compiled(policy: Policy) -> bool:
    """Whether :func:`compiled_for` has already cached a compile."""
    return policy.__dict__.get(_CACHE_ATTR) is not None
