"""Differential suite: an incremental publish answers like a fresh parse.

A publish reuses every statement of the active snapshot whose text is
unchanged, compiled form included, and parses only the rest.  Each test
publishes one seeded sequence of bundles with two sources that draw
from one statement pool.  The steps are additions, withdrawals,
reorderings, duplicates, statements copied across sources, changed
statements, comment- and whitespace-only edits, a parse-error bundle
and a validator-vetoed bundle (each followed by the same bundle without
the bad statement), rollbacks by ``steps`` and by ``to``, and restarts
that replay the JSONL log.  Statements are rendered on one line or
several, with comments and blank lines, as prefix or exact subjects,
and as grants or requirements.  After every step the suite checks:

(a) each active policy equals a fresh ``parse_policy`` of its text;
(b) the compiled engine over the active policy decides every sampled
    request like the interpreted engine over the fresh parse (effect,
    reasons and source; at least 10k requests per sequence);
(c) ``QueryEngine.check_action``, ``check_request`` and ``explain``
    answer like an engine built over the fresh parse;
(d) a statement whose source and text are unchanged is the same object
    as in the previous active snapshot, and so is its compiled form,
    while no object is ever shared between two source names;
(e) with ``repro.core.parser.parse_specification`` counted, a publish
    parses exactly the assertions of the distinct statement texts that
    the previous active snapshot lacks for that source;
(f) a source whose text is byte-identical to the previous active
    snapshot's keeps the same ``Policy`` object, its evaluator keeps its
    epoch and the ``QueryEngine`` keeps its index object, while a source
    whose text changed (a restyle included) gets a new ``Policy``, a
    moved epoch and a new index.

A publish re-renders only the sources its step changed (and, on a
restyle, the one source it restyles); every other source keeps the
text of the active snapshot byte for byte.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

import repro.core.parser as parser_module
from repro.core.compiled import compiled_for
from repro.core.evaluator import PolicyEvaluator
from repro.core.parser import parse_policy
from repro.core.query import QueryEngine
from repro.core.request import AuthorizationRequest
from repro.core.store import (
    REJECT_PARSE,
    REJECT_VALIDATOR,
    BundleRejected,
    PolicyBundle,
    VersionedPolicyStore,
)
from repro.rsl.parser import parse_specification

ORG = "/O=Grid/OU=churn.example.org"
SOURCES = ("vo", "local")
USERS = tuple(f"{ORG}/CN=User {index}" for index in range(12))
#: Requesters: exact subjects, members reached only through prefix
#: subjects, and a stranger no statement covers.
IDENTITIES = USERS + (
    f"{ORG}/CN=Guest 7",
    "/O=Elsewhere/OU=other.org/CN=Stranger",
)
#: Exact subjects plus three prefixes: the VO, ``User 1*`` (users 1,
#: 10 and 11) and the whole grid.
SUBJECTS = USERS + (ORG, f"{ORG}/CN=User 1*", "/O=Grid")
EXECUTABLES = ("sim", "transp", "test1")
JOBTAGS = ("NFC", "ADS")
ACTIONS = ("start", "cancel", "information", "signal")
REQUIREMENT_BODIES = (
    "(action=start)(jobtag!=NULL)",
    "(action=start)(count<16)",
    "(action=cancel)(jobtag!=NULL)",
    "(action=start)(executable!=test1)",
)

#: Steps of a sequence; each appears at least twice in every sequence.
STEPS = (
    "add",
    "withdraw",
    "reorder",
    "duplicate",
    "share",
    "modify",
    "restyle",
    "parse_error",
    "veto",
    "rollback_steps",
    "rollback_to",
    "restart",
)
SEQUENCE_STEPS = 44
#: Requests decided by both engines after every step.
REQUESTS_PER_CHECK = 240
MIN_REQUESTS = 10_000


@dataclass(frozen=True)
class Statement:
    """A statement of the model: what the text of a policy says."""

    subject: str
    requirement: bool
    #: Assertion texts; a grant's each start with ``&``, a
    #: requirement's first one does not.
    assertions: Tuple[str, ...]

    @property
    def text(self) -> Tuple[str, bool, str]:
        """The parser's statement text: subject, marker, joined body."""
        return (self.subject, self.requirement, " ".join(self.assertions))


#: Statements that make a bundle fail: one does not parse, the other
#: names an executable the validator vetoes.
BROKEN = Statement(USERS[3], False, ("&(action=start)(count<",))
FORBIDDEN = Statement(USERS[4], False, ("&(action=start)(executable=forbidden)",))

Model = Dict[str, List[Statement]]


def random_assertion(rng: random.Random) -> str:
    executable = rng.choice(EXECUTABLES)
    tag = rng.choice(JOBTAGS)
    bound = rng.choice((2, 4, 8, 16))
    return rng.choice(
        (
            f"&(action=start)(executable={executable})(count<{bound})",
            f"&(action=start)(executable={executable})(jobtag={tag})",
            "&(action=cancel)(jobowner=self)",
            "&(action=information)",
            f"&(action=signal)(jobtag={tag})",
            f"&(action=start)(count<={bound})",
            # Guards the action index cannot bucket: probed for every action.
            f"&(action!=cancel)(count<{bound})",
            f"&(action=start cancel)(jobtag={tag})",
        )
    )


def random_statement(rng: random.Random) -> Statement:
    if rng.random() < 0.2:
        bodies = rng.sample(REQUIREMENT_BODIES, rng.randint(1, 2))
        subject = rng.choice((ORG, f"{ORG}/CN=User 1*") + USERS[:4])
        return Statement(
            subject, True, (bodies[0],) + tuple("&" + b for b in bodies[1:])
        )
    return Statement(
        rng.choice(SUBJECTS),
        False,
        tuple(random_assertion(rng) for _ in range(rng.randint(1, 3))),
    )


def render(statements: List[Statement], rng: random.Random) -> str:
    """Policy text for *statements* in a random layout.

    Layouts differ only in comments, blank lines, indentation and line
    breaks between assertions, none of which changes a statement's text.
    """
    lines = []
    if rng.random() < 0.5:
        lines.append(f"# revision {rng.randrange(10**6)}")
    for statement in statements:
        marker = ""
        if statement.requirement:
            marker = rng.choice(("&", "& "))
        head = f"{marker}{statement.subject}:"
        style = rng.randrange(4)
        if style == 0:
            lines.append(f"{head} {' '.join(statement.assertions)}")
        elif style == 1:
            lines.append(head)
            lines.extend(f"    {a}" for a in statement.assertions)
        elif style == 2:
            lines.append(f"{head} {statement.assertions[0]}")
            lines.extend(
                f"\t{a}  # note {rng.randrange(100)}"
                for a in statement.assertions[1:]
            )
        else:
            lines.append(f"  {head}   # {statement.subject}")
            for assertion in statement.assertions:
                lines.append("")
                lines.append(f"        {assertion}   ")
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "# --", "   ")))
    return "\n".join(lines) + "\n"


def random_request(rng: random.Random) -> AuthorizationRequest:
    who = rng.choice(IDENTITIES)
    relations = [
        f"(executable={rng.choice(EXECUTABLES)})",
        f"(count={rng.choice((1, 3, 8, 12, 20))})",
    ]
    if rng.random() < 0.7:
        relations.append(f"(jobtag={rng.choice(JOBTAGS)})")
    spec = parse_specification("&" + "".join(relations))
    action = rng.choice(ACTIONS)
    if action == "start":
        return AuthorizationRequest.start(who, spec)
    owner = who if rng.random() < 0.5 else rng.choice(IDENTITIES)
    return AuthorizationRequest.manage(who, action, spec, jobowner=owner)


def assertions_to_parse(before: Model, after: Model) -> int:
    """Assertions a publish from *before* to *after* must parse.

    Those are the assertions of every distinct statement text that a
    source has in *after* and lacks in *before*.
    """
    total = 0
    for name in SOURCES:
        known = {statement.text for statement in before.get(name, ())}
        added = {s.text: s for s in after[name] if s.text not in known}
        total += sum(len(s.assertions) for s in added.values())
    return total


def observed(decision):
    return (decision.effect, decision.reasons, decision.source)


def veto_forbidden(bundle, policies) -> None:
    for _, text in bundle.sources:
        if "forbidden" in text:
            raise ValueError("forbidden executable")


class CountingParse:
    """Stands in for ``parse_specification`` inside the policy parser."""

    def __init__(self, function) -> None:
        self.function = function
        self.calls = 0

    def __call__(self, text):
        self.calls += 1
        return self.function(text)


class PublishSequence:
    """One store, its live evaluators, and the model of what it serves."""

    def __init__(self, seed: int, log_path: str, counter: CountingParse) -> None:
        self.rng = random.Random(seed)
        self.log_path = log_path
        self.counter = counter
        self.requests = [random_request(self.rng) for _ in range(600)]
        self.requests_checked = 0
        #: What each committed bundle says, by digest.
        self.history: Dict[str, Model] = {}
        self.model: Model = {}
        #: Source name of every statement and compiled statement seen,
        #: by ``id``; ``alive`` keeps the objects so ids stay unique.
        self.owner: Dict[int, str] = {}
        self.alive: List[object] = []
        #: Per source, what the live consumers served after the last
        #: step: the evaluator's policy and epoch and the engine's index.
        self.served: Dict[str, Tuple[object, int, object]] = {}
        self.store = self._open()

    # -- the store and its consumers ---------------------------------------

    def _open(self) -> VersionedPolicyStore:
        store = VersionedPolicyStore(log_path=self.log_path)
        store.add_validator(veto_forbidden)
        store.subscribe(self._swap)
        self.live: Dict[str, PolicyEvaluator] = {}
        self.engine: Optional[QueryEngine] = None
        if store.active() is not None:
            self._serve(store.active())
        return store

    def _serve(self, snapshot) -> None:
        self.live = {
            policy.name: PolicyEvaluator(policy, source=policy.name)
            for policy in snapshot.policies
        }
        self.engine = QueryEngine(list(self.live.values()))

    def _swap(self, snapshot) -> None:
        if not self.live:
            self._serve(snapshot)
            return
        # Like ``GramService.apply_policy_snapshot``: a policy object
        # the evaluator already serves is not swapped.
        for policy in snapshot.policies:
            evaluator = self.live[policy.name]
            if policy is not evaluator.policy:
                evaluator.replace_policy(policy)

    # -- steps ---------------------------------------------------------------

    def publish(
        self, model: Model, rejected: str = "", restyle: str = ""
    ) -> None:
        previous = self.store.active()
        texts = dict(previous.bundle.sources) if previous is not None else {}
        bundle = PolicyBundle.from_texts(
            {
                name: texts[name]
                if name != restyle and model[name] == self.model.get(name)
                else render(model[name], self.rng)
                for name in SOURCES
            }
        )
        self.counter.calls = 0
        try:
            snapshot = self.store.publish(bundle)
        except BundleRejected as exc:
            assert exc.reason == rejected
            assert self.store.active() is previous
            self.check_answers(previous)
            return
        assert not rejected, "a bad bundle was published"
        self.committed(previous, snapshot, model)

    def committed(self, previous, snapshot, model: Model) -> None:
        if previous is not None:
            self.check_kept(previous, snapshot)
            self.check_served(previous, snapshot)
        if snapshot is previous:
            # Identical content: the digest short-circuit parses nothing.
            assert self.counter.calls == 0
            self.check_answers(snapshot)
            return
        before = self.history[previous.digest] if previous is not None else {}
        assert self.counter.calls == assertions_to_parse(before, model), "(e)"
        self.model = {name: list(model[name]) for name in SOURCES}
        self.history[snapshot.digest] = self.model
        if previous is not None:
            self.check_reuse(previous, snapshot)
        self.check_owners(snapshot)
        self.check_answers(snapshot)

    def rollback(self, by_steps: bool) -> None:
        entries = self.store.log_entries()
        if len(entries) < 2:
            return
        previous = self.store.active()
        self.counter.calls = 0
        if by_steps:
            steps = self.rng.randint(1, min(3, len(entries) - 1))
            target = entries[-1 - steps]
            snapshot = self.store.rollback(steps=steps)
        else:
            target = self.rng.choice(entries[:-1])
            snapshot = self.store.rollback(to=target.digest[:16])
        assert snapshot.digest == target.digest
        self.committed(previous, snapshot, self.history[target.digest])

    def restart(self) -> None:
        entries = self.store.log_entries()
        self.counter.calls = 0
        self.store = self._open()
        replayed = self.store.log_entries()
        assert [s.digest for s in replayed] == [s.digest for s in entries]
        # The replay chains the map from each logged snapshot to the next.
        expected, before = 0, {}
        for snapshot in entries:
            expected += assertions_to_parse(before, self.history[snapshot.digest])
            before = self.history[snapshot.digest]
        assert self.counter.calls == expected, "(e) on replay"
        for older, newer in zip(replayed, replayed[1:]):
            self.check_reuse(older, newer)
            self.check_kept(older, newer)
        for snapshot in replayed:
            self.check_owners(snapshot)
        self.check_answers(self.store.active())

    def step(self, kind: str) -> None:
        rng = self.rng
        model = {name: list(self.model[name]) for name in SOURCES}
        name = rng.choice(SOURCES)
        statements = model[name]
        if kind == "add":
            for _ in range(rng.randint(1, 3)):
                statements.insert(
                    rng.randint(0, len(statements)), random_statement(rng)
                )
        elif kind == "withdraw":
            for _ in range(min(rng.randint(1, 3), len(statements) - 2)):
                statements.pop(rng.randrange(len(statements)))
        elif kind == "reorder":
            rng.shuffle(statements)
        elif kind == "duplicate":
            # A copy of a kept statement, or a new statement twice.
            copy = rng.choice(statements + [random_statement(rng)])
            for _ in range(2):
                statements.insert(rng.randint(0, len(statements)), copy)
        elif kind == "share":
            other = model[SOURCES[1 - SOURCES.index(name)]]
            statements.insert(rng.randint(0, len(statements)), rng.choice(other))
        elif kind == "modify":
            index = rng.randrange(len(statements))
            old = statements[index]
            if old.requirement or rng.random() < 0.5:
                # Only the ``&`` marker changes: a grant becomes a
                # requirement with the same subject and body, or back.
                statements[index] = Statement(
                    old.subject, not old.requirement, old.assertions
                )
            else:
                assertions = list(old.assertions)
                assertions[rng.randrange(len(assertions))] = random_assertion(rng)
                statements[index] = Statement(old.subject, False, tuple(assertions))
        elif kind == "restyle":
            # Only comments, blank lines and line breaks change.
            self.publish(model, restyle=name)
            return
        elif kind in ("parse_error", "veto"):
            # New statements land before the bad one, so they parse
            # before the bundle fails; the retry must parse them again.
            for _ in range(rng.randint(1, 3)):
                statements.insert(
                    rng.randint(0, len(statements)), random_statement(rng)
                )
            bad = BROKEN if kind == "parse_error" else FORBIDDEN
            reason = REJECT_PARSE if kind == "parse_error" else REJECT_VALIDATOR
            self.publish(
                {**model, name: statements + [bad]}, rejected=reason
            )
        elif kind == "rollback_steps":
            self.rollback(by_steps=True)
            return
        elif kind == "rollback_to":
            self.rollback(by_steps=False)
            return
        elif kind == "restart":
            self.restart()
            return
        self.publish(model)

    # -- checks ---------------------------------------------------------------

    def check_reuse(self, previous, snapshot) -> None:
        """(d): unchanged statements and compiled forms are shared."""
        for name, old, new in zip(SOURCES, previous.policies, snapshot.policies):
            old_texts = [s.text for s in self.history[previous.digest][name]]
            new_texts = [s.text for s in self.history[snapshot.digest][name]]
            old_statements = dict(zip(old_texts, old.statements))
            old_compiled = dict(zip(old_texts, compiled_for(old).statements))
            mine: Dict[Tuple[str, bool, str], object] = {}
            for text, statement, compiled in zip(
                new_texts, new.statements, compiled_for(new).statements
            ):
                assert mine.setdefault(text, statement) is statement, "(d)"
                if text in old_statements:
                    assert statement is old_statements[text], "(d)"
                    assert compiled is old_compiled[text], "(d)"

    def check_kept(self, previous, snapshot) -> None:
        """(f): a byte-identical source keeps its ``Policy``; a changed
        one gets a new one."""
        before = dict(zip(previous.bundle.sources, previous.policies))
        named = {name: policy for (name, _), policy in before.items()}
        for source, policy in zip(snapshot.bundle.sources, snapshot.policies):
            if source in before:
                assert policy is before[source], ("(f) kept", source[0])
            else:
                assert policy is not named[source[0]], ("(f) new", source[0])

    def check_served(self, previous, snapshot) -> None:
        """(f): only a source whose text changed moves its evaluator's
        epoch, and the engine rebuilds exactly the indexes whose
        evaluator epoch moved, counting one rebuild for the call."""
        rebuilds = self.engine.rebuilds
        indexes = self.engine.ensure_fresh()
        old_texts = dict(previous.bundle.sources)
        moved = False
        for (name, text), index in zip(snapshot.bundle.sources, indexes):
            evaluator = self.live[name]
            policy, epoch, old_index = self.served[name]
            if text == old_texts[name]:
                assert evaluator.policy is policy, ("(f) policy", name)
                assert evaluator.policy_epoch == epoch, ("(f) epoch", name)
                assert index is old_index, ("(f) index kept", name)
            else:
                moved = True
                assert evaluator.policy_epoch == epoch + 1, ("(f) epoch", name)
                assert index is not old_index, ("(f) index rebuilt", name)
                assert index.policy is evaluator.policy, ("(f) index", name)
        assert self.engine.rebuilds == rebuilds + moved, "(f) rebuilds"

    def check_owners(self, snapshot) -> None:
        """(d): no statement or compiled form spans two source names."""
        for policy in snapshot.policies:
            for obj in policy.statements + compiled_for(policy).statements:
                assert self.owner.setdefault(id(obj), policy.name) == policy.name, "(d)"
                self.alive.append(obj)

    def check_answers(self, snapshot) -> None:
        """(a), (b) and (c) against a fresh parse of the snapshot's text."""
        assert [p.name for p in snapshot.policies] == list(SOURCES)
        fresh = {}
        for (name, text), policy in zip(snapshot.bundle.sources, snapshot.policies):
            fresh[name] = parse_policy(text, name=name)
            assert policy == fresh[name], "(a)"
            assert self.live[name].policy is policy
        reference = {
            name: PolicyEvaluator(policy, source=name, compiled=False)
            for name, policy in fresh.items()
        }
        sample = self.rng.sample(self.requests, REQUESTS_PER_CHECK)
        for request in sample:
            for name in SOURCES:
                assert observed(self.live[name].evaluate(request)) == observed(
                    reference[name].evaluate(request)
                ), ("(b)", name, request)
            self.requests_checked += 1
        engine = QueryEngine([reference[name] for name in SOURCES])
        for identity in IDENTITIES:
            assert self.engine.explain(identity) == engine.explain(identity), "(c)"
            for action in ACTIONS:
                assert self.engine.check_action(identity, action) == (
                    engine.check_action(identity, action)
                ), "(c)"
        for request in sample[:60]:
            assert self.engine.check_request(request) == (
                engine.check_request(request)
            ), "(c)"
        self.served = {
            name: (self.live[name].policy, self.live[name].policy_epoch, index)
            for name, index in zip(SOURCES, self.engine.ensure_fresh())
        }


@pytest.mark.parametrize("seed", [1601, 1602, 1603])
def test_incremental_publish_matches_a_fresh_parse(seed, tmp_path, monkeypatch):
    counter = CountingParse(parser_module.parse_specification)
    monkeypatch.setattr(parser_module, "parse_specification", counter)
    sequence = PublishSequence(seed, str(tmp_path / "policies.jsonl"), counter)
    rng = sequence.rng
    sequence.publish(
        {
            name: [random_statement(rng) for _ in range(rng.randint(10, 20))]
            for name in SOURCES
        }
    )
    schedule = list(STEPS) * 2
    schedule += rng.choices(STEPS, k=SEQUENCE_STEPS - len(schedule))
    rng.shuffle(schedule)
    for kind in schedule:
        sequence.step(kind)
    assert sequence.requests_checked >= MIN_REQUESTS
