"""The four traffic mixes and the seeded op streams that drive them.

A workload fixes who is enrolled, what each of them submits, the op
mix, the cluster size and how the policy changes.  Everything random
comes from the ``--seed`` through :func:`generate`, before timing
starts: the stream is a list of ``(kind, actor, draw)`` tuples, and
the driver resolves each uniform *draw* against its own live or
reaped job list at run time, so the service only ever receives
generated inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.store import PolicyBundle
from repro.rsl.ast import Relop
from repro.workloads.generator import (
    DEFAULT_ORG_PREFIX,
    PolicyShape,
    generate_identity,
    generate_policy,
)
from repro.workloads.scenarios import NFC_LOCAL_POLICY, NFC_PREFIX, NFC_VO_POLICY

SUBMIT = "submit"
STATUS = "status"
CANCEL = "cancel"
REAPED_INFO = "reaped_info"
PUBLISH = "publish"
#: The user operations, each reported with its own latency percentiles.
USER_KINDS = (SUBMIT, STATUS, CANCEL, REAPED_INFO)

#: ``(kind, actor, draw)``.  For a submit, *actor* indexes
#: :attr:`Population.submitters`; for a management op it is ``-1``
#: (the job's owner asks) or an index into :attr:`Population.admins`;
#: for a publish it indexes :attr:`Population.publishes`.
Op = Tuple[str, int, float]

#: Simulated time advances by :data:`TICK_SECONDS` after every
#: :data:`OPS_PER_TICK` user ops (inside the measured wall clock).
OPS_PER_TICK = 50
TICK_SECONDS = 1.0
#: The op mix is laid out in shuffled blocks of this many user ops, so
#: every stream has the exact mix and the live-job count cannot drift
#: far from what the mix implies.
BLOCK = 200
#: The timed phase is measured in chunks of this many user ops: whole
#: blocks, so each chunk holds the exact mix, and one policy publish
#: falls inside every chunk of ``vo_churn``.
CHUNK_OPS = 1000
#: Untimed warm-up, as a share of the timed op count (rounded up to
#: whole blocks).
WARMUP_SHARE = 0.05


@dataclass(frozen=True)
class Actor:
    """One enrolled identity and the job descriptions it submits.

    Templates carry a ``{runtime}`` field.  A submit draw below
    *deny_share* picks a template from *denied* (requests the policy
    refuses), otherwise one from *permitted*.
    """

    identity: str
    account: str
    permitted: Tuple[str, ...] = ()
    denied: Tuple[str, ...] = ()
    deny_share: float = 0.0

    def rsl(self, draw: float, runtime: Tuple[float, float]) -> str:
        """Resolve a uniform *draw* to one job description.

        The integer part of the scaled draw picks the template and
        the fraction picks the simulated runtime, which makes nearly
        every description distinct: a submit is a fresh decision.
        """
        if draw < self.deny_share:
            menu, unit = self.denied, draw / self.deny_share
        else:
            menu = self.permitted
            unit = (draw - self.deny_share) / (1.0 - self.deny_share)
        scaled = unit * len(menu)
        pick = min(int(scaled), len(menu) - 1)
        low, high = runtime
        seconds = low + (high - low) * (scaled - pick)
        return menu[pick].format(runtime=f"{seconds:.2f}")


@dataclass(frozen=True)
class Population:
    """Who is enrolled and which policy bundles they are served."""

    actors: Tuple[Actor, ...]
    #: ``(actor index, weight)`` of everyone who submits jobs.
    submitters: Tuple[Tuple[int, float], ...]
    #: Actor indices of VO administrators (manage others' jobs).
    admins: Tuple[int, ...]
    #: The bundle published at set-up.
    bundle: PolicyBundle
    #: Bundles the VO admin publishes during the run, in order.
    publishes: Tuple[PolicyBundle, ...] = ()

    @property
    def members(self) -> List[Tuple[str, str]]:
        return [(actor.identity, actor.account) for actor in self.actors]


@dataclass(frozen=True)
class Workload:
    name: str
    node_count: int
    cpus_per_node: int
    #: Nominal timed-phase rate: the timed op count is
    #: ``ops_per_second * --seconds`` rounded up to whole chunks, fixed
    #: before the run so two commits always measure the same work.  It
    #: is about the rate of a 2-vCPU Xeon shared with other tenants; at
    #: the default 9 s every kind gets at least 1000 timed samples.
    ops_per_second: int
    #: User ops of each kind per :data:`BLOCK`.
    block: Tuple[Tuple[str, int], ...]
    #: Per management kind, the share asked by an administrator
    #: (the rest are asked by the job's owner).
    admin_share: Tuple[Tuple[str, float], ...]
    #: Range of the simulated ``runtime`` of submitted jobs.
    runtime: Tuple[float, float]
    #: Permitted submits issued before the warm-up, so status and
    #: cancel traffic has jobs to address from the start.
    prefill: int
    #: The VO admin publishes a policy change every this many user
    #: ops (0 = never).
    publish_every: int
    #: Builds the population from the seeded generator and the number
    #: of policy publishes the run needs.
    populate: Callable[[random.Random, int], Population]

    def timed_ops(self, seconds: int) -> int:
        return math.ceil(self.ops_per_second * seconds / CHUNK_OPS) * CHUNK_OPS


@dataclass(frozen=True)
class OpStream:
    ops: Tuple[Op, ...]
    #: Index of the first op of the timed phase.
    timed_start: int
    digest: str


# -- the NFC deployment (paper §2) --------------------------------------------

_DEV_OK = tuple(
    f"&(executable={exe})(directory=/sandbox/dev)(jobtag=NFC)(count=1)"
    "(maxwalltime=600)(runtime={runtime})"
    for exe in ("test1", "test2", "probe")
)
_DEV_DENIED = (
    # Developers are held to count<2 and their own sandbox.
    "&(executable=test1)(directory=/sandbox/dev)(jobtag=NFC)(count=2)"
    "(maxwalltime=600)(runtime={runtime})",
    "&(executable=test2)(directory=/opt/nfc/bin)(jobtag=NFC)(count=1)"
    "(maxwalltime=600)(runtime={runtime})",
)
_ANALYST_DENIED = (
    # Analysts may run only TRANSP, with at most 16 CPUs.
    "&(executable=gyro)(directory=/opt/nfc/bin)(jobtag=NFC)(count=4)"
    "(runtime={runtime})",
    "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)(count=24)"
    "(runtime={runtime})",
)
_ADMIN_DENIED = (
    "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=URGENT)(count=48)"
    "(runtime={runtime})",
)


def _transp(jobtag: str, counts: Tuple[int, ...]) -> Tuple[str, ...]:
    return tuple(
        f"&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag={jobtag})"
        f"(count={count})" + "(runtime={runtime})"
        for count in counts
    )


def _nfc_member(group: str, index: int, **rsl) -> Actor:
    return Actor(
        identity=f"{NFC_PREFIX}/OU={group}/CN={group.title()} {index:02d}",
        account=f"nfc{group}{index:02d}",
        **rsl,
    )


def _nfc_bundle() -> PolicyBundle:
    return PolicyBundle.from_texts(
        {"nfc-vo": NFC_VO_POLICY, "site-local": NFC_LOCAL_POLICY}
    )


def _nfc_population(
    groups: Dict[str, Tuple[int, float, Dict]], outsiders: int = 0,
    outsider_weight: float = 0.0,
) -> Population:
    """*groups* maps a VO group to (members, submit weight, Actor kwargs)."""
    actors: List[Actor] = []
    submitters: List[Tuple[int, float]] = []
    admins: List[int] = []
    for group, (count, weight, rsl) in groups.items():
        for index in range(count):
            if group == "admin":
                admins.append(len(actors))
            if weight:
                submitters.append((len(actors), weight / count))
            actors.append(_nfc_member(group, index, **rsl))
    for index in range(outsiders):
        # Mapped by the site's grid-mapfile but not VO members: every
        # submit is denied, and the reverse index can prove it.
        submitters.append((len(actors), outsider_weight / outsiders))
        actors.append(
            Actor(
                identity=f"/O=Grid/O=Elsewhere/OU=guest.example.org/CN=Guest {index:02d}",
                account=f"guest{index:02d}",
                denied=_transp("NFC", (2, 4)),
                deny_share=1.0,
            )
        )
    return Population(
        actors=tuple(actors),
        submitters=tuple(submitters),
        admins=tuple(admins),
        bundle=_nfc_bundle(),
    )


def _nfc_mixed(rng: random.Random, publishes: int) -> Population:
    return _nfc_population(
        {
            "dev": (6, 0.35, dict(permitted=_DEV_OK, denied=_DEV_DENIED, deny_share=0.25)),
            "analysis": (
                8,
                0.45,
                dict(permitted=_transp("NFC", (1, 2, 4, 8)), denied=_ANALYST_DENIED, deny_share=0.22),
            ),
            "admin": (2, 0.10, dict(permitted=_transp("URGENT", (4, 8)), denied=_ADMIN_DENIED, deny_share=0.10)),
        },
        outsiders=2,
        outsider_weight=0.10,
    )


def _monitor_poll(rng: random.Random, publishes: int) -> Population:
    return _nfc_population(
        {
            "analysis": (12, 1.0, dict(permitted=_transp("NFC", (1, 2, 4)))),
            "admin": (3, 0.0, {}),
        }
    )


def _deep_backlog(rng: random.Random, publishes: int) -> Population:
    # Permitted submits (40% of ops x 5/8) match the admin cancels (25%),
    # so the backlog holds at the prefill's depth for the whole run.
    return _nfc_population(
        {
            "analysis": (
                12,
                1.0,
                dict(permitted=_transp("NFC", (4, 8, 12, 16)), denied=_ANALYST_DENIED[:1], deny_share=0.375),
            ),
            "admin": (2, 0.0, {}),
        }
    )


# -- the generated VO (policy churn) ------------------------------------------

VO_MEMBERS = 1000
#: Share of the members whose grant each publish withdraws.
VO_TOGGLE_SHARE = 0.01
_VO_SOURCE = "vo-synth"
_VO_MANAGEMENT = (
    f"{DEFAULT_ORG_PREFIX}:\n"
    "    &(action = cancel)(jobowner = self)\n"
    "    &(action = information)(jobowner = self)\n"
)
_VO_LOCAL = NFC_LOCAL_POLICY.replace(NFC_PREFIX, DEFAULT_ORG_PREFIX)


def _member_rsl(statement, count: str) -> str:
    """A job description satisfying *statement*'s first grant.

    *count* replaces the CPU count when given (a denied variant).
    """
    values: Dict[str, str] = {}
    for relation in statement.assertions[0].spec:
        if relation.attribute == "action":
            continue
        bound = str(relation.values[0])
        if relation.op is Relop.LT:
            bound = str(max(1, int(float(bound)) - 1))
        values[relation.attribute] = bound
    values.setdefault("executable", "transp")
    values.setdefault("jobtag", "NFC")
    values.setdefault("count", "1")
    if count:
        values["count"] = count
    body = "".join(f"({name}={value})" for name, value in values.items())
    return "&" + body + "(runtime={runtime})"


def _vo_text(lines: Tuple[str, ...], header: str, withdrawn=frozenset()) -> str:
    kept = [line for index, line in enumerate(lines) if index not in withdrawn]
    return "\n".join([header, *kept, _VO_MANAGEMENT])


def _vo_churn(rng: random.Random, publishes: int) -> Population:
    # The VO's policy is part of the deployment, not of the traffic:
    # every seed is served the same generated policy.
    policy = generate_policy(PolicyShape(users=VO_MEMBERS), name=_VO_SOURCE)
    header, *grants = policy.statements
    lines = tuple(str(statement) for statement in grants)
    actors = tuple(
        Actor(
            identity=generate_identity(index),
            account=f"synth{index:05d}",
            permitted=(_member_rsl(statement, ""),),
            # The site's local policy caps every job at 32 CPUs.
            denied=(_member_rsl(statement, "64"),),
            deny_share=0.2,
        )
        for index, statement in enumerate(grants)
    )
    toggled = max(1, int(VO_MEMBERS * VO_TOGGLE_SHARE))
    changes = tuple(
        PolicyBundle.from_texts(
            {
                _VO_SOURCE: _vo_text(
                    lines, str(header), frozenset(rng.sample(range(VO_MEMBERS), toggled))
                ),
                "site-local": _VO_LOCAL,
            }
        )
        for _ in range(publishes)
    )
    return Population(
        actors=actors,
        submitters=tuple((index, 1.0) for index in range(len(actors))),
        admins=(),
        bundle=PolicyBundle.from_texts(
            {_VO_SOURCE: _vo_text(lines, str(header)), "site-local": _VO_LOCAL}
        ),
        publishes=changes,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's traffic: nearly every decision is fresh, so it loads
        # the PEP, callout, combination, engine, RSL and GSI layers
        Workload(
            name="nfc_mixed",
            node_count=128,
            cpus_per_node=4,
            ops_per_second=1750,
            block=((SUBMIT, 70), (STATUS, 60), (CANCEL, 30), (REAPED_INFO, 40)),
            admin_share=((STATUS, 0.3), (CANCEL, 0.5), (REAPED_INFO, 0.3)),
            runtime=(5.0, 35.0),
            prefill=100,
            publish_every=0,
            populate=_nfc_mixed,
        ),
        # The job-monitoring poll loop: repeated decisions, so the
        # capability and cache repeat path dominates
        Workload(
            name="monitor_poll",
            node_count=128,
            cpus_per_node=8,
            ops_per_second=3300,
            block=((STATUS, 170), (REAPED_INFO, 16), (SUBMIT, 7), (CANCEL, 7)),
            admin_share=((STATUS, 0.4), (CANCEL, 0.3), (REAPED_INFO, 0.3)),
            runtime=(1e6, 2e6),
            prefill=200,
            publish_every=0,
            populate=_monitor_poll,
        ),
        # Policy writes beside reads: every publish re-parses, recompiles
        # and invalidates every repeat path
        Workload(
            name="vo_churn",
            node_count=128,
            cpus_per_node=8,
            ops_per_second=750,
            block=((SUBMIT, 70), (STATUS, 70), (CANCEL, 30), (REAPED_INFO, 30)),
            admin_share=(),
            runtime=(5.0, 35.0),
            prefill=150,
            publish_every=1000,
            populate=_vo_churn,
        ),
        # A small cluster flooded with wide jobs: the LRM schedule pass
        # dominates and authorization is a small share
        Workload(
            name="deep_backlog",
            node_count=16,
            cpus_per_node=4,
            ops_per_second=750,
            block=((SUBMIT, 80), (CANCEL, 50), (STATUS, 40), (REAPED_INFO, 30)),
            admin_share=((STATUS, 0.3), (CANCEL, 1.0), (REAPED_INFO, 0.3)),
            # Jobs outlive the run: the cluster stays full, and only
            # the seed-independent balance of submits and cancels moves
            # the queue.  With jobs ending mid-run, which jobs packed
            # the nodes decided the depth, and it ended 210-440 deep
            # depending on the seed.
            runtime=(1e6, 2e6),
            prefill=300,
            publish_every=0,
            populate=_deep_backlog,
        ),
    )
}


def _stratified(rng: random.Random, count: int) -> List[float]:
    """*count* uniform draws, one in each of *count* equal strata, shuffled.

    Each block then holds the exact spread of draws, not only the
    exact mix of kinds: the same share of denied submits, of admin
    requests and of large jobs in every block of every seed, so seeds
    differ only in order.  With independent draws, ``deep_backlog``'s
    submit denial share ranged from 8.9% to 10.2% over ten seeds.
    """
    draws = [(index + rng.random()) / count for index in range(count)]
    rng.shuffle(draws)
    return draws


def generate(
    workload: Workload, seed: int, timed_ops: int
) -> Tuple[Population, OpStream]:
    """The population and op stream of one run; same seed, same inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    # Whole blocks of warm-up, so every timed chunk is whole blocks too.
    warmup = BLOCK * max(1, math.ceil(timed_ops * WARMUP_SHARE / BLOCK))
    user_ops = warmup + timed_ops
    publishes = (user_ops - 1) // workload.publish_every if workload.publish_every else 0
    population = workload.populate(rng, publishes)
    actors, weights = zip(*population.submitters)
    cumulative = list(itertools.accumulate(weights))
    admins = len(population.admins)
    admin_share = dict(workload.admin_share)

    ops: List[Op] = []
    members = [
        slot for slot, actor in enumerate(actors)
        if population.actors[actor].permitted
    ]
    for pick, draw in zip(*(_stratified(rng, workload.prefill) for _ in range(2))):
        slot = members[int(pick * len(members))]
        share = population.actors[actors[slot]].deny_share
        ops.append((SUBMIT, slot, share + (1.0 - share) * draw))

    timed_start = 0
    published = 0
    done = 0
    while done < user_ops:
        kinds = [kind for kind, count in workload.block for _ in range(count)]
        rng.shuffle(kinds)
        # Per kind, one stratified draw for who asks and one for what.
        draws = {
            kind: (iter(_stratified(rng, count)), iter(_stratified(rng, count)))
            for kind, count in workload.block
        }
        for kind in kinds[: user_ops - done]:
            if done == warmup:
                timed_start = len(ops)
            if workload.publish_every and done and done % workload.publish_every == 0:
                ops.append((PUBLISH, published, 0.0))
                published += 1
            picks, values = draws[kind]
            pick, draw = next(picks), next(values)
            if kind == SUBMIT:
                slot = bisect.bisect_right(cumulative, pick * cumulative[-1])
                ops.append((SUBMIT, min(slot, len(actors) - 1), draw))
            else:
                share = admin_share.get(kind, 0.0)
                asker = min(int(pick / share * admins), admins - 1) if pick < share else -1
                ops.append((kind, asker, draw))
            done += 1

    digest = hashlib.sha256()
    digest.update(repr(ops).encode())
    for bundle in (population.bundle, *population.publishes):
        digest.update(bundle.digest.encode())
    return population, OpStream(
        ops=tuple(ops),
        timed_start=timed_start,
        digest=digest.hexdigest(),
    )
