"""Replay configuration matrix: default deny under every switch combination.

Three layers answer with an earlier decision instead of a fresh one:
the decision cache, capability grants and the fail-static
last-known-good store.  Each row of the matrix turns on a combination
of them — ``decision_cache`` × ``capability_grants`` × {unhardened,
fail-closed, fail-static}, 12 rows — and drives
one seeded :class:`GramClient` stream (permitted and denied submits,
owner status, admin cancel by ``jobtag``, post-reap ``information``)
through it and through a plain, healthy reference service, in
lockstep.  Mid-stream the policy moves:

1. a policy-store publish withdraws Bob's start grant;
2. the operator registers a chain member, with no epoch of its own,
   that denies Alice;
3. the chain goes down.

While the chain is healthy every answer must equal the reference's.
During the outage a row may answer the reference's answer or
AUTHORIZATION_SYSTEM_FAILURE — never a permit the reference denies.
"""

import itertools
import random

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.decision import Decision
from repro.core.parser import parse_policy
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.testing import ExceptionFault, inject

ORG = "/O=Grid/OU=replay.example.org"
USERS = {
    "alice": f"{ORG}/CN=Alice",
    "bob": f"{ORG}/CN=Bob",
    "mallory": f"{ORG}/CN=Mallory",
    "admin": f"{ORG}/CN=Admin",
}
SUBMITTERS = ("alice", "bob", "alice", "bob", "mallory")

BOB_START = "    &(action=start)(executable=sim)(count<4)(jobtag!=NULL)\n"
VO_TEMPLATE = f"""
{USERS['alice']}:
    &(action=start)(executable=sim)(count<4)(jobtag!=NULL)
    &(action=information)(jobowner=self)
{USERS['bob']}:
{{bob_start}}    &(action=information)(jobowner=self)
{USERS['admin']}:
    &(action=cancel)(jobtag=NFC)
    &(action=information)(jobtag=NFC)
"""
VO_TEXT = VO_TEMPLATE.format(bob_start=BOB_START)
VO_WITHDRAWN = VO_TEMPLATE.format(bob_start="")
LOCAL_TEXT = f"""
{ORG}:
    &(action=start)(count<4)
    &(action=information)
    &(action=cancel)
"""
JOBS = (
    "&(executable=sim)(count=1)(jobtag=NFC)(runtime=10)",
    "&(executable=sim)(count=2)(jobtag=ADS)(runtime=10)",
    "&(executable=sim)(count=3)(jobtag=NFC)(runtime=30)",
    "&(executable=sim)(count=1)(runtime=10)",  # no jobtag: VO denies
    "&(executable=rogue)(count=1)(jobtag=NFC)(runtime=10)",  # VO denies
    "&(executable=sim)(count=5)(jobtag=ADS)(runtime=10)",  # both deny
)
#: Indexes into JOBS, weighted towards the grantable descriptions.
JOB_PICKS = (0, 0, 1, 1, 2, 2, 3, 4, 5)

HARDENING = (None, DegradationMode.FAIL_CLOSED, DegradationMode.FAIL_STATIC)
ROWS = [
    pytest.param(
        cache,
        capability,
        mode,
        id=f"cache={int(cache)}-cap={int(capability)}"
        f"-{mode.value if mode else 'unhardened'}",
    )
    for cache, capability, mode in itertools.product(
        (False, True), (False, True), HARDENING
    )
]


def deny_alice(request):
    """The chain member the operator registers mid-stream."""
    if str(request.requester) == USERS["alice"]:
        return Decision.deny(reasons=("operator",), source="operator")
    return Decision.permit(source="operator")


class _Deployment:
    """One service under test (or the reference) and its clients."""

    def __init__(self, hardening=None, faulty=False, **switches):
        self.store = VersionedPolicyStore()
        config = ServiceConfig(
            policies=(
                parse_policy(VO_TEXT, name="vo"),
                parse_policy(LOCAL_TEXT, name="local"),
            ),
            policy_store=self.store,
            # Room for every job at once, so job states never depend
            # on queueing.
            node_count=16,
            **switches,
        )
        self.service = GramService(config)
        self.fault = ExceptionFault()
        self.fault.enabled = False
        if faulty:
            inject(self.service.registry, GRAM_AUTHZ_CALLOUT, self.fault)
        if hardening is not None:
            self.service.harden(ResilienceConfig(mode=hardening))
        self.clients = {
            name: GramClient(self.service.add_user(dn, name), self.service.gatekeeper)
            for name, dn in USERS.items()
        }
        #: Job index -> contact (None when the submit was refused).
        self.contacts = []

    def apply(self, op):
        kind, who, target = op
        if kind == "run":
            self.service.run(target)
            return None
        client = self.clients[who]
        if kind == "submit":
            response = client.submit(JOBS[target])
            self.contacts.append(response.contact if response.ok else None)
        else:
            contact = self.contacts[target]
            if contact is None:
                return None
            response = client.manage(contact, kind)
        return response.code, response.state


def stream(rng, length, owners, tracked=None):
    """*length* seeded operations; *owners* grows with each submit.

    Management targets jobs below index *tracked* only, so a job one
    side created and the other refused is never managed.
    """
    ops = []
    for _ in range(length):
        roll = rng.random()
        jobs = min(len(owners), tracked) if tracked is not None else len(owners)
        if roll < 0.25 or not jobs:
            who = rng.choice(SUBMITTERS)
            ops.append(("submit", who, rng.choice(JOB_PICKS)))
            owners.append(who)
        elif roll < 0.6:
            job = rng.randrange(jobs)
            ops.append(("information", owners[job], job))
        elif roll < 0.7:
            ops.append(("information", rng.choice(SUBMITTERS), rng.randrange(jobs)))
        elif roll < 0.82:
            ops.append(("cancel", "admin", rng.randrange(jobs)))
        elif roll < 0.9:
            ops.append(("information", "admin", rng.randrange(jobs)))
        else:
            ops.append(("run", "", rng.choice((1.0, 5.0, 15.0))))
    return ops


@pytest.mark.parametrize("decision_cache, capability_grants, hardening", ROWS)
def test_replay_matrix_row(decision_cache, capability_grants, hardening):
    row = _Deployment(
        hardening=hardening,
        faulty=True,
        decision_cache=decision_cache,
        capability_grants=capability_grants,
    )
    reference = _Deployment()
    rng = random.Random(1403)
    owners = []

    def healthy(length):
        for op in stream(rng, length, owners):
            expected = reference.apply(op)
            assert row.apply(op) == expected, op

    healthy(80)
    withdrawal = PolicyBundle.from_texts({"vo": VO_WITHDRAWN, "local": LOCAL_TEXT})
    row.store.publish(withdrawal)
    reference.store.publish(withdrawal)
    healthy(60)
    for deployment in (row, reference):
        deployment.service.registry.register(
            GRAM_AUTHZ_CALLOUT, deny_alice, label="operator"
        )
    healthy(15)

    row.fault.enabled = True
    # Jobs whose cancel failed here but not on the reference: their
    # state legitimately trails the reference's from then on.
    diverged = set()
    failures = 0
    for op in stream(rng, 80, owners, tracked=len(owners)):
        expected = reference.apply(op)
        answer = row.apply(op)
        if answer is None:
            assert expected is None, op
            continue
        if answer[0] is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE:
            failures += 1
            if op[0] == "cancel":
                diverged.add(op[2])
            continue
        assert not (
            answer[0] is GramErrorCode.SUCCESS
            and expected[0] is GramErrorCode.AUTHORIZATION_DENIED
        ), op
        if op[0] == "submit" or op[2] not in diverged:
            assert answer == expected, op
    assert failures
