"""Differential: the verifier that remembers against the frozen one.

``repro.gsi.verification`` remembers two facts once proven: that a
certificate's signature verifies under a key fingerprint, and that a
key pair holds a fingerprint's secret.  Every other check must still
run on every call.  A fresh credential cannot show a memo that skips a
check, so each seeded sequence here builds a small world and verifies
the same credential objects many times while it changes around them:

* issuing, and delegating at depths 0–5 (restricted and impersonation
  proxies, with and without path lengths, through ``delegate`` and
  signed directly);
* clock moves across ``not_before`` and ``not_after``;
* revocations;
* anchor-set changes: dropping a CA, adding one back, and swapping in
  or adding a re-keyed CA of the same name;
* stolen key pairs, spliced chains (a CA's own certificate among
  them) and ``dataclasses.replace``-tampered copies;
* possession proofs made by the verifier, and presented proofs that
  are good, bad, or made for another challenge.

At every verification both sides must agree on the result fields, or
on the exception type and message.  The reference
(:mod:`tests.gsi.reference_gsi`) has three faults the program fixes, so
there the expected outcome is pinned separately:

* *CA terminal*: where the reference's chain check passes but the
  chain ends at a CA certificate, the program raises
  ``VerificationError`` instead of naming the CA as the identity;
* *path length*: where the reference's chain check passes but a proxy
  has more proxies below it than its constraint allows, the program
  raises ``VerificationError``;
* *same-name anchors*: where several trusted CAs share the terminal
  certificate's issuer name, the program behaves as the reference does
  given only the first of them whose key verifies the certificate (or,
  when none does, the one the reference would pick).
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.gsi.credentials import CertificateAuthority, Credential
from repro.gsi.errors import GSIError
from repro.gsi.keys import KeyPair
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import (
    IMPERSONATION,
    PATH_LENGTH_EXTENSION,
    ProxyCertificate,
    ProxyPolicy,
    delegate,
)
from repro.gsi.verification import verify_credential
from tests.gsi.reference_gsi import (
    reference_verify_chain,
    reference_verify_credential,
    sign_proxy,
)

SEEDS = range(60)
STEPS = 250
#: Most credentials the world presents at once.
POOL_LIMIT = 24
MAX_PROXY_DEPTH = 5
CHALLENGE = b"gatekeeper-challenge"
USERS = [f"/O=Grid/OU=diff/CN=User {i}" for i in range(6)]
CA_NAMES = ["/O=Grid/CN=CA One", "/O=Grid/CN=CA Two", "/O=Other/CN=CA"]
RESTRICTED = ProxyPolicy(language="CAS-RSL", text="&(action=start)(count<2)")


# -- the comparison ------------------------------------------------------------


def outcome(verify, *args, **kwargs) -> Tuple:
    """The result fields, or the exception type and message.  The
    anchor is compared by identity: two trusted CAs may share a name."""
    try:
        result = verify(*args, **kwargs)
    except GSIError as exc:
        return (type(exc).__name__, str(exc))
    return (
        "ok",
        str(result.identity),
        str(result.subject),
        result.chain_length,
        result.proxy_depth,
        id(result.anchor),
    )


def unshadowed(chain, anchors: Sequence[CertificateAuthority]) -> List:
    """*anchors* with the terminal issuer's name held by one CA only:
    the first whose key verifies the terminal certificate, else the
    last (the one the reference's DN-keyed map keeps)."""
    terminal = chain[-1]
    issuer = str(terminal.issuer)
    named = [ca for ca in anchors if str(ca.dn) == issuer]
    if len(named) < 2:
        return list(anchors)
    verifying = [
        ca
        for ca in named
        if ca.key_pair.public.verify(terminal.payload(), terminal.signature)
    ]
    keep = verifying[0] if verifying else named[-1]
    return [ca for ca in anchors if str(ca.dn) != issuer or ca is keep]


def path_length_violation(chain) -> Optional[str]:
    """The program's message for the first proxy, leaf first, with more
    proxies below it than its constraint allows."""
    below = 0
    for certificate in chain:
        if isinstance(certificate, ProxyCertificate):
            limit = certificate.path_length
            if limit is not None and below > limit:
                return (
                    f"proxy {certificate} allows {limit} further proxies "
                    f"but {below} follow it"
                )
            below += 1
    return None


def expected(credential, anchors, at_time, **proof) -> Tuple[Tuple, str]:
    """The reference's outcome with the two fixes applied, and which
    pinned case (if any) decided it."""
    chain = credential.full_chain()
    reduced = unshadowed(chain, anchors)
    pin = "same-name anchors" if len(reduced) < len(anchors) else ""
    if outcome(reference_verify_chain, chain, reduced, at_time)[0] == "ok":
        if chain[-1].is_ca:
            return (
                "VerificationError",
                f"chain ends at CA certificate {chain[-1]}, not an identity",
            ), "CA terminal"
        violation = path_length_violation(chain)
        if violation is not None:
            return ("VerificationError", violation), "path length"
    result = outcome(
        reference_verify_credential, credential, reduced, at_time, **proof
    )
    if pin:
        plain = outcome(
            reference_verify_credential, credential, anchors, at_time, **proof
        )
        pin = pin if plain != result else ""
    return result, pin


# -- the world ----------------------------------------------------------------


class World:
    """CAs, trust anchors, a clock and the credentials presented."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.now = 0.0
        self.cas: List[CertificateAuthority] = [
            CertificateAuthority(name, now=0.0, lifetime=5000.0)
            for name in CA_NAMES[:2]
        ]
        self.anchors: List[CertificateAuthority] = list(self.cas)
        self.pool: List[Credential] = []
        self.stats: Counter = Counter()
        self.divergences: List[str] = []
        #: The last expected outcome kind of every credential verified,
        #: by identity; the objects stay referenced so ids stay unique.
        self.last: Dict[int, str] = {}
        self.verified: List[Credential] = []
        for _ in range(3):
            self.issue()

    # -- making credentials ---------------------------------------------------

    def add(self, credential: Credential) -> None:
        if len(self.pool) >= POOL_LIMIT:
            self.pool.pop(0)
        self.pool.append(credential)

    def pick(self) -> Credential:
        return self.rng.choice(self.pool)

    def issue(self) -> None:
        ca = self.rng.choice(self.cas)
        lifetime = self.rng.choice([40.0, 150.0, 400.0, 2000.0])
        start = self.now + self.rng.choice([0.0, 0.0, 0.0, 25.0])
        self.add(ca.issue(self.rng.choice(USERS), now=start, lifetime=lifetime))

    def delegate(self) -> None:
        parent = self.pick()
        if len(parent.chain) >= MAX_PROXY_DEPTH:
            return
        policy = RESTRICTED if self.rng.random() < 0.3 else IMPERSONATION
        try:
            self.add(
                delegate(
                    parent,
                    now=self.now,
                    lifetime=self.rng.choice([30.0, 120.0, 600.0]),
                    policy=policy,
                    path_length=self.rng.choice([None, None, 0, 1, 2]),
                )
            )
        except GSIError:
            self.stats["delegation refused"] += 1

    def sign_proxy(self) -> None:
        limited = [
            credential
            for credential in self.pool
            if isinstance(credential.certificate, ProxyCertificate)
            and credential.certificate.path_length is not None
        ]
        if limited and self.rng.random() < 0.5:
            parent = self.rng.choice(limited)
        else:
            parent = self.pick()
        if len(parent.chain) >= MAX_PROXY_DEPTH:
            return
        limit = self.rng.choice([None, None, 0, 1, 3])
        extensions = {} if limit is None else {PATH_LENGTH_EXTENSION: str(limit)}
        self.add(
            sign_proxy(
                parent,
                now=self.now,
                lifetime=self.rng.choice([30.0, 300.0]),
                extensions=extensions,
            )
        )

    def steal(self) -> None:
        victim, thief = self.pick(), self.pick()
        keys = thief.key_pair if self.rng.random() < 0.6 else KeyPair("thief")
        self.add(
            Credential(
                certificate=victim.certificate, key_pair=keys, chain=victim.chain
            )
        )

    def splice(self) -> None:
        leaf, donor = self.pick(), self.pick()
        chain = self.rng.choice(
            [
                donor.full_chain(),
                donor.chain,
                leaf.chain[1:],
                leaf.chain[:-1],
                (self.rng.choice(self.cas).certificate,),
            ]
        )
        self.add(
            Credential(
                certificate=leaf.certificate, key_pair=leaf.key_pair, chain=chain
            )
        )

    def tamper(self) -> None:
        source = self.pick()
        chain = list(source.full_chain())
        position = self.rng.randrange(len(chain))
        original = chain[position]
        change = self.rng.choice(
            [
                {"not_after": original.not_after + 1000.0},
                {"not_before": original.not_before - 10.0},
                {"serial": original.serial + 1},
                {"subject": DistinguishedName.parse(self.rng.choice(USERS))},
                {"extensions": original.extensions + (("role", "admin"),)},
                {"extensions": ((PATH_LENGTH_EXTENSION, "5"),)},
                {"public_key": KeyPair("tamper").public},
                {"signature": self.pick().certificate.signature},
            ]
        )
        chain[position] = dataclasses.replace(original, **change)
        self.add(
            Credential(
                certificate=chain[0], key_pair=source.key_pair, chain=tuple(chain[1:])
            )
        )

    # -- changing the world around them ---------------------------------------

    def move_clock(self) -> None:
        """Forward to just before, at or just after one of the next
        edges of a presented certificate's validity window."""
        edges = sorted(
            edge
            for credential in self.pool
            for certificate in credential.full_chain()
            for edge in (certificate.not_before, certificate.not_after)
            if edge >= self.now
        )
        if not edges:
            self.now += 10.0
            return
        edge = self.rng.choice(edges[:3]) + self.rng.choice([-0.5, 0.0, 0.5])
        self.now = max(self.now, edge)

    def revoke(self) -> None:
        identity = self.pick().full_chain()[-1]
        for ca in self.cas:
            try:
                ca.revoke(identity, reason="differential")
            except GSIError:
                continue
            self.stats["revocation"] += 1
            return

    def change_anchors(self) -> None:
        action = self.rng.choice(["drop", "add", "rekey", "rekey-beside", "shuffle"])
        self.stats[f"anchors {action}"] += 1
        if action == "drop" and self.anchors:
            self.anchors.pop(self.rng.randrange(len(self.anchors)))
        elif action == "add":
            self.anchors.append(self.rng.choice(self.cas))
        elif action.startswith("rekey"):
            old = self.rng.choice(self.cas)
            rekeyed = CertificateAuthority(str(old.dn), now=self.now, lifetime=5000.0)
            self.cas.append(rekeyed)
            if action == "rekey":
                self.anchors = [rekeyed if ca is old else ca for ca in self.anchors]
            if rekeyed not in self.anchors:
                self.anchors.insert(self.rng.randrange(len(self.anchors) + 1), rekeyed)
        elif action == "shuffle":
            self.rng.shuffle(self.anchors)

    # -- the verification ------------------------------------------------------

    def proof_arguments(self, credential: Credential) -> dict:
        kind = self.rng.choice(["self", "self", "self", "good", "bad", "wrong"])
        self.stats[f"proof {kind}"] += 1
        if kind == "self":
            return {}
        if kind == "good":
            return {"possession_proof": credential.prove_possession(CHALLENGE)}
        if kind == "bad":
            return {"possession_proof": self.pick().prove_possession(CHALLENGE)}
        return {"possession_proof": credential.prove_possession(b"another")}

    def verify(self, credential: Credential) -> None:
        proof = self.proof_arguments(credential)
        anchors = list(self.anchors)
        want, pin = expected(credential, anchors, self.now, **proof)
        got = outcome(verify_credential, credential, anchors, self.now, **proof)
        self.stats[want[0]] += 1
        before = self.last.get(id(credential))
        if before is None:
            self.verified.append(credential)
        else:
            self.stats["again"] += 1
            if before == "ok" and want[0] != "ok":
                self.stats[f"ok then {want[0]}"] += 1
        self.last[id(credential)] = want[0]
        if pin:
            self.stats[f"pinned {pin}"] += 1
        if got != want:
            self.divergences.append(
                f"{credential} at {self.now} anchors "
                f"{[str(ca.dn) for ca in anchors]}: expected {want}, got {got}"
            )

    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.50:
            self.verify(self.pick())
        elif roll < 0.53:
            for credential in list(self.pool):
                self.verify(credential)
        elif roll < 0.60:
            self.issue()
        elif roll < 0.68:
            self.delegate()
        elif roll < 0.72:
            self.sign_proxy()
        elif roll < 0.80:
            self.move_clock()
        elif roll < 0.83:
            self.revoke()
        elif roll < 0.88:
            self.change_anchors()
        elif roll < 0.92:
            self.steal()
        elif roll < 0.96:
            self.splice()
        else:
            self.tamper()


def run_sequence(seed: int) -> World:
    world = World(seed)
    for _ in range(STEPS):
        world.step()
    return world


@pytest.fixture(scope="module")
def worlds() -> List[World]:
    return [run_sequence(seed) for seed in SEEDS]


def test_no_divergence(worlds):
    divergences = [line for world in worlds for line in world.divergences]
    assert not divergences, "\n".join(divergences[:10])


def test_sequences_reach_every_outcome(worlds):
    """The sequences exercise every kind of failure, both pinned cases
    and every proof kind, and verify each credential many times."""
    stats = sum((world.stats for world in worlds), Counter())
    for kind in (
        "ok",
        "CertificateExpiredError",
        "SignatureError",
        "UntrustedIssuerError",
        "VerificationError",
        "pinned CA terminal",
        "pinned path length",
        "pinned same-name anchors",
        "revocation",
        "anchors drop",
        "anchors rekey",
        "anchors rekey-beside",
        "proof self",
        "proof good",
        "proof bad",
        "proof wrong",
    ):
        assert stats[kind] >= 5, (kind, stats)
    # A memo that skips a check shows only on a credential verified
    # before: most verifications repeat one, and credentials that
    # verified go on to fail on every count.
    kinds = ("CertificateExpiredError", "SignatureError", "UntrustedIssuerError", "VerificationError")
    verifications = stats["ok"] + sum(stats[kind] for kind in kinds)
    assert stats["again"] >= 0.7 * verifications
    for kind in kinds:
        assert stats[f"ok then {kind}"] >= 5, (kind, stats)


def test_pinned_path_length_case():
    """The reference accepts a child a path_length=0 proxy's holder
    signs; the program rejects it."""
    ca = CertificateAuthority(CA_NAMES[0], now=0.0)
    limited = delegate(ca.issue(USERS[0], now=0.0), now=0.0, path_length=0)
    child = sign_proxy(limited)
    assert outcome(reference_verify_credential, child, [ca], 1.0)[0] == "ok"
    want, pin = expected(child, [ca], 1.0)
    assert pin == "path length"
    assert outcome(verify_credential, child, [ca], 1.0) == want


@pytest.mark.parametrize("order", ["old-first", "new-first"])
def test_pinned_same_name_anchor_case(order):
    """The reference lets the later of two same-name CAs shadow the
    earlier; the program verifies each CA's credentials."""
    old = CertificateAuthority(CA_NAMES[0], now=0.0)
    new = CertificateAuthority(CA_NAMES[0], now=0.0)
    anchors = [old, new] if order == "old-first" else [new, old]
    shadowed = (old if order == "old-first" else new).issue(USERS[0], now=0.0)
    assert outcome(reference_verify_credential, shadowed, anchors, 1.0)[0] == (
        "SignatureError"
    )
    want, pin = expected(shadowed, anchors, 1.0)
    assert pin == "same-name anchors"
    assert want[0] == "ok"
    assert outcome(verify_credential, shadowed, anchors, 1.0) == want


def test_pinned_ca_terminal_case():
    """The reference names the CA as the identity of a chain that ends
    at the CA's own certificate; the program rejects the chain."""
    ca = CertificateAuthority(CA_NAMES[0], now=0.0)
    alice = ca.issue(USERS[0], now=0.0)
    spliced = Credential(
        certificate=alice.certificate,
        key_pair=alice.key_pair,
        chain=(ca.certificate,),
    )
    assert outcome(reference_verify_credential, spliced, [ca], 1.0)[:2] == (
        "ok",
        CA_NAMES[0],
    )
    want, pin = expected(spliced, [ca], 1.0)
    assert pin == "CA terminal"
    assert outcome(verify_credential, spliced, [ca], 1.0) == want
