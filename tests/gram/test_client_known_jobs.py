"""The client remembers a bounded number of jobs.

A ``GramClient`` learns each job's owner from the responses it gets.
It keeps the last :data:`~repro.gram.client.KNOWN_JOBS_LIMIT` jobs it
learned about, forgets the least recently learned one past that, and
learns a forgotten job again from the next response that names it.
"""

import itertools

from repro.gram.client import KNOWN_JOBS_LIMIT, GramClient
from repro.gram.protocol import GramErrorCode, GramJobState, GramResponse, JobContact
from repro.gsi.credentials import CertificateAuthority

ORG = "/O=Grid/OU=poll.example.org"
ALICE = f"{ORG}/CN=Alice"
BOB = f"{ORG}/CN=Bob"


class _Gatekeeper:
    """Answers every submit with a new job owned by Bob, and every
    management request with that job's state."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)

    def submit(self, credential, rsl_text):
        return GramResponse(
            code=GramErrorCode.SUCCESS,
            contact=JobContact(host="gk", job_id=str(next(self._ids))),
            state=GramJobState.PENDING,
            job_owner=BOB,
        )

    def manage(self, credential, contact, action, value=None):
        return GramResponse(
            code=GramErrorCode.SUCCESS,
            contact=contact,
            state=GramJobState.ACTIVE,
            job_owner=BOB,
        )


def _client() -> GramClient:
    credential = CertificateAuthority(f"{ORG}/CN=CA").issue(ALICE)
    return GramClient(credential, _Gatekeeper())


def test_keeps_the_newest_1024_jobs():
    assert KNOWN_JOBS_LIMIT == 1024
    client = _client()
    extra = 37
    contacts = [
        client.submit("&(executable=sim)").contact
        for _ in range(KNOWN_JOBS_LIMIT + extra)
    ]
    known = client.known_jobs()
    assert list(known) == [c.job_id for c in contacts[extra:]]
    assert set(known.values()) == {BOB}
    for forgotten in contacts[:extra]:
        assert client.job_owner(forgotten) is None
    assert client.job_owner(contacts[extra]) == BOB


def test_a_response_refreshes_a_known_job():
    client = _client()
    contacts = [
        client.submit("&(executable=sim)").contact for _ in range(KNOWN_JOBS_LIMIT)
    ]
    oldest = contacts[0]
    assert client.status(oldest).ok
    newcomer = client.submit("&(executable=sim)").contact
    known = client.known_jobs()
    assert len(known) == KNOWN_JOBS_LIMIT
    # The status poll made the oldest job the most recently learned
    # but one, so the second oldest went instead.
    assert list(known)[-2:] == [oldest.job_id, newcomer.job_id]
    assert client.job_owner(contacts[1]) is None
    assert client.job_owner(oldest) == BOB


def test_a_forgotten_job_is_learned_again():
    client = _client()
    first = client.submit("&(executable=sim)").contact
    for _ in range(KNOWN_JOBS_LIMIT):
        client.submit("&(executable=sim)")
    assert client.job_owner(first) is None
    response = client.status(first)
    assert response.ok
    assert client.job_owner(first) == BOB
    assert not client.owns(first)
    assert len(client.known_jobs()) == KNOWN_JOBS_LIMIT
    assert list(client.known_jobs())[-1] == first.job_id
