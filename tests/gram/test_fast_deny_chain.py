"""The reverse-index fast deny follows the serving callout chain.

The index inverts the combined evaluator the service was built with.
It may answer for the chain only while the chain still holds a
callout deciding from that evaluator: the chain is all-must-permit,
so that member's guaranteed deny is the chain's.  Once an operator
replaces the chain, the index proves nothing about it, and a
submission must take the full path.
"""

import pytest

from repro.core.builtin_callouts import permit_all
from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.core.query import QueryEngine
from repro.core.resilience import ResilienceConfig
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig

ORG = "/O=Grid/OU=fusion"
ALICE = f"{ORG}/CN=Alice Analyst"
BOB = f"{ORG}/CN=Bob Builder"
VO = f"{ALICE}:\n    &(action=start)(executable=sim)(count<4)"
RSL = "&(executable=sim)(count=1)(runtime=10)"


def build(query_fast_deny=True):
    service = GramService(
        ServiceConfig(
            policies=(parse_policy(VO, name="vo"),),
            query_fast_deny=query_fast_deny,
        )
    )
    bob = GramClient(service.add_user(BOB, "bob"), service.gatekeeper)
    return service, bob


@pytest.mark.parametrize("query_fast_deny", [True, False])
def test_replaced_chain_answers_like_the_full_path(query_fast_deny):
    # The operator swaps the chain the way examples/dynamic_policy.py
    # does; Bob is enrolled but not in the inverted VO policy.
    service, bob = build(query_fast_deny)
    service.registry.clear(GRAM_AUTHZ_CALLOUT)
    service.registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
    response = bob.submit(RSL)
    assert response.code is GramErrorCode.SUCCESS, response.message


def test_engine_without_a_combined_evaluator_never_fast_denies():
    # An engine built through its constructor inverts evaluators but
    # names no combined evaluator, so no chain is known to hold it.
    service, bob = build(query_fast_deny=False)
    service.gatekeeper.query_engine = QueryEngine(
        service.combined_evaluator.evaluators
    )
    service.registry.clear(GRAM_AUTHZ_CALLOUT)
    service.registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
    response = bob.submit(RSL)
    assert response.code is GramErrorCode.SUCCESS, response.message


def test_extended_chain_keeps_fast_denying():
    service, bob = build()
    service.registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
    response = bob.submit(RSL)
    assert response.code is GramErrorCode.AUTHORIZATION_DENIED
    assert "fast deny" in response.message


def test_hardened_chain_keeps_fast_denying():
    service, bob = build()
    service.harden(ResilienceConfig(clock=service.clock))
    response = bob.submit(RSL)
    assert response.code is GramErrorCode.AUTHORIZATION_DENIED
    assert "fast deny" in response.message
    assert service.query_engine.denied == 1
