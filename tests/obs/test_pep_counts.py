"""The PEPs' own counts and the ``authz_*`` registry families agree.

Every stack shape the service can build — decision cache on or off,
capability grants on or off, fail-closed or fail-static — serves one
request stream through both PEP placements (Gatekeeper and Job
Manager), with a fault injected before hardening.  The stream is
built so that every configured layer does its job at least once: a
cache hit, a capability hit, a system failure and, when failing
static, a degraded answer.  The registry must then tell the same
story as the PEPs' counters, the layers' own hit counters, the audit
logs and the resilience metrics.
"""

import pytest

from repro.core.callout import GATEKEEPER_AUTHZ_CALLOUT, GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.testing import ExceptionFault, inject

from tests.conftest import BO, KATE

POLICY = f"""
{BO}:
    &(action=start)(executable=sim)
    &(action=information)(jobowner=self)
{KATE}:
    &(action=start)(executable=sim)
"""

RSL = "&(executable=sim)(count=1)(runtime=50)"
OTHER_RSL = "&(executable=sim)(count=2)(runtime=50)"

OUTCOMES = ("permit", "deny", "failure")


def series_total(registry, name, **match):
    """Sum a family's series (counter values, histogram counts)."""
    family = registry.get(name)
    if family is None:
        return 0
    total = 0
    for labels, instrument in family.series():
        if all(labels[key] == value for key, value in match.items()):
            if family.kind == "histogram":
                total += instrument.count
            else:
                total += instrument.value
    return total


def run_stream(cache, capabilities, mode):
    service = GramService(
        ServiceConfig(
            policies=(parse_policy(POLICY, name="vo"),),
            pep_in_gatekeeper=True,
            decision_cache=cache,
            capability_grants=capabilities,
        )
    )
    bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
    kate = GramClient(service.add_user(KATE, "keahey"), service.gatekeeper)
    fault = ExceptionFault()
    fault.enabled = False
    inject(service.registry, GRAM_AUTHZ_CALLOUT, fault)
    inject(service.registry, GATEKEEPER_AUTHZ_CALLOUT, fault)
    service.harden(ResilienceConfig(mode=mode))

    # Healthy: fresh decisions, then repeats of a permit and a deny.
    job = bo.submit(RSL)
    assert job.ok, job.message
    for _ in range(2):
        assert bo.status(job.contact).ok
        assert kate.status(job.contact).code is GramErrorCode.AUTHORIZATION_DENIED

    # Broken: a repeat submission (replayable everywhere it was seen)
    # and a first-time one (replayable nowhere).
    fault.enabled = True
    bo.submit(RSL)
    fresh = bo.submit(OTHER_RSL)
    assert fresh.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
    return service


@pytest.mark.parametrize(
    "mode", [DegradationMode.FAIL_CLOSED, DegradationMode.FAIL_STATIC]
)
@pytest.mark.parametrize("capabilities", [False, True])
@pytest.mark.parametrize("cache", [False, True])
def test_registry_agrees_with_the_peps(cache, capabilities, mode):
    service = run_stream(cache, capabilities, mode)
    peps = (service.pep, service.gatekeeper_pep)
    registry = service.telemetry.registry
    audit = [record for pep in peps for record in pep.audit_log]
    degraded = sum(1 for record in audit if record.degraded)

    # The stream exercised every layer this row configures.
    assert sum(pep.failures for pep in peps) >= 1
    if cache:
        assert service.pep.cache.hits >= 1
    if capabilities:
        assert service.capability.hits >= 1
    if mode is DegradationMode.FAIL_STATIC:
        assert degraded >= 1

    counts = {
        "permit": sum(pep.permits for pep in peps),
        "deny": sum(pep.denials for pep in peps),
        "failure": sum(pep.failures for pep in peps),
    }
    for outcome in OUTCOMES:
        assert series_total(
            registry, "authz_decisions_total", decision=outcome
        ) == counts[outcome]
    decisions = sum(pep.decisions_made for pep in peps)
    assert decisions == sum(counts.values()) == len(audit)
    assert series_total(registry, "authz_cache_total") == decisions
    assert series_total(registry, "authz_latency_seconds") == decisions
    assert registry.value("authz_cache_total", status="hit") == (
        service.pep.cache.hits if cache else 0
    )
    assert registry.value("authz_cache_total", status="capability") == (
        service.capability.hits if capabilities else 0
    )
    assert series_total(registry, "authz_degraded_total") == degraded
    assert degraded == service.resilience.metrics.degraded_static
