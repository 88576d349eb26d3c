"""Every telemetry and audit export, byte for byte, against committed
golden files.

Six scenarios cover the instrumented paths: the acceptance scenario
(``tests/obs/test_acceptance.py``), a plain service, the repeat paths
with a Gatekeeper PEP and a fail-static outage, the repeat paths with
a timeout/breaker outage, a store-backed service that publishes,
rejects a bundle and rolls back, and a service that adopts a
pre-published store.  Each scenario's registry JSONL, span JSONL,
Prometheus text and audit-log export (``export_audit_log`` of every
PEP, job manager's first) must equal ``tests/obs/golden/<scenario>.*``
exactly, so a change to how telemetry or the audit log is recorded
cannot move what they export.  The audit lines' ``duration`` is wall
time, so it is zeroed on both sides; nothing else is normalized.

Regenerate the golden files (only when an export is meant to change)
from the repository root with::

    PYTHONPATH=src:. python -m tests.obs.test_export_golden
"""

import itertools
import json
import os
import tempfile

import pytest

from repro.core import capability
from repro.core.callout import GATEKEEPER_AUTHZ_CALLOUT, GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.core.resilience import DegradationMode, ResilienceConfig, RetryPolicy
from repro.core.store import BundleRejected, PolicyBundle, VersionedPolicyStore
from repro.gram import protocol
from repro.gram.audit import export_audit_log
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig
from repro.testing import ExceptionFault, FaultSchedule, LatencyFault, inject
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

from tests.conftest import BO, KATE
from tests.obs.test_acceptance import LOCAL_POLICY, run_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Export name -> golden file suffix.
EXPORTS = {
    "metrics_jsonl": "metrics.jsonl",
    "spans_jsonl": "spans.jsonl",
    "prometheus": "prom",
    "audit_jsonl": "audit.jsonl",
}

#: Mapped in the grid-mapfile and inside the VO's DN prefix, but
#: granted no start of their own: the reverse index proves the deny.
CARL = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Carl Outsider"

BO_NFC = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(runtime=100)"
BO_ADS = "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)(runtime=30)"
#: Fails Figure 3's count<4 for Bo.
BO_WIDE = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=8)(runtime=10)"
KATE_NFC = "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=1)(runtime=40)"
CARL_JOB = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)(runtime=10)"

#: Figure 3 plus monitoring grants, so polls repeat permits as well as
#: denials.
VO_TEXT = FIGURE3_POLICY_TEXT + f"""
{BO}:
    &(action=information)(jobowner=self)
{KATE}:
    &(action=information)(jobtag=NFC)
"""

#: The local policy without its information grant; a bundle pairing
#: it with the VO policy keeps the serving source names, so
#: a service swaps it in.
LOCAL_NO_INFO = """
/O=Grid/O=Globus/OU=mcs.anl.gov:
    &(action=start)(count<=32)
    &(action=cancel)
"""


def reset_counters():
    """Job contacts and capability token ids appear in span attrs and
    events; start both where a fresh process would."""
    protocol._contact_counter = itertools.count(1)
    capability._token_counter = itertools.count(1)


def policies():
    return (
        parse_policy(VO_TEXT, name="vo"),
        parse_policy(LOCAL_POLICY, name="local"),
    )


def enrol(service):
    bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
    kate = GramClient(service.add_user(KATE, "keahey"), service.gatekeeper)
    carl = GramClient(service.add_user(CARL, "carl"), service.gatekeeper)
    return bo, kate, carl


def drive(service, bo, kate, carl, polls=3):
    """Submits (permitted and denied), repeated polls, an admin cancel
    by jobtag and post-reap information."""
    nfc = bo.submit(BO_NFC)
    ads = bo.submit(BO_ADS)
    transp = kate.submit(KATE_NFC)
    bo.submit(BO_WIDE)
    carl.submit(CARL_JOB)
    for _ in range(polls):
        bo.status(nfc.contact)
        bo.status(ads.contact)
        kate.status(nfc.contact)
    kate.cancel(nfc.contact)
    service.run(50.0)
    bo.status(ads.contact)
    kate.status(transp.contact)
    return nfc, ads, transp


def without_wall_time(audit_jsonl):
    """*audit_jsonl* with every line's wall-clock ``duration`` zeroed."""
    return "".join(
        json.dumps({**json.loads(line), "duration": 0.0}, sort_keys=True) + "\n"
        for line in audit_jsonl.splitlines()
    )


def audit_export(service):
    """``export_audit_log`` of every PEP of *service*, concatenated."""
    text = ""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "audit.jsonl")
        for pep in (service.pep, service.gatekeeper_pep):
            if pep is not None:
                export_audit_log(pep, path)
                with open(path, encoding="utf-8") as handle:
                    text += handle.read()
    return without_wall_time(text)


def exports(service):
    telemetry = service.telemetry
    return {
        "metrics_jsonl": telemetry.registry.to_jsonl(),
        "spans_jsonl": telemetry.tracer.to_jsonl(),
        "prometheus": telemetry.registry.to_prometheus(),
        "audit_jsonl": audit_export(service),
    }


# -- the scenarios -------------------------------------------------------


def acceptance():
    reset_counters()
    return exports(run_scenario()["service"])


def plain_service():
    reset_counters()
    service = GramService(ServiceConfig(policies=policies()))
    # Fill the trace retention, so evictions are counted and exported.
    service.telemetry.tracer.limit = 8
    drive(service, *enrol(service))
    return exports(service)


def fail_static_outage():
    reset_counters()
    service = GramService(
        ServiceConfig(
            policies=policies(),
            decision_cache=True,
            capability_grants=True,
            query_fast_deny=True,
            pep_in_gatekeeper=True,
        )
    )
    bo, kate, carl = enrol(service)
    fault = ExceptionFault()
    fault.enabled = False
    inject(service.registry, GRAM_AUTHZ_CALLOUT, fault)
    inject(service.registry, GATEKEEPER_AUTHZ_CALLOUT, fault)
    service.harden(ResilienceConfig(mode=DegradationMode.FAIL_STATIC))
    nfc, ads, _ = drive(service, bo, kate, carl)
    fault.enabled = True
    bo.status(ads.contact)  # replayed: capability or fail-static
    kate.submit(KATE_NFC)  # decided before: served static
    bo.submit(BO_ADS.replace("count=1", "count=3"))  # never seen: fails
    fault.enabled = False
    bo.status(ads.contact)
    return exports(service)


def breaker_outage():
    reset_counters()
    service = GramService(
        ServiceConfig(
            policies=policies(), decision_cache=True, capability_grants=True
        )
    )
    bo, kate, carl = enrol(service)
    fault = FaultSchedule(
        [(8, None), (3, LatencyFault(service.clock, 2.0))]
    )
    inject(service.registry, GRAM_AUTHZ_CALLOUT, fault)
    service.harden(
        ResilienceConfig(
            timeout=1.0,
            retry=RetryPolicy(
                max_attempts=2, base_delay=1.0, multiplier=2.0, jitter=0.0
            ),
            failure_threshold=2,
            reset_timeout=5.0,
        )
    )
    nfc, ads, transp = drive(service, bo, kate, carl, polls=2)
    kate.submit(KATE_NFC.replace("count=1", "count=2"))
    bo.submit(BO_ADS.replace("count=1", "count=2"))
    service.run(10.0)
    bo.submit(BO_ADS.replace("count=1", "count=3"))
    bo.status(ads.contact)
    return exports(service)


def store_publishes():
    reset_counters()
    store = VersionedPolicyStore()
    service = GramService(
        ServiceConfig(
            policies=policies(),
            policy_store=store,
            decision_cache=True,
            capability_grants=True,
            query_fast_deny=True,
        )
    )
    bo, kate, carl = enrol(service)
    nfc, ads, _ = drive(service, bo, kate, carl, polls=2)
    store.publish(
        PolicyBundle.from_texts(
            {"vo": VO_TEXT, "local": LOCAL_NO_INFO}
        )
    )
    bo.status(ads.contact)
    with pytest.raises(BundleRejected):
        store.publish(
            PolicyBundle.from_texts(
                {"vo": "&(action=start", "local": LOCAL_POLICY}
            )
        )
    bo.status(ads.contact)
    store.rollback()
    bo.status(ads.contact)
    bo.submit(BO_ADS)
    return exports(service)


def adopted_store():
    reset_counters()
    store = VersionedPolicyStore()
    store.publish(
        PolicyBundle.from_texts(
            {"vo": VO_TEXT, "local": LOCAL_POLICY}
        ),
        origin="seed",
    )
    service = GramService(
        ServiceConfig(
            policy_store=store, decision_cache=True, capability_grants=True
        )
    )
    bo, kate, carl = enrol(service)
    nfc, ads, _ = drive(service, bo, kate, carl, polls=2)
    store.publish(
        PolicyBundle.from_texts(
            {"vo": VO_TEXT, "local": LOCAL_NO_INFO}
        )
    )
    bo.status(ads.contact)
    kate.status(ads.contact)
    return exports(service)


SCENARIOS = {
    "acceptance": acceptance,
    "plain_service": plain_service,
    "fail_static_outage": fail_static_outage,
    "breaker_outage": breaker_outage,
    "store_publishes": store_publishes,
    "adopted_store": adopted_store,
}


def golden_path(scenario, export):
    return os.path.join(GOLDEN_DIR, f"{scenario}.{EXPORTS[export]}")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_exports_match_golden(scenario):
    produced = SCENARIOS[scenario]()
    for export in EXPORTS:
        with open(golden_path(scenario, export), encoding="utf-8") as handle:
            expected = handle.read()
        if export == "audit_jsonl":
            expected = without_wall_time(expected)
        assert produced[export] == expected, (
            f"{scenario}: {export} differs from "
            f"{os.path.relpath(golden_path(scenario, export))}"
        )


def test_scenarios_reach_the_paths_they_name():
    """Each scenario exercises what its golden files are meant to pin."""
    fail_static = fail_static_outage()["prometheus"]
    assert 'authz_degraded_total{mode="fail-static"}' in fail_static
    assert "capability_hit_total" in fail_static
    assert 'authz_decisions_total{action="start",decision="failure"}' in fail_static
    assert "query_" in fail_static
    breaker = breaker_outage()["prometheus"]
    assert 'breaker_transitions_total{source="combined:vo+local",to="open"}' in breaker
    assert "resilience_timeouts_total" in breaker
    published = store_publishes()
    assert 'policy_reload_rejected_total{reason="parse"} 1' in published["prometheus"]
    assert '{origin="rollback"} 1' in published["prometheus"]
    assert "capability_revoked_total" in published["prometheus"]
    assert "obs_traces_dropped_total 9" in plain_service()["prometheus"]
    adopted = adopted_store()["prometheus"]
    assert "policy_store_epoch 2" in adopted


def write_goldens():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for scenario, build in sorted(SCENARIOS.items()):
        produced = build()
        for export in EXPORTS:
            with open(
                golden_path(scenario, export), "w", encoding="utf-8"
            ) as handle:
                handle.write(produced[export])


if __name__ == "__main__":
    write_goldens()
