"""Health & SLO wiring in the service stack."""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig
from repro.testing import ExceptionFault, inject

PREFIX = "/O=Grid/O=Globus/OU=health.example.org"

POLICY = f"""
{PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobowner=self)
"""

RSL = "&(executable=sim)(count=1)(runtime=10)"


def build_service(**overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        health_slo=True,
        health_window=2.0,
    )
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults))


def client_for(service, name="alice"):
    identity = f"{PREFIX}/CN={name}"
    return GramClient(service.add_user(identity, name), service.gatekeeper)


class TestGramServiceHealth:
    def test_health_is_off_by_default(self):
        service = GramService(
            ServiceConfig(policies=(parse_policy(POLICY, name="vo"),))
        )
        assert service.health is None

    def test_health_requires_telemetry(self):
        with pytest.raises(ValueError, match="telemetry"):
            build_service(telemetry=False)

    def test_run_loop_drives_evaluations(self):
        service = build_service()
        client = client_for(service)
        assert client.submit(RSL).ok
        assert service.health.latest_report is None
        service.run(2.0)
        report = service.health.latest_report
        assert report is not None
        assert report.status_of("service") == "healthy"
        assert service.health.weight_of("service") == 1.0
        assert not service.health.dumps

    def test_requests_counter_feeds_the_admission_slo(self):
        service = build_service()
        client = client_for(service)
        assert client.submit(RSL).ok
        snapshot = service.telemetry.registry.snapshot()
        family = next(
            f for f in snapshot if f["name"] == "gram_requests_total"
        )
        (series,) = family["series"]
        assert series["labels"] == {"kind": "submit", "code": "SUCCESS"}
        assert series["value"] == 1.0
        response = client.manage(client.submit(RSL).contact, "information")
        assert response.ok
        snapshot = service.telemetry.registry.snapshot()
        family = next(
            f for f in snapshot if f["name"] == "gram_requests_total"
        )
        kinds = {tuple(sorted(s["labels"].items())) for s in family["series"]}
        assert (("code", "SUCCESS"), ("kind", "manage")) in kinds

    def test_sustained_failures_freeze_a_flight_dump(self):
        service = build_service()
        client = client_for(service)
        fault = ExceptionFault()
        assert inject(service.registry, GRAM_AUTHZ_CALLOUT, fault) >= 1
        for _ in range(3):
            assert not client.submit(RSL).ok
            service.run(2.0)
        assert service.health.status_of("service") == "critical"
        assert service.health.dumps
        dump = service.health.dumps[0]
        assert dump.alert["severity"] == "critical"
        assert dump.request_ids()
        assert any(
            entry["code"] == "AUTHORIZATION_SYSTEM_FAILURE"
            for entry in dump.decisions
        )
