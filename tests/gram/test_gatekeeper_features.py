"""Gatekeeper-specific features: PEP placement, dynamic accounts, traces."""


import pytest

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig

from tests.conftest import BO

POLICY = f"""
{BO}: &(action=start)(executable=sim)(count<8) &(action=information)
/O=Grid/OU=visitors: &(action=start)(executable=sim)(count<2) &(action=information)
"""

GOOD = "&(executable=sim)(count=2)(runtime=10)"
BAD = "&(executable=evil)(count=2)(runtime=10)"


class TestGatekeeperPlacedPEP:
    def test_denial_happens_before_jmi_creation(self):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                pep_in_gatekeeper=True,
            )
        )
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = client.submit(BAD)
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        # No JMI must exist for the denied request.
        assert service.gatekeeper.active_job_managers == 0
        assert service.gatekeeper_pep.denials == 1

    def test_permit_flows_through_both_peps(self):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                pep_in_gatekeeper=True,
            )
        )
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = client.submit(GOOD)
        assert response.ok
        assert service.gatekeeper_pep.permits == 1
        assert service.pep.permits == 1  # JM PEP still authorizes


class TestDynamicAccountMapping:
    def build(self, pool_size=2):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                dynamic_pool_size=pool_size,
            )
        )
        return service

    def test_visitor_without_gridmap_entry_gets_dynamic_account(self):
        service = self.build()
        visitor = service.ca.issue("/O=Grid/OU=visitors/CN=Vera", now=0.0)
        client = GramClient(visitor, service.gatekeeper)
        response = client.submit("&(executable=sim)(count=1)(runtime=10)")
        assert response.ok
        assert service.dynamic_pool.allocations == 1

    def test_second_submission_reuses_lease(self):
        service = self.build()
        visitor = service.ca.issue("/O=Grid/OU=visitors/CN=Vera", now=0.0)
        client = GramClient(visitor, service.gatekeeper)
        client.submit("&(executable=sim)(count=1)(runtime=10)")
        client.submit("&(executable=sim)(count=1)(runtime=10)")
        assert service.dynamic_pool.allocations == 1

    def test_pool_exhaustion_surfaces_as_resource_unavailable(self):
        service = self.build(pool_size=1)
        first = service.ca.issue("/O=Grid/OU=visitors/CN=One", now=0.0)
        second = service.ca.issue("/O=Grid/OU=visitors/CN=Two", now=0.0)
        GramClient(first, service.gatekeeper).submit(
            "&(executable=sim)(count=1)(runtime=10)"
        )
        response = GramClient(second, service.gatekeeper).submit(
            "&(executable=sim)(count=1)(runtime=10)"
        )
        assert response.code is GramErrorCode.RESOURCE_UNAVAILABLE

    def test_static_mapping_preferred_over_pool(self):
        service = self.build()
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = client.submit(GOOD)
        assert response.ok
        assert service.dynamic_pool.allocations == 0


class TestTraces:
    def test_trace_captures_component_handoffs(self):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),), record_trace=True
            )
        )
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        client.submit(GOOD)
        edges = service.trace.edges()
        assert ("client", "gatekeeper") in edges
        assert ("gatekeeper", "gsi") in edges
        assert ("gatekeeper", "grid-mapfile") in edges
        assert ("gatekeeper", "job-manager") in edges
        assert ("job-manager", "pep") in edges
        assert ("job-manager", "lrm") in edges

    @pytest.mark.parametrize(
        "pep_in_gatekeeper, parser",
        [(False, "job-manager"), (True, "gatekeeper")],
    )
    def test_rsl_is_parsed_once_by_its_first_reader(
        self, pep_in_gatekeeper, parser
    ):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                pep_in_gatekeeper=pep_in_gatekeeper,
                record_trace=True,
            )
        )
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        assert client.submit(GOOD).ok
        parses = [
            (event.source, event.target)
            for event in service.trace
            if event.event == "parse RSL"
        ]
        assert parses == [(parser, parser)]

    def test_trace_ordering_gatekeeper_before_jm(self):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),), record_trace=True
            )
        )
        client = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        client.submit(GOOD)
        edges = list(service.trace.edges())
        spawn = edges.index(("gatekeeper", "job-manager"))
        pep = edges.index(("job-manager", "pep"))
        lrm = edges.index(("job-manager", "lrm"))
        assert spawn < pep < lrm
