"""GramService assembly and configuration validation."""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.gram.jobmanager import AuthorizationMode
from repro.gram.service import GramService, ServiceConfig

ALICE = "/O=Grid/OU=cfg/CN=Alice"


class TestEnforcementKinds:
    @pytest.mark.parametrize("kind", ["static", "dynamic", "sandbox"])
    def test_known_kinds_build(self, kind):
        service = GramService(ServiceConfig(enforcement=kind))
        assert service.enforcement is not None
        assert service.enforcement.name.replace("-account", "") in (
            kind,
            kind + "-account",
            "static",
            "dynamic",
            "sandbox",
        )

    def test_none_disables_enforcement(self):
        service = GramService(ServiceConfig(enforcement=None))
        assert service.enforcement is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GramService(ServiceConfig(enforcement="blockchain"))


class TestCalloutWiring:
    def test_legacy_mode_installs_initiator_rule(self):
        service = GramService(ServiceConfig(mode=AuthorizationMode.LEGACY))
        labels = service.registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        assert labels == ("initiator_only",)

    def test_extended_without_policies_falls_back_to_initiator_rule(self):
        service = GramService(ServiceConfig())
        labels = service.registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        assert labels == ("initiator_only",)

    def test_extended_with_policies_installs_combined_callout(self):
        policy = parse_policy(f"{ALICE}: &(action=start)", name="vo")
        service = GramService(ServiceConfig(policies=(policy,)))
        labels = service.registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        assert len(labels) == 1
        assert labels[0].startswith("combined:")

    def test_gatekeeper_pep_only_when_requested(self):
        assert GramService(ServiceConfig()).gatekeeper_pep is None
        assert (
            GramService(ServiceConfig(pep_in_gatekeeper=True)).gatekeeper_pep
            is not None
        )


class TestAddUser:
    def test_add_user_wires_everything(self):
        service = GramService(ServiceConfig())
        credential = service.add_user(ALICE, "alice")
        assert service.gridmap.authorizes(ALICE)
        assert service.accounts.exists("alice")
        assert str(credential.identity) == ALICE

    def test_add_user_twice_shares_account(self):
        service = GramService(ServiceConfig())
        service.add_user(ALICE, "shared")
        service.add_user("/O=Grid/OU=cfg/CN=Bob", "shared")
        assert len(service.accounts) == 1
        assert service.gridmap.map_to_account("/O=Grid/OU=cfg/CN=Bob") == "shared"


class TestClusterShape:
    def test_cluster_dimensions_respect_config(self):
        service = GramService(ServiceConfig(node_count=3, cpus_per_node=7))
        assert service.cluster.total_cpus == 21
        assert len(service.cluster.nodes) == 3

    def test_cluster_named_after_host(self):
        service = GramService(ServiceConfig(host="mysite.example.org"))
        assert service.cluster.name == "mysite"


class TestHardenIdempotency:
    def test_second_harden_raises_instead_of_stacking(self):
        service = GramService(ServiceConfig())
        first = service.harden()
        assert service.resilience is first
        with pytest.raises(RuntimeError):
            service.harden()
        # The original configuration is untouched by the rejected call.
        assert service.resilience is first


class TestLifecycleConfigWiring:
    def test_defaults_reap_with_bounded_retention(self):
        gatekeeper = GramService(ServiceConfig()).gatekeeper
        assert gatekeeper.completed.retention == 1024
        assert gatekeeper.lifecycle.max_jobs_per_user is None
        assert gatekeeper.lifecycle.max_active_jmis is None

    def test_caps_and_retention_flow_to_the_gatekeeper(self):
        service = GramService(
            ServiceConfig(
                completed_retention=7,
                max_jobs_per_user=3,
                max_active_jmis=11,
            )
        )
        lifecycle = service.gatekeeper.lifecycle
        assert service.gatekeeper.completed.retention == 7
        assert lifecycle.max_jobs_per_user == 3
        assert lifecycle.max_active_jmis == 11
