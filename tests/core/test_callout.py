"""The runtime-configurable callout API."""

import pytest

from repro.core.builtin_callouts import deny_all, permit_all
from repro.core.callout import (
    GRAM_AUTHZ_CALLOUT,
    CalloutConfiguration,
    CalloutRegistry,
    CalloutType,
    default_registry,
)
from repro.core.decision import Decision
from repro.core.errors import AuthorizationSystemFailure
from repro.core.request import AuthorizationRequest
from repro.rsl.parser import parse_specification

ALICE = "/O=Grid/OU=org/CN=Alice"


@pytest.fixture
def request_():
    return AuthorizationRequest.start(ALICE, parse_specification("&(executable=x)"))


class TestRegistration:
    def test_register_via_api(self, request_):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        assert registry.configured(GRAM_AUTHZ_CALLOUT)
        assert registry.invoke(GRAM_AUTHZ_CALLOUT, request_).is_permit

    def test_register_rejects_non_callable(self):
        registry = CalloutRegistry()
        with pytest.raises(TypeError):
            registry.register(GRAM_AUTHZ_CALLOUT, "not callable")

    def test_configure_by_module_and_symbol(self, request_):
        """The dlopen-style path: module + symbol resolved at runtime."""
        registry = CalloutRegistry()
        registry.configure(
            CalloutConfiguration(
                type_name=GRAM_AUTHZ_CALLOUT,
                module="repro.core.builtin_callouts",
                symbol="permit_all",
            )
        )
        assert registry.invoke(GRAM_AUTHZ_CALLOUT, request_).is_permit

    def test_missing_module_is_system_failure(self):
        config = CalloutConfiguration(
            type_name=GRAM_AUTHZ_CALLOUT, module="no.such.module", symbol="f"
        )
        with pytest.raises(AuthorizationSystemFailure):
            CalloutRegistry().configure(config)

    def test_missing_symbol_is_system_failure(self):
        config = CalloutConfiguration(
            type_name=GRAM_AUTHZ_CALLOUT,
            module="repro.core.builtin_callouts",
            symbol="does_not_exist",
        )
        with pytest.raises(AuthorizationSystemFailure):
            CalloutRegistry().configure(config)

    def test_non_callable_symbol_is_system_failure(self):
        config = CalloutConfiguration(
            type_name=GRAM_AUTHZ_CALLOUT,
            module="repro.core.builtin_callouts",
            symbol="__doc__",
        )
        with pytest.raises(AuthorizationSystemFailure):
            CalloutRegistry().configure(config)

    def test_clear(self, request_):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        registry.clear(GRAM_AUTHZ_CALLOUT)
        assert not registry.configured(GRAM_AUTHZ_CALLOUT)


class TestConfigurationEpoch:
    """Every call that changes the configured chains moves the epoch
    once, so a decision replayed under the old epoch is never served
    for the new chain."""

    def test_register_and_clear_each_bump_once(self):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        assert registry.policy_epoch == 1
        registry.register(GRAM_AUTHZ_CALLOUT, deny_all)
        assert registry.policy_epoch == 2
        registry.clear(GRAM_AUTHZ_CALLOUT)
        assert registry.policy_epoch == 3
        registry.clear()
        assert registry.policy_epoch == 4

    def test_configure_bumps_once(self):
        registry = CalloutRegistry()
        registry.configure(
            CalloutConfiguration(
                type_name=GRAM_AUTHZ_CALLOUT,
                module="repro.core.builtin_callouts",
                symbol="permit_all",
            )
        )
        assert registry.policy_epoch == 1

    def test_wrap_and_a_rejected_register_do_not_bump(self):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        registry.wrap(GRAM_AUTHZ_CALLOUT, lambda label, callout: callout)
        with pytest.raises(TypeError):
            registry.register(GRAM_AUTHZ_CALLOUT, "not callable")
        assert registry.policy_epoch == 1


class TestConfigurationFile:
    def test_load_from_file(self, tmp_path, request_):
        config = tmp_path / "callouts.conf"
        config.write_text(
            "# GRAM authorization\n"
            "gram.authz  repro.core.builtin_callouts  permit_all\n"
        )
        registry = CalloutRegistry()
        assert registry.configure_from_file(str(config)) == 1
        assert registry.invoke(GRAM_AUTHZ_CALLOUT, request_).is_permit

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "callouts.conf"
        config.write_text("gram.authz only_two_fields\n")
        with pytest.raises(AuthorizationSystemFailure):
            CalloutRegistry().configure_from_file(str(config))

    def test_missing_file_is_system_failure(self, tmp_path):
        with pytest.raises(AuthorizationSystemFailure):
            CalloutRegistry().configure_from_file(str(tmp_path / "nope.conf"))

    def test_comments_and_blanks_skipped(self, tmp_path):
        config = tmp_path / "callouts.conf"
        config.write_text("\n# comment only\n\n")
        assert CalloutRegistry().configure_from_file(str(config)) == 0

    def test_failure_midway_leaves_registry_unchanged(self, tmp_path, request_):
        """All-or-nothing: a bad later line must not register earlier ones."""
        config = tmp_path / "callouts.conf"
        config.write_text(
            "gram.authz  repro.core.builtin_callouts  permit_all\n"
            "gram.authz  no.such.module  whatever\n"
        )
        registry = CalloutRegistry()
        with pytest.raises(AuthorizationSystemFailure):
            registry.configure_from_file(str(config))
        assert not registry.configured(GRAM_AUTHZ_CALLOUT)

    def test_failure_midway_preserves_prior_configuration(self, tmp_path, request_):
        """A registry that was already configured stays exactly as it was."""
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, deny_all)
        before = registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        config = tmp_path / "callouts.conf"
        config.write_text(
            "gram.authz  repro.core.builtin_callouts  permit_all\n"
            "gram.authz  repro.core.builtin_callouts  does_not_exist\n"
        )
        with pytest.raises(AuthorizationSystemFailure):
            registry.configure_from_file(str(config))
        assert registry.callout_labels(GRAM_AUTHZ_CALLOUT) == before
        assert registry.invoke(GRAM_AUTHZ_CALLOUT, request_).is_deny

    def test_malformed_line_after_good_lines_is_atomic(self, tmp_path):
        config = tmp_path / "callouts.conf"
        config.write_text(
            "gram.authz  repro.core.builtin_callouts  permit_all\n"
            "gram.authz  only_two_fields\n"
        )
        registry = CalloutRegistry()
        with pytest.raises(AuthorizationSystemFailure):
            registry.configure_from_file(str(config))
        assert not registry.configured(GRAM_AUTHZ_CALLOUT)


class TestInvocation:
    def test_unconfigured_type_is_system_failure(self, request_):
        with pytest.raises(AuthorizationSystemFailure):
            CalloutRegistry().invoke("unknown.type", request_)

    def test_chained_callouts_all_must_permit(self, request_):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        registry.register(GRAM_AUTHZ_CALLOUT, deny_all)
        decision = registry.invoke(GRAM_AUTHZ_CALLOUT, request_)
        assert decision.is_deny

    def test_first_denial_short_circuits(self, request_):
        calls = []

        def first(request):
            calls.append("first")
            return Decision.deny(reasons=("no",))

        def second(request):
            calls.append("second")
            return Decision.permit()

        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, first)
        registry.register(GRAM_AUTHZ_CALLOUT, second)
        registry.invoke(GRAM_AUTHZ_CALLOUT, request_)
        assert calls == ["first"]

    def test_raising_callout_is_system_failure(self, request_):
        registry = CalloutRegistry()
        registry.configure(
            CalloutConfiguration(
                type_name=GRAM_AUTHZ_CALLOUT,
                module="repro.core.builtin_callouts",
                symbol="broken_callout",
            )
        )
        with pytest.raises(AuthorizationSystemFailure):
            registry.invoke(GRAM_AUTHZ_CALLOUT, request_)

    def test_wrong_return_type_is_system_failure(self, request_):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, lambda request: True)
        with pytest.raises(AuthorizationSystemFailure):
            registry.invoke(GRAM_AUTHZ_CALLOUT, request_)

    def test_indeterminate_return_is_system_failure(self, request_):
        registry = CalloutRegistry()
        registry.register(
            GRAM_AUTHZ_CALLOUT, lambda request: Decision.indeterminate("?")
        )
        with pytest.raises(AuthorizationSystemFailure):
            registry.invoke(GRAM_AUTHZ_CALLOUT, request_)

    def test_invocation_counter(self, request_):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        registry.invoke(GRAM_AUTHZ_CALLOUT, request_)
        registry.invoke(GRAM_AUTHZ_CALLOUT, request_)
        assert registry.invocations == 2


class TestDefaultRegistry:
    def test_standard_types_declared(self):
        registry = default_registry()
        assert "gram.authz" in registry.declared_types()
        assert "gatekeeper.authz" in registry.declared_types()

    def test_declaring_type_is_idempotent(self):
        registry = default_registry()
        registry.declare_type(CalloutType(name="gram.authz"))
        assert registry.declared_types().count("gram.authz") == 1
