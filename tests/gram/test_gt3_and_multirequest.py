"""GT3-style account setup and RSL multi-request submission."""

import pytest

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.rsl import parser

VISITOR = "/O=Grid/OU=visitors/CN=Vera"
POLICY = """
/O=Grid/OU=visitors:
    &(action=start)(executable=sim)(count<=4)
    &(action=information)(jobowner=self)
    &(action=cancel)(jobowner=self)
"""


def build(gt3=True, enforcement="static", **config):
    service = GramService(
        ServiceConfig(
            policies=(parse_policy(POLICY, name="vo"),),
            dynamic_pool_size=2,
            gt3_account_setup=gt3,
            enforcement=enforcement,
            record_trace=True,
            **config,
        )
    )
    credential = service.ca.issue(VISITOR, now=0.0)
    return service, GramClient(credential, service.gatekeeper)


class TestGT3AccountSetup:
    def test_dynamic_account_configured_from_request(self):
        service, client = build(gt3=True)
        response = client.submit("&(executable=sim)(count=2)(maxcputime=100)(runtime=10)")
        assert response.ok
        lease = service.dynamic_pool.lease_for(VISITOR)
        assert lease is not None
        limits = lease.account.limits
        assert limits.max_cpus_per_job == 2
        assert limits.cpu_quota_seconds == 100.0
        assert limits.allowed_executables == frozenset({"sim"})

    def test_without_gt3_account_stays_unrestricted(self):
        service, client = build(gt3=False)
        response = client.submit("&(executable=sim)(count=2)(runtime=10)")
        assert response.ok
        lease = service.dynamic_pool.lease_for(VISITOR)
        assert lease.account.limits.max_cpus_per_job is None

    def test_gt3_configuration_traced(self):
        service, client = build(gt3=True)
        client.submit("&(executable=sim)(count=1)(runtime=10)")
        events = [str(e) for e in service.trace]
        assert any("configure dynamic account from request" in e for e in events)

    def test_gt3_reconfiguration_enforced_by_account(self):
        """Once the trusted service installed the limits, static
        account enforcement now sees *request-specific* limits — the
        better dynamic-account integration the paper anticipated."""
        service, client = build(gt3=True)
        ok = client.submit("&(executable=sim)(count=2)(runtime=10)")
        assert ok.ok
        # Same lease, but the account now whitelists only 'sim':
        # spoof a JMI-level bypass by submitting an executable the VO
        # policy allows (none besides sim do here, so tweak limits).
        lease = service.dynamic_pool.lease_for(VISITOR)
        assert not lease.account.limits.allows_executable("other")

    def test_static_accounts_unaffected_by_gt3_flag(self):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(POLICY, name="vo"),),
                gt3_account_setup=True,
            )
        )
        credential = service.add_user(VISITOR, "vera")
        client = GramClient(credential, service.gatekeeper)
        assert client.submit("&(executable=sim)(count=1)(runtime=10)").ok
        account = service.accounts.get("vera")
        assert account.limits.max_cpus_per_job is None  # not dynamic

    def test_bad_rsl_reported_before_jmi(self):
        service, client = build(gt3=True)
        response = client.submit("&(count=2)")  # no executable
        assert response.code is GramErrorCode.BAD_RSL
        assert service.gatekeeper.active_job_managers == 0


class TestOneParsePerSubmit:
    """The Gatekeeper's PEP (step 2b), GT3 account set-up (step 3b) and
    the JMI share one parse of the submitted RSL."""

    JOB = "&(executable=sim)(count=2)(maxcputime=100)(runtime=10)"

    def test_rsl_parsed_once_with_every_step_on(self, monkeypatch):
        service, client = build(gt3=True, pep_in_gatekeeper=True)
        parsed = []
        parse_rsl = parser.parse_rsl

        def counting(text):
            parsed.append(text)
            return parse_rsl(text)

        monkeypatch.setattr(parser, "parse_rsl", counting)
        response = client.submit(self.JOB)
        assert response.ok
        assert parsed == [self.JOB]
        # Every step still saw the description.
        assert service.gatekeeper_pep.permits == 1
        assert service.pep.permits == 1
        limits = service.dynamic_pool.lease_for(VISITOR).account.limits
        assert limits.max_cpus_per_job == 2
        assert limits.cpu_quota_seconds == 100.0

    def test_bad_rsl_answered_at_the_gatekeeper_pep_step(self):
        service, client = build(gt3=True, pep_in_gatekeeper=True)
        response = client.submit("&(count=2)")  # no executable
        assert response.code is GramErrorCode.BAD_RSL
        assert response.contact is None
        # Step 2b answers before account mapping (3) and set-up (3b).
        assert service.gatekeeper_pep.decisions_made == 0
        assert service.dynamic_pool.lease_for(VISITOR) is None


class TestMultiRequest:
    def test_multirequest_fans_out(self):
        service, client = build()
        responses = client.submit_multi(
            "+(&(executable=sim)(count=1)(runtime=10))"
            "(&(executable=sim)(count=2)(runtime=20))"
        )
        assert len(responses) == 2
        assert all(r.ok for r in responses)
        assert service.gatekeeper.active_job_managers == 2

    def test_plain_specification_is_single_submission(self):
        _, client = build()
        responses = client.submit_multi("&(executable=sim)(count=1)(runtime=10)")
        assert len(responses) == 1
        assert responses[0].ok

    def test_components_authorized_independently(self):
        _, client = build()
        responses = client.submit_multi(
            "+(&(executable=sim)(count=1)(runtime=10))"
            "(&(executable=rogue)(count=1))"
            "(&(executable=sim)(count=2)(runtime=10))"
        )
        codes = [r.code for r in responses]
        assert codes[0] is GramErrorCode.SUCCESS
        assert codes[1] is GramErrorCode.AUTHORIZATION_DENIED
        assert codes[2] is GramErrorCode.SUCCESS

    def test_malformed_multirequest_raises_syntax_error(self):
        from repro.rsl.errors import RSLSyntaxError

        _, client = build()
        with pytest.raises(RSLSyntaxError):
            client.submit_multi("+(&(broken")
