"""Direct Job Manager Instance unit tests (edge paths)."""

import pytest

from repro.accounts.local import LocalAccount
from repro.core.builtin_callouts import permit_all
from repro.core.callout import GRAM_AUTHZ_CALLOUT, CalloutRegistry
from repro.core.pep import EnforcementPoint
from repro.gram.jobmanager import AuthorizationMode, JobManagerInstance
from repro.gram.protocol import GramErrorCode, GramJobState, JobContact
from repro.gsi.credentials import CertificateAuthority
from repro.lrm.cluster import Cluster
from repro.lrm.scheduler import BatchScheduler
from repro.sim.clock import Clock

OWNER = "/O=Grid/OU=jm/CN=Owner"


@pytest.fixture
def ca():
    return CertificateAuthority("/O=Grid/CN=CA", now=0.0)


@pytest.fixture
def parts(ca):
    clock = Clock()
    scheduler = BatchScheduler(Cluster.homogeneous("c", 2, 4), clock)
    registry = CalloutRegistry()
    registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
    pep = EnforcementPoint(registry=registry)
    return clock, scheduler, pep


def make_jmi(parts, ca, mode=AuthorizationMode.EXTENDED):
    clock, scheduler, pep = parts
    from repro.gsi.names import DistinguishedName

    return JobManagerInstance(
        contact=JobContact.fresh("jm.example.org"),
        owner=DistinguishedName.parse(OWNER),
        account=LocalAccount(username="owner", uid=7000),
        scheduler=scheduler,
        clock=clock,
        mode=mode,
        pep=pep,
        anchors=lambda: (ca,),
    )


class TestConstruction:
    def test_extended_requires_pep(self, parts, ca):
        clock, scheduler, _ = parts
        from repro.gsi.names import DistinguishedName

        with pytest.raises(ValueError):
            JobManagerInstance(
                contact=JobContact.fresh("h"),
                owner=DistinguishedName.parse(OWNER),
                account=LocalAccount(username="owner", uid=7001),
                scheduler=scheduler,
                clock=clock,
                mode=AuthorizationMode.EXTENDED,
                pep=None,
            )


class TestStartEdgeCases:
    def test_unparsable_rsl(self, parts, ca):
        jmi = make_jmi(parts, ca)
        response = jmi.start("&(((")
        assert response.code is GramErrorCode.BAD_RSL

    def test_missing_executable(self, parts, ca):
        jmi = make_jmi(parts, ca)
        response = jmi.start("&(count=2)")
        assert response.code is GramErrorCode.BAD_RSL

    def test_state_before_start_is_none(self, parts, ca):
        jmi = make_jmi(parts, ca)
        assert jmi.state() is None


class TestManagementEdgeCases:
    def test_manage_before_start(self, parts, ca):
        jmi = make_jmi(parts, ca)
        owner_cred = ca.issue(OWNER, now=0.0)
        response = jmi.handle(owner_cred, "cancel")
        assert response.code is GramErrorCode.NO_SUCH_JOB

    def test_unknown_action(self, parts, ca):
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(runtime=100)")
        owner_cred = ca.issue(OWNER, now=0.0)
        response = jmi.handle(owner_cred, "reboot")
        assert response.code is GramErrorCode.BAD_RSL

    def test_signal_without_value(self, parts, ca):
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(runtime=100)")
        owner_cred = ca.issue(OWNER, now=0.0)
        response = jmi.handle(owner_cred, "signal")
        assert response.code is GramErrorCode.BAD_RSL

    def test_signal_with_value(self, parts, ca):
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(runtime=100)")
        owner_cred = ca.issue(OWNER, now=0.0)
        response = jmi.handle(owner_cred, "signal", value=7)
        assert response.ok
        assert jmi.job.priority == 7

    def test_cancel_after_completion_is_graceful(self, parts, ca):
        clock, _, _ = parts
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(runtime=5)")
        clock.advance(10.0)
        owner_cred = ca.issue(OWNER, now=0.0)
        response = jmi.handle(owner_cred, "cancel")
        assert response.ok
        assert response.state is GramJobState.DONE

    def test_status_alias_for_information(self, parts, ca):
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(runtime=100)")
        owner_cred = ca.issue(OWNER, now=0.0)
        response = jmi.handle(owner_cred, "status")
        assert response.ok

    def test_legacy_mode_reports_owner_in_denial(self, parts, ca):
        jmi = make_jmi(parts, ca, mode=AuthorizationMode.LEGACY)
        jmi.start("&(executable=sim)(runtime=100)")
        other = ca.issue("/O=Grid/OU=jm/CN=Other", now=0.0)
        response = jmi.handle(other, "cancel")
        assert response.code is GramErrorCode.NOT_JOB_OWNER
        assert response.job_owner == OWNER


class TestStateMapping:
    def test_lifecycle_states(self, parts, ca):
        clock, scheduler, _ = parts
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(count=8)(runtime=50)")
        assert jmi.state() is GramJobState.ACTIVE
        scheduler.suspend(jmi.job.job_id)
        assert jmi.state() is GramJobState.SUSPENDED
        scheduler.resume(jmi.job.job_id)
        clock.advance(100.0)
        assert jmi.state() is GramJobState.DONE

    def test_failed_job_maps_to_failed(self, parts, ca):
        clock, scheduler, _ = parts
        jmi = make_jmi(parts, ca)
        jmi.start("&(executable=sim)(runtime=1000)(maxwalltime=10)")
        clock.advance(20.0)
        assert jmi.state() is GramJobState.FAILED


class TestDoubleStartGuard:
    def test_second_start_is_rejected_and_first_job_kept(self, parts, ca):
        jmi = make_jmi(parts, ca)
        first = jmi.start("&(executable=sim)(count=1)(runtime=10)")
        assert first.ok
        original_job = jmi.job
        second = jmi.start("&(executable=other)(count=1)(runtime=20)")
        assert second.code is GramErrorCode.JOB_ALREADY_STARTED
        assert "already started" in second.message
        # The first scheduler job and description are not orphaned.
        assert jmi.job is original_job
        assert jmi.description.executable == "sim"

    def test_second_start_after_completion_also_rejected(self, parts, ca):
        clock, scheduler, _ = parts
        jmi = make_jmi(parts, ca)
        assert jmi.start("&(executable=sim)(count=1)(runtime=10)").ok
        clock.advance(10.0)
        response = jmi.start("&(executable=sim)(count=1)(runtime=10)")
        assert response.code is GramErrorCode.JOB_ALREADY_STARTED
        assert response.state is GramJobState.DONE

    def test_failed_start_leaves_jmi_reusable_state_clean(self, parts, ca):
        jmi = make_jmi(parts, ca)
        assert jmi.start("&(((").code is GramErrorCode.BAD_RSL
        # No scheduler job was created, so a retry is not a double start.
        assert jmi.job is None


class TestTerminalAccounting:
    def make_with_enforcement(self, parts, ca):
        from repro.accounts.enforcement import StaticAccountEnforcement
        from repro.gsi.names import DistinguishedName

        clock, scheduler, pep = parts
        account = LocalAccount(username="owner", uid=7100)
        enforcement = StaticAccountEnforcement()
        jmi = JobManagerInstance(
            contact=JobContact.fresh("jm.example.org"),
            owner=DistinguishedName.parse(OWNER),
            account=account,
            scheduler=scheduler,
            clock=clock,
            mode=AuthorizationMode.EXTENDED,
            pep=pep,
            enforcement=enforcement,
            anchors=lambda: (ca,),
        )
        return jmi, account

    def test_running_jobs_decrements_exactly_once(self, parts, ca):
        clock, _, _ = parts
        jmi, account = self.make_with_enforcement(parts, ca)
        assert jmi.start("&(executable=sim)(count=1)(runtime=10)").ok
        assert account.running_jobs == 1
        clock.advance(10.0)
        assert account.running_jobs == 0
        # A stray re-delivery of the terminal event must not go negative.
        jmi._terminal_hook(jmi.job)
        assert account.running_jobs == 0

    def test_foreign_job_event_does_not_touch_accounting(self, parts, ca):
        from repro.lrm.jobs import BatchJob

        jmi, account = self.make_with_enforcement(parts, ca)
        assert jmi.start("&(executable=sim)(count=1)(runtime=10)").ok
        foreign = BatchJob(
            account="owner", executable="sim", cpus=1, runtime=1.0,
            job_id="someone-elses-job",
        )
        jmi._terminal_hook(foreign)
        assert account.running_jobs == 1  # keyed on job_id: no effect
        assert not jmi.finished

    def test_accounting_closes_even_when_job_finished_during_start(self, parts, ca):
        # A zero-walltime job terminates inside submit; the per-job
        # registration fires immediately, so running_jobs still
        # returns to 0 instead of leaking.
        clock, scheduler, _ = parts
        jmi, account = self.make_with_enforcement(parts, ca)
        response = jmi.start(
            "&(executable=sim)(count=1)(runtime=10)(maxwalltime=0)"
        )
        assert response.ok
        assert jmi.finished
        assert account.running_jobs == 0
