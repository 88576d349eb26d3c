"""JMI reaping, the completed-job store, and admission control."""

import pytest

from repro.core.decision import Effect
from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.jobmanager import AuthorizationMode
from repro.gram.lifecycle import CompletedJobStore
from repro.gram.protocol import GramErrorCode, GramJobState
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.credentials import CertificateAuthority
from repro.lrm.errors import UnknownJobError
from repro.lrm.jobs import JobState
from repro.workloads.scenarios import build_fusion_scenario

OWNER = "/O=Grid/OU=lifecycle/CN=Owner"
OTHER = "/O=Grid/OU=lifecycle/CN=Other"
ADMIN = "/O=Grid/OU=lifecycle/CN=Admin"

RSL = "&(executable=sim)(count=1)(runtime=10)(jobtag=NFC)"

#: Owner may start/manage their jobs; the admin may query any NFC job.
POLICY = f"""
{OWNER}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobowner=self)
{ADMIN}:
    &(action=information)(jobtag=NFC)
"""


def build(**overrides):
    defaults = dict(host="lc.example.org", node_count=4, cpus_per_node=4)
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults))


class TestReaping:
    def test_terminal_jmi_is_reaped_into_completed_store(self):
        service = build()
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        response = client.submit(RSL)
        assert response.ok
        assert service.gatekeeper.active_job_managers == 1
        service.run(10.0)
        assert service.gatekeeper.active_job_managers == 0
        assert service.gatekeeper.completed_jobs == 1
        assert service.gatekeeper.reaped == 1
        record = service.gatekeeper.completed.get(response.contact.job_id)
        assert record is not None
        assert record.state is GramJobState.DONE
        assert str(record.owner) == OWNER

    def test_reaping_forgets_the_lrm_record_too(self):
        service = build()
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        response = client.submit(RSL)
        service.run(10.0)
        with pytest.raises(UnknownJobError):
            service.scheduler.job(response.contact.job_id)
        assert len(service.scheduler.jobs()) == 0

    def test_cancelled_job_is_reaped_as_failed(self):
        service = build()
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        response = client.submit(RSL)
        assert client.cancel(response.contact).ok
        record = service.gatekeeper.completed.get(response.contact.job_id)
        assert record is not None
        assert record.state is GramJobState.FAILED
        assert "cancel" in record.exit_reason

    def test_retention_bounds_the_store(self):
        service = build(completed_retention=3)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        contacts = []
        for _ in range(5):
            response = client.submit(RSL)
            assert response.ok
            service.run(10.0)
            contacts.append(response.contact)
        assert service.gatekeeper.completed_jobs == 3
        assert service.gatekeeper.completed.evicted == 2
        # Oldest evicted, newest retained.
        assert service.gatekeeper.completed.get(contacts[0].job_id) is None
        assert service.gatekeeper.completed.get(contacts[-1].job_id) is not None
        evicted = client.status(contacts[0])
        assert evicted.code is GramErrorCode.NO_SUCH_JOB


class TestZeroWalltimeJobStartedByACancel:
    """An admin-style preemption frees CPUs for a queue whose head has a
    zero walltime budget: that job fails as it starts, and the rest of
    the queue must start once, with no CPU left allocated."""

    @pytest.fixture
    def preempted(self):
        scenario = build_fusion_scenario(node_count=1, cpus_per_node=8)
        client = next(iter(scenario.analysts.values()))
        transp = "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)"
        responses = [
            client.submit(transp + limits)
            for limits in (
                "(count=8)(runtime=100)",
                "(count=4)(maxwalltime=0)(runtime=10)",
                "(count=4)(runtime=10)",
                "(count=4)(runtime=500)",
            )
        ]
        assert all(response.ok for response in responses)
        assert client.cancel(responses[0].contact).ok
        return scenario.service, client, responses[1:]

    def test_queue_starts_once(self, preempted):
        service, client, (doomed, short, long_job) = preempted
        scheduler = service.scheduler
        assert scheduler.queue_depth == len(scheduler.jobs(JobState.QUEUED)) == 0
        assert client.status(doomed.contact).state is GramJobState.FAILED
        assert client.status(short.contact).state is GramJobState.ACTIVE
        assert client.status(long_job.contact).state is GramJobState.ACTIVE

    def test_no_restart_and_no_leaked_cpus(self, preempted):
        service, client, (_, _, long_job) = preempted
        service.run(10.0)
        assert service.scheduler.job(long_job.contact.job_id).started_at == 0.0
        service.run(1010.0)
        assert client.status(long_job.contact).state is GramJobState.DONE
        assert not service.scheduler.jobs(JobState.RUNNING)
        assert service.cluster.used_cpus == 0
        account = service.gatekeeper.completed.get(long_job.contact.job_id).account
        assert service.scheduler.usage(account).cpu_seconds == pytest.approx(2040.0)


class TestPostReapManagement:
    def make(self, mode=AuthorizationMode.EXTENDED, policies=None):
        service = build(
            mode=mode,
            policies=(
                tuple(policies)
                if policies is not None
                else (parse_policy(POLICY, name="vo"),)
            )
            if mode is AuthorizationMode.EXTENDED
            else (),
        )
        owner = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        other = GramClient(service.add_user(OTHER, "other"), service.gatekeeper)
        admin = GramClient(service.add_user(ADMIN, "admin"), service.gatekeeper)
        response = owner.submit(RSL)
        assert response.ok
        service.run(10.0)
        assert service.gatekeeper.active_job_managers == 0
        return service, owner, other, admin, response.contact

    @pytest.mark.parametrize("grants", [False, True], ids=["fresh", "capability"])
    def test_permitted_request_carries_its_context_after_reap(self, grants):
        """A permitted request says why it was permitted on a reaped job
        exactly as on the live one, and keeps the Figure 1/2 edges."""
        service = build(
            policies=(parse_policy(POLICY, name="vo"),),
            capability_grants=grants,
            record_trace=True,
        )
        owner = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        admin = GramClient(service.add_user(ADMIN, "admin"), service.gatekeeper)
        contact = owner.submit(RSL).contact
        live = admin.status(contact)
        assert live.ok and live.decision_context is not None
        service.run(10.0)
        assert service.gatekeeper.active_job_managers == 0

        service.trace.clear()
        reaped = admin.status(contact)
        assert reaped.ok and reaped.state is GramJobState.DONE
        context = reaped.decision_context
        assert context is not None
        assert context.effect is Effect.PERMIT
        assert (context.requester, context.action) == (ADMIN, "information")
        assert context.source_names == live.decision_context.source_names
        if grants:
            # The live request minted a grant; the reaped job's
            # identical request is served from it.
            assert context.cache_status == "capability"
            assert context.capability == live.decision_context.capability
        assert service.trace.edges() == (
            ("client", "gatekeeper"),
            ("gatekeeper", "pep"),
        )

    def test_information_returns_final_state_and_owner(self):
        _, owner, _, _, contact = self.make()
        response = owner.status(contact)
        assert response.ok
        assert response.state is GramJobState.DONE
        assert response.job_owner == OWNER

    def test_admin_authorized_by_policy_after_reap(self):
        _, _, _, admin, contact = self.make()
        response = admin.status(contact)
        assert response.ok
        assert response.state is GramJobState.DONE
        assert response.job_owner == OWNER

    def test_unauthorized_requester_denied_after_reap(self):
        _, _, other, _, contact = self.make()
        response = other.status(contact)
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        assert response.reasons

    def test_legacy_owner_rule_applies_after_reap(self):
        _, owner, other, _, contact = self.make(mode=AuthorizationMode.LEGACY)
        assert owner.status(contact).ok
        response = other.status(contact)
        assert response.code is GramErrorCode.NOT_JOB_OWNER

    def test_cancel_after_completion_is_idempotent_success(self):
        _, owner, _, _, contact = self.make()
        response = owner.cancel(contact)
        assert response.ok
        assert response.state is GramJobState.DONE

    def test_signal_after_completion_reports_no_such_job(self):
        service, owner, _, _, contact = self.make(mode=AuthorizationMode.LEGACY)
        for action, value in (("signal", 5), ("suspend", None), ("resume", None)):
            response = service.gatekeeper.manage(
                owner.credential, contact, action, value=value
            )
            assert response.code is GramErrorCode.NO_SUCH_JOB
            assert "already finished" in response.message

    def test_untrusted_credential_rejected_after_reap(self):
        service, _, _, _, contact = self.make()
        rogue = CertificateAuthority("/O=Rogue/CN=CA", now=0.0)
        response = service.gatekeeper.manage(
            rogue.issue(OWNER, now=0.0), contact, "information"
        )
        assert response.code is GramErrorCode.AUTHENTICATION_FAILED

    def test_unknown_contact_still_no_such_job(self):
        service, owner, _, _, contact = self.make()
        from repro.gram.protocol import JobContact

        response = owner.status(JobContact(host=contact.host, job_id="999999"))
        assert response.code is GramErrorCode.NO_SUCH_JOB


class TestAdmissionControl:
    def test_per_user_cap_returns_resource_busy(self):
        service = build(max_jobs_per_user=2)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        assert client.submit(RSL).ok
        assert client.submit(RSL).ok
        third = client.submit(RSL)
        assert third.code is GramErrorCode.RESOURCE_BUSY
        assert "in flight" in third.message
        assert service.gatekeeper.admission.rejected_user == 1

    def test_cap_is_per_user_not_global(self):
        service = build(max_jobs_per_user=1)
        a = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        b = GramClient(service.add_user(OTHER, "other"), service.gatekeeper)
        assert a.submit(RSL).ok
        assert b.submit(RSL).ok
        assert a.submit(RSL).code is GramErrorCode.RESOURCE_BUSY

    def test_global_ceiling_returns_resource_busy(self):
        service = build(max_active_jmis=2)
        a = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        b = GramClient(service.add_user(OTHER, "other"), service.gatekeeper)
        assert a.submit(RSL).ok
        assert b.submit(RSL).ok
        response = a.submit(RSL)
        assert response.code is GramErrorCode.RESOURCE_BUSY
        assert "capacity" in response.message
        assert service.gatekeeper.admission.rejected_global == 1

    def test_slot_released_when_job_terminates(self):
        service = build(max_jobs_per_user=1)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        first = client.submit(RSL)
        assert first.ok
        assert client.submit(RSL).code is GramErrorCode.RESOURCE_BUSY
        service.run(10.0)  # first job completes and is reaped
        assert client.submit(RSL).ok

    def test_slot_released_on_cancel(self):
        service = build(max_jobs_per_user=1)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        first = client.submit(RSL)
        assert client.cancel(first.contact).ok
        assert client.submit(RSL).ok

    def test_slot_released_when_start_raises(self, monkeypatch):
        """An exception escaping the JMI's start gives the in-flight
        slot back before it reaches the caller."""
        service = build(max_jobs_per_user=1)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        scheduler = service.gatekeeper.scheduler
        submit = scheduler.submit
        failures = [RuntimeError("LRM connection lost")]

        def submit_failing_once(job):
            if failures:
                raise failures.pop()
            return submit(job)

        monkeypatch.setattr(scheduler, "submit", submit_failing_once)
        with pytest.raises(RuntimeError, match="LRM connection lost"):
            client.submit(RSL)
        assert service.gatekeeper.admission.in_flight(OWNER) == 0
        service.run(100.0)
        assert client.submit(RSL).ok

    def test_admission_metrics_exported(self):
        service = build(max_jobs_per_user=1)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        assert client.submit(RSL).ok
        client.submit(RSL)
        registry = service.telemetry.registry
        assert registry.value("gram_admission_rejected_total", scope="user") == 1.0
        assert registry.value("gram_admission_active_jmis") == 1.0
        service.run(10.0)
        assert registry.value("gram_admission_active_jmis") == 0.0
        assert registry.value("gram_lifecycle_reaped_total") == 1.0
        assert registry.value("gram_lifecycle_completed_records") == 1.0

    def test_tracked_identities_stay_bounded(self):
        service = build(max_jobs_per_user=4)
        clients = [
            GramClient(
                service.add_user(f"/O=Grid/OU=lifecycle/CN=U{i}", f"u{i}"),
                service.gatekeeper,
            )
            for i in range(5)
        ]
        for client in clients:
            assert client.submit(RSL).ok
        assert service.gatekeeper.admission.tracked_identities == 5
        service.run(10.0)
        # In-flight map holds only identities with live jobs.
        assert service.gatekeeper.admission.tracked_identities == 0


class TestCompletedJobStoreUnit:
    def test_zero_retention_keeps_nothing(self):
        store = CompletedJobStore(retention=0)
        assert len(store) == 0

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            CompletedJobStore(retention=-1)

    def test_negative_retention_age_rejected(self):
        from repro.sim.clock import Clock

        with pytest.raises(ValueError):
            CompletedJobStore(retention_age=-1.0, clock=Clock())

    def test_retention_age_requires_clock(self):
        with pytest.raises(ValueError):
            CompletedJobStore(retention_age=60.0)


class TestAgeRetention:
    def test_aged_records_evicted_with_reason(self):
        service = build(completed_retention_age=30.0)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        first = client.submit(RSL)
        service.run(10.0)  # first completes at t=10
        assert service.gatekeeper.completed_jobs == 1
        service.run(35.0)  # t=45: first's record is 35s old
        second = client.submit(RSL)
        service.run(10.0)  # second's reap triggers the age sweep
        store = service.gatekeeper.completed
        assert store.get(first.contact.job_id) is None
        assert store.get(second.contact.job_id) is not None
        assert store.evicted_by_reason == {"count": 0, "age": 1}
        assert store.evicted == 1

    def test_aged_record_answers_no_such_job_on_lookup(self):
        # Lazy expiry: no later reap is needed for lookups to see it.
        service = build(completed_retention_age=30.0)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        response = client.submit(RSL)
        service.run(10.0)
        assert client.status(response.contact).ok
        service.run(60.0)
        stale = client.status(response.contact)
        assert stale.code is GramErrorCode.NO_SUCH_JOB
        assert service.gatekeeper.completed.evicted_by_reason["age"] == 1

    def test_count_and_age_evictions_counted_separately(self):
        service = build(completed_retention=1, completed_retention_age=30.0)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        for _ in range(2):  # second reap count-evicts the first record
            client.submit(RSL)
            service.run(10.0)
        service.run(60.0)  # and the survivor ages out
        store = service.gatekeeper.completed
        assert store.expire() == 1
        assert store.evicted_by_reason == {"count": 1, "age": 1}
        assert store.evicted == 2

    def test_eviction_gauge_labeled_by_reason(self):
        service = build(completed_retention=1, completed_retention_age=None)
        client = GramClient(service.add_user(OWNER, "owner"), service.gatekeeper)
        for _ in range(2):
            client.submit(RSL)
            service.run(10.0)
        registry = service.telemetry.registry
        assert registry.value(
            "gram_lifecycle_evicted_records", reason="count"
        ) == 1.0
        assert registry.value(
            "gram_lifecycle_evicted_records", reason="age"
        ) == 0.0
