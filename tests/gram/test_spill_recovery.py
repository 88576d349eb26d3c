"""Completed-job spill: durability, crash recovery, restart differential."""

import json

import pytest

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.lifecycle import CompletedJobRecord, CompletedJobStore
from repro.gram.protocol import GramErrorCode, GramJobState, JobContact
from repro.gram.spill import (
    CompletedJobSpill,
    record_from_wire,
    record_to_wire,
)
from repro.gram.service import GramService, ServiceConfig
from repro.gsi.credentials import CertificateAuthority
from repro.gsi.names import DistinguishedName
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock
from repro.workloads.recovery import (
    RecoveryDifferentialConfig,
    normalized_wire,
    run_recovery_differential,
    run_torn_tail_differential,
)

ORG = "/O=Grid/OU=spill.example.org"
ALICE = f"{ORG}/CN=Alice"
BOB = f"{ORG}/CN=Bob"

POLICY = f"""
{ORG}:
    &(action=start)(executable=sim)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobtag=SPILL)
"""

RSL = "&(executable=sim)(count=1)(runtime=5)(jobtag=SPILL)"

#: An insert line as spill files written before capability grants lost
#: their token envelope carry it: Alice's completed job "1", with the
#: signed start token in a ``capability`` object.
PARENT_SPILL_LINE = (
    '{"account": "alice", "capability": {"actions": ["start"], "epochs": '
    '[["callouts", "(1, (0,))"], ["gridmap", "1"]], "expires_at": 300.0, '
    '"issued_at": 0.0, "jobowner": "/O=Grid/OU=spill.example.org/CN=Alice", '
    '"jobtag": "SPILL", "signature": '
    '"96a4048fe3061903153bca1e7a0fd1d71273e3ded08f90695493c4aa9a4504b5", '
    '"spec_digest": '
    '"1d89a9ab8f96287f32e241f7877b9d386ce7b7620cda616a7e71e6dc8c41113c", '
    '"subject": "/O=Grid/OU=spill.example.org/CN=Alice", "token_id": "cap-1"}, '
    '"exit_reason": "completed", "finished_at": 5.0, "host": "spill.example.org", '
    '"job_id": "1", "kind": "insert", "owner": "/O=Grid/OU=spill.example.org/CN=Alice", '
    '"spec": "&(executable=sim)(count=1)(runtime=5)(jobtag=SPILL)", "state": "done"}'
)


def without_capability(line):
    """*line* with its ``capability`` object removed."""
    data = json.loads(line)
    del data["capability"]
    return json.dumps(data, sort_keys=True)


def make_record(job_id="1", finished_at=10.0):
    return CompletedJobRecord(
        contact=JobContact(host="spill.example.org", job_id=job_id),
        owner=DistinguishedName.parse(ALICE),
        state=GramJobState.DONE,
        exit_reason="completed",
        finished_at=finished_at,
        account="alice",
        spec=parse_specification(RSL),
    )


class TestWireRoundTrip:
    def test_record_round_trips(self):
        record = make_record()
        again = record_from_wire(record_to_wire(record))
        assert again.job_id == record.job_id
        assert str(again.owner) == str(record.owner)
        assert again.state is record.state
        assert again.finished_at == record.finished_at
        assert str(again.spec) == str(record.spec)

    def test_older_capability_object_is_ignored(self):
        older = record_from_wire(json.loads(PARENT_SPILL_LINE))
        plain = record_from_wire(json.loads(without_capability(PARENT_SPILL_LINE)))
        assert older == plain
        assert "capability" not in record_to_wire(older)


class TestSpillReplay:
    def test_missing_file_recovers_empty(self, tmp_path):
        spill = CompletedJobSpill(str(tmp_path / "never-written.jsonl"))
        result = spill.recover()
        assert result.records == []
        assert result.skipped_lines == 0

    def test_inserts_replay_in_completion_order(self, tmp_path):
        spill = CompletedJobSpill(str(tmp_path / "s.jsonl"))
        spill.append_insert(make_record("7", finished_at=30.0))
        spill.append_insert(make_record("3", finished_at=10.0))
        result = spill.recover()
        assert [r.job_id for r in result.records] == ["3", "7"]
        assert result.last_at == 30.0

    def test_tombstones_drop_records(self, tmp_path):
        spill = CompletedJobSpill(str(tmp_path / "s.jsonl"))
        spill.append_insert(make_record("1", finished_at=10.0))
        spill.append_insert(make_record("2", finished_at=20.0))
        spill.append_evict("1", "count", at=25.0)
        result = spill.recover()
        assert [r.job_id for r in result.records] == ["2"]
        assert result.evicted == 1
        assert result.last_at == 25.0

    def test_crash_mid_append_skips_truncated_tail(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        spill = CompletedJobSpill(path)
        spill.append_insert(make_record("1", finished_at=10.0))
        spill.append_insert(make_record("2", finished_at=20.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "insert", "job_id": "3", "own')  # crash

        result = CompletedJobSpill(path).recover()
        assert [r.job_id for r in result.records] == ["1", "2"]
        assert result.skipped_lines == 1
        assert result.replayed_lines == 2

    def test_append_after_a_torn_tail_survives_recovery(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        spill = CompletedJobSpill(path)
        spill.append_insert(make_record("1", finished_at=10.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "insert", "job_id": "2", "own')  # crash

        restarted = CompletedJobSpill(path)
        assert restarted.recover().skipped_lines == 1
        restarted.append_insert(make_record("3", finished_at=30.0))

        # The torn line stays skipped; the record written after it is
        # not glued onto it.
        result = CompletedJobSpill(path).recover()
        assert [r.job_id for r in result.records] == ["1", "3"]
        assert result.skipped_lines == 1

    def test_record_missing_only_its_newline_still_replays(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        CompletedJobSpill(path).append_insert(make_record("1", finished_at=10.0))
        with open(path, "rb+") as handle:
            handle.truncate(handle.seek(0, 2) - 1)  # drop the "\n"

        restarted = CompletedJobSpill(path)
        assert [r.job_id for r in restarted.recover().records] == ["1"]
        restarted.append_insert(make_record("2", finished_at=20.0))
        result = CompletedJobSpill(path).recover()
        assert [r.job_id for r in result.records] == ["1", "2"]
        assert result.skipped_lines == 0

    def test_garbled_middle_line_skipped_rest_survives(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        spill = CompletedJobSpill(path)
        spill.append_insert(make_record("1", finished_at=10.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\x00\x01 not json at all\n")
            handle.write('{"kind": "wat", "job_id": "9"}\n')
        spill.append_insert(make_record("2", finished_at=20.0))

        result = CompletedJobSpill(path).recover()
        assert [r.job_id for r in result.records] == ["1", "2"]
        assert result.skipped_lines == 2


class TestCompaction:
    def test_below_min_lines_never_compacts(self, tmp_path):
        spill = CompletedJobSpill(
            str(tmp_path / "s.jsonl"), compact_min_lines=10
        )
        for index in range(4):
            spill.append_insert(make_record(str(index)))
            spill.append_evict(str(index), "count", at=1.0)
        assert spill.lines == 8
        assert not spill.should_compact(0)

    def test_tombstone_dominance_triggers_compaction(self, tmp_path):
        spill = CompletedJobSpill(
            str(tmp_path / "s.jsonl"), compact_min_lines=4, compact_ratio=2.0
        )
        for index in range(6):
            spill.append_insert(make_record(str(index), finished_at=index))
            if index < 5:
                spill.append_evict(str(index), "count", at=float(index))
        live = [make_record("5", finished_at=5.0)]
        assert spill.should_compact(len(live))
        dropped = spill.compact(live)
        assert dropped == 10
        assert spill.lines == 1
        assert spill.compactions == 1

        result = spill.recover()
        assert [r.job_id for r in result.records] == ["5"]

    def test_store_compacts_through_eviction_churn(self, tmp_path):
        clock = Clock()
        spill = CompletedJobSpill(
            str(tmp_path / "s.jsonl"), compact_min_lines=8, compact_ratio=2.0
        )
        store = CompletedJobStore(retention=2, clock=clock, spill=spill)
        for index in range(20):
            store.add(make_record(str(index), finished_at=float(index)))
        assert spill.compactions >= 1
        result = CompletedJobSpill(spill.path).recover()
        assert len(result.records) == 2

    def test_invalid_ratio_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CompletedJobSpill(str(tmp_path / "s.jsonl"), compact_ratio=0.5)


def build_service(spill_path, ca, **overrides):
    defaults = dict(
        host="spill.example.org",
        policies=(parse_policy(POLICY, name="vo"),),
        capability_grants=True,
        spill_path=spill_path,
    )
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults), ca=ca)


class TestServiceRestart:
    def test_restart_recovers_completed_records(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        ca = CertificateAuthority("/O=Grid/CN=Spill CA")
        service = build_service(path, ca)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        service.run(30.0)  # complete + reap
        assert service.gatekeeper.completed.get(contact.job_id) is not None

        revived = build_service(path, ca)
        assert revived.recovery is not None
        assert len(revived.recovery.records) == 1
        record = revived.gatekeeper.completed.get(contact.job_id)
        assert record is not None
        assert record.state is GramJobState.DONE

    def test_restart_restores_the_clock(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        ca = CertificateAuthority("/O=Grid/CN=Spill CA")
        service = build_service(path, ca)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        alice.submit(RSL)
        service.run(30.0)
        finished_at = service.gatekeeper.completed.live_records()[0].finished_at

        revived = build_service(path, ca)
        assert revived.clock.now == finished_at

    def test_recovered_service_answers_post_reap_requests(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        ca = CertificateAuthority("/O=Grid/CN=Spill CA")
        service = build_service(path, ca)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        bob = GramClient(service.add_user(BOB, "bob"), service.gatekeeper)
        contact = alice.submit(RSL).contact
        service.run(30.0)

        revived = build_service(path, ca)
        revived.add_user(ALICE, "alice")
        revived.add_user(BOB, "bob")
        status = revived.gatekeeper.manage(
            alice.credential, contact, "information"
        )
        assert status.code is GramErrorCode.SUCCESS
        assert status.state is GramJobState.DONE
        # Peer information is granted by jobtag; peer cancel is not.
        assert (
            revived.gatekeeper.manage(
                bob.credential, contact, "information"
            ).code
            is GramErrorCode.SUCCESS
        )
        assert (
            revived.gatekeeper.manage(bob.credential, contact, "cancel").code
            is GramErrorCode.AUTHORIZATION_DENIED
        )

    def test_older_spill_line_recovers_and_serves_alike(self, tmp_path):
        """A line written with its ``capability`` object recovers and
        answers post-reap requests exactly like the same line without."""
        ca = CertificateAuthority("/O=Grid/CN=Spill CA")
        contact = JobContact(host="spill.example.org", job_id="1")
        answers = []
        for name, line in (
            ("older.jsonl", PARENT_SPILL_LINE),
            ("plain.jsonl", without_capability(PARENT_SPILL_LINE)),
        ):
            path = tmp_path / name
            path.write_text(line + "\n", encoding="utf-8")
            revived = build_service(str(path), ca)
            assert revived.recovery.skipped_lines == 0
            assert len(revived.recovery.records) == 1
            alice = revived.add_user(ALICE, "alice")
            bob = revived.add_user(BOB, "bob")
            answers.append(
                [
                    normalized_wire(
                        revived.gatekeeper.manage(credential, contact, action)
                    )
                    for credential in (alice, bob)
                    for action in ("information", "information", "cancel")
                ]
            )
        older, plain = answers
        assert older == plain
        codes = [answer["code"] for answer in older]
        assert codes.count("SUCCESS") == 5
        assert codes.count("AUTHORIZATION_DENIED") == 1

    def test_recovery_metrics_counted(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        ca = CertificateAuthority("/O=Grid/CN=Spill CA")
        service = build_service(path, ca)
        alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        alice.submit(RSL)
        service.run(30.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{garbled")  # crash tail

        revived = build_service(path, ca)
        registry = revived.telemetry.registry
        assert registry.value("gram_recovery_records_total") == 1.0
        assert registry.value("gram_recovery_skipped_lines_total") == 1.0
        assert revived.recovery.skipped_lines == 1


class TestRecoveryDifferential:
    """The acceptance gate: recovered answers ≥10k requests identically."""

    def test_flat_differential_zero_divergences(self, tmp_path):
        stats = run_recovery_differential(
            RecoveryDifferentialConfig(
                spill_path=str(tmp_path / "flat.jsonl"),
                jobs=48,
                requests=10_000,
            )
        )
        assert stats.completed == 48
        assert stats.recovered_records == 48
        assert stats.requests == 10_000
        assert stats.divergences == 0, stats.examples

    def test_differential_survives_a_crash_tail(self, tmp_path):
        path = str(tmp_path / "crashed.jsonl")
        config = RecoveryDifferentialConfig(
            spill_path=path, jobs=12, requests=1_000
        )
        # Populate once to learn the file, then garble its tail the
        # way a mid-append crash would.
        stats = run_recovery_differential(config)
        assert stats.skipped_lines == 0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "insert", "job_')
        spill = CompletedJobSpill(path)
        result = spill.recover()
        assert result.skipped_lines == 1
        assert len(result.records) == 12

    def test_torn_tail_restart_loses_nothing_written_after(self, tmp_path):
        stats = run_torn_tail_differential(
            RecoveryDifferentialConfig(
                spill_path=str(tmp_path / "torn.jsonl"),
                jobs=12,
                requests=2_000,
            )
        )
        # Each restart skips the torn line once; nothing else is lost.
        assert stats.skipped_lines == 2
        assert stats.completed == 24
        assert stats.recovered_records == 24
        assert stats.requests == 2_000
        assert stats.divergences == 0, stats.examples
