"""CLI coverage for `repro.cli obs` and `audit-summary --metrics`."""

import pytest

from repro.cli import main
from repro.core.parser import parse_policy
from repro.gram.audit import export_audit_log
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig

ALICE = "/O=Grid/OU=fi/CN=Alice"
POLICY_TEXT = f"{ALICE}: &(action=start)(executable=sim) &(action=cancel)"


@pytest.fixture
def exports(tmp_path):
    """A small scenario exported to disk: spans, metrics, audit."""
    service = GramService(
        ServiceConfig(
            policies=(
                parse_policy(POLICY_TEXT, name="vo"),
                parse_policy(POLICY_TEXT, name="local"),
            )
        )
    )
    client = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
    submitted = client.submit("&(executable=sim)(count=1)")
    assert submitted.ok
    denied = client.submit("&(executable=rogue)(count=1)")
    assert not denied.ok

    spans = tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.jsonl"
    audit = tmp_path / "audit.jsonl"
    service.telemetry.tracer.export(str(spans))
    metrics.write_text(service.telemetry.registry.to_jsonl() + "\n")
    export_audit_log(service.pep, str(audit))
    return {"spans": spans, "metrics": metrics, "audit": audit}


class TestObsCommand:
    def test_render_named_trace(self, exports, capsys):
        assert main(["obs", str(exports["spans"]), "--trace", "req-000001"]) == 0
        out = capsys.readouterr().out
        assert "trace req-000001" in out
        assert "gatekeeper.submit" in out
        assert "pep.authorize" in out

    def test_summary_lists_traces(self, exports, capsys):
        assert main(["obs", str(exports["spans"]), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "req-000001" in out and "req-000002" in out

    def test_metrics_prometheus(self, exports, capsys):
        assert main(["obs", str(exports["metrics"]), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE authz_decisions_total counter" in out
        assert 'decision="permit"' in out and 'decision="deny"' in out

    def test_metrics_json(self, exports, capsys):
        assert main(["obs", str(exports["metrics"]), "--format", "jsonl"]) == 0
        assert '"authz_decisions_total"' in capsys.readouterr().out

    def test_ambiguous_trace_is_usage_error(self, exports, capsys):
        assert main(["obs", str(exports["spans"])]) == 2
        assert "trace" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope.jsonl"), "--summary"]) == 2


class TestAuditSummaryMetrics:
    def test_reports_source_percentiles(self, exports, capsys):
        assert main(
            [
                "audit-summary",
                str(exports["audit"]),
                "--metrics",
                str(exports["metrics"]),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "decisions" in out
        assert "per-source latency" in out
        assert "vo:" in out and "local:" in out

    def test_audit_entries_join_traces(self, exports):
        from repro.gram.audit import load_audit_log
        from repro.obs import load_spans

        entries = load_audit_log(str(exports["audit"]))
        trace_ids = {item["trace"] for item in load_spans(str(exports["spans"]))}
        assert [entry.request_id for entry in entries] == [
            "req-000001",
            "req-000002",
        ]
        assert {entry.request_id for entry in entries} <= trace_ids

    def test_missing_metrics_file_is_usage_error(self, exports, tmp_path):
        assert main(
            [
                "audit-summary",
                str(exports["audit"]),
                "--metrics",
                str(tmp_path / "nope.jsonl"),
            ]
        ) == 2
