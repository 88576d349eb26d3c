"""CLI coverage: `repro obs --format/--family` and `repro health`."""

import json

import pytest

from repro.cli import main
from repro.obs.health import HealthEngine, SloSpec
from repro.obs.recorder import FlightDump
from repro.obs.registry import MetricsRegistry
from repro.obs.windows import WindowedAggregator


@pytest.fixture
def metrics_path(tmp_path):
    registry = MetricsRegistry()
    registry.count("authz_decisions_total", decision="permit", action="start")
    registry.count("authz_decisions_total", decision="deny", action="start")
    for value in (0.01, 0.2, 0.9):
        registry.observe("authz_latency_seconds", value)
    path = tmp_path / "metrics.jsonl"
    path.write_text(registry.to_jsonl() + "\n")
    return path


def build_report(bad=0, good=10):
    spec = SloSpec(
        name="avail",
        kind="ratio",
        objective=0.9,
        bad_metric="bad_total",
        total_metric="all_total",
        fast_windows=1,
        slow_windows=1,
    )
    registry = MetricsRegistry()
    engine = HealthEngine([spec])
    engine.add_scope(
        "svc", WindowedAggregator(registry.snapshot, window=1.0)
    )
    if bad:
        registry.count("bad_total", amount=bad)
    registry.count("all_total", amount=bad + good)
    engine.scopes["svc"].tick(1.0)
    return engine.evaluate(1.0)


class TestObsFormats:
    def test_table_format(self, metrics_path, capsys):
        assert main(["obs", str(metrics_path), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "authz_decisions_total" in out
        assert "sum=2" in out
        assert "n=3" in out and "p99=" in out

    def test_prometheus_format(self, metrics_path, capsys):
        assert main(["obs", str(metrics_path), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE authz_decisions_total counter" in out
        assert 'decision="permit"' in out

    def test_jsonl_format(self, metrics_path, capsys):
        assert main(["obs", str(metrics_path), "--format", "jsonl"]) == 0
        out = capsys.readouterr().out.strip()
        names = {json.loads(line)["name"] for line in out.splitlines()}
        assert "authz_latency_seconds" in names

    def test_family_filter(self, metrics_path, capsys):
        assert (
            main(
                [
                    "obs",
                    str(metrics_path),
                    "--format",
                    "prometheus",
                    "--family",
                    "authz_latency_seconds",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "authz_latency_seconds" in out
        assert "authz_decisions_total" not in out

    def test_missing_family_fails_helpfully(self, metrics_path, capsys):
        assert main(["obs", str(metrics_path), "--family", "nope"]) == 1
        err = capsys.readouterr().err
        assert "no metric family 'nope'" in err
        assert "available: authz_decisions_total, authz_latency_seconds" in err

    def test_family_alone_renders_jsonl(self, metrics_path, capsys):
        assert (
            main(["obs", str(metrics_path), "--family", "authz_latency_seconds"])
            == 0
        )
        out = capsys.readouterr().out.strip()
        names = {json.loads(line)["name"] for line in out.splitlines()}
        assert names == {"authz_latency_seconds"}

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", str(missing), "--format", "table"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestHealthCommand:
    def test_renders_a_healthy_report_and_exits_0(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(build_report().to_dict()))
        assert main(["health", str(path)]) == 0
        out = capsys.readouterr().out
        assert "health @ t=1.0" in out
        assert "svc" in out and "healthy" in out

    def test_unhealthy_report_exits_1(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(build_report(bad=5, good=5).to_dict()))
        assert main(["health", str(path)]) == 1
        out = capsys.readouterr().out
        assert "degraded" in out

    def test_json_reemission_roundtrips(self, tmp_path, capsys):
        report = build_report()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report.to_dict()))
        assert main(["health", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == report.to_dict()

    def test_alerts_only_view(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(build_report().to_dict()))
        assert main(["health", str(path), "--alerts"]) == 0
        assert capsys.readouterr().out.strip() == "no alerts"
        path.write_text(json.dumps(build_report(bad=5, good=5).to_dict()))
        assert main(["health", str(path), "--alerts"]) == 1
        out = capsys.readouterr().out
        assert "svc: avail" in out and "burn=" in out

    def test_renders_a_flight_dump(self, tmp_path, capsys):
        dump = FlightDump(
            {"target": "lbnl", "severity": "critical", "spec": "avail",
             "burn": 5.0, "error_rate": 0.5},
            [{"at": 1.0, "scope": "lbnl", "request_id": "req-000001",
              "name": "gatekeeper.submit", "code": "X", "status": "ok"}],
            [],
            frozen_at=4.0,
        )
        path = tmp_path / "dump.jsonl"
        dump.export(str(path))
        assert main(["health", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight dump @ t=4.0" in out
        assert "req-000001" in out

    def test_dump_json_reemission(self, tmp_path, capsys):
        dump = FlightDump(
            {"target": "lbnl", "severity": "critical"}, [], [], frozen_at=4.0
        )
        path = tmp_path / "dump.jsonl"
        dump.export(str(path))
        assert main(["health", str(path), "--json"]) == 0
        assert capsys.readouterr().out == dump.to_jsonl()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_report_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        assert main(["health", str(path)]) == 2
        assert "not a health report" in capsys.readouterr().err

    def test_garbage_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all\n")
        assert main(["health", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
