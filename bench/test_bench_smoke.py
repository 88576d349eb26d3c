"""Smoke test of the benchmark itself, at ~300 timed ops per workload.

Outside the tier-1 ``testpaths``; run it from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_smoke.py -q
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from bench import trace  # noqa: E402
from bench.driver import deploy, run_pass  # noqa: E402
from bench.workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_OPS = 300


def _run(workload: str, trace_flag: int, seed: int = 3):
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload, "--seed", str(seed),
         "--ops", str(SMOKE_OPS), "--trace", str(trace_flag)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace_flag", [0, 1])
def test_run_matches_reference_and_prints_every_metric(workload, trace_flag):
    printed, result = _run(workload, trace_flag)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMOKE_OPS
    assert "# fail_frac 0.0 fraction" in printed
    expected = SPEC["per_layer"] if trace_flag else SPEC["end_to_end"]
    rows = {line.split()[0]: line.split() for line in printed if not line.startswith("#")}
    for metric in expected:
        row = rows.get(metric["name"])
        assert row is not None, f"{metric['name']} not printed"
        assert row[2] == metric["unit"]
        float(row[1])
    assert set(result["metrics"]) == {metric["name"] for metric in expected}


def test_same_seed_same_stream_other_seed_other_stream():
    for workload in WORKLOADS.values():
        first = generate(workload, 11, SMOKE_OPS)[1].digest
        assert generate(workload, 11, SMOKE_OPS)[1].digest == first
        assert generate(workload, 12, SMOKE_OPS)[1].digest != first


def test_trace_restores_every_patched_attribute():
    before = trace.target_objects()
    workload = WORKLOADS["nfc_mixed"]
    population, stream = generate(workload, 5, SMOKE_OPS)
    deployment = deploy(workload, population)
    with trace.Ledger() as ledger:
        during = trace.target_objects()
        assert all(during[key] is not before[key] for key in before)
        run_pass(deployment, workload, population, stream, ledger=ledger)
    after = trace.target_objects()
    assert all(after[key] is before[key] for key in before)
    assert ledger._collection not in gc.callbacks
    assert ledger.by_function(("submit",))["gram.gatekeeper.Gatekeeper.submit"][0] > 0
