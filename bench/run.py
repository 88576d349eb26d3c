"""Run the GRAM operation ledger benchmark.

    python -m bench.run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]

from the repository root.  With ``--workload`` one workload runs in
this process; without it every workload runs, each in a fresh
process.  Every metric is printed as ``name value unit``; the last
line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file per run is
written under ``bench/results/``.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced
runs (``--trace 1``) report the per-layer ledger.  Each run checks
every answer against a replay of the same stream through a reference
service with the repeat and fast-deny paths off.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
# The benchmark runs the program from its source tree.
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT)) if path not in sys.path]

from bench.driver import deploy, mismatches, percentile, run_pass  # noqa: E402
from bench.speed import probe  # noqa: E402
from bench.trace import PREFIXES, Ledger  # noqa: E402
from bench.workloads import PUBLISH, USER_KINDS, WORKLOADS, generate  # noqa: E402

#: Set-up is timed in three batches spread over the run (before the
#: timed pass, after it, after the reference replay), because the
#: host's speed drifts and one batch would time one moment of it.
#: A batch is at least ``SETUP_BATCH[0]`` and at most
#: ``SETUP_BATCH[1]`` set-ups, and about ``SETUP_BATCH_S`` seconds;
#: ``setup_s`` is the median of all of them.
SETUP_BATCH = (3, 100)
SETUP_BATCH_S = 0.1
#: Timed samples every op kind must reach in a full-size run.
MIN_SAMPLES = 1000
#: ``nfc_mixed`` must deny this share of submits (the paper's mix).
NFC_DENY_SHARE = (0.20, 0.40)
#: ``deep_backlog`` must build at least this deep a batch queue.
MIN_BACKLOG = 100

_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
END_TO_END_UNITS = {"throughput_ops_s": "ops/s"}
END_TO_END_UNITS.update({f"{kind}_iqm_us": "us" for kind in USER_KINDS})
END_TO_END_UNITS.update({"setup_s": "s", "rss_peak_mb": "MB"})

#: Metric prefixes of functions only a policy publish reaches; their
#: self time is zero on every workload but ``vo_churn``, so only their
#: call counts are ledger metrics (the times stay in the result file).
PUBLISH_ONLY = (
    "core.store.VersionedPolicyStore.publish",
    "core.parser.parse_policy",
    "core.compiled.compiled_for",
)
RATIO_UNITS = {
    "core.query.fast_deny_frac": "fraction",
    "core.capability.hit_frac": "fraction",
    "core.pipeline.cache_hit_frac": "fraction",
    "core.evaluator.memo_hit_frac": "fraction",
    "gram.lifecycle.completed_hit_frac": "fraction",
    "lrm.scheduler.queue_depth_max": "count",
    "trace.unattributed_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for prefix in PREFIXES:
        units[f"{prefix}.calls"] = "count"
        if prefix not in PUBLISH_ONLY:
            units[f"{prefix}.self_us_per_op"] = "us"
    units.update(RATIO_UNITS)
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _iqm(ordered: List[float]) -> Optional[float]:
    """Interquartile mean of an ascending list: the mean of its middle half."""
    if not ordered:
        return None
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def _latencies(samples: List[float]) -> Dict[str, Optional[float]]:
    """Interquartile mean and percentiles of latency *samples* (ns), in us."""
    ordered = sorted(samples)
    values = {"iqm": _iqm(ordered)}
    values.update({label: percentile(ordered, share) for label, share in _PERCENTILES})
    return {label: None if value is None else value / 1e3 for label, value in values.items()}


def _chunks(result) -> List[Dict[str, Any]]:
    """Every timed chunk: its ops, wall time, host speed factor, and each
    kind's latency samples in ns divided by that factor."""
    chunks = []
    previous_ops, previous_wall = 0, 0
    previous = {kind: 0 for kind in USER_KINDS}
    for (ops, wall, counts), speeds in zip(result.chunk_ends, result.speeds):
        speed = statistics.median(speeds)
        chunk: Dict[str, Any] = {
            "ops": ops - previous_ops,
            "wall_s": (wall - previous_wall) / 1e9,
            "speed": speed,
        }
        for kind in USER_KINDS:
            chunk[kind] = [value / speed for value in result.samples[kind][previous[kind]:counts[kind]]]
        chunks.append(chunk)
        previous_ops, previous_wall, previous = ops, wall, counts
    return chunks


def _pass_speed(result) -> float:
    """Median host speed factor over every probe of a pass."""
    return statistics.median(speed for speeds in result.speeds for speed in speeds)


def _throughput(chunks) -> float:
    """Timed user ops per second of wall time at reference speed."""
    return sum(chunk["ops"] for chunk in chunks) / sum(
        chunk["wall_s"] / chunk["speed"] for chunk in chunks
    )


def _end_to_end(result, chunks, setup_s: float, rss_peak_mb: float):
    """The end-to-end metrics, every latency figure, and raw figures.

    Every time is first divided by the host speed factor of its chunk
    (:mod:`bench.speed`), so each figure reads as on the reference
    host; *raw* holds the undivided whole-phase figures.  A kind's
    latency metric is the interquartile mean of its samples.  Unlike
    the median, it moves smoothly when a kind has several latency
    modes (repeat-path hits, fresh decisions, denials, schedule
    passes) and the median falls between two of them.
    """
    raw: Dict[str, Any] = {"throughput_ops_s": result.timed_ops / (result.wall_ns / 1e9)}
    reported: Dict[str, Any] = {"throughput_ops_s": _throughput(chunks)}
    latencies: Dict[str, Any] = {}
    for kind in USER_KINDS:
        for label, value in _latencies(result.samples[kind]).items():
            raw[f"{kind}_{label}_us"] = value
        normal = [value for chunk in chunks for value in chunk[kind]]
        for label, value in _latencies(normal).items():
            latencies[f"{kind}_{label}_us"] = value
        reported[f"{kind}_iqm_us"] = latencies[f"{kind}_iqm_us"]
    reported["setup_s"] = setup_s
    reported["rss_peak_mb"] = rss_peak_mb
    return reported, latencies, raw


def _set_up(workload, population, times: List[float]):
    """Time one batch of set-ups into *times*; returns the last deployment.

    Each set-up time is divided by the geometric mean of the host speed
    factors probed just before and just after it.  A full collection
    first clears the garbage of the previous pass, which a set-up would
    otherwise pay to collect.
    """
    gc.collect()
    first = len(times)
    while True:
        before = probe()
        deployment = deploy(workload, population)
        times.append(deployment.setup_s / math.sqrt(before * probe()))
        batch = times[first:]
        if len(batch) >= SETUP_BATCH[1] or (
            len(batch) >= SETUP_BATCH[0] and sum(batch) >= SETUP_BATCH_S
        ):
            return deployment


def _ledger_metrics(ledger, traced, untraced_throughput, service) -> Dict[str, float]:
    timed_kinds = (*USER_KINDS, "tick", PUBLISH)
    functions = ledger.by_function(timed_kinds)
    # Self times are divided by the traced pass's host speed factor,
    # like the end-to-end times.
    us_per_op = 1e3 * traced.timed_ops * _pass_speed(traced)
    metrics: Dict[str, float] = {}
    for name in per_layer_units():
        prefix, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = float(functions.get(prefix, [0])[0])
        elif field == "self_us_per_op":
            record = functions.get(prefix, [0, 0, 0, 0])
            metrics[name] = record[2] / us_per_op
    query = service.query_engine
    capability = service.capability
    cache = service.pep.cache
    registry = service.telemetry.registry
    memo = index = 0.0
    for evaluator in service.combined_evaluator.evaluators:
        lookups = "policy_index_lookups_total"
        memo += registry.value(lookups, source=evaluator.source, result="memo")
        index += registry.value(lookups, source=evaluator.source, result="index")
    completed = functions.get("gram.lifecycle.CompletedJobStore.get", [0, 0, 0, 0])
    metrics.update(
        {
            "core.query.fast_deny_frac": _ratio(query.denied, query.checks),
            "core.capability.hit_frac": _ratio(
                capability.hits, capability.hits + capability.misses
            ),
            "core.pipeline.cache_hit_frac": _ratio(cache.hits, cache.hits + cache.misses),
            "core.evaluator.memo_hit_frac": _ratio(memo, memo + index),
            "gram.lifecycle.completed_hit_frac": _ratio(completed[3], completed[0]),
            "lrm.scheduler.queue_depth_max": float(traced.queue_depth_max),
            "trace.unattributed_us_per_op": (
                traced.wall_ns - ledger.root_ns(timed_kinds)
            ) / us_per_op,
            "trace.overhead_ratio": _ratio(untraced_throughput, _throughput(_chunks(traced))),
        }
    )
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: int,
    trace: bool,
    ops: Optional[int] = None,
) -> Dict[str, Any]:
    """One run of one workload; returns the full result record."""
    workload = WORKLOADS[name]
    timed_ops = ops if ops is not None else workload.timed_ops(seconds)
    population, stream = generate(workload, seed, timed_ops)

    setups: List[float] = []
    deployment = _set_up(workload, population, setups)
    gc.collect()
    untraced = run_pass(deployment, workload, population, stream)
    rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chunks = _chunks(untraced)
    del deployment
    deployment = _set_up(workload, population, setups)

    ledger = None
    if trace:
        gc.collect()
        with Ledger() as ledger:
            traced = run_pass(deployment, workload, population, stream, ledger=ledger)
        layers = _ledger_metrics(ledger, traced, _throughput(chunks), deployment.service)
        checked = [untraced, traced]
    else:
        checked = [untraced]
    del deployment

    gc.collect()
    reference = run_pass(
        deploy(workload, population, reference=True), workload, population, stream
    )
    _set_up(workload, population, setups)
    measured, latencies, raw = _end_to_end(
        untraced, chunks, statistics.median(setups), rss_peak_mb
    )
    metrics = layers if trace else measured
    failed = failed_all = 0
    for candidate in checked:
        timed_bad, all_bad = mismatches(candidate, reference, stream.timed_start)
        failed = max(failed, timed_bad)
        failed_all = max(failed_all, all_bad)

    counts = {kind: len(untraced.samples[kind]) for kind in USER_KINDS}
    deny_share = _ratio(untraced.submits_denied, untraced.submits)
    problems = []
    if ops is None:
        problems += [
            f"only {count} timed {kind} samples (< {MIN_SAMPLES})"
            for kind, count in counts.items()
            if count < MIN_SAMPLES
        ]
    if name == "nfc_mixed" and not NFC_DENY_SHARE[0] <= deny_share <= NFC_DENY_SHARE[1]:
        problems.append(f"submit denial share {deny_share:.3f} outside {NFC_DENY_SHARE}")
    if name == "deep_backlog" and untraced.queue_depth_max < MIN_BACKLOG:
        problems.append(
            f"queue depth peaked at {untraced.queue_depth_max} (< {MIN_BACKLOG})"
        )
    if failed_all:
        problems.append(f"{failed_all} ops differ from the reference replay")

    speed = _pass_speed(untraced)
    publish_ms = sorted(value / 1e6 / speed for value in untraced.publish_ns)
    units = per_layer_units() if trace else END_TO_END_UNITS
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "attempted": untraced.timed_ops,
        "failed": failed,
        "problems": problems,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
        "measured": measured,
        "latencies": latencies,
        "raw": raw,
        "chunks": [
            {
                **{key: chunk[key] for key in ("ops", "wall_s", "speed")},
                **{kind: _latencies(chunk[kind]) for kind in USER_KINDS},
            }
            for chunk in chunks
        ],
        "speeds": untraced.speeds,
        "setups_s": setups,
        "samples": counts,
        "timed_ops": untraced.timed_ops,
        "stream_ops": len(stream.ops),
        "stream_digest": stream.digest,
        "submit_deny_share": deny_share,
        "queue_depth_max": untraced.queue_depth_max,
        "fail_frac": _ratio(failed, untraced.timed_ops),
        "publishes": len(publish_ms),
        "publish_p50_ms": percentile(publish_ms, 0.5) if publish_ms else None,
        "wall_s": untraced.wall_ns / 1e9,
        "errors": dict(list(untraced.errors.items())[:10]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if ledger is not None:
        record["ledger"] = {
            f"{kind}|{prefix}": values for (kind, prefix), values in ledger.totals.items()
        }
        record["traced_wall_s"] = traced.wall_ns / 1e9
        record["traced_speed"] = _pass_speed(traced)
        record["traced_kinds"] = {
            kind: [len(values), sum(values)] for kind, values in traced.samples.items()
        }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    if ledger is not None:
        ledger.write_samples(f"{stem}.spans.jsonl")
    return record


def report(record: Dict[str, Any]) -> None:
    """Print every metric as ``name value unit``, then the JSON line."""
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['timed_ops']} timed ops "
          f"in {record['wall_s']:.2f} s")
    for kind, count in record["samples"].items():
        for title, figures in (("reference speed", record["latencies"]), ("raw", record["raw"])):
            values = " ".join(
                f"{label} {figures[f'{kind}_{label}_us']:.1f}"
                for label in ("iqm", *(label for label, _ in _PERCENTILES))
                if figures[f"{kind}_{label}_us"] is not None
            )
            print(f"# {kind}: {count} samples, whole phase, {title} (us): {values}")
    if record["publish_p50_ms"] is not None:
        print(f"# publish_p50_ms {record['publish_p50_ms']:.3f} ms "
              f"({record['publishes']} publishes)")
    print(f"# fail_frac {record['fail_frac']} fraction")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            },
            sort_keys=True,
        )
    )


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=9,
                        help="scales the fixed timed op count (nominal seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--ops", type=int, default=None,
                        help="override the timed op count (smoke runs; skips the sample floor)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
        report(record)
        return 0 if record["correct"] else 1

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench.run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
