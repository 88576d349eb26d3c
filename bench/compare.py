"""Compare benchmark results of two commits, or summarise one set.

    python -m bench.compare BASE CHANGE        # verdict per metric and workload
    python -m bench.compare --summary RESULTS [--out FILE]
    python -m bench.compare --ledger TRACED_RESULT...

BASE, CHANGE and RESULTS are result files written by ``bench.run``
(``bench/results/*.json``) or directories holding them.  Runs are
paired by seed when both sides ran the same seeds, else in order.

For every metric and workload the comparison prints each side's
median and quartiles and the change's win share over the pairs, then
a verdict under the rule of the choosing-metrics guide (§8):

* ``improved``   — the change wins at least 9 of 10 pairs and the
  medians differ by more than the parent's own quartile spread;
* ``unresolved`` — the parent's spread is wider than the metric's
  bound, and not every change run beats every parent run;
* ``regressed``  — the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``  — otherwise.

``--ledger`` prints, for each traced result, where one op of each kind
spends its time at reference host speed: every traced function's self
time per op, largest first, and the remainder no span covers.

Bounds and directions come from ``BENCHMARK.json``; metrics without a
bound (the per-layer ledger) get medians and win shares only.  The
exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``{(workload, trace): {seed: {metric: value}}}``
Runs = Dict[Tuple[str, int], Dict[int, Dict[str, float]]]


def records(paths: List[str]) -> Iterator[dict]:
    """Every run record in *paths* (result files or directories of them)."""
    for path in paths:
        files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
        for file in files:
            record = json.loads(file.read_text(encoding="utf-8"))
            if "metrics" in record and "workload" in record:
                yield record


def load(paths: List[str]) -> Runs:
    runs: Runs = {}
    for record in records(paths):
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = {
            name: metric["value"]
            for name, metric in record["metrics"].items()
            if metric["value"] is not None
        }
    return runs


def bounds() -> Dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: List[float], change: List[float], pairs: List[Tuple[float, float]], spec: Optional[dict]
) -> Tuple[str, float]:
    """The §8 verdict and the change's win share over *pairs*."""
    sign = -1.0 if spec is not None and spec.get("better") == "lower" else 1.0
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if spec is None or "bound" not in spec:
        return "-", share
    low, mid, high = quartiles(base)
    gain = sign * (statistics.median(change) - mid)
    allowed = spec["bound"] * abs(mid)
    if share >= 0.9 and gain > high - low:
        return "improved", share
    if high - low > allowed and not all(sign * (new - old) > 0 for old in base for new in change):
        return "unresolved", share
    if -gain > allowed:
        return "regressed", share
    return "unchanged", share


def compare(base: Runs, change: Runs) -> int:
    specs = bounds()
    rows = []
    for key in sorted(set(base) & set(change)):
        old_runs, new_runs = base[key], change[key]
        common = sorted(set(old_runs) & set(new_runs))
        if common:
            paired = [(old_runs[s], new_runs[s]) for s in common]
        else:
            paired = list(zip((old_runs[s] for s in sorted(old_runs)),
                              (new_runs[s] for s in sorted(new_runs))))
        runs = (*old_runs.values(), *new_runs.values())
        for metric in sorted(set.intersection(*(set(run) for run in runs))):
            old = [run[metric] for run in old_runs.values()]
            new = [run[metric] for run in new_runs.values()]
            pairs = [(a[metric], b[metric]) for a, b in paired]
            result, share = verdict(old, new, pairs, specs.get(metric))
            o1, om, o3 = quartiles(old)
            n1, nm, n3 = quartiles(new)
            rows.append((key[0], metric, f"{om:.4g} [{o1:.4g}, {o3:.4g}]",
                         f"{nm:.4g} [{n1:.4g}, {n3:.4g}]", f"{share:.2f}", result))
    header = ("workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
    widths = [max(len(row[i]) for row in (header, *rows)) for i in range(len(header))]
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


def _commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def summary(paths: List[str]) -> dict:
    """Medians and quartiles per workload and metric, with provenance."""
    out: dict = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    sizes = {
        (record["workload"], record["trace"]): {
            key: record[key] for key in ("seconds", "timed_ops", "stream_ops", "samples")
        }
        for record in records(paths)
    }
    for (workload, trace), by_seed in sorted(load(paths).items()):
        metrics = {}
        for metric in sorted(set.intersection(*(set(run) for run in by_seed.values()))):
            values = [by_seed[seed][metric] for seed in sorted(by_seed)]
            q1, median, q3 = quartiles(values)
            metrics[metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else None,
                "values": values,
            }
        out["workloads"].setdefault(workload, {})["trace" if trace else "end_to_end"] = {
            "seeds": sorted(by_seed),
            **sizes[(workload, trace)],
            "metrics": metrics,
        }
    return out


def ledger(paths: List[str]) -> None:
    """Per op kind: self time per op of every traced function."""
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        if "ledger" not in record:
            continue
        speed = record["traced_speed"]
        print(f"== {record['workload']} seed {record['seed']} (host speed factor {speed:.2f})")
        for kind, (count, total_ns) in record["traced_kinds"].items():
            if not count:
                continue
            wall = total_ns / count / 1e3 / speed
            rows = sorted(
                (
                    (values[2] / count / 1e3 / speed, name.split("|", 1)[1])
                    for name, values in record["ledger"].items()
                    if name.startswith(kind + "|")
                ),
                reverse=True,
            )
            print(f"{kind}: {count} ops, {wall:.1f} us per op")
            for self_us, function in rows:
                print(f"  {self_us:9.1f} us {100 * self_us / wall:5.1f}%  {function}")
            rest = wall - sum(self_us for self_us, _ in rows)
            print(f"  {rest:9.1f} us {100 * rest / wall:5.1f}%  (no span: client library, driver)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="BASE CHANGE, or the result set to summarise")
    parser.add_argument("--summary", action="store_true", help="summarise one result set")
    parser.add_argument("--out", help="write the summary here instead of stdout")
    parser.add_argument("--ledger", action="store_true", help="per-kind time ledger of traced results")
    args = parser.parse_args(argv)
    if args.ledger:
        ledger(args.paths)
        return 0
    if args.summary:
        text = json.dumps(summary(args.paths), indent=1, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 0
    if len(args.paths) != 2:
        parser.error("give exactly two result sets: BASE CHANGE")
    return compare(load([args.paths[0]]), load([args.paths[1]]))


if __name__ == "__main__":
    sys.exit(main())
