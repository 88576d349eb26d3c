"""Exporters: Prometheus text, JSON lines, and trace-tree rendering.

Everything here operates on *plain exported data* — the snapshot
structure produced by
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` and the span
dicts produced by :meth:`~repro.obs.spans.Span.to_dict` — so the CLI
can re-render exports from disk with no live objects around, and the
golden-output tests pin exact bytes.

Output is deterministic: families sorted by name, series sorted by
label values, spans sorted by span ID, floats formatted through
:func:`repr` (shortest round-trip form).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def _format_value(value: float) -> str:
    """Prometheus-style number: integers bare, +Inf for infinity."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_string(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


# -- metrics -----------------------------------------------------------------


def prometheus_text(snapshot: Sequence[Mapping[str, Any]]) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    lines: List[str] = []
    for family in snapshot:
        name = family["name"]
        kind = family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family.get("series", ()):
            labels = dict(series.get("labels", {}))
            if kind == "histogram":
                for bound, count in series["buckets"]:
                    bucket_label = f'le="{_format_value(bound)}"'
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_string(labels, extra=bucket_label)}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_sum{_label_string(labels)}"
                    f" {_format_value(series['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_string(labels)} {series['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_string(labels)}"
                    f" {_format_value(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_jsonl(snapshot: Sequence[Mapping[str, Any]]) -> str:
    """One metric family per JSON line."""
    return "\n".join(json.dumps(family, sort_keys=True) for family in snapshot)


def load_snapshot(path: str) -> List[Dict[str, Any]]:
    """Read a metrics export: JSONL (one family per line) or a JSON array."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.startswith("["):
        return json.loads(stripped)
    return [
        json.loads(line) for line in stripped.splitlines() if line.strip()
    ]


def diff_snapshots(
    before: Sequence[Mapping[str, Any]], after: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """What changed between two snapshots of the same registry.

    Counters and histograms subtract (per series, per bucket); gauges
    report the ``after`` value.  Families and series present only in
    ``after`` diff against zero; series that vanished are ignored
    (registries never remove series, so that means a different
    registry).  Series with no change are dropped, keeping the diff
    a readable delta rather than a second snapshot.
    """

    def series_key(series: Mapping[str, Any]) -> Tuple:
        return tuple(sorted(dict(series.get("labels", {})).items()))

    before_map = {family["name"]: family for family in before}
    out: List[Dict[str, Any]] = []
    for family in after:
        old = before_map.get(family["name"], {})
        old_series = {
            series_key(series): series for series in old.get("series", ())
        }
        changed: List[Dict[str, Any]] = []
        for series in family.get("series", ()):
            prior = old_series.get(series_key(series), {})
            if family["type"] == "histogram":
                prior_buckets = {
                    bound: count
                    for bound, count in prior.get("buckets", ())
                }
                buckets = [
                    [bound, count - prior_buckets.get(bound, 0)]
                    for bound, count in series["buckets"]
                ]
                delta = {
                    "labels": dict(series.get("labels", {})),
                    "buckets": buckets,
                    "sum": series["sum"] - prior.get("sum", 0.0),
                    "count": series["count"] - prior.get("count", 0),
                }
                if delta["count"] == 0:
                    continue
            elif family["type"] == "counter":
                value = series["value"] - prior.get("value", 0.0)
                if value == 0:
                    continue
                delta = {
                    "labels": dict(series.get("labels", {})),
                    "value": value,
                }
            else:  # gauge: report the current value when it moved
                if series["value"] == prior.get("value", 0.0):
                    continue
                delta = {
                    "labels": dict(series.get("labels", {})),
                    "value": series["value"],
                }
            changed.append(delta)
        if changed:
            out.append(
                {
                    "name": family["name"],
                    "type": family["type"],
                    "series": changed,
                }
            )
    return out


def histogram_quantile(
    buckets: Sequence[Sequence[float]], q: float
) -> float:
    """Estimate a quantile from exported cumulative (le, count) pairs."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    pairs = [(float(bound), int(count)) for bound, count in buckets]
    if not pairs or pairs[-1][1] == 0:
        return 0.0
    total = pairs[-1][1]
    rank = q * total
    lower = 0.0
    previous = 0
    for bound, cumulative in pairs:
        if cumulative >= rank and cumulative > previous:
            if bound == float("inf"):
                return lower
            fraction = (rank - previous) / (cumulative - previous)
            return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
        previous = cumulative
        if bound != float("inf"):
            lower = bound
    return lower


def source_latency_report(
    snapshot: Sequence[Mapping[str, Any]],
    metric: str = "authz_source_latency_seconds",
    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
) -> str:
    """Per-source latency percentiles from the labeled histograms."""
    family = next(
        (item for item in snapshot if item.get("name") == metric), None
    )
    if family is None or not family.get("series"):
        return f"no {metric} series in this snapshot"
    lines = [f"per-source latency ({metric}, seconds):"]
    for series in family["series"]:
        labels = dict(series.get("labels", {}))
        source = labels.get("source", ",".join(labels.values()) or "all")
        stats = " ".join(
            f"p{int(q * 100)}={histogram_quantile(series['buckets'], q):.4f}"
            for q in quantiles
        )
        lines.append(
            f"  {source}: n={series['count']} {stats}"
        )
    return "\n".join(lines)


# -- traces ------------------------------------------------------------------


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Read a span JSONL export back into plain dicts."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _by_trace(
    spans: Iterable[Mapping[str, Any]]
) -> "Dict[str, List[Dict[str, Any]]]":
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for item in spans:
        traces.setdefault(item["trace"], []).append(dict(item))
    for spanlist in traces.values():
        spanlist.sort(key=lambda item: item["span"])
    return traces


def render_trace_tree(
    spans: Iterable[Mapping[str, Any]], trace_id: Optional[str] = None
) -> str:
    """A deterministic text "flame" summary of one trace.

    Children indent under their parent; events indent under the span
    they annotate with their simulated timestamp.  Durations are
    simulated seconds, so the rendering is byte-stable run to run.
    """
    traces = _by_trace(spans)
    if trace_id is None:
        if len(traces) != 1:
            raise ValueError(
                f"export holds {len(traces)} trace(s); pass a trace id "
                f"from: {', '.join(sorted(traces)) or '(none)'}"
            )
        trace_id = next(iter(traces))
    if trace_id not in traces:
        raise ValueError(f"no trace {trace_id!r} in this export")
    members = traces[trace_id]
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for item in members:
        children.setdefault(item.get("parent"), []).append(item)

    lines: List[str] = []

    def render(item: Dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        start = float(item["start"])
        end = float(item["end"] if item["end"] is not None else start)
        status = "" if item.get("status", "ok") == "ok" else f" !{item['status']}"
        attrs = item.get("attrs") or {}
        attr_text = (
            " [" + " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
            if attrs
            else ""
        )
        lines.append(
            f"{indent}{item['name']} {end - start:.3f}s{attr_text}{status}"
        )
        for evt in item.get("events", ()):
            detail = f": {evt['detail']}" if evt.get("detail") else ""
            lines.append(
                f"{indent}  @{float(evt['at']):.3f} {evt['name']}{detail}"
            )
        for child in children.get(item["span"], ()):
            render(child, depth + 1)

    lines.append(f"trace {trace_id}")
    for root in children.get(None, ()):
        render(root, 1)
    return "\n".join(lines)


def trace_summary(spans: Iterable[Mapping[str, Any]]) -> str:
    """One line per trace: root span, span count, simulated duration."""
    traces = _by_trace(spans)
    if not traces:
        return "no traces"
    lines = []
    for trace_id in sorted(traces):
        members = traces[trace_id]
        root = next(
            (item for item in members if item.get("parent") is None),
            members[0],
        )
        start = float(root["start"])
        end = float(root["end"] if root["end"] is not None else start)
        errors = sum(
            1 for item in members if item.get("status", "ok") != "ok"
        )
        error_text = f" errors={errors}" if errors else ""
        lines.append(
            f"{trace_id} {root['name']} spans={len(members)} "
            f"{end - start:.3f}s{error_text}"
        )
    return "\n".join(lines)
