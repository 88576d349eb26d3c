"""repro.obs — the unified telemetry subsystem.

The paper's companion work (Keahey et al., cs/0311025) names the NFC
operators' pain point precisely: when authorization failed, nobody
could say *why*, and when it was slow, nobody could say *which* policy
source burned the time.  This package is the answer for the
reproduction: one registry of labeled metrics, one tracer of
correlated spans, and exporters that turn both into artifacts an
operator (or a test) can diff byte for byte.

Three layers, zero dependencies:

* :mod:`repro.obs.registry` — labeled counters, gauges and
  histograms with snapshot/diff support and a label-cardinality
  guard, so a misbehaving label can never OOM the registry.
* :mod:`repro.obs.spans` — hierarchical spans keyed by a
  per-request correlation ID.  Timestamps come from the simulated
  clock, so two runs of the same scenario export identical traces.
  Deep layers attach children and events through a context variable
  (:func:`~repro.obs.spans.span`, :func:`~repro.obs.spans.event`)
  without any signature changes.
* :mod:`repro.obs.exporters` — Prometheus text format and JSON
  lines for metrics, JSON lines and a deterministic text "flame"
  summary for traces.

:class:`~repro.obs.instrument.Telemetry` bundles a registry and a
tracer and bridges finished spans into per-source latency histograms;
:class:`~repro.gram.service.GramService` creates one by default and
threads it through Gatekeeper → Job Manager → PEP → callouts →
policy sources.
"""

from repro.obs.exporters import (
    diff_snapshots,
    histogram_quantile,
    load_snapshot,
    load_spans,
    prometheus_text,
    render_trace_tree,
    snapshot_jsonl,
    source_latency_report,
    trace_summary,
)
from repro.obs.health import (
    HealthAlert,
    HealthEngine,
    HealthMonitor,
    HealthReport,
    Measurement,
    SloSpec,
    TargetHealth,
    default_slo_specs,
)
from repro.obs.instrument import Telemetry
from repro.obs.recorder import (
    FlightDump,
    FlightRecorder,
    load_flight_dump,
    render_flight_dump,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LabelError,
    MetricsRegistry,
    OVERFLOW_LABEL,
)
from repro.obs.spans import Span, SpanEvent, Tracer, current_span, event, span
from repro.obs.windows import WindowedAggregator, WindowedSnapshot

__all__ = [
    "Counter",
    "FlightDump",
    "FlightRecorder",
    "Gauge",
    "HealthAlert",
    "HealthEngine",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "LabelError",
    "Measurement",
    "MetricsRegistry",
    "OVERFLOW_LABEL",
    "SloSpec",
    "Span",
    "SpanEvent",
    "TargetHealth",
    "Telemetry",
    "Tracer",
    "WindowedAggregator",
    "WindowedSnapshot",
    "current_span",
    "default_slo_specs",
    "diff_snapshots",
    "event",
    "histogram_quantile",
    "load_flight_dump",
    "load_snapshot",
    "load_spans",
    "prometheus_text",
    "render_flight_dump",
    "render_trace_tree",
    "snapshot_jsonl",
    "source_latency_report",
    "span",
    "trace_summary",
]
