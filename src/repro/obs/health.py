"""The health & SLO engine: burn rates over windowed telemetry.

Declarative :class:`SloSpec` objects describe what "healthy" means —
decision availability, tail latency, breaker-open ratio, admission
rejection — and the :class:`HealthEngine` evaluates them with the
classic *multiwindow, multi-burn-rate* method: an objective's error
budget must be burning fast over a short window **and** a long window
before anything alerts, so a single bad request can't page and a slow
leak can't hide.  Every evaluation scores each registered scope (the
service, each federated site — any
:class:`~repro.obs.windows.WindowedAggregator`) and each
``target_label`` expansion (per policy source) into
``healthy / degraded / critical``, moving one level per evaluation in
either direction so consumers watch an ordered
``healthy→degraded→critical`` progression rather than a cliff.

:class:`HealthMonitor` is the batteries-included bundle a service
wires in: aggregators per scope, the engine, a
:class:`~repro.obs.recorder.FlightRecorder` fed from finished root
spans, and freeze-on-critical so every critical transition carries
its own evidence dump.  Everything is keyed on the simulated clock —
the same scenario scores identically run to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.exporters import histogram_quantile
from repro.obs.recorder import FlightDump, FlightRecorder
from repro.obs.spans import Span, Tracer
from repro.obs.windows import WindowedAggregator, fraction_above_buckets

#: Ordered health statuses (index = severity rank).
HEALTH_STATUSES: Tuple[str, ...] = ("healthy", "degraded", "critical")
HEALTHY, DEGRADED, CRITICAL = HEALTH_STATUSES

_RANK = {status: rank for rank, status in enumerate(HEALTH_STATUSES)}

#: Selection-weight factor per status: degraded sites shed half their
#: traffic, critical sites shed all of it.
STATUS_WEIGHT = {HEALTHY: 1.0, DEGRADED: 0.5, CRITICAL: 0.0}


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    ``kind`` selects how the error rate is computed from windowed
    deltas:

    * ``availability`` / ``ratio`` — ``bad_metric`` events divided by
      ``total_metric`` events (counter sums; histogram families count
      observations, so a latency histogram works as a total).
    * ``latency`` — the fraction of ``bad_metric`` (histogram)
      observations above ``threshold`` seconds; ``quantile`` is also
      reported for operators.

    ``objective`` is the good-fraction target (0.999 = "three
    nines"); the *burn rate* is ``error_rate / (1 - objective)``.
    ``target_label`` expands the spec once per distinct value of that
    label (e.g. per policy ``source``), scoring each as its own health
    target.  Windows below ``min_events`` total events are treated as
    *no data* — a zero-burn healthy signal, which is what lets a
    fully-shedded site prove itself recovered.
    """

    name: str
    kind: str
    objective: float
    bad_metric: str
    bad_labels: Mapping[str, str] = field(default_factory=dict)
    total_metric: str = ""
    total_labels: Mapping[str, str] = field(default_factory=dict)
    threshold: float = 0.0
    quantile: float = 0.99
    target_label: str = ""
    fast_windows: int = 3
    slow_windows: int = 12
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency", "ratio"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1): {self.objective}"
            )
        if self.kind == "latency" and self.threshold <= 0:
            raise ValueError("latency SLOs need a positive threshold")
        if self.kind in ("availability", "ratio") and not self.total_metric:
            raise ValueError(f"{self.kind} SLOs need a total_metric")
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ValueError(
                "need 1 <= fast_windows <= slow_windows, got "
                f"{self.fast_windows}/{self.slow_windows}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass
class Measurement:
    """One spec evaluated over one target's windows."""

    spec: str
    kind: str
    error_rate: float
    fast_burn: float
    slow_burn: float
    events: int
    detail: str = ""

    @property
    def burn(self) -> float:
        """The alerting burn: both windows must agree, so the min."""
        return min(self.fast_burn, self.slow_burn)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "kind": self.kind,
            "error_rate": self.error_rate,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "burn": self.burn,
            "events": self.events,
            "detail": self.detail,
        }


@dataclass
class HealthAlert:
    """One SLO breach (burn over threshold in both windows)."""

    at: float
    target: str
    spec: str
    severity: str
    burn: float
    error_rate: float
    message: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "target": self.target,
            "spec": self.spec,
            "severity": self.severity,
            "burn": self.burn,
            "error_rate": self.error_rate,
            "message": self.message,
        }


@dataclass
class TargetHealth:
    """One scored target (scope, or scope/label expansion)."""

    target: str
    status: str
    score: float
    burn: float
    measurements: List[Measurement] = field(default_factory=list)

    @property
    def weight(self) -> float:
        """Load-shedding weight: score gated by status."""
        return self.score * STATUS_WEIGHT[self.status]

    def worst(self) -> Optional[Measurement]:
        if not self.measurements:
            return None
        return max(self.measurements, key=lambda m: m.burn)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "status": self.status,
            "score": self.score,
            "burn": self.burn,
            "weight": self.weight,
            "measurements": [m.to_dict() for m in self.measurements],
        }


class HealthReport:
    """One evaluation: every target scored, every breach alerted."""

    __slots__ = ("at", "targets", "alerts")

    def __init__(
        self,
        at: float,
        targets: Dict[str, TargetHealth],
        alerts: List[HealthAlert],
    ) -> None:
        self.at = at
        self.targets = targets
        self.alerts = alerts

    def status_of(self, target: str, default: str = HEALTHY) -> str:
        health = self.targets.get(target)
        return health.status if health is not None else default

    def score_of(self, target: str, default: float = 1.0) -> float:
        health = self.targets.get(target)
        return health.score if health is not None else default

    def weight_of(self, target: str, default: float = 1.0) -> float:
        health = self.targets.get(target)
        return health.weight if health is not None else default

    def worst_status(self) -> str:
        rank = 0
        for health in self.targets.values():
            rank = max(rank, _RANK[health.status])
        return HEALTH_STATUSES[rank]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "targets": {
                name: self.targets[name].to_dict()
                for name in sorted(self.targets)
            },
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    def render(self) -> str:
        """Deterministic text table for the ``repro health`` CLI."""
        lines = [f"health @ t={self.at}"]
        width = max(
            [len(name) for name in self.targets] + [len("target")]
        )
        lines.append(
            f"  {'target'.ljust(width)}  {'status'.ljust(8)}  "
            f"score  burn    worst"
        )
        for name in sorted(self.targets):
            health = self.targets[name]
            worst = health.worst()
            worst_text = (
                f"{worst.spec} err={worst.error_rate:.4f}"
                if worst is not None and worst.burn > 0
                else "-"
            )
            lines.append(
                f"  {name.ljust(width)}  {health.status.ljust(8)}  "
                f"{health.score:.2f}   {health.burn:7.2f} {worst_text}"
            )
        if self.alerts:
            lines.append("alerts:")
            for alert in self.alerts:
                lines.append(
                    f"  [{alert.severity}] {alert.target}: {alert.spec} "
                    f"burn={alert.burn:.2f} "
                    f"error_rate={alert.error_rate:.4f}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"HealthReport(@{self.at} targets={len(self.targets)} "
            f"alerts={len(self.alerts)} worst={self.worst_status()})"
        )


def report_from_dict(data: Mapping[str, Any]) -> HealthReport:
    """Rebuild a report from :meth:`HealthReport.to_dict` output.

    The ``repro health`` CLI renders exported reports with no live
    engine around, mirroring how the obs exporters re-render
    snapshots from disk.
    """
    targets: Dict[str, TargetHealth] = {}
    for name, entry in dict(data.get("targets", {})).items():
        measurements = [
            Measurement(
                spec=m.get("spec", ""),
                kind=m.get("kind", ""),
                error_rate=m.get("error_rate", 0.0),
                fast_burn=m.get("fast_burn", 0.0),
                slow_burn=m.get("slow_burn", 0.0),
                events=m.get("events", 0),
                detail=m.get("detail", ""),
            )
            for m in entry.get("measurements", ())
        ]
        status = entry.get("status", HEALTHY)
        if status not in _RANK:
            raise ValueError(f"unknown health status {status!r}")
        targets[name] = TargetHealth(
            target=name,
            status=status,
            score=entry.get("score", 1.0),
            burn=entry.get("burn", 0.0),
            measurements=measurements,
        )
    alerts = [
        HealthAlert(
            at=a.get("at", 0.0),
            target=a.get("target", ""),
            spec=a.get("spec", ""),
            severity=a.get("severity", DEGRADED),
            burn=a.get("burn", 0.0),
            error_rate=a.get("error_rate", 0.0),
            message=a.get("message", ""),
        )
        for a in data.get("alerts", ())
    ]
    return HealthReport(at=data.get("at", 0.0), targets=targets, alerts=alerts)


def default_slo_specs() -> Tuple[SloSpec, ...]:
    """The stock objectives for this service's metric catalog."""
    return (
        SloSpec(
            name="decision-availability",
            kind="availability",
            objective=0.999,
            bad_metric="authz_decisions_total",
            bad_labels={"decision": "failure"},
            total_metric="authz_decisions_total",
        ),
        SloSpec(
            name="decision-latency-p99",
            kind="latency",
            objective=0.99,
            bad_metric="authz_latency_seconds",
            threshold=0.5,
            quantile=0.99,
        ),
        SloSpec(
            name="breaker-open-ratio",
            kind="ratio",
            objective=0.95,
            bad_metric="resilience_fast_fails_total",
            total_metric="authz_decisions_total",
        ),
        SloSpec(
            name="admission-rejection-rate",
            kind="ratio",
            objective=0.95,
            bad_metric="gram_admission_rejected_total",
            total_metric="gram_requests_total",
            total_labels={"kind": "submit"},
        ),
        SloSpec(
            name="source-availability",
            kind="ratio",
            objective=0.99,
            bad_metric="resilience_failures_total",
            total_metric="authz_source_latency_seconds",
            target_label="source",
        ),
    )


class _TargetState:
    """Per-target status ladder: one step per evaluation, with a
    recovery streak requirement on the way down."""

    __slots__ = ("rank", "streak")

    def __init__(self) -> None:
        self.rank = 0
        self.streak = 0


class HealthEngine:
    """Evaluates SLO specs over named scopes into health reports."""

    def __init__(
        self,
        specs: Iterable[SloSpec] = (),
        degraded_burn: float = 1.0,
        critical_burn: float = 4.0,
        recovery_evaluations: int = 2,
    ) -> None:
        self.specs: List[SloSpec] = list(specs) or list(default_slo_specs())
        if not 0 < degraded_burn <= critical_burn:
            raise ValueError(
                f"need 0 < degraded_burn <= critical_burn, got "
                f"{degraded_burn}/{critical_burn}"
            )
        self.degraded_burn = degraded_burn
        self.critical_burn = critical_burn
        self.recovery_evaluations = max(1, recovery_evaluations)
        self.scopes: Dict[str, WindowedAggregator] = {}
        #: Called with (target, old_status, new_status, TargetHealth)
        #: whenever a target changes level.
        self.on_transition: List[
            Callable[[str, str, str, TargetHealth], None]
        ] = []
        self._states: Dict[str, _TargetState] = {}
        self._sorted_scopes: Optional[
            List[Tuple[str, WindowedAggregator]]
        ] = None

    def add_scope(self, name: str, aggregator: WindowedAggregator) -> None:
        if name in self.scopes:
            raise ValueError(f"scope {name!r} already registered")
        self.scopes[name] = aggregator
        self._sorted_scopes = None

    def sorted_scopes(self) -> List[Tuple[str, WindowedAggregator]]:
        """Scopes in name order (cached; ticking runs every step)."""
        if self._sorted_scopes is None:
            self._sorted_scopes = sorted(self.scopes.items())
        return self._sorted_scopes

    # -- measurement ---------------------------------------------------------

    def _error_rate(
        self,
        spec: SloSpec,
        aggregator: WindowedAggregator,
        windows: int,
        extra: Mapping[str, str],
    ) -> Tuple[float, int, str]:
        """(error rate, total events, detail) over the last windows."""
        if spec.kind == "latency":
            labels = (
                dict(spec.bad_labels, **extra) if extra else spec.bad_labels
            )
            # One bucket scan answers both the threshold fraction and
            # the reported quantile (this runs every window on every
            # scope, so the constant factor matters).
            buckets, _, total = aggregator.histogram_delta(
                spec.bad_metric, windows, **labels
            )
            total = int(total)
            if total < spec.min_events:
                return 0.0, total, ""
            fraction = fraction_above_buckets(
                buckets, spec.threshold, total
            )
            value = histogram_quantile(buckets, spec.quantile)
            detail = f"p{int(spec.quantile * 100)}={value:.4f}s"
            return fraction, total, detail
        bad_labels = (
            dict(spec.bad_labels, **extra) if extra else spec.bad_labels
        )
        total_labels = (
            dict(spec.total_labels, **extra) if extra else spec.total_labels
        )
        bad = aggregator.delta(spec.bad_metric, windows, **bad_labels)
        total = aggregator.delta(spec.total_metric, windows, **total_labels)
        events = int(total)
        if events < spec.min_events:
            return 0.0, events, ""
        # A bad-event counter can outrun the total when they count
        # different things (retries vs decisions); the rate still
        # saturates at "the whole budget, continuously".
        if not bad:
            return 0.0, events, ""
        return min(bad / total, 1.0), events, f"bad={int(bad)}"

    def _measure(
        self,
        spec: SloSpec,
        aggregator: WindowedAggregator,
        extra: Mapping[str, str],
    ) -> Measurement:
        fast_rate, fast_events, detail = self._error_rate(
            spec, aggregator, spec.fast_windows, extra
        )
        if fast_rate == 0.0:
            # The alerting burn is min(fast, slow): a clean fast
            # window pins it to zero, so the slow-window query —
            # every tick's steady-state cost — can be skipped.
            slow_rate = 0.0
        else:
            slow_rate, _, _ = self._error_rate(
                spec, aggregator, spec.slow_windows, extra
            )
        budget = spec.error_budget
        return Measurement(
            spec=spec.name,
            kind=spec.kind,
            error_rate=fast_rate,
            fast_burn=fast_rate / budget,
            slow_burn=slow_rate / budget,
            events=fast_events,
            detail=detail,
        )

    def _expand(
        self, spec: SloSpec, aggregator: WindowedAggregator
    ) -> Tuple[str, ...]:
        """Distinct target-label values seen in the slow window."""
        metric = spec.total_metric or spec.bad_metric
        values = set(
            aggregator.label_values(
                metric, spec.target_label, spec.slow_windows
            )
        )
        values.update(
            aggregator.label_values(
                spec.bad_metric, spec.target_label, spec.slow_windows
            )
        )
        return tuple(sorted(values))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float) -> HealthReport:
        """Score every scope (and label expansion) as of *now*."""
        measured: Dict[str, List[Measurement]] = {}
        for scope_name, aggregator in self.sorted_scopes():
            for spec in self.specs:
                if spec.target_label:
                    for value in self._expand(spec, aggregator):
                        target = (
                            f"{scope_name}/{spec.target_label}:{value}"
                        )
                        measured.setdefault(target, []).append(
                            self._measure(
                                spec,
                                aggregator,
                                {spec.target_label: value},
                            )
                        )
                else:
                    measured.setdefault(scope_name, []).append(
                        self._measure(spec, aggregator, {})
                    )

        # Targets known from prior evaluations but absent now (an
        # expanded source that went quiet) still get scored — on zero
        # burn — so a fully-shedded target can walk back to healthy.
        for target in list(self._states):
            measured.setdefault(target, [])

        targets: Dict[str, TargetHealth] = {}
        alerts: List[HealthAlert] = []
        transitions: List[Tuple[str, str, str, TargetHealth]] = []
        for target in sorted(measured):
            measurements = measured[target]
            burn = max((m.burn for m in measurements), default=0.0)
            state = self._states.get(target)
            if state is None:
                state = self._states[target] = _TargetState()
            old_status = HEALTH_STATUSES[state.rank]
            if burn >= self.critical_burn:
                desired = _RANK[CRITICAL]
            elif burn >= self.degraded_burn:
                desired = _RANK[DEGRADED]
            else:
                desired = _RANK[HEALTHY]
            if desired > state.rank:
                state.rank += 1
                state.streak = 0
            elif desired < state.rank:
                state.streak += 1
                if state.streak >= self.recovery_evaluations:
                    state.rank -= 1
                    state.streak = 0
            else:
                state.streak = 0
            status = HEALTH_STATUSES[state.rank]
            score = max(0.0, 1.0 - burn / self.critical_burn)
            health = TargetHealth(
                target=target,
                status=status,
                score=round(score, 4),
                burn=burn,
                measurements=measurements,
            )
            targets[target] = health
            for measurement in measurements:
                if measurement.burn >= self.degraded_burn:
                    severity = (
                        CRITICAL
                        if measurement.burn >= self.critical_burn
                        else DEGRADED
                    )
                    alerts.append(
                        HealthAlert(
                            at=now,
                            target=target,
                            spec=measurement.spec,
                            severity=severity,
                            burn=measurement.burn,
                            error_rate=measurement.error_rate,
                            message=(
                                f"{measurement.spec} burning "
                                f"{measurement.burn:.1f}x budget over "
                                f"fast+slow windows"
                            ),
                        )
                    )
            if status != old_status:
                transitions.append((target, old_status, status, health))
            elif status == HEALTHY and not measurements:
                # Fully recovered and gone quiet: stop tracking.
                del self._states[target]

        report = HealthReport(at=now, targets=targets, alerts=alerts)
        for target, old_status, status, health in transitions:
            for callback in self.on_transition:
                callback(target, old_status, status, health)
        return report


class HealthMonitor:
    """Aggregators + engine + flight recorder, wired for a service.

    One monitor watches any number of *scopes* (snapshot sources).
    Drive it with :meth:`maybe_tick` from the service's run loop: when
    a window closes on every scope, the engine re-evaluates, the
    report lands in :attr:`reports`, and any transition *into*
    ``critical`` freezes the flight recorder into :attr:`dumps`.
    """

    def __init__(
        self,
        window: float = 5.0,
        retain: int = 120,
        specs: Iterable[SloSpec] = (),
        degraded_burn: float = 1.0,
        critical_burn: float = 4.0,
        recovery_evaluations: int = 2,
        recorder_limit: int = 256,
        start: float = 0.0,
        report_retain: int = 64,
    ) -> None:
        self.window = window
        self.retain = retain
        self.start = start
        self.engine = HealthEngine(
            specs,
            degraded_burn=degraded_burn,
            critical_burn=critical_burn,
            recovery_evaluations=recovery_evaluations,
        )
        self.recorder = FlightRecorder(limit=recorder_limit)
        self.reports: Deque[HealthReport] = deque(maxlen=report_retain)
        self.dumps: List[FlightDump] = []
        self._pending_freezes: List[Tuple[str, TargetHealth]] = []
        self.engine.on_transition.append(self._on_transition)

    # -- wiring --------------------------------------------------------------

    def add_scope(
        self,
        name: str,
        snapshot_fn: Callable[[], List[Dict[str, Any]]],
    ) -> WindowedAggregator:
        aggregator = WindowedAggregator(
            snapshot_fn,
            window=self.window,
            retain=self.retain,
            start=self.start,
        )
        self.engine.add_scope(name, aggregator)
        return aggregator

    @property
    def scopes(self) -> Dict[str, WindowedAggregator]:
        return self.engine.scopes

    def attach_tracer(self, scope: str, tracer: Tracer) -> None:
        """Feed this scope's finished root spans to the recorder."""

        def record(spans: Tuple[Span, ...]) -> None:
            root = spans[0]
            self.recorder.record_decision(
                {
                    "at": root.end,
                    "scope": scope,
                    "request_id": root.trace_id,
                    "name": root.name,
                    "code": root.attrs.get("code", ""),
                    "status": root.status,
                }
            )

        tracer.on_trace.append(record)

    # -- ticking -------------------------------------------------------------

    def maybe_tick(self, now: float) -> Optional[HealthReport]:
        """Close due windows; evaluate when any scope ticked."""
        ticked = False
        for scope, aggregator in self.engine.sorted_scopes():
            frame = aggregator.maybe_tick(now)
            if frame is not None:
                ticked = True
                self.recorder.note_window({"scope": scope, "frame": frame})
        if not ticked:
            return None
        return self._evaluate(now)

    def tick(self, now: float) -> HealthReport:
        """Force a window close + evaluation on every scope."""
        for scope, aggregator in self.engine.sorted_scopes():
            frame = aggregator.tick(now)
            self.recorder.note_window({"scope": scope, "frame": frame})
        return self._evaluate(now)

    def _evaluate(self, now: float) -> HealthReport:
        report = self.engine.evaluate(now)
        self.reports.append(report)
        # Freezes deferred by _on_transition run now, with the full
        # report available for the alert payload.
        for target, health in self._pending_freezes:
            self._freeze(target, health, report)
        self._pending_freezes = []
        return report

    def _on_transition(
        self, target: str, old_status: str, status: str, health: TargetHealth
    ) -> None:
        if status == CRITICAL:
            self._pending_freezes.append((target, health))

    def _freeze(
        self, target: str, health: TargetHealth, report: HealthReport
    ) -> None:
        worst = health.worst()
        alert = {
            "target": target,
            "severity": CRITICAL,
            "spec": worst.spec if worst is not None else "",
            "burn": worst.burn if worst is not None else 0.0,
            "error_rate": worst.error_rate if worst is not None else 0.0,
            "message": (
                f"{target} transitioned to critical at t={report.at}"
            ),
        }
        scope = target.split("/", 1)[0]
        dump = self.recorder.freeze(alert, report.at, scope=scope)
        self.dumps.append(dump)

    # -- views ---------------------------------------------------------------

    @property
    def latest_report(self) -> Optional[HealthReport]:
        return self.reports[-1] if self.reports else None

    def status_of(self, target: str) -> str:
        report = self.latest_report
        return report.status_of(target) if report is not None else HEALTHY

    def weight_of(self, target: str) -> float:
        report = self.latest_report
        return report.weight_of(target) if report is not None else 1.0
