"""The labeled metrics registry.

Prometheus-shaped but dependency-free: a registry holds *metric
families* (one per name), each family holds *series* (one per label
set).  Three instrument types:

* :class:`Counter` — monotonically increasing count;
* :class:`Gauge` — a value that goes both ways (breaker state, store
  sizes);
* :class:`Histogram` — bucketed distribution with sum and count,
  observed in *simulated* seconds on the authorization path so the
  exported snapshot is deterministic run to run.

Label sets are small and operator-chosen (``source``, ``action``,
``decision``, ``failure_kind``) — but a bug upstream must never be
able to mint unbounded series.  Every family caps its series count
(:attr:`MetricsRegistry.max_series`); past the cap, new label sets
collapse into a single reserved overflow series (all label values
:data:`OVERFLOW_LABEL`) and the family counts what it dropped, so the
registry stays bounded *and* the truncation stays visible.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Reserved label value absorbing series past the cardinality cap.
OVERFLOW_LABEL = "<overflow>"

#: Default histogram bucket upper bounds, in (simulated) seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.01,
    0.1,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    float("inf"),
)


class LabelError(ValueError):
    """Labels do not match the family's declared label names."""


LabelValues = Tuple[str, ...]


class Counter:
    """One counter series.

    Updates hold a per-series lock: a bare ``self.value += amount``
    is a read-modify-write that loses increments when several threads
    hit the same series (CPython does not make ``+=`` atomic).
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        # acquire/release beats the ``with`` protocol on this hot path,
        # and a float ``+=`` between them cannot raise.
        lock = self._lock
        lock.acquire()
        self.value += amount
        lock.release()

    def data(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """One gauge series.

    A gauge is only ever set, and a set replaces the value whole in one
    attribute store: there is no read-modify-write for another thread
    to split, so unlike :class:`Counter` it takes no lock.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def data(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """One histogram series: cumulative-style buckets, sum and count.

    Observations hold a per-series lock so the (sum, count, bucket)
    triple stays consistent under concurrent observers.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"buckets must be sorted and non-empty: {buckets}")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # The bucket search needs no protection (buckets are
        # immutable); only the (sum, count, counts) update is locked.
        index = bisect_left(self.buckets, value)
        lock = self._lock
        lock.acquire()
        self.sum += value
        self.count += 1
        self.counts[index] += 1
        lock.release()

    def cumulative(self) -> Tuple[Tuple[float, int], ...]:
        """(upper bound, cumulative count) pairs, Prometheus-style."""
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.buckets, self.counts):
            total += count
            out.append((bound, total))
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation in-bucket.

        The classic ``histogram_quantile`` estimator: find the bucket
        the target rank falls in and interpolate between its bounds
        (the lowest bucket interpolates from zero; an infinite top
        bucket reports its lower bound).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self.counts):
            if cumulative + count >= rank and count > 0:
                if bound == float("inf"):
                    return lower
                fraction = (rank - cumulative) / count
                return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += count
            if bound != float("inf"):
                lower = bound
        return lower

    def data(self) -> Dict[str, Any]:
        buckets: List[List[float]] = []
        total = 0
        for bound, count in zip(self.buckets, self.counts):
            total += count
            buckets.append([bound, total])
        return {"buckets": buckets, "sum": self.sum, "count": self.count}


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All series of one metric name, keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = 64,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_series = max_series
        self.overflowed = 0
        self._buckets = tuple(buckets)
        self._series: Dict[LabelValues, Any] = {}
        self._lock = threading.Lock()
        # Sorted (labels, instrument) view, rebuilt only when a series
        # is created: snapshots happen every health window, series
        # creation at most max_series times ever.
        self._view: Optional[Tuple[Tuple[Dict[str, str], Any], ...]] = None

    def _make(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _INSTRUMENTS[self.kind]()

    def labels(self, **labels: str) -> Any:
        """The series for this label set (creating it if within cap)."""
        try:
            if len(labels) != len(self.labelnames):
                raise KeyError
            key = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError:
            raise LabelError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            ) from None
        # Hot path: existing series resolve without the lock (a plain
        # dict read is atomic); creation takes the lock below.
        series = self._series.get(key)
        if series is not None:
            return series
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_series:
                    self.overflowed += 1
                    key = tuple(OVERFLOW_LABEL for _ in self.labelnames)
                    series = self._series.get(key)
                    if series is None:
                        series = self._make()
                        self._series[key] = series
                        self._view = None
                else:
                    series = self._make()
                    self._series[key] = series
                    self._view = None
            return series

    def series(self) -> Tuple[Tuple[Dict[str, str], Any], ...]:
        """(labels dict, instrument) pairs, sorted by label values."""
        view = self._view
        if view is None:
            with self._lock:
                items = sorted(self._series.items())
            view = self._view = tuple(
                (dict(zip(self.labelnames, key)), instrument)
                for key, instrument in items
            )
        return view

    def data(self) -> Dict[str, Any]:
        family: Dict[str, Any] = {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": labels, **instrument.data()}
                for labels, instrument in self.series()
            ],
        }
        if self.overflowed:
            family["overflowed"] = self.overflowed
        return family


class MetricsRegistry:
    """Get-or-create registry of metric families.

    ``counter``/``gauge``/``histogram`` are idempotent for a given
    name; re-declaring with a different type or label set raises, so
    two instrumentation sites can share a family safely but never
    corrupt each other's schema.
    """

    def __init__(self, max_series: int = 64) -> None:
        self.max_series = max_series
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        # Resolved series handles for the count/set_gauge/observe
        # convenience API, keyed by (kind, name, sorted label items).
        # Resolution walks family checks + label validation (~2us);
        # the steady-state hot path is one dict hit + the instrument
        # update.  Bounded: at most one entry per real series.
        self._series_cache: Dict[Tuple[Any, ...], Any] = {}
        # Name-sorted family tuple, rebuilt only on family creation.
        self._family_view: Optional[Tuple[MetricFamily, ...]] = None

    # -- declaration -------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        name,
                        kind,
                        help=help,
                        labelnames=labelnames,
                        max_series=self.max_series,
                        buckets=buckets,
                    )
                    self._families[name] = family
                    self._family_view = None
                    return family
        if family.kind != kind:
            raise LabelError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if tuple(labelnames) != family.labelnames:
            raise LabelError(
                f"metric {name!r} declared with labels "
                f"{list(family.labelnames)}, got {list(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames, buckets)

    # -- convenience for unlabeled single-series metrics --------------------

    def _resolve(self, kind: str, name: str, help: str, labels: Dict) -> Any:
        """Series handle for a convenience call, cached when possible.

        Only series that really exist under their own label set are
        cached — an overflow hit stays uncached so the family keeps
        counting every dropped label set, exactly as before.
        """
        items = tuple(sorted(labels.items()))
        key = (kind, name, items)
        series = self._series_cache.get(key)
        if series is None:
            family = self._family(
                name, kind, help, tuple(label for label, _ in items)
            )
            series = family.labels(**labels)
            if tuple(str(value) for _, value in items) in family._series:
                self._series_cache[key] = series
        return series

    def count(self, name: str, help: str = "", amount: float = 1.0, **labels) -> None:
        """Increment a counter series in one call."""
        self._resolve("counter", name, help, labels).inc(amount)

    def set_gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        self._resolve("gauge", name, help, labels).set(value)

    def observe(self, name: str, value: float, help: str = "", **labels) -> None:
        self._resolve("histogram", name, help, labels).observe(value)

    # -- views --------------------------------------------------------------

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> Tuple[MetricFamily, ...]:
        view = self._family_view
        if view is None:
            with self._lock:
                view = self._family_view = tuple(
                    family for _, family in sorted(self._families.items())
                )
        return view

    def snapshot(self) -> List[Dict[str, Any]]:
        """The whole registry as sorted, JSON-ready plain data."""
        return [family.data() for family in self.families()]

    def to_prometheus(self) -> str:
        from repro.obs.exporters import prometheus_text

        return prometheus_text(self.snapshot())

    def to_jsonl(self) -> str:
        from repro.obs.exporters import snapshot_jsonl

        return snapshot_jsonl(self.snapshot())

    def value(self, name: str, **labels) -> float:
        """Read one counter/gauge series value (0.0 when absent)."""
        family = self.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels.get(n, "")) for n in family.labelnames)
        for labelset, instrument in family.series():
            if tuple(labelset.values()) == key:
                return instrument.value
        return 0.0


def labels_of(data: Mapping[str, Any]) -> Dict[str, str]:
    """The label mapping of one exported series entry."""
    return dict(data.get("labels", {}))
