"""Windowed aggregation over metrics-registry snapshots.

The registry (:mod:`repro.obs.registry`) answers "how many, ever";
anything that wants to *interpret* telemetry — the SLO engine, a
burn-rate alert, a load-shedding broker — needs "how many, lately".
This module keeps a bounded ring of :class:`WindowedSnapshot` frames,
each pairing a cumulative snapshot with the delta since the previous
frame, keyed on **simulated** time so every windowed query is
deterministic run to run.

Everything operates on *plain exported data* (the structure
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` produces), so an
aggregator works equally over a live registry or a snapshot re-loaded
from disk.  Series folded into the
cardinality-overflow bucket (:data:`~repro.obs.registry.OVERFLOW_LABEL`)
are excluded from label-filtered queries by default, so truncated
label sets can never masquerade as a real policy source or site.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.exporters import diff_snapshots, histogram_quantile
from repro.obs.registry import OVERFLOW_LABEL

#: A plain snapshot: the JSON-ready list of family dicts.
PlainSnapshot = List[Dict[str, Any]]


def sum_values(
    snapshot: Sequence[Mapping[str, Any]],
    name: str,
    labels: Optional[Mapping[str, str]] = None,
    include_overflow: bool = False,
) -> float:
    """Sum matching counter/gauge series values in plain data.

    For histogram families the *count* is summed, so one helper
    answers "how many events" regardless of instrument type.  Missing
    families and series sum to 0.0.
    """
    wanted = (
        [(key, str(value)) for key, value in labels.items()] if labels else ()
    )
    total = 0.0
    for family in snapshot:
        if family.get("name") != name:
            continue
        histogram = family.get("type") == "histogram"
        for series in family.get("series", ()):
            # Inlined _series_matches: this helper runs on every
            # series of every SLO query, so the call overhead shows.
            have = series.get("labels") or {}
            if not include_overflow and OVERFLOW_LABEL in have.values():
                continue
            if wanted and any(
                have.get(key) != value for key, value in wanted
            ):
                continue
            if histogram:
                total += series.get("count", 0)
            else:
                total += series.get("value", 0.0)
        break  # family names are unique within a snapshot
    return total


def merge_histogram(
    snapshot: Sequence[Mapping[str, Any]],
    name: str,
    labels: Optional[Mapping[str, str]] = None,
    include_overflow: bool = False,
) -> Tuple[List[List[float]], float, int]:
    """Fold matching histogram series into one (buckets, sum, count).

    Buckets stay cumulative-style ``[le, count]`` pairs (summing
    cumulative counts per bound is exact), so the result feeds
    :func:`~repro.obs.exporters.histogram_quantile` directly.  Series
    with differing bucket layouts fold on the union of bounds.
    """
    wanted = (
        [(key, str(value)) for key, value in labels.items()] if labels else ()
    )
    by_bound: Dict[float, int] = {}
    total_sum = 0.0
    total_count = 0
    for family in snapshot:
        if family.get("name") != name or family.get("type") != "histogram":
            continue
        for series in family.get("series", ()):
            have = series.get("labels") or {}
            if not include_overflow and OVERFLOW_LABEL in have.values():
                continue
            if wanted and any(
                have.get(key) != value for key, value in wanted
            ):
                continue
            for bound, count in series.get("buckets", ()):
                bound = float(bound)
                by_bound[bound] = by_bound.get(bound, 0) + int(count)
            total_sum += series.get("sum", 0.0)
            total_count += series.get("count", 0)
    buckets = [[bound, by_bound[bound]] for bound in sorted(by_bound)]
    return buckets, total_sum, total_count


def label_values(
    snapshot: Sequence[Mapping[str, Any]],
    name: str,
    label: str,
) -> Tuple[str, ...]:
    """Distinct values of *label* on *name*'s series (overflow excluded)."""
    values = set()
    for family in snapshot:
        if family.get("name") != name:
            continue
        for series in family.get("series", ()):
            value = dict(series.get("labels", {})).get(label)
            if value is not None and value != OVERFLOW_LABEL:
                values.add(value)
    return tuple(sorted(values))


def fraction_above_buckets(
    buckets: Sequence[Sequence[float]], threshold: float, total: float
) -> float:
    """Fraction of bucketed observations above *threshold*.

    Uses the smallest bucket bound at or above *threshold* as the cut,
    so observations between the threshold and that bound count as
    *good* — the conservative reading of bucketed data.
    """
    if total <= 0:
        return 0.0
    good = total
    for bound, cumulative in buckets:
        if bound >= threshold:
            good = cumulative
            break
    return max(0, total - good) / total


class WindowedSnapshot:
    """One closed window: cumulative state plus the delta that arrived.

    ``base`` keeps a reference to the cumulative snapshot this window
    opened on, so a query over the last N windows is two snapshot
    scans (end minus base), not N.  ``delta`` — the
    :func:`~repro.obs.exporters.diff_snapshots` of this window against
    its base, counters and histogram buckets as per-window increments
    (bucket deltas remain cumulative *within* the window, which is
    what lets quantiles be computed over any run of windows) — is
    computed lazily on first access: closing a window is on the
    serving path, inspecting one is not.
    """

    __slots__ = ("index", "start", "end", "snapshot", "base", "_delta")

    def __init__(
        self,
        index: int,
        start: float,
        end: float,
        snapshot: PlainSnapshot,
        base: Optional[PlainSnapshot] = None,
    ) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.snapshot = snapshot
        self.base = base if base is not None else []
        self._delta: Optional[PlainSnapshot] = None

    @property
    def delta(self) -> PlainSnapshot:
        if self._delta is None:
            self._delta = diff_snapshots(self.base, self.snapshot)
        return self._delta

    @property
    def width(self) -> float:
        return self.end - self.start

    def summary(self) -> Dict[str, Any]:
        """A compact JSON-ready view (used by the flight recorder)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "delta": self.delta,
        }

    def __repr__(self) -> str:
        return (
            f"WindowedSnapshot(#{self.index} [{self.start}, {self.end}] "
            f"{len(self.delta)} changed families)"
        )


class WindowedAggregator:
    """Ring-buffered window series over one snapshot source.

    ``snapshot_fn`` is any zero-arg callable returning a plain
    snapshot — a live registry's bound ``snapshot`` method or a lambda
    replaying exports.
    :meth:`tick` closes the window ending *now*; :meth:`maybe_tick`
    closes one only when at least ``window`` simulated seconds have
    elapsed, so a driver can call it every step.  Windows may be wider
    than ``window`` (a long ``run()`` closes one wide frame); every
    rate query divides by the *actual* covered time.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], PlainSnapshot],
        window: float = 5.0,
        retain: int = 120,
        start: float = 0.0,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        if retain < 1:
            raise ValueError(f"retain must be >= 1: {retain}")
        self.snapshot_fn = snapshot_fn
        self.window = window
        self.retain = retain
        self._frames: Deque[WindowedSnapshot] = deque(maxlen=retain)
        self._last_snapshot: PlainSnapshot = []
        self._last_end = float(start)
        self._ticks = 0
        #: Memo for windowed queries, cleared on every tick: the SLO
        #: engine asks the same (metric, windows, labels) questions
        #: every evaluation, and several specs share sub-queries.
        self._query_cache: Dict[Tuple, Any] = {}
        #: Per-snapshot scan results, kept across ticks: a cumulative
        #: snapshot is immutable once captured, so its sums/merged
        #: histograms are too.  Entries hold the snapshot object and
        #: verify identity on lookup (ids alone can be recycled);
        #: :meth:`tick` prunes entries whose snapshot left the ring.
        self._scan_cache: Dict[int, Tuple[PlainSnapshot, Dict[Tuple, Any]]] = {}

    # -- ticking -------------------------------------------------------------

    @property
    def last_tick(self) -> float:
        return self._last_end

    @property
    def ticks(self) -> int:
        return self._ticks

    def tick(self, now: float) -> WindowedSnapshot:
        """Close the window ``[last_tick, now]`` unconditionally."""
        if now < self._last_end:
            raise ValueError(
                f"window clock moved backwards: {now} < {self._last_end}"
            )
        snapshot = self.snapshot_fn()
        frame = WindowedSnapshot(
            index=self._ticks,
            start=self._last_end,
            end=now,
            snapshot=snapshot,
            base=self._last_snapshot,
        )
        evicted = (
            self._frames[0] if len(self._frames) == self.retain else None
        )
        self._frames.append(frame)
        self._last_snapshot = snapshot
        self._last_end = now
        self._ticks += 1
        self._query_cache.clear()
        if evicted is not None:
            # The only snapshot the ring stops referencing when a
            # frame falls off is the evicted frame's base (its *end*
            # snapshot lives on as the next frame's base), so scan
            # eviction is O(1) instead of a full live-set sweep.
            self._scan_cache.pop(id(evicted.base), None)
        return frame

    def maybe_tick(self, now: float) -> Optional[WindowedSnapshot]:
        """Close a window only when one full ``window`` has elapsed."""
        if now - self._last_end >= self.window:
            return self.tick(now)
        return None

    # -- views ---------------------------------------------------------------

    def frames(self, windows: Optional[int] = None) -> List[WindowedSnapshot]:
        """The last *windows* closed frames, oldest first."""
        if windows is None or windows >= len(self._frames):
            return list(self._frames)
        return list(self._frames)[len(self._frames) - windows:]

    def _run_bounds(
        self, windows: Optional[int]
    ) -> Optional[Tuple[WindowedSnapshot, WindowedSnapshot]]:
        """(last frame, first frame) of the covered run, or None.

        Windowed queries only need the run's two endpoint frames
        (cumulative end state minus the first frame's base), so this
        skips the O(retain) copy :meth:`frames` makes.
        """
        count = len(self._frames)
        if count == 0 or (windows is not None and windows <= 0):
            return None
        covered = count if windows is None or windows > count else windows
        return self._frames[-1], self._frames[-covered]

    def elapsed(self, windows: Optional[int] = None) -> float:
        """Simulated seconds the last *windows* frames cover."""
        bounds = self._run_bounds(windows)
        if bounds is None:
            return 0.0
        end, first = bounds
        # Windows are contiguous (each starts where the last closed).
        return end.end - first.start

    def latest(self) -> PlainSnapshot:
        """The most recent cumulative snapshot ([] before any tick)."""
        return self._last_snapshot

    def __len__(self) -> int:
        return len(self._frames)

    # -- queries -------------------------------------------------------------
    #
    # Endpoint scans are memoized per cumulative snapshot in
    # ``_scan_cache``, which survives ticks: every tick the fast- and
    # slow-window *base* frames were some earlier tick's end snapshot,
    # so the only snapshot that ever needs a fresh scan is the one the
    # closing window just captured.

    def _snapshot_cache(self, snapshot: PlainSnapshot) -> Dict[Tuple, Any]:
        key = id(snapshot)
        entry = self._scan_cache.get(key)
        if entry is None or entry[0] is not snapshot:
            entry = (snapshot, {})
            self._scan_cache[key] = entry
        return entry[1]

    def _sum_memo(
        self,
        snapshot: PlainSnapshot,
        name: str,
        labels_key: Tuple,
        labels: Mapping[str, str],
    ) -> float:
        cache = self._snapshot_cache(snapshot)
        key = ("sum", name, labels_key)
        cached = cache.get(key)
        if cached is None:
            cached = sum_values(snapshot, name, labels)
            cache[key] = cached
        return cached

    def _hist_memo(
        self,
        snapshot: PlainSnapshot,
        name: str,
        labels_key: Tuple,
        labels: Mapping[str, str],
    ) -> Tuple[List[List[float]], float, int]:
        cache = self._snapshot_cache(snapshot)
        key = ("hist", name, labels_key)
        cached = cache.get(key)
        if cached is None:
            cached = merge_histogram(snapshot, name, labels)
            cache[key] = cached
        return cached

    def delta(
        self, name: str, windows: Optional[int] = None, **labels: str
    ) -> float:
        """Summed counter increments (or histogram event counts) over
        the last *windows* frames.

        Counters are cumulative, so the covered increment is the last
        frame's snapshot minus the first covered frame's base — two
        scans however many windows the query spans.
        """
        bounds = self._run_bounds(windows)
        if bounds is None:
            return 0.0
        end, first = bounds
        labels_key = tuple(sorted(labels.items()))
        return self._sum_memo(
            end.snapshot, name, labels_key, labels
        ) - self._sum_memo(first.base, name, labels_key, labels)

    def rate(
        self, name: str, windows: Optional[int] = None, **labels: str
    ) -> float:
        """Per-simulated-second rate of *name* over the last frames."""
        elapsed = self.elapsed(windows)
        if elapsed <= 0:
            return 0.0
        return self.delta(name, windows, **labels) / elapsed

    def value(self, name: str, **labels: str) -> float:
        """Latest cumulative counter/gauge value (summed over series)."""
        return sum_values(self._last_snapshot, name, labels)

    def histogram_delta(
        self, name: str, windows: Optional[int] = None, **labels: str
    ) -> Tuple[List[List[float]], float, int]:
        """Merged (buckets, sum, count) of in-window observations.

        Cumulative bucket counts subtract exactly, so this is the end
        snapshot's merged histogram minus the first covered frame's
        base — independent of how many windows the query spans.
        """
        bounds = self._run_bounds(windows)
        if bounds is None:
            return [], 0.0, 0
        end, first = bounds
        labels_key = tuple(sorted(labels.items()))
        key = ("hist", name, id(first), labels_key)
        cached = self._query_cache.get(key)
        if cached is None:
            end_buckets, end_sum, end_count = self._hist_memo(
                end.snapshot, name, labels_key, labels
            )
            base_buckets, base_sum, base_count = self._hist_memo(
                first.base, name, labels_key, labels
            )
            if not base_buckets:
                cached = (end_buckets, end_sum, end_count)
            else:
                base_by_bound = {
                    bound: count for bound, count in base_buckets
                }
                cached = (
                    [
                        [bound, count - base_by_bound.get(bound, 0)]
                        for bound, count in end_buckets
                    ],
                    end_sum - base_sum,
                    end_count - base_count,
                )
            self._query_cache[key] = cached
        return cached

    def quantile(
        self,
        name: str,
        q: float,
        windows: Optional[int] = None,
        **labels: str,
    ) -> float:
        """The q-quantile of in-window observations of *name*."""
        buckets, _, _ = self.histogram_delta(name, windows, **labels)
        return histogram_quantile(buckets, q)

    def fraction_above(
        self,
        name: str,
        threshold: float,
        windows: Optional[int] = None,
        **labels: str,
    ) -> Tuple[float, int]:
        """(fraction of observations above *threshold*, total observed).

        See :func:`fraction_above_buckets` for the cut semantics.
        """
        buckets, _, total = self.histogram_delta(name, windows, **labels)
        if total <= 0:
            return 0.0, 0
        return fraction_above_buckets(buckets, threshold, total), total

    def label_values(
        self, name: str, label: str, windows: Optional[int] = None
    ) -> Tuple[str, ...]:
        """Distinct non-overflow values of *label* whose series moved
        within the covered run (endpoint comparison, like the other
        windowed queries: a series "was seen" when its count at the
        run's end exceeds its count at the run's base)."""
        bounds = self._run_bounds(windows)
        if bounds is None:
            return ()
        end, first = bounds
        key = ("labels", name, label, id(first))
        cached = self._query_cache.get(key)
        if cached is None:
            base_series: Dict[Tuple, float] = {}
            for family in first.base:
                if family.get("name") != name:
                    continue
                for series in family.get("series", ()):
                    entry = dict(series.get("labels", {}))
                    base_series[tuple(sorted(entry.items()))] = series.get(
                        "count", series.get("value", 0.0)
                    )
                break
            values = set()
            for family in end.snapshot:
                if family.get("name") != name:
                    continue
                for series in family.get("series", ()):
                    entry = dict(series.get("labels", {}))
                    value = entry.get(label)
                    if value is None or value == OVERFLOW_LABEL:
                        continue
                    current = series.get("count", series.get("value", 0.0))
                    if current != base_series.get(
                        tuple(sorted(entry.items())), 0.0
                    ):
                        values.add(value)
                break
            cached = tuple(sorted(values))
            self._query_cache[key] = cached
        return cached

    def window_summaries(
        self, windows: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """JSON-ready per-window delta summaries (flight-recorder feed)."""
        return [frame.summary() for frame in self.frames(windows)]
