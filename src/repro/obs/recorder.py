"""The anomaly flight recorder.

An SLO alert is only as useful as the evidence attached to it.  The
:class:`FlightRecorder` keeps a bounded ring of the most recent
per-request decision records (fed from finished root spans) and
per-window metric deltas; when a health target transitions to
``critical`` the ring is *frozen* into an immutable
:class:`FlightDump` — the alert, the requests that were in flight in
the failing windows, and the metric deltas that tripped the burn
rate — exportable as JSONL and re-renderable by ``repro health``.

Recording is deliberately cheap (append a small dict to a deque) so
it can stay on for every request; all formatting cost is paid at
freeze/export time, which only happens when something is already on
fire.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple


class FlightDump:
    """One frozen anomaly: the alert plus its evidence ring."""

    __slots__ = ("alert", "decisions", "windows", "frozen_at")

    def __init__(
        self,
        alert: Dict[str, Any],
        decisions: Sequence[Mapping[str, Any]],
        windows: Sequence[Mapping[str, Any]],
        frozen_at: float,
    ) -> None:
        self.alert = dict(alert)
        self.decisions = [dict(entry) for entry in decisions]
        self.windows = [dict(entry) for entry in windows]
        self.frozen_at = frozen_at

    def request_ids(self) -> Tuple[str, ...]:
        """Correlation IDs of every decision caught in the dump."""
        seen = []
        for entry in self.decisions:
            request_id = entry.get("request_id")
            if request_id and request_id not in seen:
                seen.append(request_id)
        return tuple(seen)

    def to_jsonl(self) -> str:
        """Kind-tagged JSON lines: one alert, then decisions, then
        windows — self-describing, so a dump re-loads without the
        recorder that wrote it."""
        lines = [
            json.dumps(
                {"kind": "alert", "frozen_at": self.frozen_at, **self.alert},
                sort_keys=True,
            )
        ]
        for entry in self.decisions:
            lines.append(
                json.dumps({"kind": "decision", **entry}, sort_keys=True)
            )
        for entry in self.windows:
            lines.append(
                json.dumps({"kind": "window", **entry}, sort_keys=True)
            )
        return "\n".join(lines) + "\n"

    def export(self, path: str) -> int:
        """Atomically write the dump as JSONL; returns lines written."""
        text = self.to_jsonl()
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return text.count("\n")

    def __repr__(self) -> str:
        return (
            f"FlightDump({self.alert.get('target', '?')} "
            f"@{self.frozen_at} decisions={len(self.decisions)} "
            f"windows={len(self.windows)})"
        )


def load_flight_dump(path: str) -> FlightDump:
    """Read an exported dump back into a :class:`FlightDump`."""
    alert: Dict[str, Any] = {}
    frozen_at = 0.0
    decisions: List[Dict[str, Any]] = []
    windows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.pop("kind", None)
            if kind == "alert":
                frozen_at = entry.pop("frozen_at", 0.0)
                alert = entry
            elif kind == "decision":
                decisions.append(entry)
            elif kind == "window":
                windows.append(entry)
            else:
                raise ValueError(
                    f"{path}: not a flight dump (unknown line kind {kind!r})"
                )
    if not alert:
        raise ValueError(f"{path}: not a flight dump (no alert line)")
    return FlightDump(alert, decisions, windows, frozen_at)


def render_flight_dump(dump: FlightDump) -> str:
    """Deterministic text rendering for the ``repro health`` CLI."""
    alert = dump.alert
    lines = [
        f"flight dump @ t={dump.frozen_at}",
        f"  alert: {alert.get('target', '?')} -> "
        f"{alert.get('severity', '?')} "
        f"({alert.get('spec', '?')} burn={alert.get('burn', 0.0):.2f} "
        f"error_rate={alert.get('error_rate', 0.0):.4f})",
    ]
    if alert.get("message"):
        lines.append(f"  {alert['message']}")
    lines.append(f"  decisions ({len(dump.decisions)}):")
    for entry in dump.decisions:
        status = entry.get("status", "ok")
        flag = "" if status == "ok" else f" !{status}"
        lines.append(
            f"    @{float(entry.get('at', 0.0)):.3f} "
            f"{entry.get('request_id', '?')} {entry.get('name', '?')} "
            f"code={entry.get('code', '?')}{flag}"
        )
    lines.append(f"  windows ({len(dump.windows)}):")
    for entry in dump.windows:
        changed = entry.get("delta", [])
        names = ", ".join(
            family.get("name", "?") for family in changed
        )
        lines.append(
            f"    #{entry.get('index', '?')} "
            f"[{entry.get('start', 0.0)}, {entry.get('end', 0.0)}] "
            f"changed: {names or '(none)'}"
        )
    return "\n".join(lines)


class FlightRecorder:
    """Bounded ring of recent decisions + window deltas, per scope.

    ``record_decision`` is called from trace-finish hooks on the hot
    path; ``note_window`` from the health monitor's window ticks.
    :meth:`freeze` snapshots the current ring into a
    :class:`FlightDump`, optionally filtered to one scope (the sick
    site), without disturbing ongoing recording.
    """

    def __init__(self, limit: int = 256) -> None:
        if limit < 1:
            raise ValueError(f"recorder limit must be >= 1: {limit}")
        self.limit = limit
        self._decisions: Deque[Dict[str, Any]] = deque(maxlen=limit)
        self._windows: Deque[Dict[str, Any]] = deque(maxlen=limit)
        self.recorded = 0
        self.frozen = 0

    def record_decision(self, entry: Dict[str, Any]) -> None:
        self._decisions.append(entry)
        self.recorded += 1

    def note_window(self, entry: Dict[str, Any]) -> None:
        self._windows.append(entry)

    def decisions(
        self, scope: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return [
            entry
            for entry in self._decisions
            if scope is None or entry.get("scope") == scope
        ]

    def windows(self, scope: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            self._materialize(entry)
            for entry in self._windows
            if scope is None or entry.get("scope") == scope
        ]

    @staticmethod
    def _materialize(entry: Dict[str, Any]) -> Dict[str, Any]:
        """Expand a lazily-recorded window frame into plain JSON data.

        ``note_window`` may be handed ``{"scope": ..., "frame":
        WindowedSnapshot}`` so the recording tick never pays for delta
        computation; the expansion (which diffs the frame's
        snapshots) happens here, at freeze/inspection time.
        """
        frame = entry.get("frame")
        if frame is None:
            return entry
        out = {key: value for key, value in entry.items() if key != "frame"}
        out.update(frame.summary())
        return out

    def freeze(
        self,
        alert: Mapping[str, Any],
        frozen_at: float,
        scope: Optional[str] = None,
    ) -> FlightDump:
        """Snapshot the ring (optionally one scope) into a dump."""
        self.frozen += 1
        return FlightDump(
            dict(alert),
            self.decisions(scope),
            self.windows(scope),
            frozen_at,
        )

    def __len__(self) -> int:
        return len(self._decisions)
