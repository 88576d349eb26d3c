"""JSONL spill backend for the completed-job store (restart survival).

A restarted Gatekeeper used to forget every reaped job: the records
that post-completion ``information``/``cancel`` requests are
authorized against lived only in memory.  This module makes the
:class:`~repro.gram.lifecycle.CompletedJobStore` durable:

* every insert appends one ``{"kind": "insert", ...}`` JSONL line,
  every eviction one ``{"kind": "evict", ...}`` tombstone — append-only
  writes, never in-place mutation, so a crash can at worst truncate
  the trailing line;
* :meth:`CompletedJobSpill.recover` replays the file back into
  records, dropping tombstoned ids.  A truncated or garbled line is
  **skipped with a counter**, never an abort — losing one record to a
  crash mid-append must not lose the other ten thousand.  Recovery
  first ends a torn last line with a newline, so the next append
  starts a line of its own;
* when tombstones outnumber live records
  (:attr:`CompletedJobSpill.compact_ratio`), the file is compacted:
  rewritten atomically (``os.replace``) with only the live inserts.

Records serialize through their existing wire forms: the job spec as
RSL text (round-trips through ``parse_specification``) and the owner
DN as its string rendering — so a recovered record re-authorizes
*identically*.  The restart-recovery differential suite
(:mod:`repro.workloads.recovery`) pins that guarantee end to end.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.store import end_torn_line
from repro.gram.protocol import GramJobState, JobContact
from repro.gsi.names import DistinguishedName
from repro.rsl.parser import parse_specification

KIND_INSERT = "insert"
KIND_EVICT = "evict"


def record_to_wire(record) -> Dict[str, Any]:
    """Serialize a CompletedJobRecord into its JSONL insert form."""
    return {
        "kind": KIND_INSERT,
        "host": record.contact.host,
        "job_id": record.contact.job_id,
        "owner": str(record.owner),
        "state": record.state.value,
        "exit_reason": record.exit_reason,
        "finished_at": record.finished_at,
        "account": record.account,
        "spec": str(record.spec),
    }


def record_from_wire(data: Dict[str, Any]):
    """Rebuild a CompletedJobRecord from its JSONL insert form.

    Keys it does not read are ignored, such as the ``capability``
    object older spill files carry with each insert.
    """
    from repro.gram.lifecycle import CompletedJobRecord

    return CompletedJobRecord(
        contact=JobContact(host=str(data["host"]), job_id=str(data["job_id"])),
        owner=DistinguishedName.parse(str(data["owner"])),
        state=GramJobState(str(data["state"])),
        exit_reason=str(data.get("exit_reason", "")),
        finished_at=float(data["finished_at"]),
        account=str(data.get("account", "")),
        spec=parse_specification(str(data["spec"])),
    )


@dataclass
class RecoveryResult:
    """What one spill-file replay produced."""

    records: List[Any] = field(default_factory=list)
    #: Lines that did not parse (truncated tail, garbled bytes) and
    #: were skipped rather than aborting recovery.
    skipped_lines: int = 0
    #: Insert/evict lines successfully replayed.
    replayed_lines: int = 0
    #: Tombstoned ids dropped during replay.
    evicted: int = 0
    #: The latest simulated timestamp seen in the file — a restarted
    #: service advances its fresh clock here so record ages stay right.
    last_at: float = 0.0


class CompletedJobSpill:
    """Append-only JSONL durability for the completed-job store."""

    def __init__(
        self,
        path: str,
        compact_min_lines: int = 256,
        compact_ratio: float = 4.0,
    ) -> None:
        if compact_ratio < 1.0:
            raise ValueError("compact_ratio must be >= 1.0")
        self.path = path
        self.compact_min_lines = compact_min_lines
        self.compact_ratio = compact_ratio
        #: Lines currently in the file (appends since open + recovered
        #: content); the compaction trigger compares this to live size.
        self.lines = 0
        self.appended_inserts = 0
        self.appended_evictions = 0
        self.compactions = 0

    # -- appends -------------------------------------------------------------

    def append_insert(self, record) -> None:
        self._append(record_to_wire(record))
        self.appended_inserts += 1

    def append_evict(self, job_id: str, reason: str, at: float) -> None:
        self._append(
            {"kind": KIND_EVICT, "job_id": job_id, "reason": reason, "at": at}
        )
        self.appended_evictions += 1

    def _append(self, data: Dict[str, Any]) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        self.lines += 1

    # -- recovery ------------------------------------------------------------

    def recover(self) -> RecoveryResult:
        """Replay the file into live records (missing file = empty)."""
        result = RecoveryResult()
        if not os.path.exists(self.path):
            self.lines = 0
            return result
        end_torn_line(self.path)
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        alive: "Dict[str, Any]" = {}
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                data = json.loads(raw)
                kind = data["kind"]
                if kind == KIND_INSERT:
                    record = record_from_wire(data)
                    # Re-insert moves to the end, like the live store.
                    alive.pop(record.job_id, None)
                    alive[record.job_id] = record
                    result.last_at = max(result.last_at, record.finished_at)
                elif kind == KIND_EVICT:
                    if alive.pop(str(data["job_id"]), None) is not None:
                        result.evicted += 1
                    result.last_at = max(
                        result.last_at, float(data.get("at", 0.0))
                    )
                else:
                    raise ValueError(f"unknown spill line kind {kind!r}")
            except Exception:
                # Crash mid-append (truncated tail) or disk garbling:
                # skip the line, keep the rest of the store.
                result.skipped_lines += 1
                continue
            result.replayed_lines += 1
        # Completion order = FIFO order; the file preserves it for the
        # common path, the sort makes it robust to merged/odd files.
        result.records = sorted(alive.values(), key=lambda r: r.finished_at)
        self.lines = result.replayed_lines + result.skipped_lines
        return result

    # -- compaction ----------------------------------------------------------

    def should_compact(self, live_count: int) -> bool:
        if self.lines <= self.compact_min_lines:
            return False
        return self.lines > max(1, live_count) * self.compact_ratio

    def compact(self, live_records: Sequence[Any]) -> int:
        """Atomically rewrite the file with only *live_records*.

        Returns the number of lines dropped.  Written to a sibling
        temp file and swapped with ``os.replace``, so a crash during
        compaction leaves either the old file or the new one — never
        a half-written store.
        """
        dropped = self.lines - len(live_records)
        tmp_path = self.path + ".compact"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in live_records:
                handle.write(json.dumps(record_to_wire(record), sort_keys=True) + "\n")
        os.replace(tmp_path, self.path)
        self.lines = len(live_records)
        self.compactions += 1
        return dropped

    def maybe_compact(self, live_records: Sequence[Any]) -> bool:
        if not self.should_compact(len(live_records)):
            return False
        self.compact(live_records)
        return True

