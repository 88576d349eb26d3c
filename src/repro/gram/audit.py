"""Audit-log export and offline analysis.

The PEP keeps its audit log (each decision's finished context) in
memory; sites need it on disk for accounting disputes and security
review.  This module flattens the contexts to JSON lines, reloads
them, and runs the same denial analysis offline — so an administrator
can answer "who was denied what last week, and why" without the
resource running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.pep import EnforcementPoint
from repro.core.pipeline import DecisionContext


@dataclass(frozen=True)
class AuditEntry:
    """One flattened audit record (decoupled from live objects)."""

    requester: str
    action: str
    job_id: str
    jobowner: str
    outcome: str  # "permit" | "deny" | "failure"
    reasons: Tuple[str, ...]
    source: str
    #: Pipeline provenance (when the record came through the decision
    #: pipeline): total decision latency, cache status and the names
    #: of the contributing policy sources.
    duration: float = 0.0
    cache: str = ""
    sources: Tuple[str, ...] = ()
    #: Correlation id — the trace id of the request's span tree when
    #: telemetry was on (else the pipeline's decision id), so an audit
    #: line joins against a trace export.
    request_id: str = ""
    #: Failure attribution for ``outcome == "failure"``: which
    #: callout/policy source broke, and how.
    failure_source: str = ""
    failure_kind: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "requester": self.requester,
                "action": self.action,
                "job_id": self.job_id,
                "jobowner": self.jobowner,
                "outcome": self.outcome,
                "reasons": list(self.reasons),
                "source": self.source,
                "duration": self.duration,
                "cache": self.cache,
                "sources": list(self.sources),
                "request_id": self.request_id,
                "failure_source": self.failure_source,
                "failure_kind": self.failure_kind,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AuditEntry":
        data = json.loads(text)
        return cls(
            requester=data["requester"],
            action=data["action"],
            job_id=data.get("job_id", ""),
            jobowner=data.get("jobowner", ""),
            outcome=data["outcome"],
            reasons=tuple(data.get("reasons", ())),
            source=data.get("source", ""),
            duration=float(data.get("duration", 0.0)),
            cache=data.get("cache", ""),
            sources=tuple(data.get("sources", ())),
            request_id=data.get("request_id", ""),
            failure_source=data.get("failure_source", ""),
            failure_kind=data.get("failure_kind", ""),
        )

    @classmethod
    def from_context(cls, context: DecisionContext) -> "AuditEntry":
        """Flatten one finished decision (an audit-log entry)."""
        outcome = context.outcome
        if outcome == "failure":
            reasons: Tuple[str, ...] = (context.failure,)
            source = ""
        else:
            reasons = context.reasons
            source = context.source
        return cls(
            requester=context.requester,
            action=context.action,
            job_id=context.job_id,
            jobowner=context.jobowner,
            outcome=outcome,
            reasons=reasons,
            source=source,
            duration=context.duration,
            cache=context.cache_status,
            sources=context.source_names,
            request_id=context.correlation_id or context.request_id,
            failure_source=context.failure_source,
            failure_kind=context.failure_kind,
        )


def export_audit_log(pep: EnforcementPoint, path: str) -> int:
    """Write the PEP's audit log as JSON lines; returns entries written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for context in pep.audit_log:
            handle.write(AuditEntry.from_context(context).to_json() + "\n")
            count += 1
    return count


def load_audit_log(path: str) -> Tuple[AuditEntry, ...]:
    """Read a JSON-lines audit file back into entries."""
    entries: List[AuditEntry] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(AuditEntry.from_json(line))
    return tuple(entries)


@dataclass(frozen=True)
class OfflineSummary:
    """Aggregates over a loaded audit log."""

    total: int
    permits: int
    denials: int
    failures: int
    by_requester: Tuple[Tuple[str, int], ...]
    top_denial_reasons: Tuple[Tuple[str, int], ...]

    def __str__(self) -> str:
        lines = [
            f"{self.total} decisions: {self.permits} permits, "
            f"{self.denials} denials, {self.failures} failures"
        ]
        for requester, count in self.by_requester[:5]:
            lines.append(f"  {requester}: {count} request(s)")
        for reason, count in self.top_denial_reasons[:5]:
            lines.append(f"  deny x{count}: {reason}")
        return "\n".join(lines)


def summarize(entries: Iterable[AuditEntry]) -> OfflineSummary:
    """Compute the offline report an administrator reads first."""
    total = permits = denials = failures = 0
    requesters: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    for entry in entries:
        total += 1
        requesters[entry.requester] = requesters.get(entry.requester, 0) + 1
        if entry.outcome == "permit":
            permits += 1
        elif entry.outcome == "deny":
            denials += 1
            for reason in entry.reasons[:1]:
                reasons[reason] = reasons.get(reason, 0) + 1
        else:
            failures += 1
    return OfflineSummary(
        total=total,
        permits=permits,
        denials=denials,
        failures=failures,
        by_requester=tuple(
            sorted(requesters.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
        top_denial_reasons=tuple(
            sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
    )
