"""Operational reporting: per-VO accounting and authorization audits.

The use case's resource providers "are concerned about how many
resources the VO can use as a whole" — which requires rolling
per-account usage up to VO granularity — while VO administrators need
to see who was denied what and why.  This module produces both views
from the live components (scheduler accounting + PEP audit log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.pep import EnforcementPoint
from repro.core.pipeline import DecisionContext
from repro.lrm.scheduler import BatchScheduler
from repro.vo.organization import VirtualOrganization


@dataclass(frozen=True)
class VOUsageReport:
    """Aggregate resource consumption attributed to one VO."""

    vo_name: str
    members_seen: int
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    jobs_cancelled: int
    cpu_seconds: float

    def __str__(self) -> str:
        return (
            f"VO {self.vo_name}: {self.jobs_submitted} jobs "
            f"({self.jobs_completed} done / {self.jobs_failed} failed / "
            f"{self.jobs_cancelled} cancelled), "
            f"{self.cpu_seconds:.1f} CPU-seconds across "
            f"{self.members_seen} member account(s)"
        )


def vo_usage(
    vo: VirtualOrganization,
    scheduler: BatchScheduler,
    account_of: Dict[str, str],
) -> VOUsageReport:
    """Roll account usage up to the VO.

    *account_of* maps member identity strings to local account names
    (the grid-mapfile view); only members' accounts are counted, so a
    shared resource's other tenants are excluded.
    """
    totals = dict(
        jobs_submitted=0,
        jobs_completed=0,
        jobs_failed=0,
        jobs_cancelled=0,
        cpu_seconds=0.0,
    )
    seen = 0
    for member in vo:
        account = account_of.get(str(member.identity))
        if account is None:
            continue
        usage = scheduler.usage(account)
        if usage.jobs_submitted == 0:
            continue
        seen += 1
        totals["jobs_submitted"] += usage.jobs_submitted
        totals["jobs_completed"] += usage.jobs_completed
        totals["jobs_failed"] += usage.jobs_failed
        totals["jobs_cancelled"] += usage.jobs_cancelled
        totals["cpu_seconds"] += usage.cpu_seconds
    return VOUsageReport(vo_name=vo.name, members_seen=seen, **totals)


@dataclass(frozen=True)
class DenialSummary:
    """Denials grouped by requester and leading reason."""

    requester: str
    action: str
    count: int
    sample_reason: str

    def __str__(self) -> str:
        return (
            f"{self.requester} {self.action} x{self.count}: "
            f"{self.sample_reason}"
        )


def denial_report(
    pep: EnforcementPoint, limit: int = 50
) -> Tuple[DenialSummary, ...]:
    """Summarise the PEP's denials for an administrator."""
    buckets: Dict[Tuple[str, str], List[DecisionContext]] = {}
    for context in pep.audit_log:
        if context.outcome != "deny":
            continue
        key = (context.requester, context.action)
        buckets.setdefault(key, []).append(context)
    summaries = []
    for (requester, action), contexts in buckets.items():
        reasons = contexts[-1].reasons
        summaries.append(
            DenialSummary(
                requester=requester,
                action=action,
                count=len(contexts),
                sample_reason=reasons[0] if reasons else "(no reason recorded)",
            )
        )
    summaries.sort(key=lambda s: (-s.count, s.requester, s.action))
    return tuple(summaries[:limit])


@dataclass(frozen=True)
class AuthorizationStats:
    """One-line health summary of an enforcement point."""

    permits: int
    denials: int
    failures: int

    @property
    def total(self) -> int:
        return self.permits + self.denials + self.failures

    @property
    def denial_rate(self) -> float:
        return self.denials / self.total if self.total else 0.0

    def __str__(self) -> str:
        return (
            f"{self.total} decisions: {self.permits} permits, "
            f"{self.denials} denials ({self.denial_rate:.0%}), "
            f"{self.failures} system failures"
        )


def authorization_stats(pep: EnforcementPoint) -> AuthorizationStats:
    return AuthorizationStats(
        permits=pep.permits, denials=pep.denials, failures=pep.failures
    )
