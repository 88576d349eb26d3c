"""Coarse-grained VO allocations (paper §2, the provider's view).

"The resource providers think of the allocation in a coarse-grained
manner: they are concerned about how many resources the VO can use as
a whole, but they are not concerned about how allocation is used
inside the VO."

:class:`VOAllocation` is that contract: a CPU-seconds budget plus a
concurrent-CPU ceiling for the whole community.  The resource owner
enforces it with :func:`allocation_callout` — one more callout chained
*before* the fine-grain policy sources, so the provider's envelope is
checked first and the VO divides whatever is left however its own
policy says.

Consumption is metered from the scheduler's per-account usage plus
the CPUs of currently active member jobs, attributed through the same
identity→account mapping the grid-mapfile defines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.attributes import Action
from repro.core.decision import Decision
from repro.core.request import AuthorizationRequest
from repro.gram.rsl_utils import requested_count
from repro.lrm.scheduler import BatchScheduler
from repro.vo.organization import VirtualOrganization


@dataclass
class VOAllocation:
    """The provider's coarse contract with one VO."""

    vo: VirtualOrganization
    #: Total CPU-seconds the VO may consume; None = unmetered.
    cpu_seconds_budget: Optional[float] = None
    #: Concurrent CPUs the VO may occupy; None = uncapped.
    concurrent_cpu_cap: Optional[int] = None

    def __str__(self) -> str:
        budget = (
            f"{self.cpu_seconds_budget:.0f} cpu-s"
            if self.cpu_seconds_budget is not None
            else "unmetered"
        )
        cap = (
            str(self.concurrent_cpu_cap)
            if self.concurrent_cpu_cap is not None
            else "uncapped"
        )
        return f"Allocation[{self.vo.name}: budget={budget}, concurrent={cap} CPUs]"


class AllocationMeter:
    """Measures a VO's consumption on one resource."""

    def __init__(
        self,
        allocation: VOAllocation,
        scheduler: BatchScheduler,
        account_of: Dict[str, str],
    ) -> None:
        self.allocation = allocation
        self.scheduler = scheduler
        self.account_of = dict(account_of)

    def member_accounts(self) -> set:
        return {
            account
            for identity, account in self.account_of.items()
            if self.allocation.vo.is_member(identity)
        }

    def cpu_seconds_used(self) -> float:
        """Finished plus in-flight CPU-seconds of member jobs."""
        accounts = self.member_accounts()
        finished = sum(
            self.scheduler.usage(account).cpu_seconds for account in accounts
        )
        in_flight = sum(
            job.cpu_seconds
            for job in self.scheduler.jobs()
            if not job.is_terminal and job.account in accounts
        )
        return finished + in_flight

    def concurrent_cpus(self) -> int:
        accounts = self.member_accounts()
        return sum(
            job.cpus
            for job in self.scheduler.jobs()
            if not job.is_terminal and job.account in accounts
        )

    def remaining_budget(self) -> Optional[float]:
        if self.allocation.cpu_seconds_budget is None:
            return None
        return max(0.0, self.allocation.cpu_seconds_budget - self.cpu_seconds_used())


def allocation_callout(meter: AllocationMeter, source: str = "vo-allocation"):
    """A callout enforcing the provider's coarse envelope.

    Only job-start requests are gated (management of existing jobs is
    free); non-members are NOT_APPLICABLE so the provider's other
    tenants are unaffected.  The requested CPUs and the declared
    budget (count × maxcputime-style) must fit inside what remains.
    """

    def callout(request: AuthorizationRequest) -> Decision:
        if request.action is not Action.START:
            return Decision.permit(
                reason="allocation gates job starts only", source=source
            )
        if not meter.allocation.vo.is_member(request.requester):
            # Another tenant: this envelope has no objection (the
            # fine-grain callouts chained after us still decide).
            return Decision.permit(
                reason=f"{request.requester} is outside VO "
                f"{meter.allocation.vo.name}; envelope does not apply",
                source=source,
            )
        requested_cpus = requested_count(request.job_description)

        cap = meter.allocation.concurrent_cpu_cap
        if cap is not None:
            occupied = meter.concurrent_cpus()
            if occupied + requested_cpus > cap:
                return Decision.deny(
                    reasons=(
                        f"VO {meter.allocation.vo.name} concurrent-CPU cap "
                        f"{cap} exceeded ({occupied} in use, "
                        f"{requested_cpus} requested)",
                    ),
                    source=source,
                )

        remaining = meter.remaining_budget()
        if remaining is not None and remaining <= 0.0:
            return Decision.deny(
                reasons=(
                    f"VO {meter.allocation.vo.name} has exhausted its "
                    f"{meter.allocation.cpu_seconds_budget:.0f} "
                    "CPU-second allocation",
                ),
                source=source,
            )
        return Decision.permit(reason="within VO allocation", source=source)

    callout.__name__ = f"allocation:{meter.allocation.vo.name}"
    return callout
