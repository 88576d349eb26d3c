"""The capability never-exceeds differential audit.

The load-bearing safety argument for :mod:`repro.core.capability` is
differential: replay a randomized request stream through the
capability fast path (the grant middleware in front of the combined
VO∧local evaluator) and, for every single case, compare against what
a *fresh* combined evaluation grants at that moment.  The fast path
must *never exceed* fresh evaluation — a capability hit that permits
where fresh evaluation denies is precisely the delegation bug (a grant
outliving or outgrowing the policy that minted it) the design fails
closed against.

The driver deliberately stresses the staleness windows:

* periodic ``replace_policy`` swaps on the VO or local source bump
  that source's epoch mid-stream (outstanding capabilities must
  revoke);
* periodic sim-clock jumps push held grants past their TTL;
* the request pool is replayed with heavy repetition, so the stream is
  mostly the repeat traffic capabilities exist to amortize.

Used by ``tests/core/test_capability_differential.py`` (zero-tolerance
assertions, ≥10k cases) and ``benchmarks/test_bench_capability.py``
(the acceptance artifact embeds the audit numbers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.capability import CapabilityMiddleware
from repro.core.combination import CombinationAlgorithm, CombinedEvaluator
from repro.core.decision import Effect
from repro.core.errors import AuthorizationSystemFailure
from repro.core.evaluator import PolicyEvaluator
from repro.core.pipeline import DecisionContext, EpochView, activate, compose
from repro.sim.clock import Clock
from repro.workloads.generator import (
    PolicyShape,
    WorkloadGenerator,
    generate_policy,
    generate_users,
)


@dataclass(frozen=True)
class AuditConfig:
    """Shape of one audit run (fully seeded, fully deterministic)."""

    #: Policy shape shared by the VO and local sources (the local
    #: source is generated from ``seed + 1`` so the two differ).
    shape: PolicyShape = PolicyShape(users=25, seed=7)
    #: Distinct requests in the replay pool.
    pool_size: int = 120
    #: Total cases replayed (each drawn from the pool with repetition).
    cases: int = 5000
    seed: int = 13
    #: Capability TTL in simulated seconds.
    ttl: float = 300.0
    #: Every N cases, replace one policy source (alternating VO/local)
    #: with a reshaped one — an epoch bump mid-stream (0 = never).
    bump_every: int = 700
    #: Every N cases, advance the sim clock by ``ttl / 3``; every
    #: third jump is a full ``ttl``, expiring the whole outstanding
    #: set at once (0 = never advance).
    advance_every: int = 400
    management_fraction: float = 0.4


@dataclass
class AuditResult:
    """What one audit run observed, ready for assertions."""

    cases: int = 0
    #: Fast-path PERMITs where fresh evaluation did NOT permit — the
    #: zero-tolerance number.
    exceeded: int = 0
    #: Any effect disagreement at all (includes under-grants, which
    #: the design also avoids: a miss re-evaluates fresh).
    divergences: int = 0
    first_divergence: Optional[Tuple[str, str, str]] = None
    hits: int = 0
    misses: int = 0
    revoked: int = 0
    minted: int = 0
    epoch_bumps: int = 0
    clock_advances: int = 0
    miss_reasons: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "exceeded": self.exceeded,
            "divergences": self.divergences,
            "hits": self.hits,
            "misses": self.misses,
            "revoked": self.revoked,
            "minted": self.minted,
            "epoch_bumps": self.epoch_bumps,
            "clock_advances": self.clock_advances,
            "miss_reasons": dict(self.miss_reasons),
        }


def build_audit_stack(
    config: AuditConfig,
) -> Tuple[Any, CombinedEvaluator, CapabilityMiddleware, Clock, List[PolicyEvaluator]]:
    """The capability-fronted pipeline the audit replays through.

    Returns ``(handler, combined, middleware, clock, evaluators)``:
    *handler* is the composed capability middleware with the combined
    evaluator as its terminal, exactly the shape the PEP runs it in.
    """
    vo_policy = generate_policy(config.shape, name="vo")
    # The local source starts in agreement with the VO source (same
    # shape seed) so the combined stream has a healthy PERMIT fraction
    # — that is what exercises the mint/hit path.  The mid-stream
    # ``replace_policy`` bumps then swap in genuinely different
    # policies, opening the disagreement windows the audit exists to
    # check.
    local_policy = generate_policy(config.shape, name="local")
    evaluators = [
        PolicyEvaluator(vo_policy, source="vo"),
        PolicyEvaluator(local_policy, source="local"),
    ]
    combined = CombinedEvaluator(
        evaluators, algorithm=CombinationAlgorithm.ALL_MUST_PERMIT
    )
    clock = Clock()
    middleware = CapabilityMiddleware(
        clock, view=EpochView([("policy", combined)]), ttl=config.ttl
    )

    def terminal(request, context):
        return combined.evaluate(request)

    handler = compose([middleware], terminal)
    return handler, combined, middleware, clock, evaluators


def run_capability_audit(config: Optional[AuditConfig] = None) -> AuditResult:
    """Replay the stream; compare every fast-path case against fresh."""
    config = config or AuditConfig()
    handler, combined, middleware, clock, evaluators = build_audit_stack(config)
    users = generate_users(config.shape.users)
    generator = WorkloadGenerator(
        policy=combined.evaluators[0].policy,
        users=users,
        seed=config.seed,
    )
    pool = generator.batch(
        config.pool_size, management_fraction=config.management_fraction
    )
    rng = random.Random(config.seed * 31 + 7)
    result = AuditResult()
    reshuffle = 0

    for case in range(config.cases):
        if config.bump_every and case and case % config.bump_every == 0:
            # Epoch bump mid-stream: one source gets a genuinely
            # different policy, so fresh outcomes change under every
            # outstanding capability.
            reshuffle += 1
            target = evaluators[reshuffle % len(evaluators)]
            target.replace_policy(
                generate_policy(
                    PolicyShape(
                        users=config.shape.users,
                        statements_per_user=config.shape.statements_per_user,
                        assertions_per_statement=config.shape.assertions_per_statement,
                        seed=config.shape.seed + 100 + reshuffle,
                    ),
                    name=target.source,
                )
            )
            result.epoch_bumps += 1
        if config.advance_every and case and case % config.advance_every == 0:
            result.clock_advances += 1
            if result.clock_advances % 3 == 0:
                clock.advance(config.ttl)  # expire everything held
            else:
                clock.advance(config.ttl / 3)

        request = pool[rng.randrange(len(pool))]
        # The oracle: what fresh evaluation grants RIGHT NOW.
        try:
            fresh_effect = combined.evaluate(request).effect
        except AuthorizationSystemFailure:
            fresh_effect = Effect.INDETERMINATE
        # The system under test: the capability-fronted pipeline.
        context = DecisionContext.from_request(request)
        with activate(context):
            try:
                fast_effect = handler(request, context).effect
            except AuthorizationSystemFailure:
                fast_effect = Effect.INDETERMINATE

        result.cases += 1
        if fast_effect is Effect.PERMIT and fresh_effect is not Effect.PERMIT:
            result.exceeded += 1
        if fast_effect is not fresh_effect:
            result.divergences += 1
            if result.first_divergence is None:
                result.first_divergence = (
                    str(request),
                    fast_effect.value,
                    fresh_effect.value,
                )

    result.hits = middleware.hits
    result.misses = middleware.misses
    result.revoked = middleware.revoked
    result.minted = middleware.minted
    result.miss_reasons = dict(middleware.miss_reasons)
    return result
