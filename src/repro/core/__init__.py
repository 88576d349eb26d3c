"""Fine-grain authorization policies — the paper's core contribution.

This package implements the policy language, evaluation, combination
and enforcement machinery of *Fine-Grain Authorization Policies in the
GRID* (Middleware 2003):

* :mod:`repro.core.attributes` — the RSL attribute extensions
  (``action``, ``jobowner``, ``jobtag``) and special values (``NULL``,
  ``self``).
* :mod:`repro.core.model` — policy statements (grants and
  requirements) built from RSL assertion conjunctions, keyed on Grid
  identities or identity prefixes.
* :mod:`repro.core.parser` — the Figure 3 policy-file syntax.
* :mod:`repro.core.request` — the authorization request the Job
  Manager hands to the PEP.
* :mod:`repro.core.evaluator` — the default-deny policy decision
  point (PDP).
* :mod:`repro.core.combination` — VO ∧ local policy combination.
* :mod:`repro.core.callout` — the runtime-configurable authorization
  callout API.
* :mod:`repro.core.pep` — the policy enforcement point placed in the
  Job Manager (or, for comparison, the Gatekeeper).
"""

from repro.core.attributes import (
    ACTION,
    JOBOWNER,
    JOBTAG,
    NULL,
    SELF,
    Action,
)
from repro.core.decision import Decision, Effect
from repro.core.errors import (
    AuthorizationDenied,
    AuthorizationError,
    AuthorizationSystemFailure,
    PolicyParseError,
)
from repro.core.model import (
    Policy,
    PolicyAssertion,
    PolicyStatement,
    StatementKind,
    Subject,
)
from repro.core.parser import parse_policy, parse_policy_file
from repro.core.request import AuthorizationRequest
from repro.core.compiled import (
    CompiledPolicy,
    CompileStats,
    compile_policy,
    compiled_for,
)
from repro.core.evaluator import PolicyEvaluator
from repro.core.combination import CombinedEvaluator, CombinationAlgorithm
from repro.core.callout import (
    CalloutConfiguration,
    CalloutRegistry,
    CalloutType,
)
from repro.core.pep import EnforcementPoint, PEPPlacement
from repro.core.capability import (
    CapabilityIssuer,
    CapabilityMiddleware,
    CapabilityToken,
)
from repro.core.analysis import (
    Capability,
    ImpactReport,
    LintFinding,
    LintLevel,
    PolicyDiff,
    capabilities,
    diff_policies,
    impact,
    lint,
    who_can,
)
from repro.core.dynamic import (
    DynamicEvaluator,
    DynamicPolicy,
    TimeWindow,
)
from repro.core.pipeline import (
    DecisionCache,
    DecisionContext,
    EpochView,
    ReplayStore,
    SourceRecord,
    StageRecord,
    current_context,
)
from repro.core.store import (
    BundleRejected,
    PolicyBundle,
    PolicySnapshot,
    PolicyWatcher,
    VersionedPolicyStore,
)
from repro.core.resilience import (
    BreakerOpen,
    BreakerState,
    CalloutTimeout,
    CircuitBreaker,
    DegradationMode,
    ResilienceConfig,
    ResilienceMetrics,
    ResilienceMiddleware,
    ResilientCallout,
    RetryPolicy,
)

__all__ = [
    "ACTION",
    "JOBOWNER",
    "JOBTAG",
    "NULL",
    "SELF",
    "Action",
    "Decision",
    "Effect",
    "AuthorizationError",
    "AuthorizationDenied",
    "AuthorizationSystemFailure",
    "PolicyParseError",
    "Policy",
    "PolicyAssertion",
    "PolicyStatement",
    "StatementKind",
    "Subject",
    "parse_policy",
    "parse_policy_file",
    "AuthorizationRequest",
    "CompiledPolicy",
    "CompileStats",
    "compile_policy",
    "compiled_for",
    "PolicyEvaluator",
    "CombinedEvaluator",
    "CombinationAlgorithm",
    "CalloutConfiguration",
    "CalloutRegistry",
    "CalloutType",
    "EnforcementPoint",
    "PEPPlacement",
    "CapabilityIssuer",
    "CapabilityMiddleware",
    "CapabilityToken",
    "LintFinding",
    "LintLevel",
    "Capability",
    "PolicyDiff",
    "lint",
    "capabilities",
    "who_can",
    "diff_policies",
    "impact",
    "ImpactReport",
    "DynamicPolicy",
    "DynamicEvaluator",
    "TimeWindow",
    "DecisionCache",
    "DecisionContext",
    "EpochView",
    "ReplayStore",
    "SourceRecord",
    "StageRecord",
    "current_context",
    "BundleRejected",
    "PolicyBundle",
    "PolicySnapshot",
    "PolicyWatcher",
    "VersionedPolicyStore",
    "BreakerOpen",
    "BreakerState",
    "CalloutTimeout",
    "CircuitBreaker",
    "DegradationMode",
    "ResilienceConfig",
    "ResilienceMetrics",
    "ResilienceMiddleware",
    "ResilientCallout",
    "RetryPolicy",
]
