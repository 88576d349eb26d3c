"""repro — Fine-Grain Authorization Policies in the Grid.

A complete, self-contained reproduction of *Fine-Grain Authorization
Policies in the GRID: Design and Implementation* (Keahey, Welch, Lang,
Liu, Meder — Middleware 2003): the RSL-based policy language, the
authorization callout API, the extended GRAM architecture, and every
substrate they rest on (simulated GSI, a batch-system simulation,
local/dynamic accounts, sandboxes, CAS and Akenti policy sources).

Quickstart::

    from repro import (
        GramService, ServiceConfig, GramClient, parse_policy,
    )

    policy = parse_policy('''
    /O=Grid/OU=demo/CN=Alice:
        &(action=start)(executable=sim)(count<4)
        &(action=cancel)(jobowner=self)
    ''', name="vo")
    service = GramService(ServiceConfig(policies=(policy,)))
    alice = GramClient(
        service.add_user("/O=Grid/OU=demo/CN=Alice", "alice"),
        service.gatekeeper,
    )
    response = alice.submit("&(executable=sim)(count=2)(runtime=60)")
    assert response.ok

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the
system inventory.
"""

from repro.core import (
    Action,
    AuthorizationDenied,
    AuthorizationRequest,
    AuthorizationSystemFailure,
    CombinationAlgorithm,
    CombinedEvaluator,
    CompiledPolicy,
    Decision,
    Effect,
    EnforcementPoint,
    Policy,
    PolicyEvaluator,
    PolicyParseError,
    compile_policy,
    parse_policy,
    parse_policy_file,
)
from repro.gram import (
    AuthorizationMode,
    Gatekeeper,
    GramClient,
    GramErrorCode,
    GramJobState,
    GramService,
    GridMapFile,
    JobManagerInstance,
    ServiceConfig,
)
from repro.gsi import (
    CertificateAuthority,
    Credential,
    DistinguishedName,
    delegate,
    verify_credential,
)
from repro.rsl import parse_rsl, parse_specification, unparse

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Action",
    "AuthorizationDenied",
    "AuthorizationRequest",
    "AuthorizationSystemFailure",
    "CombinationAlgorithm",
    "CombinedEvaluator",
    "Decision",
    "Effect",
    "EnforcementPoint",
    "Policy",
    "CompiledPolicy",
    "compile_policy",
    "PolicyEvaluator",
    "PolicyParseError",
    "parse_policy",
    "parse_policy_file",
    # gram
    "AuthorizationMode",
    "Gatekeeper",
    "GramClient",
    "GramErrorCode",
    "GramJobState",
    "GramService",
    "GridMapFile",
    "JobManagerInstance",
    "ServiceConfig",
    # gsi
    "CertificateAuthority",
    "Credential",
    "DistinguishedName",
    "delegate",
    "verify_credential",
    # rsl
    "parse_rsl",
    "parse_specification",
    "unparse",
]
