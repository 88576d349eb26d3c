"""GRAM — Grid Resource Acquisition and Management (GT2 model).

The two major components of GT2's GRAM (paper §4), plus the paper's
extensions (§5):

* :mod:`repro.gram.gatekeeper` — authenticates the requesting Grid
  user, authorizes the invocation (grid-mapfile, optionally a
  Gatekeeper-placed PEP), maps the Grid identity to a local account
  and creates a Job Manager Instance.
* :mod:`repro.gram.jobmanager` — the JMI: parses the RSL job
  description, drives the local resource manager, and handles
  management requests.  In EXTENDED mode it invokes the authorization
  callout before job start and before every cancel / information /
  signal; in LEGACY mode it reproduces stock GT2 (only the initiator
  may manage a job, no callout).
* :mod:`repro.gram.client` — the GRAM client library, including the
  extension that lets a client act on jobs owned by other identities.
* :mod:`repro.gram.protocol` — wire-level messages and the extended
  error vocabulary distinguishing authorization denial from
  authorization-system failure.
* :mod:`repro.gram.gridmap` — the grid-mapfile access-control list.
* :mod:`repro.gram.service` — glue assembling a whole resource
  (gatekeeper + scheduler + accounts + PEP) for examples and benches.
* :mod:`repro.gram.dispatch` — the sharded service core: N complete
  stacks hashed on requester DN behind the same synchronous API, each
  request served on the caller's thread by its owning shard.
"""

from repro.gram.protocol import (
    GramErrorCode,
    GramJobState,
    GramResponse,
    JobContact,
    TraceEvent,
    TraceRecorder,
)
from repro.gram.gridmap import GridMapEntry, GridMapFile
from repro.gram.mds import InformationService, ResourceRecord
from repro.gram.reporting import (
    authorization_stats,
    denial_report,
    vo_usage,
)
from repro.gram.jobmanager import AuthorizationMode, JobManagerInstance
from repro.gram.gatekeeper import Gatekeeper
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig
from repro.gram.dispatch import (
    EpochBroadcast,
    ShardRouter,
    ShardedGatekeeper,
    ShardedGramService,
)
from repro.gram.lifecycle import ShardState, SharedGauge

__all__ = [
    "GramErrorCode",
    "GramJobState",
    "GramResponse",
    "JobContact",
    "TraceEvent",
    "TraceRecorder",
    "GridMapEntry",
    "GridMapFile",
    "AuthorizationMode",
    "JobManagerInstance",
    "Gatekeeper",
    "GramClient",
    "GramService",
    "ServiceConfig",
    "EpochBroadcast",
    "ShardRouter",
    "ShardedGatekeeper",
    "ShardedGramService",
    "ShardState",
    "SharedGauge",
    "InformationService",
    "ResourceRecord",
    "vo_usage",
    "denial_report",
    "authorization_stats",
]
