"""The runtime-configurable authorization callout API (paper §5.2).

GT2's prototype loads authorization decision modules through GNU
Libtool's dlopen: a configuration names an *abstract callout type*,
the *dynamic library* implementing it, and the *symbol* inside that
library.  The Python analogue maps cleanly:

=================== =========================================
abstract type name  a string like ``"gram.authz"``
dynamic library     an importable module path
symbol              an attribute (callable) in that module
=================== =========================================

Callouts can be configured through a configuration file
(:meth:`CalloutRegistry.configure_from_file`) or an API call
(:meth:`CalloutRegistry.register` / :meth:`CalloutRegistry.configure`),
exactly the two paths the paper describes.

A GRAM authorization callout is a callable taking an
:class:`~repro.core.request.AuthorizationRequest` and returning a
:class:`~repro.core.decision.Decision`.  Any exception escaping a
callout — or a missing/misconfigured callout — is surfaced as
:class:`AuthorizationSystemFailure`, preserving the paper's
distinction between "denied" and "the authorization system broke".

Configuration file format (one callout per line)::

    # type        module                    symbol
    gram.authz    repro.core.builtin_callouts   permit_all
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.decision import Decision, Effect
from repro.core.errors import AuthorizationSystemFailure
from repro.core.pipeline import DecisionContext, current_context
from repro.core.request import AuthorizationRequest
from repro.obs.spans import span as obs_span

#: The abstract callout type the Job Manager invokes before every
#: job-start and job-management action.
GRAM_AUTHZ_CALLOUT = "gram.authz"

#: Callout type invoked by the Gatekeeper when the PEP is placed there
#: instead (the §6.2 alternative placement).
GATEKEEPER_AUTHZ_CALLOUT = "gatekeeper.authz"

AuthorizationCallout = Callable[[AuthorizationRequest], Decision]


@dataclass(frozen=True)
class CalloutType:
    """Declaration of an abstract callout type: its name and contract."""

    name: str
    description: str = ""


@dataclass(frozen=True)
class CalloutConfiguration:
    """One configured callout: where its implementation lives."""

    type_name: str
    module: str
    symbol: str

    def load(self) -> AuthorizationCallout:
        """Import the module and resolve the symbol (the dlopen step)."""
        try:
            module = importlib.import_module(self.module)
        except ImportError as exc:
            raise AuthorizationSystemFailure(
                f"callout library {self.module!r} cannot be loaded: {exc}"
            )
        try:
            callout = getattr(module, self.symbol)
        except AttributeError:
            raise AuthorizationSystemFailure(
                f"callout symbol {self.symbol!r} not found in {self.module!r}"
            )
        if not callable(callout):
            raise AuthorizationSystemFailure(
                f"callout {self.module}:{self.symbol} is not callable"
            )
        return callout


class CalloutRegistry:
    """Maps abstract callout types to implementations.

    Several callouts may be configured for the same type; they are
    invoked in configuration order and **all must permit** (this is
    how the prototype chains the plain-file PEP with Akenti).
    """

    def __init__(self) -> None:
        self._callouts: Dict[str, List[Tuple[str, AuthorizationCallout]]] = {}
        self._types: Dict[str, CalloutType] = {}
        self.invocations = 0
        #: Bumped whenever a *configuration event* changes what is
        #: configured (:meth:`configure`, :meth:`configure_from_file`
        #: with changed content) — never on a no-op republish of
        #: byte-identical file content.  Construction-time
        #: :meth:`register` calls and :meth:`wrap` layering do not
        #: bump: they assemble, they don't reconfigure.  Part of
        #: :attr:`policy_epoch`.
        self.configuration_epoch = 0
        #: Bumped on every change to a configured chain; the epoch
        #: sources of the configured callouts are re-collected only
        #: when it moved.  Stored with the version they were collected
        #: at, as one tuple, so a reader never pairs a version with
        #: another version's sources.
        self._chain_version = 0
        self._epoch_sources: Tuple[int, Tuple[Any, ...]] = (0, ())
        #: Per-path content digest of the last applied configuration
        #: file — the no-op-reload short circuit.
        self._file_digests: Dict[str, str] = {}
        #: Per-path ``(type_name, label)`` pairs registered from that
        #: file, so a reload can replace exactly what the file owns.
        self._file_entries: Dict[str, List[Tuple[str, str]]] = {}

    @property
    def policy_epoch(self) -> Any:
        """What the configured callouts decide from, as one epoch token.

        Exposed the way every policy source exposes its epoch, so
        capability issuers and decision caches that watch the registry
        revoke/invalidate on a real reconfiguration *and* whenever a
        configured callout's own policy moves — a time window opening,
        a CAS trust-key rotation, a policy swap — including callouts
        behind resilience or fault-injection wrappers (see
        :func:`callout_epoch_source`).  With no such callout configured
        it is just :attr:`configuration_epoch`.
        """
        version, sources = self._epoch_sources
        if version != self._chain_version:
            version = self._chain_version
            found: Dict[int, Any] = {}
            for chain in self._callouts.values():
                for _, callout in chain:
                    source = callout_epoch_source(callout)
                    if source is not None:
                        found.setdefault(id(source), source)
            sources = tuple(found.values())
            self._epoch_sources = (version, sources)
        if not sources:
            return self.configuration_epoch
        return (
            self.configuration_epoch,
            *[source.policy_epoch for source in sources],
        )

    # -- declaration ------------------------------------------------------

    def declare_type(self, callout_type: CalloutType) -> None:
        """Declare an abstract callout type (idempotent)."""
        self._types[callout_type.name] = callout_type

    def declared_types(self) -> Tuple[str, ...]:
        return tuple(self._types)

    # -- configuration ------------------------------------------------------

    def register(
        self,
        type_name: str,
        callout: AuthorizationCallout,
        label: str = "",
    ) -> None:
        """Configure a callout via the API path."""
        if not callable(callout):
            raise TypeError(f"callout for {type_name!r} must be callable")
        self._callouts.setdefault(type_name, []).append(
            (label or getattr(callout, "__name__", "callout"), callout)
        )
        self._chain_version += 1

    def configure(self, configuration: CalloutConfiguration) -> None:
        """Configure a callout by module/symbol (the dlopen path)."""
        callout = configuration.load()
        self.register(
            configuration.type_name,
            callout,
            label=f"{configuration.module}:{configuration.symbol}",
        )
        self.configuration_epoch += 1

    def configure_from_file(self, path: str, reload: bool = False) -> int:
        """Parse a callout configuration file; returns callouts loaded.

        All-or-nothing: every line is parsed and every implementation
        loaded *before* anything is registered, so a failure midway
        through the file leaves the registry exactly as it was — no
        partial configuration from the earlier lines.

        **Digest short-circuit:** when the file's content is
        byte-identical to what this path last applied, nothing happens
        and ``0`` is returned — in particular :attr:`policy_epoch`
        does not move, so a no-op republish revokes no capability
        tokens and invalidates no caches.  When the content *did*
        change, ``reload=True`` first drops the callouts previously
        configured from this path (a replace, not an append) and the
        epoch bumps once.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                content = handle.read()
        except OSError as exc:
            raise AuthorizationSystemFailure(
                f"cannot read callout configuration {path!r}: {exc}"
            )
        digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
        if self._file_digests.get(path) == digest:
            return 0
        staged: List[Tuple[str, AuthorizationCallout, str]] = []
        for line_number, raw in enumerate(content.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise AuthorizationSystemFailure(
                    f"{path}:{line_number}: expected 'type module symbol', "
                    f"got {line!r}"
                )
            configuration = CalloutConfiguration(
                type_name=parts[0], module=parts[1], symbol=parts[2]
            )
            staged.append(
                (
                    configuration.type_name,
                    configuration.load(),
                    f"{configuration.module}:{configuration.symbol}",
                )
            )
        previously_owned = bool(self._file_entries.get(path))
        if reload:
            self._drop_file_entries(path)
        for type_name, callout, label in staged:
            self.register(type_name, callout, label=label)
        self._file_digests[path] = digest
        self._file_entries[path] = [
            (type_name, label) for type_name, _, label in staged
        ]
        if staged or previously_owned:
            self.configuration_epoch += 1
        return len(staged)

    def _drop_file_entries(self, path: str) -> None:
        """Remove the callouts a previous apply of *path* registered."""
        for type_name, label in self._file_entries.pop(path, []):
            chain = self._callouts.get(type_name)
            if not chain:
                continue
            for index, (existing_label, _) in enumerate(chain):
                if existing_label == label:
                    del chain[index]
                    break
            if not chain:
                self._callouts.pop(type_name, None)
        self._chain_version += 1

    def file_labels(self, path: str) -> Tuple[Tuple[str, str], ...]:
        """``(type_name, label)`` pairs owned by *path*'s configuration."""
        return tuple(self._file_entries.get(path, ()))

    def wrap(
        self,
        type_name: str,
        wrapper: Callable[[str, AuthorizationCallout], AuthorizationCallout],
        label: Optional[str] = None,
    ) -> int:
        """Wrap configured callouts in place; returns how many matched.

        ``wrapper(label, callout)`` receives each configured callout
        (all of *type_name*, or only the one named *label*) and
        returns its replacement.  This is the supported hook for
        layering behaviour — resilience wrappers, fault injection —
        onto already-configured callouts without monkeypatching.
        """
        chain = self._callouts.get(type_name)
        if not chain:
            return 0
        wrapped = 0
        for index, (existing_label, callout) in enumerate(chain):
            if label is not None and existing_label != label:
                continue
            chain[index] = (existing_label, wrapper(existing_label, callout))
            wrapped += 1
        self._chain_version += 1
        return wrapped

    def clear(self, type_name: Optional[str] = None) -> None:
        """Drop configured callouts (all, or one type)."""
        if type_name is None:
            self._callouts.clear()
        else:
            self._callouts.pop(type_name, None)
        self._chain_version += 1

    def configured(self, type_name: str) -> bool:
        return bool(self._callouts.get(type_name))

    def callout_labels(self, type_name: str) -> Tuple[str, ...]:
        return tuple(label for label, _ in self._callouts.get(type_name, []))

    # -- invocation --------------------------------------------------------

    def invoke(
        self,
        type_name: str,
        request: AuthorizationRequest,
        context: Optional[DecisionContext] = None,
    ) -> Decision:
        """Invoke every callout of *type_name*; all must permit.

        Raises :class:`AuthorizationSystemFailure` when no callout is
        configured, when a callout raises, or when one returns
        something that is not a :class:`Decision` — all cases where no
        trustworthy decision exists.

        When a decision pipeline is active (*context* given, or a
        :func:`~repro.core.pipeline.current_context` set by the PEP),
        each callout in the chain becomes a timed stage on it.
        """
        chain = self._callouts.get(type_name)
        if not chain:
            raise AuthorizationSystemFailure(
                f"no callout configured for type {type_name!r}",
                source=type_name,
            )
        if context is None:
            context = current_context()
        self.invocations += 1
        for label, callout in chain:
            started = time.perf_counter()
            try:
                with obs_span(f"callout:{label}"):
                    decision = callout(request)
            except AuthorizationSystemFailure as exc:
                if not exc.source:
                    # Preserve the originating callout name even when a
                    # deep layer raised without attribution.
                    exc.source = label
                if context is not None:
                    context.record_stage(
                        f"callout:{label}",
                        time.perf_counter() - started,
                        detail="system-failure",
                    )
                raise
            except Exception as exc:
                if context is not None:
                    context.record_stage(
                        f"callout:{label}",
                        time.perf_counter() - started,
                        detail="system-failure",
                    )
                raise AuthorizationSystemFailure(
                    f"callout {label!r} raised {type(exc).__name__}: {exc}",
                    source=label,
                )
            if context is not None:
                context.record_stage(
                    f"callout:{label}", time.perf_counter() - started
                )
            if not isinstance(decision, Decision):
                raise AuthorizationSystemFailure(
                    f"callout {label!r} returned {type(decision).__name__}, "
                    "expected Decision",
                    source=label,
                )
            if decision.effect is Effect.INDETERMINATE:
                raise AuthorizationSystemFailure(
                    f"callout {label!r} was indeterminate: "
                    + "; ".join(decision.reasons),
                    source=decision.source or label,
                )
            if not decision.is_permit:
                return decision
        if len(chain) == 1:
            # A single callout's own decision carries better provenance
            # (its source names the policy engine, not the chain).
            return decision
        return Decision.permit(
            reason=f"all {len(chain)} callout(s) permit", source=type_name
        )


#: Attributes under which the callout factories attach the object a
#: callout decides from (``policy_callout``/``combined_policy_callout``:
#: ``evaluator``; ``cas_callout``: ``policy_source``; ``akenti_callout``:
#: ``engine``; ``gridmap_callout``: ``gridmap``); a bound method such as
#: ``DynamicEvaluator.evaluate`` decides from its ``__self__``.
_EPOCH_SOURCE_ATTRIBUTES = (
    "evaluator",
    "policy_source",
    "engine",
    "gridmap",
    "__self__",
)


def callout_epoch_source(callout: Any) -> Any:
    """The object whose ``policy_epoch`` covers *callout*'s decisions.

    Looks through wrappers that expose the callout they wrap as
    ``__wrapped__`` (resilience, fault injection).  ``None`` for a
    callout with no policy state of its own, such as ``permit_all``.
    """
    while callout is not None:
        for name in _EPOCH_SOURCE_ATTRIBUTES:
            source = getattr(callout, name, None)
            if source is not None and hasattr(source, "policy_epoch"):
                return source
        callout = getattr(callout, "__wrapped__", None)
    return None


def default_registry() -> CalloutRegistry:
    """A registry with the standard GRAM callout types declared."""
    registry = CalloutRegistry()
    registry.declare_type(
        CalloutType(
            name=GRAM_AUTHZ_CALLOUT,
            description="Job Manager authorization (start/cancel/information/signal)",
        )
    )
    registry.declare_type(
        CalloutType(
            name=GATEKEEPER_AUTHZ_CALLOUT,
            description="Gatekeeper-placed authorization (§6.2 alternative)",
        )
    )
    return registry
