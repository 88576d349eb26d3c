"""Deterministic fault injection for callouts and policy sources.

The resilience layer (:mod:`repro.core.resilience`) needs failing
sources to be *scriptable*: a test or benchmark says "this source
times out twice, then recovers" and gets exactly that, run after run.
Faults here are plain objects wrapped around a callout via
:func:`inject` (which uses the public
:meth:`~repro.core.callout.CalloutRegistry.wrap` hook) or around a
policy-source object via :func:`faulty_source` — no monkeypatching.

Fault vocabulary:

* :class:`LatencyFault` — advances the simulated clock before
  answering, so per-call timeouts (measured in simulated time)
  trigger deterministically;
* :class:`ExceptionFault` — raises a configurable exception;
* :class:`FlapFault` — intermittent: applies an inner fault for the
  first *failures* calls of every *period*-call window;
* :class:`ByzantineFault` — answers *wrong* instead of failing:
  returns a configured object (by default garbage that is not a
  :class:`~repro.core.decision.Decision` at all);
* :class:`FaultSchedule` — plays a sequence of segments, each "apply
  this fault for N calls", then passes through.

Every fault counts its calls and activations and can be switched off
(``fault.enabled = False``) to restore healthy behaviour without
rewiring anything.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.callout import AuthorizationCallout, CalloutRegistry
from repro.core.request import AuthorizationRequest
from repro.sim.clock import Clock

#: The wrapped operation a fault intercepts: zero-arg, returns the
#: underlying callout/source result.
Invoke = Callable[[], Any]


class Fault:
    """Base fault: counts calls, passes through when disabled.

    Subclasses override :meth:`behave`.  Counters (``calls`` seen,
    ``activations`` actually faulted) are updated under a lock so the
    concurrency tests can hammer a fault from many threads.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.calls = 0
        self.activations = 0
        self._lock = threading.Lock()

    def __call__(self, invoke: Invoke, request: AuthorizationRequest) -> Any:
        with self._lock:
            self.calls += 1
            call_index = self.calls
            active = self.enabled and self.should_fault(call_index)
            if active:
                self.activations += 1
        if not active:
            return invoke()
        return self.behave(invoke, request, call_index)

    def should_fault(self, call_index: int) -> bool:
        """Whether call *call_index* (1-based) is faulted; default always."""
        return True

    def behave(
        self, invoke: Invoke, request: AuthorizationRequest, call_index: int
    ) -> Any:
        raise NotImplementedError


class LatencyFault(Fault):
    """Make the source slow by *latency* simulated seconds per call.

    The clock advance happens *before* the underlying call returns,
    so a resilience wrapper with ``timeout < latency`` sees the budget
    exceeded.  Not thread-safe (the simulated clock is single-
    threaded); concurrency tests should use exception-based faults.
    """

    def __init__(self, clock: Clock, latency: float) -> None:
        super().__init__()
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.clock = clock
        self.latency = latency

    def behave(self, invoke, request, call_index):
        self.clock.advance(self.latency)
        return invoke()


class ExceptionFault(Fault):
    """Raise instead of answering (unreachable / crashed source)."""

    def __init__(
        self,
        message: str = "injected fault: policy source unreachable",
        exception_type: type = ConnectionError,
    ) -> None:
        super().__init__()
        self.message = message
        self.exception_type = exception_type

    def behave(self, invoke, request, call_index):
        raise self.exception_type(self.message)


class ByzantineFault(Fault):
    """Answer *wrong*: return a configured object instead of deciding.

    The default result is an opaque object that is not a
    :class:`~repro.core.decision.Decision`, which the callout registry
    detects and converts into a system failure.  Pass a real (but
    wrong) ``Decision`` to model a source that lies plausibly.
    """

    def __init__(self, result: Any = None) -> None:
        super().__init__()
        self.result = result if result is not None else object()

    def behave(self, invoke, request, call_index):
        return self.result


class FlapFault(Fault):
    """Intermittent failure: fault the first *failures* of each *period*.

    ``FlapFault(ExceptionFault(), period=4, failures=1)`` fails calls
    1, 5, 9, ... and answers normally otherwise — a source that drops
    one request in four, deterministically.
    """

    def __init__(self, inner: Fault, period: int, failures: int = 1) -> None:
        super().__init__()
        if period < 1 or not 0 < failures <= period:
            raise ValueError(
                f"need 0 < failures <= period, got {failures}/{period}"
            )
        self.inner = inner
        self.period = period
        self.failures = failures

    def should_fault(self, call_index: int) -> bool:
        return (call_index - 1) % self.period < self.failures

    def behave(self, invoke, request, call_index):
        return self.inner.behave(invoke, request, call_index)


class FaultSchedule(Fault):
    """Play fault segments in sequence, then pass through.

    ``FaultSchedule([(2, ExceptionFault()), (1, LatencyFault(clock, 5))])``
    raises on calls 1–2, is slow on call 3, and is healthy from call 4
    on.  A segment with fault ``None`` passes through for its length.
    """

    def __init__(self, segments: Sequence[Tuple[int, Optional[Fault]]]) -> None:
        super().__init__()
        self._segments: List[Tuple[int, Optional[Fault]]] = []
        total = 0
        for length, fault in segments:
            if length < 1:
                raise ValueError(f"segment length must be positive: {length}")
            total += length
            self._segments.append((total, fault))

    def _segment_for(self, call_index: int) -> Optional[Fault]:
        for upper, fault in self._segments:
            if call_index <= upper:
                return fault
        return None

    def should_fault(self, call_index: int) -> bool:
        return self._segment_for(call_index) is not None

    def behave(self, invoke, request, call_index):
        fault = self._segment_for(call_index)
        assert fault is not None
        return fault.behave(invoke, request, call_index)


# -- attachment points -------------------------------------------------------


def inject(
    registry: CalloutRegistry,
    type_name: str,
    fault: Fault,
    label: Optional[str] = None,
) -> int:
    """Wrap configured callouts of *type_name* with *fault*.

    Returns how many callouts were wrapped.  Uses the registry's
    public :meth:`~repro.core.callout.CalloutRegistry.wrap` hook; the
    original callout keeps running whenever the fault is disabled or
    its pattern says "healthy".
    """

    def wrapper(lbl: str, original: AuthorizationCallout) -> AuthorizationCallout:
        def faulty(request: AuthorizationRequest):
            return fault(lambda: original(request), request)

        faulty.__name__ = f"faulty:{lbl}"
        faulty.__wrapped__ = original
        return faulty

    return registry.wrap(type_name, wrapper, label=label)


class _FaultySource:
    """Proxy over a policy-source object, faulting its ``evaluate``."""

    def __init__(self, source: Any, fault: Fault) -> None:
        self._source = source
        self.fault = fault

    def evaluate(self, request: AuthorizationRequest, *args, **kwargs):
        return self.fault(
            lambda: self._source.evaluate(request, *args, **kwargs), request
        )

    def __getattr__(self, name: str) -> Any:
        # policy_epoch, source name, etc. pass straight through.
        return getattr(self._source, name)


def faulty_source(source: Any, fault: Fault) -> _FaultySource:
    """A proxy of *source* whose ``evaluate`` is scripted by *fault*.

    Everything else (``source`` name, ``policy_epoch``, ...) delegates
    to the real object, so the proxy drops into a
    :class:`~repro.core.combination.CombinedEvaluator` or a callout
    factory unchanged.
    """
    return _FaultySource(source, fault)
