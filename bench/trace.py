"""Out-of-program span tracing for the per-layer ledger.

Nothing inside ``src/`` is instrumented.  :class:`Ledger` wraps public
functions from outside — methods on their class, functions where they
are imported — and restores the original objects on exit.  Spans nest
on one stack (the driver is a single thread); a span's self time is
its duration minus the time of the spans it caused.  Garbage
collection pauses, reported through ``gc.callbacks``, are spans of
their own (``gc.collect``), so a collection is not charged to
whichever function happened to allocate when it started.  Totals are kept
per op kind so a layer's cost can be read per operation, and the span
trees of the first :data:`SAMPLE_OPS` ops are kept whole and written
out at the end.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from time import perf_counter_ns
from typing import Any, Dict, List, Tuple

#: ``(metric prefix, module, owner, attribute)``.  *owner* is a class
#: name inside *module*, or ``None`` for a module-level function
#: patched where the program imports it.  The prefix is
#: ``<layer>.<function>``, the layer being the defining module.
TARGETS: Tuple[Tuple[str, str, Any, str], ...] = (
    ("gram.gatekeeper.Gatekeeper.submit", "repro.gram.gatekeeper", "Gatekeeper", "submit"),
    ("gram.gatekeeper.Gatekeeper.manage", "repro.gram.gatekeeper", "Gatekeeper", "manage"),
    ("gsi.verify_credential", "repro.gram.gatekeeper", None, "verify_credential"),
    ("gsi.verify_credential", "repro.gram.jobmanager", None, "verify_credential"),
    ("gram.gridmap.GridMapFile.lookup", "repro.gram.gridmap", "GridMapFile", "lookup"),
    ("core.query.QueryEngine.check_action", "repro.core.query", "QueryEngine", "check_action"),
    ("rsl.parse_specification", "repro.gram.jobmanager", None, "parse_specification"),
    ("gram.rsl_utils.JobDescription.from_spec", "repro.gram.rsl_utils", "JobDescription", "from_spec"),
    ("gram.jobmanager.JobManagerInstance.start", "repro.gram.jobmanager", "JobManagerInstance", "start"),
    ("gram.jobmanager.JobManagerInstance.handle", "repro.gram.jobmanager", "JobManagerInstance", "handle"),
    ("core.pep.EnforcementPoint.authorize", "repro.core.pep", "EnforcementPoint", "authorize"),
    ("core.capability.CapabilityMiddleware.__call__", "repro.core.capability", "CapabilityMiddleware", "__call__"),
    ("core.pipeline.DecisionCache.__call__", "repro.core.pipeline", "DecisionCache", "__call__"),
    ("core.callout.CalloutRegistry.invoke", "repro.core.callout", "CalloutRegistry", "invoke"),
    ("core.combination.CombinedEvaluator.evaluate", "repro.core.combination", "CombinedEvaluator", "evaluate"),
    ("core.evaluator.PolicyEvaluator.evaluate", "repro.core.evaluator", "PolicyEvaluator", "evaluate"),
    ("accounts.enforcement.EnforcementMechanism.admit", "repro.accounts.enforcement", "EnforcementMechanism", "admit"),
    ("lrm.scheduler.BatchScheduler.submit", "repro.lrm.scheduler", "BatchScheduler", "submit"),
    ("lrm.scheduler.BatchScheduler.cancel", "repro.lrm.scheduler", "BatchScheduler", "cancel"),
    ("sim.clock.Clock.advance", "repro.sim.clock", "Clock", "advance"),
    ("gram.lifecycle.CompletedJobStore.get", "repro.gram.lifecycle", "CompletedJobStore", "get"),
    ("core.store.VersionedPolicyStore.publish", "repro.core.store", "VersionedPolicyStore", "publish"),
    ("core.parser.parse_policy", "repro.core.store", None, "parse_policy"),
    ("core.compiled.compiled_for", "repro.core.store", None, "compiled_for"),
    ("core.compiled.compiled_for", "repro.core.evaluator", None, "compiled_for"),
    ("obs.Span.__enter__", "repro.obs.spans", "Span", "__enter__"),
    ("obs.Span.__exit__", "repro.obs.spans", "Span", "__exit__"),
    ("obs.Telemetry.count", "repro.obs.instrument", "Telemetry", "count"),
)

#: The span name of a garbage-collection pause.
GC_PREFIX = "gc.collect"
#: Every span name, in report order.
PREFIXES = tuple(dict.fromkeys([target[0] for target in TARGETS] + [GC_PREFIX]))

#: Ops whose span trees are kept whole for the written trace.
SAMPLE_OPS = 200

#: Per-function accumulator: calls, total ns, self ns, non-None results.
_CALLS, _TOTAL, _SELF, _FOUND = range(4)


def target_objects() -> Dict[Tuple[str, str, str], Any]:
    """The objects currently bound at every patch site.

    Read the raw class ``__dict__`` entry, so a classmethod compares
    as the classmethod object itself.
    """
    bound = {}
    for _, module_name, owner, attribute in TARGETS:
        module = importlib.import_module(module_name)
        holder = module if owner is None else getattr(module, owner)
        where = vars(holder)
        bound[(module_name, owner or "", attribute)] = where[attribute]
    return bound


class Ledger:
    """Patches the :data:`TARGETS` for the extent of a ``with`` block."""

    def __init__(self) -> None:
        #: ``{(op kind, metric prefix): [calls, total, self, found]}``.
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[List[int]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self.kind = "setup"
        self._op = -1
        self.samples: List[Dict[str, Any]] = []
        self._gc_frame = None
        self._gc_started = 0

    def begin(self, kind: str, op: int) -> None:
        """Attribute the spans that follow to op number *op* of *kind*."""
        self.kind = kind
        self._op = op if op < SAMPLE_OPS else -1

    def _finish(self, prefix: str, started: int, elapsed: int, frame: List[int]) -> List[int]:
        """Close the innermost span; returns its accumulator."""
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        key = (self.kind, prefix)
        record = self.totals.get(key)
        if record is None:
            record = self.totals[key] = [0, 0, 0, 0]
        record[_CALLS] += 1
        record[_TOTAL] += elapsed
        record[_SELF] += elapsed - frame[0]
        if self._op >= 0:
            self.samples.append(
                {
                    "op": self._op,
                    "kind": self.kind,
                    "span": prefix,
                    "depth": len(stack),
                    "start_ns": started,
                    "duration_ns": elapsed,
                    "self_ns": elapsed - frame[0],
                }
            )
        return record

    def _wrap(self, prefix: str, function):
        stack = self._stack
        finish = self._finish

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            started = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                record = finish(prefix, started, perf_counter_ns() - started, frame)
            if result is not None:
                record[_FOUND] += 1
            return result

        return traced

    def _collection(self, phase: str, info) -> None:
        """``gc.callbacks`` hook: a collection is a span of its own.

        Only collections inside a traced call are recorded; one that
        starts in the driver's own bookkeeping is outside every timed
        interval.
        """
        if phase == "start":
            self._gc_frame = [0] if self._stack else None
            if self._gc_frame is not None:
                self._stack.append(self._gc_frame)
                self._gc_started = perf_counter_ns()
        elif self._gc_frame is not None:
            elapsed = perf_counter_ns() - self._gc_started
            self._finish(GC_PREFIX, self._gc_started, elapsed, self._gc_frame)

    def __enter__(self) -> "Ledger":
        try:
            for prefix, module_name, owner, attribute in TARGETS:
                module = importlib.import_module(module_name)
                holder = module if owner is None else getattr(module, owner)
                original = vars(holder)[attribute]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(prefix, original.__func__))
                else:
                    patched = self._wrap(prefix, original)
                self._saved.append((holder, attribute, original))
                setattr(holder, attribute, patched)
        except BaseException:
            self._restore()
            raise
        gc.callbacks.append(self._collection)
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        if self._collection in gc.callbacks:
            gc.callbacks.remove(self._collection)
        while self._saved:
            holder, attribute, original = self._saved.pop()
            setattr(holder, attribute, original)

    # -- views -------------------------------------------------------------

    def by_function(self, kinds) -> Dict[str, List[int]]:
        """Totals per metric prefix, summed over the op *kinds*."""
        merged: Dict[str, List[int]] = {}
        for (kind, prefix), record in self.totals.items():
            if kind not in kinds:
                continue
            into = merged.setdefault(prefix, [0, 0, 0, 0])
            for field, value in enumerate(record):
                into[field] += value
        return merged

    def root_ns(self, kinds) -> int:
        """Time inside any traced span: the sum of all self times."""
        return sum(record[_SELF] for record in self.by_function(kinds).values())

    def write_samples(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.samples:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
