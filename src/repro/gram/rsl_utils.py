"""Job-description helpers: validation, defaults, typed accessors.

GT2's Job Manager parses the submitted RSL and fills in defaults
before talking to the local job control system.  The attributes
modelled here are the subset the paper's policies and our simulation
need:

=============== ======================================================
``executable``   program to run (required for start)
``directory``    working directory
``arguments``    command-line arguments (free-form)
``count``        number of CPUs (default 1)
``maxwalltime``  declared wall-clock bound, seconds
``maxcputime``   declared CPU-seconds bound
``queue``        LRM queue name (default ``default``)
``jobtag``       management-group tag (the paper's extension)
``runtime``      *simulation only*: how long the job really runs.
                 A real job's duration is decided by its code; the
                 synthetic workload declares it here.  Defaults to
                 ``maxwalltime`` or 10 seconds.
=============== ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.attributes import JOBTAG
from repro.rsl.ast import Relation, Relop, RSLValue, Specification

DEFAULT_COUNT = 1
DEFAULT_QUEUE = "default"
DEFAULT_RUNTIME = 10.0


class JobDescriptionError(ValueError):
    """The job description is structurally invalid."""


@dataclass(frozen=True)
class JobDescription:
    """Typed view over a canonicalised RSL specification."""

    spec: Specification
    executable: str
    directory: str
    count: int
    queue: str
    jobtag: Optional[str]
    max_walltime: Optional[float]
    max_cputime: Optional[float]
    runtime: float

    @classmethod
    def from_spec(cls, spec: Specification) -> "JobDescription":
        # One pass: the first value of the first ``=`` relation on each
        # attribute (what ``Specification.first_value`` reads), and
        # whether ``count`` appears under any operator.
        first: Dict[str, RSLValue] = {}
        has_count = False
        for relation in spec.relations:
            attribute = relation.attribute
            if attribute == "count":
                has_count = True
            if relation.op is Relop.EQ and relation.values and attribute not in first:
                first[attribute] = relation.values[0]
        executable = _text(first.get("executable"))
        if not executable:
            raise JobDescriptionError("job description must name an executable")
        count = int(_number("count", first.get("count"), DEFAULT_COUNT, "an integer"))
        if count <= 0:
            raise JobDescriptionError(f"count must be positive, got {count}")
        max_walltime = _number("maxwalltime", first.get("maxwalltime"), None)
        max_cputime = _number("maxcputime", first.get("maxcputime"), None)
        runtime = _number(
            "runtime",
            first.get("runtime"),
            max_walltime if max_walltime is not None else DEFAULT_RUNTIME,
        )
        if runtime < 0:
            raise JobDescriptionError(f"runtime must be non-negative, got {runtime}")
        canonical = spec
        if not has_count:
            canonical = canonical.merged_with(
                Specification.make([Relation.make("count", Relop.EQ, count)])
            )
        return cls(
            spec=canonical,
            executable=executable,
            directory=_text(first.get("directory")) or "",
            count=count,
            queue=_text(first.get("queue")) or DEFAULT_QUEUE,
            jobtag=_text(first.get(JOBTAG)),
            max_walltime=max_walltime,
            max_cputime=max_cputime,
            runtime=runtime,
        )


def requested_count(spec: Specification) -> int:
    """The CPU ``count`` *spec* asks for, read as the Job Manager reads it.

    1 when no ``=`` relation names it; a :class:`JobDescriptionError`
    when its first value is not a finite decimal.
    """
    for relation in spec.relations:
        if relation.attribute == "count" and relation.op is Relop.EQ and relation.values:
            return int(_number("count", relation.values[0], DEFAULT_COUNT, "an integer"))
    return DEFAULT_COUNT


def _text(value: Optional[RSLValue]) -> Optional[str]:
    return None if value is None else str(value)


def _number(
    attribute: str, value: Optional[RSLValue], default: Any, expected: str = "numeric"
) -> Any:
    """``Value.number`` of *value*, or *default* when there is no value.

    Only a finite decimal is a number: ``nan``, ``inf``, ``1e400`` and
    ``1_000`` are words (:func:`repro.rsl.ast._try_number`), and so is
    a variable reference.  Anything else is a JobDescriptionError.
    """
    if value is None:
        return default
    number = getattr(value, "number", None)
    if number is None:
        raise JobDescriptionError(f"{attribute} must be {expected}, got {str(value)!r}")
    return number
