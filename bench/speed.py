"""Machine-speed probe: how fast this host runs plain Python right now.

The hosts this benchmark runs on are shared.  Other tenants load the
same cores and caches, and the speed of a pure-Python loop changes by
up to 2x over seconds to minutes, often for a whole run.  Every
timed figure is therefore divided by the speed factor of the moment
it was measured in: the time four fixed pure-Python kernels take now
over the time they took on the reference host.  A factor of 1.0 means
reference speed, and 1.5 means everything ran 1.5x slower.

The kernels use only the standard library and the code in this file,
so no change to the program under test moves the factor.  They run
with the garbage collector off, so the program's heap does not
either.  They are not the program's code, and they react to a
contended host a little more strongly than it does.  That is why a
factor is taken every ~50 ms and per-chunk medians are used, and
why raw figures stay in the result files.
"""

from __future__ import annotations

import difflib
import gc
import math
import tomllib
from time import perf_counter_ns


class _Node:
    def __init__(self, weight: int) -> None:
        self.weight = weight

    def outer(self, value: int) -> int:
        return self.inner(value) + self.weight

    def inner(self, value: int) -> int:
        return value * 2 if value & 1 else self.leaf(value)

    def leaf(self, value: int) -> int:
        return value - 1


def _method_calls() -> int:
    node = _Node(1)
    total = 0
    for value in range(1500):
        total += node.outer(value)
    return total


_TOML = "\n".join(
    f'[user{index}]\nidentity = "/O=Grid/CN=user{index}"\naccount = "acct{index}"\n'
    f'count = {index % 16}\ntags = ["NFC", "x{index}"]\n'
    for index in range(40)
)


def _parse_toml() -> int:
    return len(tomllib.loads(_TOML))


_OLD = [f"line {index} value {index * 7 % 13}" for index in range(200)]
_NEW = _OLD[:60] + [f"line {index} other" for index in range(30)] + _OLD[90:]


def _diff_lines() -> float:
    return difflib.SequenceMatcher(None, _OLD, _NEW).ratio()


def _allocate() -> int:
    records = []
    for index in range(1500):
        records.append({"k": index, "v": [index, index + 1], "s": (index, "x")})
    return len(records)


#: ``(kernel, its time on the reference host in ns)``.  The reference
#: host is the one the baseline was taken on (2-vCPU Intel Xeon,
#: Python 3.11.7); each time is the tenth percentile of ~3700 probes
#: taken there during benchmark runs.
KERNELS = (
    (_method_calls, 195_000),
    (_parse_toml, 1_024_000),
    (_diff_lines, 149_000),
    (_allocate, 509_000),
)


def probe() -> float:
    """The host's current speed factor: geometric mean of kernel time
    over reference time (~3 ms of work)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for kernel, reference_ns in KERNELS:
            started = perf_counter_ns()
            kernel()
            logs += math.log((perf_counter_ns() - started) / reference_ns)
    finally:
        if enabled:
            gc.enable()
    return math.exp(logs / len(KERNELS))
