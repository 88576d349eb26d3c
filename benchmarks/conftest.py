"""Shared helpers for the benchmark/reproduction harness.

Each module in this directory regenerates one artifact of the paper
(see DESIGN.md §3).  The figure reproductions assert structure and
print the regenerated artifact; the quantitative benches use
pytest-benchmark and print the table rows they produce.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.core.parser import parse_policy
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

#: Consolidated machine-readable benchmark artifact.  Every bench that
#: passes ``data=`` to :func:`emit` merges its series into this one
#: JSON document; CI publishes it (and fails when it is missing).
ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_policy_engine.json"
)

BO = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu"
KATE = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey"

#: Local policy used whenever a bench needs a second (site) source.
SITE_POLICY_TEXT = """
/O=Grid/O=Globus/OU=mcs.anl.gov:
    &(action=start)(count<=32)
    &(action=cancel)
    &(action=information)
    &(action=signal)
"""


@pytest.fixture
def figure3_policy():
    return parse_policy(FIGURE3_POLICY_TEXT, name="vo")


@pytest.fixture
def site_policy():
    return parse_policy(SITE_POLICY_TEXT, name="local")


def emit(title: str, lines, data=None, key: str = "") -> None:
    """Print a reproduced artifact so harness output shows the rows.

    When *data* is given, it is also merged into the consolidated
    JSON artifact at :data:`ARTIFACT_PATH` under *key* (default: a
    slug of *title*), so one bench run accumulates every emitted
    series into a single machine-readable document.
    """
    print(f"\n===== {title} =====", file=sys.stderr)
    for line in lines:
        print(line, file=sys.stderr)
    if data is None:
        return
    slug = key or "-".join(
        part for part in "".join(
            ch.lower() if ch.isalnum() else " " for ch in title
        ).split()
    )
    write_artifact(ARTIFACT_PATH, slug, data)


def write_artifact(path: str, key: str, data) -> None:
    """Merge *data* under *key* into the JSON artifact at *path*.

    Every ``BENCH_*.json`` is written here: the other keys of an
    existing document are kept, the file ends with a newline, and the
    write is atomic (tmp file + rename), so a crashed bench never
    leaves a half-written artifact behind.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict):
            document = {}
    except (OSError, ValueError):
        document = {}
    document[key] = data
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
