"""The metric catalog in docs/observability.md matches what is exported.

Every family in the golden Prometheus exports (``tests/obs/golden``)
must appear in the catalog table with the same kind and the same
label names, in the order the export renders them.
"""

import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
DOC = os.path.join(ROOT, "docs", "observability.md")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

SERIES = re.compile(r"^([a-z_]+)(?:\{(.*)\})? ")


def catalog():
    """``{family: (kind, labels)}`` from the doc's catalog table."""
    with open(DOC, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## The metric catalog", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        labels = tuple(
            label.strip().strip("`")
            for label in cells[1].split(",")
            if label.strip() not in ("—", "")
        )
        rows[cells[0].strip("`")] = (cells[2].split()[0], labels)
    return rows


def exported():
    """``{family: (kind, labels)}`` from every golden Prometheus file."""
    families = {}
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.prom"))):
        with open(path, encoding="utf-8") as handle:
            kinds = {}
            for line in handle:
                if line.startswith("# TYPE "):
                    _, _, name, kind = line.split()
                    kinds[name] = kind
                    families.setdefault(name, (kind, ()))
                    continue
                match = SERIES.match(line)
                if match is None or line.startswith("#"):
                    continue
                name, labels = match.groups()
                for suffix in ("_bucket", "_sum", "_count"):
                    base = name[: -len(suffix)]
                    if name.endswith(suffix) and kinds.get(base) == "histogram":
                        name = base
                        break
                names = tuple(
                    pair.split("=", 1)[0]
                    for pair in (labels.split(",") if labels else ())
                    if not pair.startswith("le=")
                )
                families[name] = (kinds[name], names)
    return families


def test_every_exported_family_is_catalogued():
    documented = catalog()
    for name, (kind, labels) in sorted(exported().items()):
        assert name in documented, f"{name} missing from {DOC}"
        assert documented[name] == (kind, labels), (
            f"{name}: doc says {documented[name]}, export says {(kind, labels)}"
        )
