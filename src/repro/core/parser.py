"""Parser for the paper's policy-file syntax (Figure 3).

The format is line-oriented::

    # comment
    &/O=Grid/O=Globus/OU=mcs.anl.gov:
        (action = start)(jobtag != NULL)
    /O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu:
        &(action = start)(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count<4)
        &(action = start)(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count<4)

* A statement begins with a subject — a DN or DN prefix terminated by
  a colon.  A leading ``&`` before the subject marks the statement as
  a **requirement** rather than a grant (the paper's first Figure 3
  statement, which obliges the group to submit jobtags).
* The statement body is one or more assertions; each assertion is an
  RSL conjunction, and multiple assertions are separated by a ``&``
  at parenthesis depth zero.  Assertions may continue on following
  lines.
* Subjects ending in a ``CN=`` component denote an exact identity;
  anything else is a string prefix matching a whole group, following
  the paper's "identities that start with the string" rule.  A
  trailing ``*`` forces prefix interpretation explicitly.
* ``#`` starts a comment; blank lines are ignored.  (Consequently the
  RSL ``#`` concatenation operator cannot be used inside a *policy
  file* — quote the whole value instead.  Job descriptions submitted
  through GRAM are unaffected.)
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.errors import PolicyParseError
from repro.core.model import (
    Policy,
    PolicyAssertion,
    PolicyStatement,
    StatementKind,
    Subject,
)
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.parser import parse_specification

#: A subject line: optional '&', a '/'-rooted DN-ish pattern, a colon,
#: then the (possibly empty) start of the body.
_SUBJECT_RE = re.compile(r"^(?P<marker>&?)\s*(?P<subject>/[^:]+):\s*(?P<rest>.*)$")

#: The text a statement is parsed from: its subject, whether it is a
#: requirement (``&``), and its body lines joined by single spaces.
#: Comments, blank lines and line breaks inside the body do not count.
StatementText = Tuple[str, bool, str]


def parse_policy(
    text: str,
    name: str = "",
    reuse: Optional[Mapping[StatementText, PolicyStatement]] = None,
    record: Optional[Dict[StatementText, PolicyStatement]] = None,
) -> Policy:
    """Parse policy *text* into a :class:`Policy`.

    A statement whose text is a key of *reuse*, or of *record*, is not
    parsed again: the mapped statement stands in for it.  Every
    statement of *text* is entered in *record* under its text.  Both
    maps must come from parses under the same *name*, which every
    statement carries as its ``origin``.
    """
    statements: List[PolicyStatement] = []
    current: Optional[_PendingStatement] = None
    reuse = {} if reuse is None else reuse
    record = {} if record is None else record

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        match = _SUBJECT_RE.match(line)
        if match:
            if current is not None:
                statements.append(current.finish(name, reuse, record))
            current = _PendingStatement(
                subject_text=match.group("subject").strip(),
                requirement=match.group("marker") == "&",
                line_number=line_number,
            )
            rest = match.group("rest").strip()
            if rest:
                current.add_body(rest, line_number)
        else:
            if current is None:
                raise PolicyParseError(
                    "assertion text before any subject", line_number, raw_line
                )
            current.add_body(line, line_number)

    if current is not None:
        statements.append(current.finish(name, reuse, record))
    return Policy.make(statements, name=name)


def parse_policy_file(path: str) -> Policy:
    """Parse the policy file at *path*."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PolicyParseError(f"cannot read policy file {path}: {exc}")
    return parse_policy(text, name=path)


def _strip_comment(line: str) -> str:
    """Drop everything after an unquoted '#'."""
    if "#" not in line:
        return line
    in_quote = ""
    for index, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = ""
            continue
        if ch in "\"'":
            in_quote = ch
            continue
        if ch == "#":
            return line[:index]
    return line


def make_subject(pattern: str) -> Subject:
    """Interpret a subject pattern as exact identity or prefix."""
    cleaned = pattern.strip()
    if cleaned.endswith("*"):
        return Subject.prefix(cleaned[:-1].strip())
    # A pattern whose final component is CN= names a specific user.
    last = cleaned.rsplit("/", 1)[-1]
    if last.upper().startswith("CN="):
        return Subject.identity(cleaned)
    return Subject.prefix(cleaned)


def split_assertions(body: str) -> List[str]:
    """Split a statement body into assertion chunks.

    A ``&`` at parenthesis depth zero starts a new assertion; the
    leading assertion may omit it.
    """
    chunks: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "&" and depth == 0:
            if _has_content(current):
                chunks.append("".join(current))
            current = []
            continue
        current.append(ch)
    if _has_content(current):
        chunks.append("".join(current))
    return chunks


def _has_content(chars: List[str]) -> bool:
    return bool("".join(chars).strip())


class _PendingStatement:
    """Accumulates a statement's body lines until the next subject."""

    def __init__(self, subject_text: str, requirement: bool, line_number: int) -> None:
        self.subject_text = subject_text
        self.requirement = requirement
        self.line_number = line_number
        self.body_parts: List[Tuple[str, int]] = []

    def add_body(self, text: str, line_number: int) -> None:
        self.body_parts.append((text, line_number))

    def finish(
        self,
        origin: str,
        reuse: Mapping[StatementText, PolicyStatement],
        record: Dict[StatementText, PolicyStatement],
    ) -> PolicyStatement:
        if not self.body_parts:
            raise PolicyParseError(
                f"statement for {self.subject_text!r} has no assertions",
                self.line_number,
            )
        body = " ".join(part for part, _ in self.body_parts)
        key = (self.subject_text, self.requirement, body)
        statement = record.get(key) or reuse.get(key) or self._parse(body, origin)
        record[key] = statement
        return statement

    def _parse(self, body: str, origin: str) -> PolicyStatement:
        assertions = []
        for chunk in split_assertions(body):
            try:
                spec = parse_specification("&" + chunk.strip())
            except RSLSyntaxError as exc:
                raise PolicyParseError(
                    f"bad assertion {chunk.strip()!r}: {exc}", self.line_number
                )
            assertions.append(PolicyAssertion(spec=spec))
        if not assertions:
            raise PolicyParseError(
                f"statement for {self.subject_text!r} has no assertions",
                self.line_number,
            )
        return PolicyStatement(
            subject=make_subject(self.subject_text),
            assertions=tuple(assertions),
            kind=StatementKind.REQUIREMENT
            if self.requirement
            else StatementKind.GRANT,
            origin=origin,
        )
