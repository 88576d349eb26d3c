"""The grid-mapfile (paper §4.1).

"Authorization is based on the user's Grid identity and a policy
contained in a configuration file, the grid-mapfile, which serves as
an access control list.  Mapping from the Grid identity to a local
account is also done with the policy in the grid-mapfile."

Format (one entry per line, as in GT2)::

    "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu" boliu
    "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" keahey,fusion

Multiple comma-separated accounts per identity are allowed; the first
is the default mapping (GT2 semantics).
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.pipeline import PushedEpoch
from repro.gsi.names import DistinguishedName


class GridMapError(Exception):
    """Malformed grid-mapfile content."""


@dataclass(frozen=True)
class GridMapEntry:
    """One ACL line: an identity and its local accounts."""

    identity: str
    accounts: Tuple[str, ...]

    @property
    def default_account(self) -> str:
        return self.accounts[0]

    def __str__(self) -> str:
        return f'"{self.identity}" {",".join(self.accounts)}'


class GridMapFile:
    """An in-memory grid-mapfile with GT2 lookup semantics."""

    policy_epoch = PushedEpoch()

    def __init__(self) -> None:
        self._entries: Dict[str, GridMapEntry] = {}
        #: Bumped on every mutation — the ACL *is* the policy, so
        #: decision caches and circuit breakers key off this.
        self.policy_epoch = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "GridMapFile":
        gridmap = cls()
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = shlex.split(line)
            except ValueError as exc:
                raise GridMapError(f"line {line_number}: {exc}")
            if len(parts) != 2:
                raise GridMapError(
                    f"line {line_number}: expected '\"identity\" accounts', "
                    f"got {line!r}"
                )
            identity, accounts_text = parts
            accounts = tuple(a.strip() for a in accounts_text.split(",") if a.strip())
            if not accounts:
                raise GridMapError(f"line {line_number}: no accounts for {identity!r}")
            gridmap.add(identity, *accounts)
        return gridmap

    @classmethod
    def load(cls, path: str) -> "GridMapFile":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.parse(handle.read())

    def add(self, identity: Union[str, DistinguishedName], *accounts: str) -> None:
        key = str(identity) if isinstance(identity, DistinguishedName) else identity
        # Validate it is a parseable DN so lookups are well-defined.
        DistinguishedName.parse(key)
        if not accounts:
            raise GridMapError(f"no accounts given for {key!r}")
        existing = self._entries.get(key)
        merged = (existing.accounts if existing else ()) + tuple(accounts)
        # Deduplicate preserving order.
        unique = tuple(dict.fromkeys(merged))
        self._entries[key] = GridMapEntry(identity=key, accounts=unique)
        self.policy_epoch += 1

    def remove(self, identity: Union[str, DistinguishedName]) -> None:
        key = str(identity)
        if key not in self._entries:
            raise KeyError(f"{key} not in grid-mapfile")
        del self._entries[key]
        self.policy_epoch += 1

    # -- lookup ---------------------------------------------------------------

    def lookup(self, identity: Union[str, DistinguishedName]) -> Optional[GridMapEntry]:
        return self._entries.get(str(identity))

    def map_to_account(
        self, identity: Union[str, DistinguishedName]
    ) -> Optional[str]:
        """The default local account for *identity*, or None."""
        entry = self.lookup(identity)
        return entry.default_account if entry else None

    def authorizes(self, identity: Union[str, DistinguishedName]) -> bool:
        return str(identity) in self._entries

    def entries(self) -> Tuple[GridMapEntry, ...]:
        return tuple(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identity: object) -> bool:
        return str(identity) in self._entries

    def serialize(self) -> str:
        return "\n".join(str(entry) for entry in self._entries.values()) + "\n"
