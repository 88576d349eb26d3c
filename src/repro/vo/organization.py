"""Virtual Organization membership, groups and roles.

The use case (paper §2) structures a VO into groups with different
rights: *developers* who deploy and debug application services with
small resource budgets, and *analysts* who run large simulations with
the sanctioned applications.  A third group of *administrators* holds
VO-wide job-management rights.  This module models that structure and
generates the DN-prefix subjects the policy language keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple, Union

from repro.core.pipeline import PushedEpoch
from repro.gsi.names import DistinguishedName


def _dn(value: Union[str, DistinguishedName]) -> DistinguishedName:
    if isinstance(value, DistinguishedName):
        return value
    return DistinguishedName.parse(value)


@dataclass(frozen=True)
class VOMember:
    """One VO participant: identity plus group/role memberships."""

    identity: DistinguishedName
    groups: FrozenSet[str]
    roles: FrozenSet[str]

    def in_group(self, group: str) -> bool:
        return group in self.groups

    def has_role(self, role: str) -> bool:
        return role in self.roles

    def __str__(self) -> str:
        return f"{self.identity} groups={sorted(self.groups)} roles={sorted(self.roles)}"


class VirtualOrganization:
    """A VO: a named community with members, groups and roles."""

    policy_epoch = PushedEpoch()

    def __init__(self, name: str) -> None:
        if not name.strip():
            raise ValueError("VO name must be non-empty")
        self.name = name.strip()
        self._members: Dict[str, VOMember] = {}
        self._groups: Dict[str, Set[str]] = {}
        self._roles: Dict[str, Set[str]] = {}
        #: Bumped on every membership mutation, so decision caches
        #: keyed on policy epochs (:mod:`repro.core.pipeline`) drop
        #: entries the instant the community changes.
        self.policy_epoch = 0

    # -- membership ---------------------------------------------------------

    def add_member(
        self,
        identity: Union[str, DistinguishedName],
        groups: Tuple[str, ...] = (),
        roles: Tuple[str, ...] = (),
    ) -> VOMember:
        """Enroll a member (idempotent; repeated calls merge groups/roles)."""
        dn = _dn(identity)
        key = str(dn)
        existing = self._members.get(key)
        merged_groups = set(groups) | (set(existing.groups) if existing else set())
        merged_roles = set(roles) | (set(existing.roles) if existing else set())
        member = VOMember(
            identity=dn,
            groups=frozenset(merged_groups),
            roles=frozenset(merged_roles),
        )
        self._members[key] = member
        for group in merged_groups:
            self._groups.setdefault(group, set()).add(key)
        for role in merged_roles:
            self._roles.setdefault(role, set()).add(key)
        self.policy_epoch += 1
        return member

    def remove_member(self, identity: Union[str, DistinguishedName]) -> None:
        key = str(_dn(identity))
        member = self._members.pop(key, None)
        if member is None:
            raise KeyError(f"{key} is not a member of {self.name}")
        for group in member.groups:
            self._groups.get(group, set()).discard(key)
        for role in member.roles:
            self._roles.get(role, set()).discard(key)
        self.policy_epoch += 1

    def is_member(self, identity: Union[str, DistinguishedName]) -> bool:
        return str(_dn(identity)) in self._members

    def member(self, identity: Union[str, DistinguishedName]) -> VOMember:
        key = str(_dn(identity))
        try:
            return self._members[key]
        except KeyError:
            raise KeyError(f"{key} is not a member of {self.name}")

    def members(self) -> Tuple[VOMember, ...]:
        return tuple(self._members.values())

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[VOMember]:
        return iter(self._members.values())

    # -- groups and roles ---------------------------------------------------

    def group_members(self, group: str) -> Tuple[VOMember, ...]:
        return tuple(
            self._members[key] for key in sorted(self._groups.get(group, ()))
        )

    def role_holders(self, role: str) -> Tuple[VOMember, ...]:
        return tuple(
            self._members[key] for key in sorted(self._roles.get(role, ()))
        )

    def groups(self) -> Tuple[str, ...]:
        return tuple(sorted(self._groups))

    def roles(self) -> Tuple[str, ...]:
        return tuple(sorted(self._roles))

    def common_prefix(self) -> Optional[str]:
        """Longest common DN string prefix across all members.

        VOs whose members share an organizational DN root can be
        addressed with a single prefix statement (Figure 3's first
        line addresses everyone under ``OU=mcs.anl.gov``).  Returns
        None when no 2+-character common prefix exists.
        """
        names = [str(m.identity) for m in self._members.values()]
        if not names:
            return None
        prefix = names[0]
        for name in names[1:]:
            while prefix and not name.startswith(prefix):
                prefix = prefix[:-1]
        # Trim back to a component boundary so the prefix is a DN prefix.
        if "/" in prefix and not prefix.endswith("/"):
            last_slash = prefix.rfind("/")
            candidate = prefix[:last_slash]
            # Keep the partial component only if every name continues it
            # identically up to its own component end — simpler and safer
            # to cut at the boundary.
            prefix = candidate if candidate else prefix
        prefix = prefix.rstrip("/")
        return prefix if len(prefix) > 1 else None

    def __str__(self) -> str:
        return f"VO[{self.name}: {len(self)} members]"
