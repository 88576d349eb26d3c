"""Cluster topology: nodes, CPUs and allocations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.lrm.errors import AllocationError


class Node:
    """One machine with a fixed number of CPUs."""

    def __init__(self, name: str, cpus: int) -> None:
        if cpus <= 0:
            raise ValueError(f"node {name!r} needs at least one CPU")
        self.name = name
        self.cpus = cpus
        self.used = 0

    @property
    def free(self) -> int:
        return self.cpus - self.used

    def take(self, count: int) -> None:
        if count > self.free:
            raise AllocationError(
                f"node {self.name!r} has {self.free} free CPUs, asked for {count}"
            )
        self.used += count

    def give_back(self, count: int) -> None:
        if count > self.used:
            raise AllocationError(
                f"node {self.name!r} releasing {count} CPUs but only {self.used} in use"
            )
        self.used -= count

    def __repr__(self) -> str:
        return f"Node({self.name!r}, {self.used}/{self.cpus})"


@dataclass(frozen=True)
class Allocation:
    """CPUs granted to one job: ``(node name, cpu count)`` pairs."""

    parts: Tuple[Tuple[str, int], ...]

    @property
    def total_cpus(self) -> int:
        return sum(count for _, count in self.parts)

    def __str__(self) -> str:
        return "+".join(f"{name}:{count}" for name, count in self.parts)


class Cluster:
    """A named collection of nodes with first-fit CPU allocation.

    The free-CPU count and the name→node map are kept as the nodes
    change, so capacity questions are O(1).  Nodes must therefore only
    change through :meth:`allocate` and :meth:`release`.
    """

    def __init__(self, name: str, nodes: Iterable[Node]) -> None:
        self.name = name
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        if not self.nodes:
            raise ValueError(f"cluster {name!r} needs at least one node")
        self._by_name: Dict[str, Node] = {node.name: node for node in self.nodes}
        if len(self._by_name) != len(self.nodes):
            raise ValueError(f"duplicate node names in cluster {name!r}")
        self._total = sum(node.cpus for node in self.nodes)
        self._free = sum(node.free for node in self.nodes)

    @classmethod
    def homogeneous(cls, name: str, node_count: int, cpus_per_node: int) -> "Cluster":
        return cls(
            name,
            [Node(f"{name}-n{i:03d}", cpus_per_node) for i in range(node_count)],
        )

    @property
    def total_cpus(self) -> int:
        return self._total

    @property
    def free_cpus(self) -> int:
        return self._free

    @property
    def used_cpus(self) -> int:
        return self._total - self._free

    @property
    def utilization(self) -> float:
        return self.used_cpus / self.total_cpus if self.total_cpus else 0.0

    def can_allocate(self, cpus: int) -> bool:
        return 0 < cpus <= self._free

    def fits(self, cpus: int) -> bool:
        """Whether *cpus* could ever be allocated on this cluster."""
        return 0 < cpus <= self._total

    def allocate(self, cpus: int) -> Allocation:
        """First-fit allocation over nodes; may span several nodes."""
        if cpus <= 0:
            raise AllocationError(f"cannot allocate {cpus} CPUs")
        if cpus > self._free:
            raise AllocationError(
                f"cluster {self.name!r} has {self._free} free CPUs, "
                f"asked for {cpus}"
            )
        remaining = cpus
        parts: List[Tuple[str, int]] = []
        for node in self.nodes:
            if remaining == 0:
                break
            grab = min(node.free, remaining)
            if grab > 0:
                node.take(grab)
                parts.append((node.name, grab))
                remaining -= grab
        assert remaining == 0, "free_cpus accounting is inconsistent"
        self._free -= cpus
        return Allocation(parts=tuple(parts))

    def release(self, allocation: Allocation) -> None:
        for name, count in allocation.parts:
            node = self._by_name.get(name)
            if node is None:
                raise AllocationError(f"allocation references unknown node {name!r}")
            node.give_back(count)
            self._free += count

    def __str__(self) -> str:
        return (
            f"Cluster[{self.name}: {len(self.nodes)} nodes, "
            f"{self.used_cpus}/{self.total_cpus} CPUs in use]"
        )
