"""Condition expression trees over attribute bags.

XACML conditions are boolean expressions over functions of attribute
bags.  The subset here covers everything the RSL policy language
needs — presence tests, membership (with the same numeric/
case-sensitivity semantics as :mod:`repro.core.matching`, so the
bridge translation is decision-preserving), and ordered comparisons —
plus the standard And/Or/Not combinators.

A condition evaluates against a *bag resolver*: a callable mapping an
:class:`AttributeDesignator`-like object to a tuple of string values.
Values may be literals or attribute **references** (resolved to the
first value of another bag), which is how ``(jobowner = self)``
translates: compare the jobowner bag against the subject-id bag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from repro.core.matching import _texts_equal
from repro.rsl.ast import _try_number

BagResolver = Callable[[object], Tuple[str, ...]]


@dataclass(frozen=True)
class AttributeReference:
    """A value resolved from another attribute bag (first element)."""

    designator: object  # AttributeDesignator; kept loose to avoid cycles

    def resolve(self, bags: BagResolver) -> Optional[str]:
        values = bags(self.designator)
        return values[0] if values else None


ValueOrRef = Union[str, AttributeReference]


def _resolve(value: ValueOrRef, bags: BagResolver) -> Optional[str]:
    if isinstance(value, AttributeReference):
        return value.resolve(bags)
    return value


class Condition:
    """Base class; subclasses implement :meth:`holds`."""

    def holds(self, bags: BagResolver) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class And(Condition):
    parts: Tuple[Condition, ...]

    def holds(self, bags: BagResolver) -> bool:
        return all(part.holds(bags) for part in self.parts)


@dataclass(frozen=True)
class Or(Condition):
    parts: Tuple[Condition, ...]

    def holds(self, bags: BagResolver) -> bool:
        return any(part.holds(bags) for part in self.parts)


@dataclass(frozen=True)
class Not(Condition):
    part: Condition

    def holds(self, bags: BagResolver) -> bool:
        return not self.part.holds(bags)


@dataclass(frozen=True)
class TrueCondition(Condition):
    def holds(self, bags: BagResolver) -> bool:
        return True


@dataclass(frozen=True)
class Present(Condition):
    """The attribute bag is non-empty."""

    designator: object

    def holds(self, bags: BagResolver) -> bool:
        return bool(bags(self.designator))


@dataclass(frozen=True)
class AnyValueIn(Condition):
    """Some bag value equals some listed value (type-aware equality)."""

    designator: object
    attribute_name: str
    values: Tuple[ValueOrRef, ...]

    def holds(self, bags: BagResolver) -> bool:
        bag = bags(self.designator)
        for item in bag:
            for candidate in self.values:
                resolved = _resolve(candidate, bags)
                if resolved is not None and _texts_equal(
                    self.attribute_name, item, resolved
                ):
                    return True
        return False


@dataclass(frozen=True)
class AllValuesIn(Condition):
    """Every bag value equals some listed value (the EQ semantics)."""

    designator: object
    attribute_name: str
    values: Tuple[ValueOrRef, ...]

    def holds(self, bags: BagResolver) -> bool:
        bag = bags(self.designator)
        for item in bag:
            if not any(
                (resolved := _resolve(candidate, bags)) is not None
                and _texts_equal(self.attribute_name, item, resolved)
                for candidate in self.values
            ):
                return False
        return True


@dataclass(frozen=True)
class AllValuesSatisfy(Condition):
    """Every bag value is numeric and satisfies ``value <op> bound``."""

    designator: object
    op: str  # "<", "<=", ">", ">="
    bound: float

    _COMPARATORS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def holds(self, bags: BagResolver) -> bool:
        compare = self._COMPARATORS.get(self.op)
        if compare is None:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        bag = bags(self.designator)
        for item in bag:
            number = _try_number(item)
            if number is None or not compare(number, self.bound):
                return False
        return True
