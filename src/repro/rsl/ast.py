"""Abstract syntax for RSL specifications.

The AST deliberately keeps values as thin wrappers over their source
text plus a parsed numeric interpretation where one exists.  Policy
evaluation needs *both* views: string comparison for executables,
directories and jobtags; numeric comparison for ``count < 4`` style
resource limits.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union


class Relop(enum.Enum):
    """Relational operators RSL supports between attribute and value."""

    EQ = "="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="

    @classmethod
    def from_symbol(cls, symbol: str) -> "Relop":
        try:
            return cls(symbol)
        except ValueError:
            raise ValueError(f"unknown RSL operator: {symbol!r}") from None

    @property
    def is_ordering(self) -> bool:
        """True for the operators requiring a numeric interpretation."""
        return self in (Relop.LT, Relop.LTE, Relop.GT, Relop.GTE)


@dataclass(frozen=True)
class VariableReference:
    """A ``$(NAME)`` reference substituted at evaluation time."""

    name: str

    def __str__(self) -> str:
        return f"$({self.name})"


@dataclass(frozen=True)
class Concatenation:
    """A ``#``-joined value: ``$(HOME)#"/out"``.

    Parts are literals and variable references; once every reference
    is bound the concatenation collapses into a single
    :class:`Value` (see :meth:`Specification.substitute`).
    """

    parts: Tuple[Union["Value", VariableReference], ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("concatenation needs at least two parts")

    @property
    def is_ground(self) -> bool:
        return all(not isinstance(part, VariableReference) for part in self.parts)

    def resolve(self, bindings: Dict[str, str]) -> Optional["Value"]:
        """Collapse to a Value if every reference is bound, else None."""
        texts = []
        for part in self.parts:
            if isinstance(part, VariableReference):
                if part.name not in bindings:
                    return None
                texts.append(bindings[part.name])
            else:
                texts.append(part.text)
        return Value.of("".join(texts), quoted=True)

    def variable_names(self) -> Tuple[str, ...]:
        return tuple(
            part.name for part in self.parts if isinstance(part, VariableReference)
        )

    def __str__(self) -> str:
        return "#".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class Value:
    """A literal RSL value.

    ``text`` is the canonical string form.  ``number`` is the numeric
    interpretation when the text is a finite decimal (see
    :func:`_try_number`), else ``None``.  Equality and hashing use the text form only, so
    ``Value("4")`` and ``Value("4")`` are interchangeable regardless of
    how they were produced.
    """

    text: str
    number: Optional[float] = field(default=None, compare=False)
    quoted: bool = field(default=False, compare=False)

    @classmethod
    def of(cls, raw: Union[str, int, float], quoted: bool = False) -> "Value":
        """Build a value from raw text or a Python number."""
        if isinstance(raw, bool):
            raise TypeError("booleans are not RSL values")
        # A Python number takes the same finite-decimal rule as text, so
        # ``Value.of(float("nan"))`` is the word ``nan``, as parsed.
        text = repr(raw) if isinstance(raw, float) else str(raw)
        return cls(text=text, number=_try_number(text), quoted=quoted)

    @property
    def is_numeric(self) -> bool:
        return self.number is not None

    def __str__(self) -> str:
        return self.text


# Every character float() can read in a finite number, plus all of
# non-ASCII, which float() also reads (Unicode digits and spaces).  A
# text holding any other character -- a letter other than an exponent,
# '/', '_', the letters of "nan" and "inf" -- is a word, turned away
# without calling float() and raising for it.
_NOT_DECIMAL = re.compile(r"[^0-9.eE+\-\s\x80-\U0010ffff]")


def _try_number(text: str) -> Optional[float]:
    """Parse *text* as a finite decimal number, else None.

    Python's ``float`` also accepts ``nan``, ``inf`` and underscore
    separators, and overflows ``1e400`` to infinity; none of those are
    sensible RSL numerics (``nan`` breaks comparison reflexivity), so
    words like ``NAN`` stay strings.
    """
    if _NOT_DECIMAL.search(text):
        return None
    try:
        number = float(text)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


#: Anything a relation may hold on its right-hand side.
RSLValue = Union[Value, VariableReference, Concatenation]


@dataclass(frozen=True)
class Relation:
    """One ``(attribute op value...)`` clause.

    RSL allows several values on the right-hand side (e.g.
    ``(arguments = "-l" "/tmp")``).  Attribute names are
    case-insensitive in GT2; we canonicalise to lower case at
    construction via :meth:`make`.
    """

    attribute: str
    op: Relop
    values: Tuple[RSLValue, ...]

    @classmethod
    def make(
        cls,
        attribute: str,
        op: Union[Relop, str],
        values: Union[RSLValue, str, int, float, Iterable],
    ) -> "Relation":
        """Convenience constructor normalising every argument."""
        if isinstance(op, str):
            op = Relop.from_symbol(op)
        normalised = tuple(_normalise_values(values))
        if not normalised:
            raise ValueError(f"relation on {attribute!r} needs at least one value")
        return cls(attribute=attribute.lower(), op=op, values=normalised)

    @property
    def value(self) -> RSLValue:
        """The single value; raises if the relation is multi-valued."""
        if len(self.values) != 1:
            raise ValueError(
                f"relation on {self.attribute!r} has {len(self.values)} values"
            )
        return self.values[0]

    def value_texts(self) -> Tuple[str, ...]:
        """String forms of all values (variable refs as ``$(NAME)``)."""
        return tuple(str(v) for v in self.values)

    def __str__(self) -> str:
        from repro.rsl.unparser import unparse_relation

        return unparse_relation(self)


def _normalise_values(values) -> Iterator[RSLValue]:
    if isinstance(values, (Value, VariableReference, Concatenation)):
        yield values
        return
    if isinstance(values, (str, int, float)):
        yield Value.of(values)
        return
    for item in values:
        if isinstance(item, (Value, VariableReference, Concatenation)):
            yield item
        else:
            yield Value.of(item)


@dataclass(frozen=True)
class Specification:
    """A conjunction of relations: ``&(a=1)(b=2)``.

    The same attribute may appear in several relations (e.g. a range
    expressed as ``(count>=1)(count<=4)``), so lookups return lists.
    """

    relations: Tuple[Relation, ...]

    def __hash__(self) -> int:
        # Specifications sit inside decision-cache / capability-store
        # keys, so they are hashed on every repeat decision; the deep
        # relation-tuple hash is computed once and memoized (safe: the
        # dataclass is frozen all the way down).
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            cached = hash(self.relations)
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    @classmethod
    def make(cls, relations: Iterable[Relation]) -> "Specification":
        return cls(relations=tuple(relations))

    @classmethod
    def from_pairs(cls, pairs: Dict[str, Union[str, int, float]]) -> "Specification":
        """Build an all-equality specification from a plain dict."""
        return cls.make(
            Relation.make(attr, Relop.EQ, value) for attr, value in pairs.items()
        )

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attribute names in order of first appearance, deduplicated."""
        seen: List[str] = []
        for relation in self.relations:
            if relation.attribute not in seen:
                seen.append(relation.attribute)
        return tuple(seen)

    def relations_for(self, attribute: str) -> Tuple[Relation, ...]:
        """All relations mentioning *attribute* (case-insensitive)."""
        wanted = attribute.lower()
        return tuple(r for r in self.relations if r.attribute == wanted)

    def has(self, attribute: str) -> bool:
        return bool(self.relations_for(attribute))

    def first_value(self, attribute: str) -> Optional[str]:
        """Text of the first value of the first ``=`` relation on *attribute*.

        This is the lookup the Job Manager uses to pull single-valued
        job parameters (executable, directory, jobtag) out of a request.
        """
        for relation in self.relations_for(attribute):
            if relation.op is Relop.EQ and relation.values:
                return str(relation.values[0])
        return None

    def to_dict(self) -> Dict[str, Tuple[str, ...]]:
        """Flatten equality relations into ``{attribute: value texts}``."""
        out: Dict[str, Tuple[str, ...]] = {}
        for relation in self.relations:
            if relation.op is Relop.EQ:
                out.setdefault(relation.attribute, ())
                out[relation.attribute] = out[relation.attribute] + relation.value_texts()
        return out

    def replace(self, attribute: str, relation: Relation) -> "Specification":
        """Return a copy with all relations on *attribute* replaced."""
        wanted = attribute.lower()
        kept = [r for r in self.relations if r.attribute != wanted]
        kept.append(relation)
        return Specification(relations=tuple(kept))

    def without(self, attribute: str) -> "Specification":
        """Return a copy with every relation on *attribute* removed."""
        wanted = attribute.lower()
        return Specification(
            relations=tuple(r for r in self.relations if r.attribute != wanted)
        )

    def merged_with(self, other: "Specification") -> "Specification":
        """Concatenate two specifications into one conjunction."""
        return Specification(relations=self.relations + other.relations)

    def substitute(self, bindings: Dict[str, str]) -> "Specification":
        """Resolve ``$(NAME)`` references using *bindings*.

        Unbound references are left in place so the evaluator can
        report them precisely.
        """
        new_relations = []
        for relation in self.relations:
            new_values: List[RSLValue] = []
            changed = False
            for value in relation.values:
                if isinstance(value, VariableReference) and value.name in bindings:
                    new_values.append(Value.of(bindings[value.name]))
                    changed = True
                elif isinstance(value, Concatenation):
                    resolved = value.resolve(bindings)
                    if resolved is not None:
                        new_values.append(resolved)
                        changed = True
                    else:
                        new_values.append(value)
                else:
                    new_values.append(value)
            if changed:
                new_relations.append(
                    Relation(
                        attribute=relation.attribute,
                        op=relation.op,
                        values=tuple(new_values),
                    )
                )
            else:
                new_relations.append(relation)
        return Specification(relations=tuple(new_relations))

    def unbound_variables(self) -> Tuple[str, ...]:
        """Names of all variable references remaining in the spec."""
        names: List[str] = []
        for relation in self.relations:
            for value in relation.values:
                if isinstance(value, VariableReference) and value.name not in names:
                    names.append(value.name)
                elif isinstance(value, Concatenation):
                    for name in value.variable_names():
                        if name not in names:
                            names.append(name)
        return tuple(names)

    def __str__(self) -> str:
        from repro.rsl.unparser import unparse

        return unparse(self)


@dataclass(frozen=True)
class MultiRequest:
    """A ``+`` multi-request: several independent specifications."""

    specifications: Tuple[Specification, ...]

    @classmethod
    def make(cls, specs: Sequence[Specification]) -> "MultiRequest":
        return cls(specifications=tuple(specs))

    def __iter__(self) -> Iterator[Specification]:
        return iter(self.specifications)

    def __len__(self) -> int:
        return len(self.specifications)

    def __str__(self) -> str:
        from repro.rsl.unparser import unparse

        return unparse(self)
