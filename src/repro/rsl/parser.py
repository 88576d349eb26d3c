"""Recursive-descent parser for RSL.

Grammar (following the GT2 RSL 1.0 structure)::

    rsl          := multi_request | specification
    multi_request:= '+' clause_list
    specification:= '&'? clause_list
    clause_list  := clause+
    clause       := '(' inner ')'
    inner        := specification        -- nested, for multi-requests
                  | relation
    relation     := WORD OP value+
    value        := WORD | STRING | VARREF | NUMBER

``parse_rsl`` returns either a :class:`Specification` or a
:class:`MultiRequest`; ``parse_specification`` insists on a single
specification, which is what the Job Manager expects from a job
request.

The whole text is tokenized first, so a lexical error always wins over
a grammatical one.  Each rule takes the index of its first token and
returns what it built together with the index after it.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.rsl.ast import (
    Concatenation,
    MultiRequest,
    Relation,
    Relop,
    RSLValue,
    Specification,
    Value,
    VariableReference,
    _try_number,
)
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.lexer import Token, TokenType, tokenize

# Token types and operators, bound once for the per-token checks.
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_AMP = TokenType.AMP
_PLUS = TokenType.PLUS
_HASH = TokenType.HASH
_OP = TokenType.OP
_WORD = TokenType.WORD
_STRING = TokenType.STRING
_VARREF = TokenType.VARREF
_EOF = TokenType.EOF

_RELOPS = {relop.value: relop for relop in Relop}


class _Parser:
    __slots__ = ("text", "tokens")

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)

    def _error(self, message: str, token: Token) -> RSLSyntaxError:
        return RSLSyntaxError(message, token.position, self.text)

    def _expected(self, ttype: TokenType, token: Token) -> RSLSyntaxError:
        return self._error(f"expected {ttype.name}, found {token.type.name}", token)

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Union[Specification, MultiRequest]:
        result: Union[Specification, MultiRequest]
        if self.tokens[0].type is _PLUS:
            result, index = self._multi_request_body(1)
        else:
            result, index = self._specification(0)
        token = self.tokens[index]
        if token.type is not _EOF:
            raise self._expected(_EOF, token)
        return result

    def _multi_request_body(self, index: int) -> Tuple[MultiRequest, int]:
        tokens = self.tokens
        specs: List[Specification] = []
        while tokens[index].type is _LPAREN:
            spec, index = self._specification(index + 1)
            token = tokens[index]
            if token.type is not _RPAREN:
                raise self._expected(_RPAREN, token)
            index += 1
            specs.append(spec)
        if not specs:
            raise self._error(
                "multi-request must contain at least one specification",
                tokens[index],
            )
        return MultiRequest(specifications=tuple(specs)), index

    def _specification(self, index: int) -> Tuple[Specification, int]:
        tokens = self.tokens
        if tokens[index].type is _AMP:
            index += 1
        relations: List[Relation] = []
        while tokens[index].type is _LPAREN:
            relation, index = self._relation(index + 1)
            relations.append(relation)
        if not relations:
            raise self._error(
                "specification must contain at least one relation", tokens[index]
            )
        return Specification(relations=tuple(relations)), index

    def _relation(self, index: int) -> Tuple[Relation, int]:
        """``WORD OP value+ ')'``; *index* is just past the ``(``."""
        tokens = self.tokens
        name = tokens[index]
        if name.type is not _WORD:
            raise self._expected(_WORD, name)
        op = tokens[index + 1]
        if op.type is not _OP:
            raise self._expected(_OP, op)
        index += 2
        values: List[RSLValue] = []
        token = tokens[index]
        while token.type is not _RPAREN:
            value = self._atom(token)
            index += 1
            if tokens[index].type is _HASH:
                value, index = self._concatenation(value, index)
            values.append(value)
            token = tokens[index]
        if not values:
            raise self._error(f"relation on {name.text!r} has no value", name)
        relation = Relation(
            attribute=name.text.lower(), op=_RELOPS[op.text], values=tuple(values)
        )
        return relation, index + 1

    def _concatenation(
        self, first: Union[Value, VariableReference], index: int
    ) -> Tuple[RSLValue, int]:
        """``first ('#' atom)+``; *index* is at the first ``#``."""
        tokens = self.tokens
        parts = [first]
        while tokens[index].type is _HASH:
            parts.append(self._atom(tokens[index + 1]))
            index += 2
        # Ground concatenations fold immediately into one literal.
        if all(isinstance(part, Value) for part in parts):
            text = "".join(part.text for part in parts)
            return Value(text=text, number=_try_number(text), quoted=True), index
        return Concatenation(parts=tuple(parts)), index

    def _atom(self, token: Token) -> Union[Value, VariableReference]:
        ttype = token.type
        if ttype is _WORD:
            return Value(text=token.text, number=_try_number(token.text))
        if ttype is _STRING:
            return Value(text=token.text, number=_try_number(token.text), quoted=True)
        if ttype is _VARREF:
            return VariableReference(name=token.text)
        raise self._error(f"expected a value, found {ttype.name}", token)


def parse_rsl(text: str) -> Union[Specification, MultiRequest]:
    """Parse *text* into a specification or multi-request."""
    if not text or not text.strip():
        raise RSLSyntaxError("empty RSL text")
    return _Parser(text).parse()


def parse_specification(text: str) -> Specification:
    """Parse *text*, requiring a single specification (no ``+``)."""
    result = parse_rsl(text)
    if isinstance(result, MultiRequest):
        raise RSLSyntaxError("expected a single specification, found a multi-request")
    return result
