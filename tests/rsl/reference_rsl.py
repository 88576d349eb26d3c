"""The RSL scanner and parser before the regular-expression scanner, frozen.

:func:`reference_tokenize` is the per-character generator scan,
:func:`reference_parse_rsl` and :func:`reference_parse_specification`
the recursive-descent parser that walked it through ``current``,
``at``, ``advance`` and ``expect``, and :func:`reference_try_number`
the numeric view every literal ``Value`` carried.  That is the
behaviour :mod:`repro.rsl.lexer`, :mod:`repro.rsl.parser` and
``repro.rsl.ast._try_number`` must reproduce token for token, tree for
tree and error for error, in ``test_differential.py``.

The copy is faithful and self-contained apart from the AST classes
and ``TokenType``, which both sides share.  Values are built with the
frozen number rule, so the differential also pins ``Value.number``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from repro.rsl.ast import (
    Concatenation,
    MultiRequest,
    Relation,
    Relop,
    Specification,
    Value,
    VariableReference,
)
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.lexer import TokenType


# -- numbers -------------------------------------------------------------------


def reference_try_number(text: str) -> Optional[float]:
    """Parse *text* as a finite decimal number, else None."""
    if "_" in text:
        return None
    try:
        number = float(text)
    except ValueError:
        return None
    if number != number or number in (float("inf"), float("-inf")):
        return None
    return number


def _value(text: str, quoted: bool = False) -> Value:
    return Value(text=text, number=reference_try_number(text), quoted=quoted)


# -- scanner -------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceToken:
    type: TokenType
    text: str
    position: int


_OP_CHARS = set("=!<>")
_STRUCTURAL = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "#": TokenType.HASH,
}
_WORD_TERMINATORS = set("()=!<>\"'#") | set(" \t\r\n")


def reference_tokenize(text: str) -> List[ReferenceToken]:
    """Tokenize *text* into a list ending with an EOF token."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[ReferenceToken]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _STRUCTURAL:
            yield ReferenceToken(_STRUCTURAL[ch], ch, i)
            i += 1
            continue
        if ch == "&":
            yield ReferenceToken(TokenType.AMP, ch, i)
            i += 1
            continue
        if ch == "+":
            yield ReferenceToken(TokenType.PLUS, ch, i)
            i += 1
            continue
        if ch in _OP_CHARS:
            i = yield from _scan_operator(text, i)
            continue
        if ch in "\"'":
            i = yield from _scan_string(text, i)
            continue
        if ch == "$" and i + 1 < n and text[i + 1] == "(":
            i = yield from _scan_varref(text, i)
            continue
        i = yield from _scan_word(text, i)
    yield ReferenceToken(TokenType.EOF, "", n)


def _scan_operator(text: str, start: int):
    ch = text[start]
    nxt = text[start + 1] if start + 1 < len(text) else ""
    if ch == "!":
        if nxt != "=":
            raise RSLSyntaxError("expected '=' after '!'", start, text)
        yield ReferenceToken(TokenType.OP, "!=", start)
        return start + 2
    if ch in "<>" and nxt == "=":
        yield ReferenceToken(TokenType.OP, ch + "=", start)
        return start + 2
    yield ReferenceToken(TokenType.OP, ch, start)
    return start + 1


def _scan_string(text: str, start: int):
    quote = text[start]
    i = start + 1
    chars: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == quote:
            # RSL escapes an embedded quote by doubling it.
            if i + 1 < len(text) and text[i + 1] == quote:
                chars.append(quote)
                i += 2
                continue
            yield ReferenceToken(TokenType.STRING, "".join(chars), start)
            return i + 1
        chars.append(ch)
        i += 1
    raise RSLSyntaxError("unterminated string literal", start, text)


def _scan_varref(text: str, start: int):
    # text[start] == '$', text[start+1] == '('
    i = start + 2
    begin = i
    while i < len(text) and text[i] != ")":
        i += 1
    if i >= len(text):
        raise RSLSyntaxError("unterminated variable reference", start, text)
    name = text[begin:i].strip()
    if not name:
        raise RSLSyntaxError("empty variable reference", start, text)
    yield ReferenceToken(TokenType.VARREF, name, start)
    return i + 1


def _scan_word(text: str, start: int):
    i = start
    chars: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch in _WORD_TERMINATORS or ch in "&+":
            # '&' and '+' only terminate a word at a clause boundary;
            # inside a word (e.g. an email or DN) they are literal.
            if ch in "&+" and chars and chars[-1] not in (" ",):
                # Peek: treat as terminator only when followed by '('
                # or whitespace, which is how clause prefixes appear.
                nxt = text[i + 1] if i + 1 < len(text) else ""
                if nxt not in ("(", " ", "\t", "\r", "\n", ""):
                    chars.append(ch)
                    i += 1
                    continue
            break
        chars.append(ch)
        i += 1
    word = "".join(chars).strip()
    if not word:
        raise RSLSyntaxError(f"unexpected character {text[start]!r}", start, text)
    yield ReferenceToken(TokenType.WORD, word, start)
    return i


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = reference_tokenize(text)
        self.index = 0

    @property
    def current(self) -> ReferenceToken:
        return self.tokens[self.index]

    def advance(self) -> ReferenceToken:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def expect(self, ttype: TokenType) -> ReferenceToken:
        if self.current.type is not ttype:
            raise RSLSyntaxError(
                f"expected {ttype.name}, found {self.current.type.name}",
                self.current.position,
                self.text,
            )
        return self.advance()

    def at(self, ttype: TokenType) -> bool:
        return self.current.type is ttype

    def parse(self) -> Union[Specification, MultiRequest]:
        if self.at(TokenType.PLUS):
            self.advance()
            result: Union[Specification, MultiRequest] = self._multi_request_body()
        else:
            result = self._specification()
        self.expect(TokenType.EOF)
        return result

    def _multi_request_body(self) -> MultiRequest:
        specs: List[Specification] = []
        while self.at(TokenType.LPAREN):
            self.expect(TokenType.LPAREN)
            specs.append(self._specification())
            self.expect(TokenType.RPAREN)
        if not specs:
            raise RSLSyntaxError(
                "multi-request must contain at least one specification",
                self.current.position,
                self.text,
            )
        return MultiRequest.make(specs)

    def _specification(self) -> Specification:
        if self.at(TokenType.AMP):
            self.advance()
        relations: List[Relation] = []
        while self.at(TokenType.LPAREN):
            relations.append(self._relation())
        if not relations:
            raise RSLSyntaxError(
                "specification must contain at least one relation",
                self.current.position,
                self.text,
            )
        return Specification.make(relations)

    def _relation(self) -> Relation:
        self.expect(TokenType.LPAREN)
        name_token = self.expect(TokenType.WORD)
        op_token = self.expect(TokenType.OP)
        op = Relop.from_symbol(op_token.text)
        values: List[Union[Value, VariableReference]] = []
        while not self.at(TokenType.RPAREN):
            values.append(self._value())
        self.expect(TokenType.RPAREN)
        if not values:
            raise RSLSyntaxError(
                f"relation on {name_token.text!r} has no value",
                name_token.position,
                self.text,
            )
        return Relation(attribute=name_token.text.lower(), op=op, values=tuple(values))

    def _value(self) -> Union[Value, VariableReference, Concatenation]:
        parts = [self._value_atom()]
        while self.at(TokenType.HASH):
            self.advance()
            parts.append(self._value_atom())
        if len(parts) == 1:
            return parts[0]
        if all(isinstance(part, Value) for part in parts):
            return _value("".join(part.text for part in parts), quoted=True)
        return Concatenation(parts=tuple(parts))

    def _value_atom(self) -> Union[Value, VariableReference]:
        token = self.current
        if token.type is TokenType.WORD:
            self.advance()
            return _value(token.text)
        if token.type is TokenType.STRING:
            self.advance()
            return _value(token.text, quoted=True)
        if token.type is TokenType.VARREF:
            self.advance()
            return VariableReference(name=token.text)
        raise RSLSyntaxError(
            f"expected a value, found {token.type.name}", token.position, self.text
        )


def reference_parse_rsl(text: str) -> Union[Specification, MultiRequest]:
    """Parse *text* into a specification or multi-request."""
    if not text or not text.strip():
        raise RSLSyntaxError("empty RSL text")
    return _Parser(text).parse()


def reference_parse_specification(text: str) -> Specification:
    """Parse *text*, requiring a single specification (no ``+``)."""
    result = reference_parse_rsl(text)
    if isinstance(result, MultiRequest):
        raise RSLSyntaxError("expected a single specification, found a multi-request")
    return result
