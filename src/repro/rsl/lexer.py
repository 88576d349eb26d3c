"""Tokenizer for RSL text.

Token inventory (mirroring the GT2 RSL grammar):

========== =============================================
``LPAREN`` ``(``
``RPAREN`` ``)``
``AMP``    ``&`` — conjunction prefix
``PLUS``   ``+`` — multi-request prefix
``OP``     one of ``= != < <= > >=``
``WORD``   an unquoted literal (may contain ``/ . - _ : * $ @ ,``)
``STRING`` a double- or single-quoted literal
``VARREF`` ``$(NAME)``
``EOF``    end of input
========== =============================================

Unquoted words terminate at whitespace, parentheses or an operator
character, which matches how GT2 RSL treats bare values such as
``/bin/transp`` or distinguished-name fragments.

The scan is one compiled regular expression: each match is one token
or the start of a lexical error, and only `` \\t\\r\\n`` separate
tokens.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.rsl.errors import RSLSyntaxError


class TokenType(enum.Enum):
    LPAREN = "lparen"
    RPAREN = "rparen"
    AMP = "amp"
    PLUS = "plus"
    HASH = "hash"
    OP = "op"
    WORD = "word"
    STRING = "string"
    VARREF = "varref"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    text: str
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r}, @{self.position})"


_PUNCTUATION = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "#": TokenType.HASH,
    "&": TokenType.AMP,
    "+": TokenType.PLUS,
}

# A word character is anything but ' \t\r\n', a parenthesis, an
# operator character, a quote or '#'.  '&' and '+' only end a word at a
# clause boundary, i.e. before '(', ' \t\r\n' or the end of the text;
# anywhere else (an email address, a DN) they are literal.  Other
# whitespace, such as '\x0b', is part of a word, which is then stripped.
_WORD_CHAR = r"[^()=!<>\"'#&+ \t\r\n]"
_WORD = rf"{_WORD_CHAR}+(?:[&+](?=[^( \t\r\n]){_WORD_CHAR}*)*"
# A quoted literal doubles its quote to embed it.  The look-ahead after
# the closing quote stops a failed match from backtracking into a
# doubled quote and closing early: '"x""' is unterminated, not '"x"'
# followed by a stray '"'.
_DOUBLE_QUOTED = r'"([^"]*(?:""[^"]*)*)"(?!")'
_SINGLE_QUOTED = r"'([^']*(?:''[^']*)*)'(?!')"

#: Group numbers, one per alternative, in the order they are tried.
#: '$' is a word character, so both '$(' forms come before words.
_PUNCT, _OP, _DQ, _SQ, _VAR, _BAD, _WORD_GROUP = range(1, 8)
_TOKEN = re.compile(
    "|".join(
        (
            r"([()#&+])",
            r"(!=|<=|>=|[=<>])",
            _DOUBLE_QUOTED,
            _SINGLE_QUOTED,
            r"\$\(([^)]*)\)",
            # Lexical errors: a lone '!', an unterminated quote or '$('.
            r"(!|[\"']|\$\()",
            rf"({_WORD})",
        )
    )
)

# Builds a Token without the Python-level ``__new__`` a NamedTuple adds.
_new_token = tuple.__new__


def tokenize(text: str) -> List[Token]:
    """Tokenize *text* into a list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    punctuation = _PUNCTUATION
    op, string, word = TokenType.OP, TokenType.STRING, TokenType.WORD
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        lexeme = match[kind]
        start = match.start()
        if kind == _WORD_GROUP:
            stripped = lexeme.strip()
            if not stripped:
                raise RSLSyntaxError(
                    f"unexpected character {text[start]!r}", start, text
                )
            append(_new_token(Token, (word, stripped, start)))
        elif kind == _PUNCT:
            append(_new_token(Token, (punctuation[lexeme], lexeme, start)))
        elif kind == _OP:
            append(_new_token(Token, (op, lexeme, start)))
        elif kind == _DQ:
            append(_new_token(Token, (string, lexeme.replace('""', '"'), start)))
        elif kind == _SQ:
            append(_new_token(Token, (string, lexeme.replace("''", "'"), start)))
        elif kind == _VAR:
            name = lexeme.strip()
            if not name:
                raise RSLSyntaxError("empty variable reference", start, text)
            append(_new_token(Token, (TokenType.VARREF, name, start)))
        elif lexeme == "!":
            raise RSLSyntaxError("expected '=' after '!'", start, text)
        elif lexeme == "$(":
            raise RSLSyntaxError("unterminated variable reference", start, text)
        else:
            raise RSLSyntaxError("unterminated string literal", start, text)
    append(_new_token(Token, (TokenType.EOF, "", len(text))))
    return tokens
