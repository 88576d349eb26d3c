"""Differential suite: the regex scanner and index parser against the frozen ones.

Every generated string goes through :func:`repro.rsl.lexer.tokenize` and
:func:`tests.rsl.reference_rsl.reference_tokenize`, and then through one
of ``parse_rsl`` and ``parse_specification`` on both sides, alternately.
The two sides must agree exactly: each token's type, text and position,
or the error's message and position; each result's ``repr``, which
includes every ``Value.number`` and ``Value.quoted``, or the error's
message and position.

Strings come from four seeded generators:

* the printable alphabet and the structural noise of
  ``test_parser_fuzz.py``;
* structured RSL: all six operators, ``&`` and ``+`` inside and outside
  words, ``$(...)`` with and without its ``)``, doubled quotes, ``#``
  concatenation, numbers and the words ``float`` also reads as numbers,
  with ``\\x0b``, ``\\xa0`` and other non-ASCII characters;
* the job descriptions and policy assertions of ``examples/``, the
  scenario policies and the policies and requests of
  :mod:`repro.workloads.generator`;
* those same texts with a few characters deleted, inserted, swapped or
  cut off, which walks every error path next to valid input.

``CHUNKS`` x ``PER_CHUNK`` is 200,000 strings: 200,000 tokenizations
and 200,000 parses per side.
"""

from __future__ import annotations

import ast as python_ast
import random
import string
from pathlib import Path
from typing import Any, Callable, List

import pytest

from repro.rsl.ast import Relop, Value, _try_number
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.lexer import TokenType, tokenize
from repro.rsl.parser import parse_rsl, parse_specification
from repro.rsl.unparser import unparse
from repro.workloads.generator import (
    PolicyShape,
    WorkloadGenerator,
    generate_policy,
    generate_users,
)
from repro.workloads.scenarios import (
    FIGURE3_POLICY_TEXT,
    NFC_LOCAL_POLICY,
    NFC_VO_POLICY,
)
from tests.rsl.reference_rsl import (
    reference_parse_rsl,
    reference_parse_specification,
    reference_tokenize,
    reference_try_number,
)

CHUNKS = 8
PER_CHUNK = 25_000

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

# -- corpus --------------------------------------------------------------------


def _rsl_lines(text: str) -> List[str]:
    """The lines of *text* that look like RSL: a relation in parentheses."""
    return [
        line.strip()
        for line in text.splitlines()
        if "(" in line and any(op in line for op in ("=", "<", ">"))
    ]


def _example_texts() -> List[str]:
    """Job descriptions and policy assertions written in ``examples/``."""
    found: List[str] = []
    for path in sorted(EXAMPLES.glob("*.py")):
        tree = python_ast.parse(path.read_text())
        for node in python_ast.walk(tree):
            if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                found.extend(_rsl_lines(node.value))
    return found


def _generator_texts() -> List[str]:
    """Assertions and requests of the synthetic workload generator."""
    found: List[str] = []
    for seed in (7, 11):
        shape = PolicyShape(users=6, relations_per_assertion=4, seed=seed)
        policy = generate_policy(shape)
        for statement in policy.statements:
            found.extend(unparse(assertion.spec) for assertion in statement.assertions)
        workload = WorkloadGenerator(
            policy=policy, users=generate_users(6), seed=seed
        )
        found.extend(unparse(request.job_description) for request in workload.batch(40))
    return found


CORPUS = tuple(
    dict.fromkeys(
        _example_texts()
        + _generator_texts()
        + _rsl_lines(FIGURE3_POLICY_TEXT)
        + _rsl_lines(NFC_VO_POLICY)
        + _rsl_lines(NFC_LOCAL_POLICY)
    )
)

# -- generators ----------------------------------------------------------------

#: ``test_parser_fuzz.py``'s structural noise alphabet.
NOISE = ["&", "+", "(", ")", "=", "!=", "<", ">", "a", "1", '"', " "]
OPERATORS = tuple(relop.value for relop in Relop)
SEPARATORS = ("", "", "", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\xa0", " \x0b")
ODD_CHARACTERS = "\x0b\x0c\x1c\xa0 é中٣３ß\x00!$#&+'\"()=<>_"
WORDS = (
    "test1", "TRANSP", "/sandbox/dev", "/opt/nfc/bin", "NFC", "ADS", "self",
    "NULL", "bo@mcs.anl.gov", "a&b", "a+b", "a&&b", "x+", "x&", "$5", "a$b",
    "/O=Grid/CN=Bo Liu", "é", "中文", "nan", "NaN", "inf", "-Infinity",
    "1e400", "-1e400", "1_000", "1e5", "-5", "+3", ".5", "5.", "0x10",
    "4", "600", "123.45", "٣", "３", "1e", "e", "-", ".", "\x0b", "a\x0b",
    "\x0b4", "\xa04\xa0",
)
ATTRIBUTES = ("executable", "Count", "directory", "jobtag", "runtime", "a", "ACTION")


def _printable(rng: random.Random) -> str:
    return "".join(
        rng.choice(string.printable) for _ in range(rng.randint(0, 60))
    )


def _noise(rng: random.Random) -> str:
    return "".join(rng.choice(NOISE) for _ in range(rng.randint(0, 30)))


def _quoted(rng: random.Random) -> str:
    quote = rng.choice("\"'")
    body = "".join(
        rng.choice(("a", " ", "b", quote, quote * 2, "()", "=", "#", "\x0b"))
        for _ in range(rng.randint(0, 5))
    )
    closing = rng.choice((quote, quote, quote, quote * 2, quote * 3, ""))
    return quote + body + closing


def _atom(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(WORDS)
    if roll < 0.7:
        return _quoted(rng)
    if roll < 0.85:
        inner = rng.choice(("HOME", " HOME ", "", " ", "A(B", "x\ny", "$(X"))
        return "$(" + inner + rng.choice((")", ")", ")", ""))
    return "".join(rng.choice(ODD_CHARACTERS) for _ in range(rng.randint(1, 3)))


def _value(rng: random.Random) -> str:
    parts = [_atom(rng)]
    while rng.random() < 0.2:
        parts.append(rng.choice(("#", " # ", "#")))
        parts.append(_atom(rng) if rng.random() < 0.9 else "")
    return "".join(parts)


def _relation(rng: random.Random) -> str:
    def sep() -> str:
        return rng.choice(SEPARATORS)

    values = [_value(rng) for _ in range(rng.choice((1, 1, 1, 2, 3, 0)))]
    return (
        "(" + sep() + rng.choice(ATTRIBUTES + ("", "(", "=")) + sep()
        + rng.choice(OPERATORS + ("!", "==", "=<", "")) + sep()
        + (" " if rng.random() < 0.7 else sep()).join(values) + sep()
        + rng.choice((")", ")", ")", ")", "", "))"))
    )


def _specification(rng: random.Random) -> str:
    prefix = rng.choice(("&", "&", "", "& ", "+", "&&"))
    return prefix + rng.choice(SEPARATORS).join(
        _relation(rng) for _ in range(rng.randint(0, 5))
    )


def _structured(rng: random.Random) -> str:
    if rng.random() < 0.25:
        inner = [_specification(rng) for _ in range(rng.randint(0, 3))]
        return "+" + rng.choice(SEPARATORS) + "".join(f"({spec})" for spec in inner)
    return _specification(rng)


def _corpus(rng: random.Random) -> str:
    return rng.choice(CORPUS)


def _mutated(rng: random.Random) -> str:
    chars = list(rng.choice(CORPUS))
    for _ in range(rng.randint(1, 3)):
        if not chars:
            break
        at = rng.randrange(len(chars))
        roll = rng.random()
        if roll < 0.3:
            del chars[at]
        elif roll < 0.6:
            chars.insert(at, rng.choice(ODD_CHARACTERS + " \t\n" + string.printable))
        elif roll < 0.8:
            other = rng.randrange(len(chars))
            chars[at], chars[other] = chars[other], chars[at]
        else:
            del chars[at:]
    return "".join(chars)


GENERATORS: List[Callable[[random.Random], str]] = [
    _printable, _noise, _structured, _structured, _corpus, _mutated, _mutated,
]

# -- comparison ----------------------------------------------------------------


def _lexed(tokenizer: Callable[[str], Any], text: str) -> Any:
    try:
        return [(token.type, token.text, token.position) for token in tokenizer(text)]
    except RSLSyntaxError as exc:
        return ("error", str(exc), exc.position)


def _parsed(parser: Callable[[str], Any], text: str) -> Any:
    try:
        return repr(parser(text))
    except RSLSyntaxError as exc:
        return ("error", str(exc), exc.position)


PARSERS = (
    (parse_rsl, reference_parse_rsl),
    (parse_specification, reference_parse_specification),
)


def test_corpus_is_not_trivial():
    # Every source contributes, and most of the corpus parses.
    assert len(_example_texts()) >= 20
    assert len(_generator_texts()) >= 50
    parsed = sum(1 for text in CORPUS if not isinstance(_parsed(parse_rsl, text), tuple))
    assert parsed >= 0.9 * len(CORPUS)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_scanner_and_parser_match_the_reference(chunk):
    rng = random.Random(20_000 + chunk)
    divergences = []
    for index in range(PER_CHUNK):
        text = rng.choice(GENERATORS)(rng)
        lexed = _lexed(tokenize, text)
        if lexed != _lexed(reference_tokenize, text):
            divergences.append(("tokenize", text))
        parser, reference = PARSERS[index % 2]
        if _parsed(parser, text) != _parsed(reference, text):
            divergences.append((parser.__name__, text))
    assert divergences == [], divergences[:5]


def test_generated_strings_reach_every_outcome():
    """The generators exercise each token type and each error message."""
    rng = random.Random(99)
    types, messages = set(), set()
    for _ in range(20_000):
        text = rng.choice(GENERATORS)(rng)
        for parser in (tokenize, parse_rsl, parse_specification):
            try:
                result = parser(text)
            except RSLSyntaxError as exc:
                messages.add(str(exc).split(" at position")[0])
                continue
            if parser is tokenize:
                types.update(token.type for token in result)
    assert types == set(TokenType)
    for prefix in (
        "empty RSL text",
        "expected '=' after '!'",
        "unterminated string literal",
        "unterminated variable reference",
        "empty variable reference",
        "unexpected character",
        "multi-request must contain at least one specification",
        "specification must contain at least one relation",
        "expected a single specification, found a multi-request",
        "expected WORD, found",
        "expected OP, found",
        "expected EOF, found",
        "expected RPAREN, found",
        "expected a value, found",
        "relation on",
    ):
        assert any(message.startswith(prefix) for message in messages), prefix


class TestPinnedCases:
    """Inputs where a regex scanner most easily drifts from the old scan."""

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # A failed match must not backtrack into the doubled quote.
            ('(a="x"")', "unterminated string literal", 3),
            ("(a='x'')", "unterminated string literal", 3),
            ('(a="x"""")', "unterminated string literal", 3),
            # Only ' \t\r\n' separate tokens; a word is then stripped.
            ("\x0b", "empty RSL text", -1),
            ("(a=\x0b)", "unexpected character '\\x0b'", 3),
            ("(a=b)\x0c", "unexpected character '\\x0c'", 5),
            ("(a=!b)", "expected '=' after '!'", 3),
            ("(a=$(b)", "expected a value, found EOF", 7),
            ("(a=$(b", "unterminated variable reference", 3),
            ("(a=$( ))", "empty variable reference", 3),
            # The first error in the text wins, a lexical one over any other.
            ('(a=)"', "unterminated string literal", 4),
            ("(a=)(b=)", "relation on 'a' has no value", 1),
            ("+(a=1)", "specification must contain at least one relation", 2),
            ("+", "multi-request must contain at least one specification", 1),
            ("&(a=b c#)", "expected a value, found RPAREN", 8),
            ("(a=1)(b=2", "expected a value, found EOF", 9),
            ("(a=1) b", "expected EOF, found WORD", 6),
        ],
    )
    def test_error_and_position(self, text, message, position):
        for parser in (parse_rsl, reference_parse_rsl):
            with pytest.raises(RSLSyntaxError) as caught:
                parser(text)
            assert str(caught.value).startswith(message)
            assert caught.value.position == position

    def test_closed_doubled_quote(self):
        tokens = tokenize('(a="x""")')
        assert [(t.type, t.text, t.position) for t in tokens][3] == (
            TokenType.STRING, 'x"', 3,
        )

    @pytest.mark.parametrize(
        "text, words",
        [
            ("(a=b&c)", ["a", "b&c"]),
            ("(a=b& c)", ["a", "b", "c"]),
            ("(a=b&(c=d))", ["a", "b", "c", "d"]),
            ("(a=b+)", ["a", "b+"]),
            ("(a=b+", ["a", "b"]),
            ("(a=\x0bb\x0b+c)", ["a", "b\x0b+c"]),
        ],
    )
    def test_amp_and_plus_inside_words(self, text, words):
        got = [t.text for t in tokenize(text) if t.type is TokenType.WORD]
        assert got == words
        assert got == [
            t.text for t in reference_tokenize(text) if t.type is TokenType.WORD
        ]

    def test_ground_concatenation_folds_into_one_quoted_value(self):
        spec = parse_specification('(a=x#"y z"#1)')
        assert spec.relations[0].values == (Value("xy z1"),)
        assert spec.relations[0].values[0].quoted
        assert repr(spec) == repr(reference_parse_specification('(a=x#"y z"#1)'))

    def test_attribute_names_are_lower_cased(self):
        assert parse_specification("(CoUnT=4)").relations[0].attribute == "count"

    def test_multi_request_is_parsed_whole_before_it_is_rejected(self):
        with pytest.raises(RSLSyntaxError) as caught:
            parse_specification("+(&(a=1))(&(b=))")
        assert str(caught.value).startswith("relation on 'b' has no value")


class TestNumberRule:
    @pytest.mark.parametrize(
        "text",
        ["4", "-5", "+3", ".5", "5.", "1e5", "1E-3", " 7 ", "\x0b8\x0c", "٣", "３",
         "1e308", "-0"],
    )
    def test_finite_decimals_are_numbers(self, text):
        assert _try_number(text) == float(text)
        assert _try_number(text) == reference_try_number(text)

    @pytest.mark.parametrize(
        "text",
        ["test1", "nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "-1e400",
         "1_000", "0x10", "", " ", "e", "1e", "-", ".", "/bin/sh", "a4", "4a",
         "\x00", "1\x00"],
    )
    def test_everything_else_is_a_word(self, text):
        assert _try_number(text) is None
        assert reference_try_number(text) is None

    def test_python_numbers_take_the_same_rule(self):
        assert Value.of(4).number == 4.0
        assert Value.of(2.5).number == 2.5
        assert Value.of(float("nan")).number is None
        assert Value.of(float("inf")).number is None
        assert Value.of(10**400).number is None

    def test_agrees_with_the_reference_on_random_text(self):
        rng = random.Random(5)
        alphabet = "0123456789.eE+-_ \t\x0b\xa0nafiINAF٣３x"
        for _ in range(50_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert _try_number(text) == reference_try_number(text), text
