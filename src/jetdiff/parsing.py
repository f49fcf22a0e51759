"""Text grammar for polynomials and coordinate changes.

One small recursive-descent parser serves two surface syntaxes:

    jet polynomials       "f1'*f2'' - f2'*f1''", "f1'^3 + 2/3*f2'^3"
    coordinate changes    "w1 = z1; w2 = z2 + z1^2"

Operators are +, -, *, ^ and parentheses; rational literals are written
p/q (the slash only joins two integer literals, there is no general
division).  Juxtaposition multiplies, so "2f1'" works.  The printed form of
any polynomial in this package re-parses to the same polynomial.

Errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .jets import JetSpec, TargetMap
from .poly import SparsePolynomial, base_var, jet_var, param_var

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z]+\d*'*)
  | (?P<op>[-+*^=;()/,])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax or validation error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# An identifier resolver turns an identifier token into a polynomial; each
# surface syntax installs its own (jet variables or base coordinates).
Resolver = Callable[[_Token], SparsePolynomial]


# Deeper parentheses would exhaust Python's recursion limit (each level
# takes four parser frames) and surface as a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: List[_Token], resolver: Resolver):
        self.tokens = tokens
        self.pos = 0
        self.resolver = resolver
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.advance()

    def parse_sum(self) -> SparsePolynomial:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        total = self.parse_product()
        if negate:
            total = -total
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                term = self.parse_product()
                total = total + (-term if tok.text == "-" else term)
            else:
                return total

    def parse_product(self) -> SparsePolynomial:
        total = self.parse_power()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                total = total * self.parse_power()
            elif tok.kind in ("number", "ident") or (tok.kind == "op" and tok.text == "("):
                # juxtaposition: "2f1'", "3(x + y)"
                total = total * self.parse_power()
            else:
                return total

    def parse_power(self) -> SparsePolynomial:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.expect("number")
            return base ** int(exp_tok.text)
        return base

    def parse_atom(self) -> SparsePolynomial:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                den = self.expect("number")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                return SparsePolynomial.constant(Fraction(int(tok.text), int(den.text)))
            return SparsePolynomial.constant(int(tok.text))
        if tok.kind == "ident":
            self.advance()
            return self.resolver(tok)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column
                )
            self.advance()
            self.depth += 1
            inner = self.parse_sum()
            self.depth -= 1
            self.expect("op", ")")
            return inner
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.column
        )

    def parse_full(self) -> SparsePolynomial:
        result = self.parse_sum()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)
        return result


_IDENT_RE = re.compile(r"([A-Za-z]+)(\d*)('*)$")


def _split_ident(tok: _Token) -> Tuple[str, Optional[int], int]:
    m = _IDENT_RE.match(tok.text)
    letters, digits, primes = m.group(1), m.group(2), m.group(3)
    return letters, (int(digits) if digits else None), len(primes)


def _jet_resolver(spec: JetSpec) -> Resolver:
    def resolve(tok: _Token) -> SparsePolynomial:
        letters, index, primes = _split_ident(tok)
        if letters == "f":
            if index is None or index < 1 or index > spec.rank:
                raise ParseError(
                    f"component index of {tok.text!r} must be 1..{spec.rank}",
                    tok.line,
                    tok.column,
                )
            if primes == 0:
                raise ParseError(
                    f"{tok.text!r} has no derivative primes; jet variables are f{index}', f{index}'', ...",
                    tok.line,
                    tok.column,
                )
            if primes > spec.order:
                raise ParseError(
                    f"derivative order {primes} of {tok.text!r} exceeds the jet order {spec.order}",
                    tok.line,
                    tok.column,
                )
            return SparsePolynomial.variable(jet_var(index, primes))
        if letters == "z":
            if primes:
                raise ParseError(
                    f"base coordinate {tok.text!r} cannot carry primes", tok.line, tok.column
                )
            if index is None or index < 1 or index > spec.rank:
                raise ParseError(
                    f"coordinate index of {tok.text!r} must be 1..{spec.rank}",
                    tok.line,
                    tok.column,
                )
            return SparsePolynomial.variable(base_var(index))
        if letters == "a":
            if primes:
                raise ParseError(
                    f"parameter {tok.text!r} cannot carry primes", tok.line, tok.column
                )
            if index is None or index < 1:
                raise ParseError(
                    f"parameter index of {tok.text!r} must be >= 1", tok.line, tok.column
                )
            return SparsePolynomial.variable(param_var(index))
        raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)

    return resolve


def _base_resolver(rank: int) -> Resolver:
    def resolve(tok: _Token) -> SparsePolynomial:
        letters, index, primes = _split_ident(tok)
        if letters != "z" or primes:
            raise ParseError(
                f"only base coordinates z1..z{rank} may appear here, found {tok.text!r}",
                tok.line,
                tok.column,
            )
        if index is None or index < 1 or index > rank:
            raise ParseError(
                f"coordinate index of {tok.text!r} must be 1..{rank}", tok.line, tok.column
            )
        return SparsePolynomial.variable(base_var(index))

    return resolve


def parse_polynomial(text: str, spec: JetSpec) -> SparsePolynomial:
    """Parse a jet polynomial against a shape.

    Base coordinates z1..zr and formal parameters a1, a2, ... may appear
    alongside the jet variables, so every printed polynomial re-parses.
    """
    parser = _Parser(_tokenize(text), _jet_resolver(spec))
    return parser.parse_full()


def parse_map(text: str, rank: int) -> TargetMap:
    """Parse "w1 = ...; w2 = ..." into a TargetMap of the given rank.

    Every component w1..w<rank> must be assigned exactly once; components
    are kept exactly, terms of every degree included.
    """
    parser = _Parser(_tokenize(text), _base_resolver(rank))
    components: dict = {}
    while parser.peek().kind != "eof":
        tok = parser.advance()
        letters, index, primes = _split_ident(tok) if tok.kind == "ident" else ("", None, 0)
        if letters != "w" or primes or index is None or index < 1 or index > rank:
            raise ParseError(
                f"expected a component w1..w{rank}, found {tok.text!r}", tok.line, tok.column
            )
        if index in components:
            raise ParseError(f"component w{index} assigned twice", tok.line, tok.column)
        eq = parser.peek()
        if eq.kind != "op" or eq.text != "=":
            raise ParseError(f"expected '=' after w{index}", eq.line, eq.column)
        parser.advance()
        components[index] = parser.parse_sum()
        tail = parser.peek()
        if tail.kind == "op" and tail.text == ";":
            parser.advance()
        elif tail.kind != "eof":
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.line, tail.column)
    missing = [j for j in range(1, rank + 1) if j not in components]
    if missing:
        raise ParseError(
            "missing component" + ("s" if len(missing) > 1 else "") + " "
            + ", ".join(f"w{j}" for j in missing),
            parser.tokens[-1].line,
            parser.tokens[-1].column,
        )
    return TargetMap([components[j] for j in range(1, rank + 1)])

