"""Recursive-descent parser for the polynomial input grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | ident | '(' expr ')'

Identifiers are [a-z][0-9]*; juxtaposition is not multiplication, so "x1y1"
lexes as one name and is rejected as an unknown variable.  Nesting deeper
than MAX_NESTING is refused: each level costs the descent four stack frames.
"""
from __future__ import annotations

import re

from ..errors import BundleCertError
from .poly import Ambient, RationalPolynomial

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*^()])")
_WS_RE = re.compile(r"\s+")
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []  # (kind, value, offset)
        pos = 0
        while pos < len(text):
            ws = _WS_RE.match(text, pos)
            if ws:
                pos = ws.end()
                continue
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise BundleCertError(f"unexpected character {text[pos]!r} (at offset {pos})")
            if m.lastgroup == "int":
                self.toks.append(("int", int(m.group()), pos))
            elif m.lastgroup == "name":
                self.toks.append(("name", m.group(), pos))
            else:
                self.toks.append((m.group(), m.group(), pos))
            pos = m.end()
        self.toks.append(("end", None, len(text)))
        self.i = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            found = "end of input" if t[0] == "end" else repr(t[1])
            raise BundleCertError(f"expected {kind!r}, found {found} (at offset {t[2]})")
        return t


def parse_poly(text: str, ambient: Ambient) -> RationalPolynomial:
    """Parse text into an exact polynomial on the given ambient."""
    toks = _Tokens(text)
    p = _expr(toks, ambient)
    t = toks.peek()
    if t[0] != "end":
        raise BundleCertError(f"trailing input {t[1]!r} (at offset {t[2]})")
    return p


def parse_rows(rows, ambient: Ambient) -> tuple:
    """The rows of a map with every string entry parsed on the ambient;
    entries that are polynomials already are kept."""
    return tuple(
        tuple(parse_poly(e, ambient) if isinstance(e, str) else e for e in row) for row in rows
    )


def _expr(toks, ambient):
    negate = False
    if toks.peek()[0] == "-":
        toks.next()
        negate = True
    p = _term(toks, ambient)
    if negate:
        p = -p
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        q = _term(toks, ambient)
        p = p + q if op == "+" else p - q
    return p


def _term(toks, ambient):
    p = _factor(toks, ambient)
    while toks.peek()[0] == "*":
        toks.next()
        p = p * _factor(toks, ambient)
    return p


def _factor(toks, ambient):
    p = _base(toks, ambient)
    if toks.peek()[0] == "^":
        toks.next()
        t = toks.expect("int")
        p = p ** t[1]
    return p


def _base(toks, ambient):
    kind, value, offset = toks.next()
    if kind == "int":
        return RationalPolynomial.constant(ambient, value)
    if kind == "name":
        if value not in ambient.variables:
            raise BundleCertError(f"unknown variable {value!r} (at offset {offset})")
        return RationalPolynomial.variable(ambient, value)
    if kind == "(":
        toks.depth += 1
        if toks.depth > MAX_NESTING:
            raise BundleCertError(
                f"parentheses nested over {MAX_NESTING} deep (at offset {offset})"
            )
        p = _expr(toks, ambient)
        toks.expect(")")
        toks.depth -= 1
        return p
    found = "end of input" if kind == "end" else repr(value)
    raise BundleCertError(f"expected integer, variable or '(', found {found} (at offset {offset})")
