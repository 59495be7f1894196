"""A small surface-syntax parser for SPCF.

The concrete syntax mirrors the paper's notation::

    mu phi x. if sample - 1/2 then x else phi (x + 1)
    lam x. x + 1
    let e = sample in if e - p then x else score(e)

Grammar (precedence from loosest to tightest):

    term    := 'lam' IDENT '.' term
             | 'mu' IDENT IDENT '.' term
             | 'let' IDENT '=' term 'in' term
             | 'if' term 'then' term 'else' term      -- branches on term <= 0
             | arith
    arith   := factor (('+' | '-') factor)*
    factor  := app ('*' app)*
    app     := atom atom*
    atom    := NUMBER | FRACTION | IDENT | 'sample'
             | 'score' '(' term ')'
             | PRIM '(' term (',' term)* ')'
             | '(' term ')'

Numbers written as ``a/b`` (or with a decimal point that is exactly
representable) are parsed as exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Term,
    Var,
)


class ParseError(Exception):
    """Raised when the input is not well-formed surface SPCF."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<fraction>\d+\s*/\s*\d+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9']*)
  | (?P<symbol>[().,+\-*=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"lam", "lambda", "mu", "fix", "if", "then", "else", "let", "in", "sample", "score"}


@dataclass
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    index = 0
    while index < len(source):
        match = _TOKEN_RE.match(source, index)
        if match is None:
            raise ParseError(f"unexpected character {source[index]!r} at offset {index}")
        index = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text = match.group()
        if kind == "ident" and text in _KEYWORDS:
            kind = "keyword"
        tokens.append(_Token(kind, text, match.start()))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], registry: PrimitiveRegistry) -> None:
        self.tokens = tokens
        self.position = 0
        self.registry = registry

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.position += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.advance()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r} but found {token.text!r} at offset {token.position}"
            )
        return token

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.peek()
        if token is None:
            return False
        return token.kind == kind and (text is None or token.text == text)

    # -- grammar -----------------------------------------------------------

    def parse_term(self) -> Term:
        if self.at("keyword", "lam") or self.at("keyword", "lambda"):
            self.advance()
            var = self.expect("ident").text
            self.expect("symbol", ".")
            return Lam(var, self.parse_term())
        if self.at("keyword", "mu") or self.at("keyword", "fix"):
            self.advance()
            fvar = self.expect("ident").text
            token = self.expect("ident")
            if token.text == fvar:
                raise ParseError(
                    f"mu binds {fvar!r} twice at offset {token.position}: the function "
                    "and its argument need distinct names"
                )
            self.expect("symbol", ".")
            return Fix(fvar, token.text, self.parse_term())
        if self.at("keyword", "let"):
            self.advance()
            var = self.expect("ident").text
            self.expect("symbol", "=")
            bound = self.parse_term()
            self.expect("keyword", "in")
            body = self.parse_term()
            return App(Lam(var, body), bound)
        if self.at("keyword", "if"):
            self.advance()
            cond = self.parse_term()
            self.expect("keyword", "then")
            then = self.parse_term()
            self.expect("keyword", "else")
            orelse = self.parse_term()
            return If(cond, then, orelse)
        return self.parse_arith()

    def parse_arith(self) -> Term:
        term = self.parse_factor()
        while self.at("symbol", "+") or self.at("symbol", "-"):
            operator = self.advance().text
            right = self.parse_factor()
            term = Prim("add" if operator == "+" else "sub", (term, right))
        return term

    def parse_factor(self) -> Term:
        term = self.parse_application()
        while self.at("symbol", "*"):
            self.advance()
            right = self.parse_application()
            term = Prim("mul", (term, right))
        return term

    def parse_application(self) -> Term:
        term = self.parse_atom()
        while self._at_atom_start():
            term = App(term, self.parse_atom())
        return term

    def _at_atom_start(self) -> bool:
        token = self.peek()
        if token is None:
            return False
        if token.kind in ("number", "fraction", "ident"):
            return True
        if token.kind == "keyword" and token.text in ("sample", "score"):
            return True
        return token.kind == "symbol" and token.text == "("

    def parse_atom(self) -> Term:
        token = self.advance()
        if token.kind == "number":
            if "." in token.text:
                return Numeral(Fraction(token.text))
            return Numeral(Fraction(int(token.text)))
        if token.kind == "fraction":
            numerator, denominator = token.text.split("/")
            return Numeral(Fraction(int(numerator), int(denominator)))
        if token.kind == "keyword" and token.text == "sample":
            return Sample()
        if token.kind == "keyword" and token.text == "score":
            self.expect("symbol", "(")
            argument = self.parse_term()
            self.expect("symbol", ")")
            return Score(argument)
        if token.kind == "ident":
            if token.text in self.registry and self.at("symbol", "("):
                self.advance()
                args = [self.parse_term()]
                while self.at("symbol", ","):
                    self.advance()
                    args.append(self.parse_term())
                self.expect("symbol", ")")
                primitive = self.registry[token.text]
                if len(args) != primitive.arity:
                    raise ParseError(
                        f"primitive {token.text!r} expects {primitive.arity} arguments, "
                        f"got {len(args)}"
                    )
                return Prim(token.text, tuple(args))
            return Var(token.text)
        if token.kind == "symbol" and token.text == "(":
            inner = self.parse_term()
            self.expect("symbol", ")")
            return inner
        raise ParseError(f"unexpected token {token.text!r} at offset {token.position}")


def parse(source: str, registry: Optional[PrimitiveRegistry] = None) -> Term:
    """Parse surface-syntax SPCF into a :class:`~repro.spcf.syntax.Term`."""
    registry = registry or default_registry()
    parser = _Parser(_tokenize(source), registry)
    term = parser.parse_term()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(
            f"trailing input starting with {leftover.text!r} at offset {leftover.position}"
        )
    return term
