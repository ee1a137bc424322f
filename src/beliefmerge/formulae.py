"""Propositional syntax over a fixed, ordered variable universe.

Formulae are immutable ASTs; a model is one total truth assignment,
packed as a bitmask keyed by universe order. Everything here works by
exhaustive enumeration over the 2^n assignments, which is the intended
contract at desk scale: ``truth_table`` refuses a universe of more than
``MAX_VARS`` variables before it allocates anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EnumerationLimitError,
    FormulaSyntaxError,
    UniverseMismatchError,
    UnknownVariableError,
)

MAX_VARS = 24

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"true", "false"})


@dataclass(frozen=True)
class Universe:
    """Ordered, closed set of variable names.

    The order is significant: variable j occupies bit (n-1-j) of a model
    bitmask, so ascending bitmask order is lexicographic order over
    assignment tuples (first variable most significant).
    """

    variables: tuple[str, ...]

    def __init__(self, variables: Iterable[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("universe must contain at least one variable")
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in _KEYWORDS:
                raise ValueError(f"{name!r} is a reserved constant, not a variable")
            if name in seen:
                raise ValueError(f"duplicate variable {name!r}")
            seen.add(name)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "_index", {v: j for j, v in enumerate(names)})

    @property
    def n(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(name) from None


@dataclass(frozen=True)
class Model:
    """Total truth assignment; two models are equal iff all bits agree."""

    universe: Universe
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.universe.n):
            raise ValueError(f"bits {self.bits} out of range for n={self.universe.n}")

    def value(self, name: str) -> bool:
        j = self.universe.index(name)
        return bool((self.bits >> (self.universe.n - 1 - j)) & 1)

    def literals(self) -> tuple[str, ...]:
        """The satisfied literals in universe order, '!' marking negation."""
        out = []
        for j, name in enumerate(self.universe.variables):
            positive = (self.bits >> (self.universe.n - 1 - j)) & 1
            out.append(name if positive else "!" + name)
        return tuple(out)

    def __str__(self) -> str:
        return "{" + ", ".join(self.literals()) + "}"


# --- AST -----------------------------------------------------------------


class Formula:
    """Marker base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)


def conjunction(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjunction(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def truth_table(f: Formula, universe: Universe) -> np.ndarray:
    """Boolean column of f over all 2^n assignments, in bitmask order."""
    n = universe.n
    if n > MAX_VARS:
        raise EnumerationLimitError(
            f"universe has {n} variables, enumeration guard is {MAX_VARS}"
        )
    idx = np.arange(1 << n, dtype=np.uint32)

    def rec(g: Formula) -> np.ndarray:
        match g:
            case Const(value):
                return np.full(idx.shape, value, dtype=bool)
            case Var(name):
                j = universe.index(name)
                return ((idx >> (n - 1 - j)) & 1).astype(bool)
            case Not(h):
                return ~rec(h)
            case And(a, b):
                return rec(a) & rec(b)
            case Or(a, b):
                return rec(a) | rec(b)
            case Implies(a, b):
                return ~rec(a) | rec(b)
            case Iff(a, b):
                return rec(a) == rec(b)
        raise TypeError(f"not a formula node: {g!r}")

    table = rec(f)
    # rec reaches itself through its closure; without this cycle break the
    # closure and its 2^n idx array live until the cyclic collector runs
    del rec
    return table


def table_bits(table: np.ndarray) -> np.ndarray:
    """Bitmasks where a truth table is true, as a sorted int64 array."""
    return np.flatnonzero(table).astype(np.int64, copy=False)


def models_bits(f: Formula, universe: Universe) -> np.ndarray:
    """Satisfying bitmasks as a sorted int64 array (kernel-ready form)."""
    return table_bits(truth_table(f, universe))


def models_of(f: Formula, universe: Universe) -> tuple[Model, ...]:
    """All satisfying assignments, in lexicographic bit order."""
    return tuple(Model(universe, int(b)) for b in models_bits(f, universe))


def satisfiable(f: Formula, universe: Universe) -> bool:
    return bool(truth_table(f, universe).any())


def model_from_literals(literals: Iterable[str], universe: Universe) -> Model:
    """Inverse of Model.literals(): every variable must occur exactly once."""
    values: dict[str, bool] = {}
    for lit in literals:
        name = lit[1:] if lit.startswith("!") else lit
        universe.index(name)
        if name in values:
            raise ValueError(f"variable {name!r} mentioned twice")
        values[name] = not lit.startswith("!")
    missing = [v for v in universe.variables if v not in values]
    if missing:
        raise ValueError(f"literals missing for {missing}")
    bits = 0
    for j, name in enumerate(universe.variables):
        if values[name]:
            bits |= 1 << (universe.n - 1 - j)
    return Model(universe, bits)


def formula_from_models(models: Iterable[Model], universe: Universe) -> Formula:
    """Formula whose model set is exactly the given one (full-term disjunction)."""
    terms = []
    for m in sorted(models, key=lambda x: x.bits):
        if m.universe != universe:
            raise UniverseMismatchError("model belongs to a different universe")
        lits = []
        for j, name in enumerate(universe.variables):
            positive = (m.bits >> (universe.n - 1 - j)) & 1
            lits.append(Var(name) if positive else Not(Var(name)))
        terms.append(conjunction(lits))
    return disjunction(terms)


# --- concrete syntax ------------------------------------------------------
#
# formula := iff
# iff     := imp ("<->" imp)*        right-associative
# imp     := or ("->" or)*           right-associative
# or      := and ("|" and)*
# and     := unary ("&" unary)*
# unary   := "!" unary | "(" formula ")" | "true" | "false" | ident

_TOKEN_RE = re.compile(r"\s*(<->|->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str, universe: Universe):
        self.tokens = _tokenize(text)
        self.universe = universe
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def advance(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek() != "":
            raise FormulaSyntaxError(f"unexpected token {self.peek()!r}", self.pos())
        return f

    def iff(self) -> Formula:
        items = [self.imp()]
        while self.peek() == "<->":
            self.advance()
            items.append(self.imp())
        out = items[-1]
        for item in reversed(items[:-1]):
            out = Iff(item, out)
        return out

    def imp(self) -> Formula:
        items = [self.disj()]
        while self.peek() == "->":
            self.advance()
            items.append(self.disj())
        out = items[-1]
        for item in reversed(items[:-1]):
            out = Implies(item, out)
        return out

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.advance()
            return Not(self.unary())
        if tok == "(":
            self.advance()
            f = self.iff()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.pos())
            self.advance()
            return f
        if tok == "true":
            self.advance()
            return TRUE
        if tok == "false":
            self.advance()
            return FALSE
        if _NAME_RE.match(tok):
            self.universe.index(tok)  # closed universe: unknown names are an error
            self.advance()
            return Var(tok)
        if tok == "":
            raise FormulaSyntaxError("unexpected end of input", self.pos())
        raise FormulaSyntaxError(f"unexpected token {tok!r}", self.pos())


def parse_formula(text: str, universe: Universe) -> Formula:
    return _Parser(text, universe).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}


def formula_to_text(f: Formula) -> str:
    """Concrete syntax that parses back to the same AST."""

    def rec(g: Formula, min_prec: int) -> str:
        match g:
            case Const(value):
                return "true" if value else "false"
            case Var(name):
                return name
            case Not(h):
                return "!" + rec(h, 5)
            case Iff(a, b):
                s = f"{rec(a, 2)} <-> {rec(b, 1)}"
            case Implies(a, b):
                s = f"{rec(a, 3)} -> {rec(b, 2)}"
            case Or(a, b):
                s = f"{rec(a, 3)} | {rec(b, 4)}"
            case And(a, b):
                s = f"{rec(a, 4)} & {rec(b, 5)}"
            case _:
                raise TypeError(f"not a formula node: {g!r}")
        return f"({s})" if _PREC[type(g)] < min_prec else s

    return rec(f, 0)
