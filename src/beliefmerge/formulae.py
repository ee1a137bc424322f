"""Propositional syntax over a fixed, ordered variable universe.

Formulae are immutable ASTs; a model is one total truth assignment,
packed as a bitmask keyed by universe order. Everything here works by
exhaustive enumeration over the 2^n assignments, which is the intended
contract at desk scale: ``truth_table`` refuses a universe of more than
``MAX_VARS`` variables before it allocates anything. It evaluates a
formula without recursion over packed 64-world words, one pass over
2^n / 64 words per AST node; the parser and ``formula_to_text`` use
explicit stacks too, so no step recurses once per nesting level.
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


# Column words of the variables on bits 0..5 of a world: bit k of the word
# is world k's value, so bit b of k selects the pattern.
_LOW_WORDS = np.array(
    [sum(1 << k for k in range(64) if (k >> b) & 1) for b in range(6)], dtype="<u8"
)
_ONES = (1 << 64) - 1
_FOLD = {
    And: np.bitwise_and,
    Or: np.bitwise_or,
    Implies: lambda a, b: ~a | b,
    Iff: lambda a, b: ~(a ^ b),
}


def _variable_column(bit: int, words: int) -> np.ndarray:
    """Packed column of the variable on bit `bit` of a world."""
    if bit < 6:
        return _LOW_WORDS[bit : bit + 1].repeat(words)
    column = np.zeros(words, dtype="<u8")
    column.reshape(words >> (bit - 5), 2, 1 << (bit - 6))[:, 1] = _ONES
    return column


def truth_table(f: Formula, universe: Universe) -> np.ndarray:
    """Boolean column of f over all 2^n assignments, in bitmask order.

    The formula is evaluated once, without recursion, over packed words:
    world x is bit x % 64 of little-endian uint64 word x // 64. An
    explicit stack flattens the AST into a postfix program whose leaves
    are constants and literals; each literal's column is built at most
    once per call, and every connective folds the top of a value stack.
    One unpackbits turns the result into a fresh, writable bool array of
    length 2^n.
    """
    n = universe.n
    if n > MAX_VARS:
        raise EnumerationLimitError(
            f"universe has {n} variables, enumeration guard is {MAX_VARS}"
        )
    program = []  # pre-order, right child first: reversed, it is postfix
    todo = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind in _FOLD:
            todo += (g.left, g.right)
        elif kind is Not:
            if type(g.operand) is not Var:
                todo.append(g.operand)
        elif kind is not Var and kind is not Const:
            raise TypeError(f"not a formula node: {g!r}")
        program.append(g)

    words = 1 << max(n - 6, 0)
    columns: tuple[dict, dict] = ({}, {})  # literal columns: negative, positive
    stack: list[np.ndarray] = []
    for g in reversed(program):
        kind = type(g)
        if kind is Var or (kind is Not and type(g.operand) is Var):
            positive = kind is Var
            name = g.name if positive else g.operand.name
            column = columns[positive].get(name)
            if column is None:
                column = _variable_column(n - 1 - universe.index(name), words)
                if not positive:
                    np.invert(column, out=column)
                columns[positive][name] = column
            stack.append(column)
        elif kind is Not:
            stack[-1] = ~stack[-1]
        elif kind is Const:
            stack.append(np.full(words, _ONES if g.value else 0, dtype="<u8"))
        else:
            right = stack.pop()
            stack[-1] = _FOLD[kind](stack[-1], right)
    (packed,) = stack
    bits = np.unpackbits(packed.view(np.uint8), bitorder="little")
    return bits[: 1 << n].view(bool)


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
#
# The parser is one operator-precedence loop over an explicit stack; the
# printer walks the AST with one too, so nesting depth costs no recursion.

_TOKEN = r"<->|->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S)")  # \S: one bad character
_GOOD_RE = re.compile(_TOKEN)
# binary token -> (node, its precedence, the lowest pending precedence it
# reduces first): & and | associate to the left, -> and <-> to the right
_BINARY = {"&": (And, 4, 4), "|": (Or, 3, 3), "->": (Implies, 2, 3), "<->": (Iff, 1, 2)}
_PREFIX = {"(": (0, None), "!": (5, Not)}  # pending precedence and node


def _reduce(pending: list, operands: list, floor: int) -> None:
    """Apply the pending operators of precedence floor or more."""
    while pending[-1][0] >= floor:
        node = pending.pop()[1]
        if node is Not:
            operands[-1] = Not(operands[-1])
        else:
            right = operands.pop()
            operands[-1] = node(operands[-1], right)


def _error(text: str, tokens: list[str], k: int, message: str | None) -> Exception:
    """The error of the input's first fault: a bad character anywhere,
    else message at token k (an unknown variable when None)."""
    bad = [b for b, tok in enumerate(tokens) if not _GOOD_RE.fullmatch(tok)]
    if bad:
        k, message = bad[0], f"unexpected character {tokens[bad[0]]!r}"
    elif message is None:
        return UnknownVariableError(tokens[k])
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]
    return FormulaSyntaxError(message, starts[k])


def parse_formula(text: str, universe: Universe) -> Formula:
    tokens = _TOKEN_RE.findall(text)
    leaves: dict[str, Formula] = {"true": TRUE, "false": FALSE}  # one Var per name
    operands: list[Formula] = []
    pending = [_PREFIX["("]]  # the whole input is one group
    depth = 0
    operand = True  # an operand comes next, else an operator or the end
    for k, tok in enumerate(tokens):
        if operand:
            if tok in _PREFIX:
                pending.append(_PREFIX[tok])
                depth += tok == "("
                continue
            f = leaves.get(tok)
            if f is None:
                if not _NAME_RE.match(tok):
                    raise _error(text, tokens, k, f"unexpected token {tok!r}")
                if tok not in universe._index:  # closed universe
                    raise _error(text, tokens, k, None)
                f = leaves[tok] = Var(tok)
            operands.append(f)
            operand = False
        elif tok in _BINARY:
            node, prec, floor = _BINARY[tok]
            _reduce(pending, operands, floor)
            pending.append((prec, node))
            operand = True
        elif tok == ")" and depth:
            _reduce(pending, operands, 1)
            pending.pop()
            depth -= 1
        else:
            raise _error(text, tokens, k, "expected ')'" if depth else f"unexpected token {tok!r}")
    if operand or depth:
        at_end = "unexpected end of input" if operand else "expected ')'"
        raise _error(text, tokens, len(tokens), at_end)
    _reduce(pending, operands, 1)
    return operands[0]


# node -> (separator, its precedence, the left and the right operand's)
_PRINT = {
    Iff: (" <-> ", 1, 2, 1),
    Implies: (" -> ", 2, 3, 2),
    Or: (" | ", 3, 3, 4),
    And: (" & ", 4, 4, 5),
}


def formula_to_text(f: Formula) -> str:
    """Concrete syntax that parses back to the same AST."""
    out = []
    todo: list = [(f, 0)]  # (node, the least precedence printed bare) or a text piece
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, min_prec = item
        kind = type(g)
        if kind is Var:
            out.append(g.name)
        elif kind is Not:
            out.append("!")
            todo.append((g.operand, 5))
        elif kind is Const:
            out.append("true" if g.value else "false")
        elif kind in _PRINT:
            sep, prec, left, right = _PRINT[kind]
            if prec < min_prec:
                out.append("(")
                todo.append(")")
            todo += ((g.right, right), sep, (g.left, left))
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return "".join(out)
