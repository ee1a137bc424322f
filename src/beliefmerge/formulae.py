"""Propositional syntax over a fixed, ordered variable universe.

Formulae are immutable ASTs; a model is one total truth assignment,
packed as a bitmask keyed by universe order. ``And`` and ``Or`` are
n-ary: ``And(a, b, c)`` holds its operands in one tuple, the parser
builds one node per unparenthesized chain, and a parenthesized group
stays a node of its own, so ``parse_formula(formula_to_text(f)) == f``.
Everything here works by exhaustive enumeration over the 2^n
assignments, which is the intended contract at desk scale:
``truth_table`` refuses a universe of more than ``MAX_VARS`` variables
before it allocates anything. It evaluates a formula without recursion,
one step per AST node, on columns that are Python-int bitsets (bit x is
world x's value), where the literals of a chain make one cube column
together; the parser and ``formula_to_text`` use explicit stacks too, so
no step recurses once per nesting level. Dataclass ``==``, ``hash`` and
``repr`` still recurse once per nesting level, but not once per chain
operand.
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


class _Chain(Formula):
    """An associative connective over two or more operands."""

    __slots__ = ()

    def __init__(self, *operands: Formula):
        if len(operands) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        object.__setattr__(self, "operands", operands)


@dataclass(frozen=True, init=False)
class And(_Chain):
    operands: tuple[Formula, ...]


@dataclass(frozen=True, init=False)
class Or(_Chain):
    operands: tuple[Formula, ...]


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
    parts = tuple(parts)
    if len(parts) < 2:
        return parts[0] if parts else TRUE
    return And(*parts)


def disjunction(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if len(parts) < 2:
        return parts[0] if parts else FALSE
    return Or(*parts)


def _cube(mask: int, value: int, n: int) -> int:
    """The worlds x < 2^n with x & mask == value, as a bitset. The worlds
    below mask's lowest bit are one block of ones. From there up to the
    highest free bit, a free bit b doubles the set by a shift of 2^b and a
    bit that value sets shifts it by 2^b; the value bits above are one
    last shift, so a full term is a single 1 << value."""
    low = (mask & -mask).bit_length() - 1 if mask else n
    top = (~mask & ((1 << n) - 1)).bit_length()
    cube = (1 << (1 << low)) - 1
    for b in range(low, top):
        if not mask >> b & 1:
            cube |= cube << (1 << b)
        elif value >> b & 1:
            cube <<= 1 << b
    return cube << (value >> top << top)


def truth_table(f: Formula, universe: Universe) -> np.ndarray:
    """Boolean column of f over all 2^n assignments, in bitmask order."""
    return table_and_support(f, universe)[0]


def table_and_support(f: Formula, universe: Universe) -> tuple[np.ndarray, int]:
    """f's truth table and its support: the bitmask of the variables f
    mentions, a superset of those its value depends on.

    The formula is evaluated once, without recursion, over bitsets: a
    column is a Python int whose bit x is world x's value. An explicit
    stack flattens the AST into a postfix program of one step per node,
    where a literal is a one-literal And and every And or Or chain is one
    step: its literals make one cube (or clause) column, built by _cube
    from a mask and a value, so a full term is a single bit, and the chain
    folds its other operands into it. Negation is an xor with the all-ones
    column. One to_bytes and one unpackbits turn the result into a fresh,
    writable bool array of length 2^n. The support is the union of the
    literal bits of the program's steps, read in the same pass.
    """
    n = universe.n
    if n > MAX_VARS:
        raise EnumerationLimitError(
            f"universe has {n} variables, enumeration guard is {MAX_VARS}"
        )
    index = universe._index
    # pre-order, last operand first: reversed, it is postfix. A chain step
    # is (connective, how many operands it takes off the stack, the bits
    # of its bare literals, the bits of its negated ones).
    program: list = []
    todo = [f]
    try:
        while todo:
            g = todo.pop()
            kind = type(g)
            if kind is Var:
                g = (And, 0, 1 << (n - 1 - index[g.name]), 0)
            elif kind is Not:
                if type(g.operand) is Var:
                    g = (And, 0, 0, 1 << (n - 1 - index[g.operand.name]))
                else:
                    todo.append(g.operand)
            elif kind is Implies or kind is Iff:
                todo += (g.left, g.right)
            elif kind is And or kind is Or:
                positive = negative = 0
                others = []
                for h in g.operands:
                    t = type(h)
                    if t is Var:
                        positive |= 1 << (n - 1 - index[h.name])
                    elif t is Not and type(h.operand) is Var:
                        negative |= 1 << (n - 1 - index[h.operand.name])
                    else:
                        others.append(h)
                todo += others
                g = (kind, len(others), positive, negative)
            elif kind is not Const:
                raise TypeError(f"not a formula node: {g!r}")
            program.append(g)
    except KeyError as exc:
        raise UnknownVariableError(exc.args[0]) from None

    # the all-ones column; a program of And cubes alone never reads it
    complements = any(type(g) is not tuple or g[0] is Or for g in program)
    full = (1 << (1 << n)) - 1 if complements else 0
    stack: list[int] = []
    support = 0
    for g in reversed(program):
        kind = type(g)
        if kind is tuple:
            chain, values, positive, negative = g
            support |= positive | negative
            start = len(stack) - values
            operands = stack[start:]
            del stack[start:]
            if positive & negative:  # x and !x
                operands.append(0 if chain is And else full)
            elif positive | negative:  # the worlds matching every literal, or all others
                cube = _cube(positive | negative, positive if chain is And else negative, n)
                operands.append(cube if chain is And else full ^ cube)
            acc = operands.pop()
            if chain is And:
                for other in operands:
                    acc &= other
            else:
                for other in operands:
                    acc |= other
            stack.append(acc)
        elif kind is Not:
            stack[-1] ^= full
        elif kind is Implies:
            right = stack.pop()
            stack[-1] = (stack[-1] ^ full) | right
        elif kind is Iff:
            right = stack.pop()
            stack[-1] ^= right ^ full
        else:
            stack.append(full if g.value else 0)
    (column,) = stack
    packed = np.frombuffer(column.to_bytes(((1 << n) + 7) >> 3, "little"), np.uint8)
    return np.unpackbits(packed, count=1 << n, bitorder="little").view(bool), support


def table_bits(table: np.ndarray) -> np.ndarray:
    """Bitmasks where a truth table is true, as a sorted int64 array."""
    return np.flatnonzero(table).astype(np.int64, copy=False)


def models_of(f: Formula, universe: Universe) -> tuple[Model, ...]:
    """All satisfying assignments, in lexicographic bit order."""
    return tuple(Model(universe, int(b)) for b in table_bits(truth_table(f, universe)))


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
# or      := and ("|" and)*          one n-ary Or per chain
# and     := unary ("&" unary)*      one n-ary And per chain
# unary   := "!" unary | "(" formula ")" | "true" | "false" | ident
#
# The parser is one operator-precedence loop over an explicit stack; the
# printer walks the AST with one too, so nesting depth costs no recursion.
# A parenthesized group stays its own node: "a & (b & c)" is
# And(a, And(b, c)), and the printer parenthesizes an operand of the same
# connective, so parse(print(f)) == f.

_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|[!&|()]|<->|->"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S)")  # \S: one bad character
_GOOD_RE = re.compile(_TOKEN)
# binary token -> (node, its precedence, whether it extends an open chain
# of its own node): & and | gather a chain, -> and <-> nest to the right
_BINARY = {"&": (And, 4, True), "|": (Or, 3, True), "->": (Implies, 2, False), "<->": (Iff, 1, False)}
# Pending entries are (precedence, node, index of its first operand). A
# "(" and a "!" have precedence 0, so no reduction passes them; a "!" is
# applied as soon as its operand is complete.
_GROUP = (0, None, 0)
_NEGATION = (0, Not, 0)


def _reduce(pending: list, operands: list, floor: int) -> None:
    """Build the pending connectives of precedence floor or more, each
    over the operands from its first one on."""
    while pending[-1][0] >= floor:
        _, node, start = pending.pop()
        if start == len(operands) - 2:
            right = operands.pop()
            operands[-1] = node(operands[-1], right)
        else:
            operands[start:] = (node(*operands[start:]),)


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
    negated: dict[str, Formula] = {}  # one Not per "!name"
    operands: list[Formula] = []
    pending = [_GROUP]  # the whole input is one group
    depth = 0
    operand = True  # an operand comes next, else an operator or the end
    for k, tok in enumerate(tokens):
        if operand:
            if tok == "!":
                pending.append(_NEGATION)
                continue
            if tok == "(":
                pending.append(_GROUP)
                depth += 1
                continue
            f = leaves.get(tok)
            if f is None:
                if not _NAME_RE.match(tok):
                    raise _error(text, tokens, k, f"unexpected token {tok!r}")
                if tok not in universe._index:  # closed universe
                    raise _error(text, tokens, k, None)
                f = leaves[tok] = Var(tok)
            if pending[-1] is _NEGATION:
                pending.pop()
                g = negated.get(tok)
                if g is None:
                    g = negated[tok] = Not(f)
                f = g
                while pending[-1] is _NEGATION:
                    pending.pop()
                    f = Not(f)
            operands.append(f)
            operand = False
        elif tok in _BINARY:
            node, prec, chain = _BINARY[tok]
            if pending[-1][0] > prec:
                _reduce(pending, operands, prec + 1)
            if not chain or pending[-1][1] is not node:
                pending.append((prec, node, len(operands) - 1))
            operand = True
        elif tok == ")" and depth:
            _reduce(pending, operands, 1)
            pending.pop()
            depth -= 1
            while pending[-1] is _NEGATION:
                pending.pop()
                operands[-1] = Not(operands[-1])
        else:
            raise _error(text, tokens, k, "expected ')'" if depth else f"unexpected token {tok!r}")
    if operand or depth:
        at_end = "unexpected end of input" if operand else "expected ')'"
        raise _error(text, tokens, len(tokens), at_end)
    _reduce(pending, operands, 1)
    return operands[0]


# node -> (separator, its precedence, the first operand's and the others')
_PRINT = {
    Iff: (" <-> ", 1, 2, 1),
    Implies: (" -> ", 2, 3, 2),
    Or: (" | ", 3, 4, 4),
    And: (" & ", 4, 5, 5),
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
            sep, prec, first, other = _PRINT[kind]
            if prec < min_prec:
                out.append("(")
                todo.append(")")
            operands = g.operands if kind is And or kind is Or else (g.left, g.right)
            for h in reversed(operands[1:]):
                todo += ((h, other), sep)
            todo.append((operands[0], first))
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return "".join(out)
