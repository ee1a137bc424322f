"""Independent brute-force oracles used by the test suite.

Everything here recomputes results from first principles in plain
Python, deliberately avoiding the package's kernels, LP and geometry so
the two routes stay independent. The recursive per-model ``evaluate`` is
the reference for the package's truth tables, and Fourier-Motzkin
elimination, which the package's integer simplex replaced, stays here as
the differential oracle for lp.decide. Replaced algorithms are kept as
they were: ``recursive_truth_table`` (one numpy column per AST node) is
the reference for the bitset truth tables, ``full_row_lp_merge``
(one lp.decide per front row against every other front row) the
reference for the all-weights merge's row generation, and
``row_generation_merge`` (row generation over every front row, with no
screen before it) the reference for its screens. ``spread_lp_merge``
(the screened merge writing a witness slot per distinct row during the
LP, spread to the input rows through the inverse, with its screens,
scores and front in Python ints and only lp.decide from the package) is
the reference for the all-weights merge as an argmin over its critical
weights: the same rows, weights and witness indices. ``mu_models`` (a
Model per mu bitmask) is a test-side view of an Instance.
``unique_rows`` (numpy's ``unique(axis=0)``) is the reference for
merge.distinct_front's stable lexsort, and ``merge_json`` (a payload
dict through ``json.dumps``) the reference for the CLI's array-based
``merge --json`` writer. The subset enumerator ``subset_maxcons``, which
the drastic Pareto front replaced, is the differential oracle for
maxcons and its disjunction. ``sweep_column`` (one hypercube sweep per
column from scattered target bitmasks, read out with one masked pass per
table value) is the reference for the batched, truth-table-seeded
distance kernel, ``full_cube_matrix`` (every column on the whole n-bit
cube) the reference for the kernel's per-column support cubes, and ``fraction_witness`` (the point as Fractions,
denominators cleared) the reference for lp.decide's gcd-reduced witness.
``recursive_parse`` (a tokenizer plus recursive descent) and
``recursive_formula_to_text`` (one call per AST node) are the references
for the stack-based parser and printer, and ``recursive_gcd_one_vectors``
(one level of recursion per part of a composition) the reference for the
select screen's cut-point generator.
"""

import importlib.util
import json
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice, product
from math import gcd, lcm
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from beliefmerge import DistanceKind, Model, Universe, _kernels, lp, models_of
from beliefmerge.errors import FormulaSyntaxError
from beliefmerge.formulae import (
    FALSE,
    TRUE,
    And,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
)
from beliefmerge.merge import _scores, distinct_front
from beliefmerge.weights import scheme_to_text


def evaluate(f: Formula, model: Model) -> bool:
    """Standard propositional semantics of f in the given model."""
    match f:
        case Const(value):
            return value
        case Var(name):
            return model.value(name)
        case Not(g):
            return not evaluate(g, model)
        case And(operands):
            return all(evaluate(g, model) for g in operands)
        case Or(operands):
            return any(evaluate(g, model) for g in operands)
        case Implies(a, b):
            return (not evaluate(a, model)) or evaluate(b, model)
        case Iff(a, b):
            return evaluate(a, model) == evaluate(b, model)
    raise TypeError(f"not a formula node: {f!r}")


def recursive_truth_table(f: Formula, universe: Universe) -> np.ndarray:
    """Boolean column of f over all 2^n assignments, in bitmask order,
    one full column per AST node."""
    n = universe.n
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
            case And(operands):
                return np.logical_and.reduce([rec(g) for g in operands])
            case Or(operands):
                return np.logical_or.reduce([rec(g) for g in operands])
            case Implies(a, b):
                return ~rec(a) | rec(b)
            case Iff(a, b):
                return rec(a) == rec(b)
        raise TypeError(f"not a formula node: {g!r}")

    return rec(f)


def subsat(i: Model, profile) -> frozenset[int]:
    """0-based indices of the profile entries satisfied by i."""
    return frozenset(idx for idx, f in enumerate(profile) if evaluate(f, i))


def dominates(d1: Sequence[int], d2: Sequence[int]) -> bool:
    """Componentwise d1 <= d2 (reflexive)."""
    if len(d1) != len(d2):
        raise ValueError(f"length mismatch: {len(d1)} vs {len(d2)}")
    return all(a <= b for a, b in zip(d1, d2))


def strictly_dominates(d1: Sequence[int], d2: Sequence[int]) -> bool:
    """Strict part of the dominance order: d1 <= d2 and d1 != d2."""
    return dominates(d1, d2) and tuple(d1) != tuple(d2)


def mapped_count(kind: DistanceKind, count: int) -> int:
    return kind.mapped(count)


def brute_model_distance(kind: DistanceKind, i: Model, j: Model) -> int:
    diff = sum(
        1 for v in i.universe.variables if i.value(v) != j.value(v)
    )
    return mapped_count(kind, diff)


def brute_formula_distance(kind: DistanceKind, i: Model, f) -> int:
    best = None
    for j in models_of(f, i.universe):
        d = brute_model_distance(kind, i, j)
        best = d if best is None or d < best else best
    if best is None:
        raise ValueError("formula is unsatisfiable")
    return best


def brute_vector(kind: DistanceKind, i: Model, profile) -> tuple[int, ...]:
    return tuple(brute_formula_distance(kind, i, f) for f in profile)


def brute_score(w: Sequence, d: Sequence[int]) -> Fraction:
    """Exact weighted sum of a distance vector, in Fractions."""
    if len(w) != len(d):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(d)} distances")
    return sum((Fraction(wi) * di for wi, di in zip(w, d)), Fraction(0))


def brute_merge_fixed(inst, w, kind: DistanceKind) -> frozenset[Model]:
    scored = [
        (brute_score(w, brute_vector(kind, m, inst.profile)), m)
        for m in models_of(inst.constraints, inst.universe)
    ]
    best = min(s for s, _ in scored)
    return frozenset(m for s, m in scored if s == best)


def brute_closest_pairs(universe: Universe, f1, f2) -> frozenset[Model]:
    """Every model in some pair of Mod(f1) x Mod(f2) at minimal Hamming
    distance, by the double loop over model pairs."""
    best = None
    chosen: set[Model] = set()
    for i in models_of(f1, universe):
        for j in models_of(f2, universe):
            d = brute_model_distance(DistanceKind.hamming(), i, j)
            if best is None or d < best:
                best = d
                chosen = {i, j}
            elif d == best:
                chosen.add(i)
                chosen.add(j)
    return frozenset(chosen)


@dataclass(frozen=True)
class LinConstraint:
    """sum(coeffs[i] * x[i]) <= rhs."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    def __init__(self, coeffs: Sequence, rhs):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))
        object.__setattr__(self, "rhs", Fraction(rhs))

    def holds_at(self, point: Sequence[Fraction]) -> bool:
        return sum((c * x for c, x in zip(self.coeffs, point)), Fraction(0)) <= self.rhs


@dataclass(frozen=True)
class LinSystem:
    dimension: int
    constraints: tuple[LinConstraint, ...]

    def __init__(self, dimension: int, constraints: Sequence[LinConstraint]):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        constraints = tuple(constraints)
        for c in constraints:
            if len(c.coeffs) != dimension:
                raise ValueError(
                    f"constraint has {len(c.coeffs)} coefficients, system dimension is {dimension}"
                )
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "constraints", constraints)


def _add_row(rows: dict, coeffs: tuple[Fraction, ...], rhs: Fraction) -> bool:
    """Insert coeffs . x <= rhs, deduplicated under a canonical positive
    scaling that keeps the tightest rhs; False for an unsatisfiable constant."""
    if all(c == 0 for c in coeffs):
        return rhs >= 0
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    g = gcd(*ints)
    key = tuple(Fraction(v // g) for v in ints)
    scaled = rhs * denom / g
    if key not in rows or scaled < rows[key]:
        rows[key] = scaled
    return True


def feasible(system: LinSystem) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every constraint, or None, by
    Fourier-Motzkin elimination; back-substitution sets each variable to
    the midpoint of its interval, or its one bound, or 0 if unbounded."""
    rows: dict = {}
    for c in system.constraints:
        if not _add_row(rows, c.coeffs, c.rhs):
            return None
    remaining = list(range(system.dimension))
    steps = []  # (var, rows bounding it at elimination time)
    while remaining:
        # cheapest variable first: fewest lower x upper pairings
        def cost(k: int) -> tuple[int, int]:
            pos = sum(1 for co in rows if co[k] > 0)
            neg = sum(1 for co in rows if co[k] < 0)
            return (pos * neg, k)

        k = min(remaining, key=cost)
        remaining.remove(k)
        uppers = [(co, r) for co, r in rows.items() if co[k] > 0]
        lowers = [(co, r) for co, r in rows.items() if co[k] < 0]
        steps.append((k, uppers + lowers))
        nxt: dict = {co: r for co, r in rows.items() if co[k] == 0}
        for uc, ur in uppers:
            for lc, lr in lowers:
                a, b = uc[k], lc[k]
                coeffs = tuple(-b * cu + a * cl for cu, cl in zip(uc, lc))
                if not _add_row(nxt, coeffs, -b * ur + a * lr):
                    return None
        rows = nxt

    values = [Fraction(0)] * system.dimension
    for k, bounding in reversed(steps):
        lower = upper = None
        for coeffs, rhs in bounding:
            rest = sum(
                (coeffs[j] * values[j] for j in range(system.dimension) if j != k),
                Fraction(0),
            )
            bound = (rhs - rest) / coeffs[k]
            if coeffs[k] > 0:
                upper = bound if upper is None else min(upper, bound)
            else:
                lower = bound if lower is None else max(lower, bound)
        if lower is not None and upper is not None:
            values[k] = (lower + upper) / 2
        elif lower is not None or upper is not None:
            values[k] = upper if lower is None else lower
    return tuple(values)


def minimality_system(d_i: Sequence[int], others: Sequence[Sequence[int]]) -> LinSystem:
    """Weights making d_i weakly minimal against every vector in others:
    w.(d_i - d_j) <= 0 for all j, with positivity normalized to w_i >= 1
    (valid because the other rows are homogeneous)."""
    m = len(d_i)
    constraints = []
    for d_j in others:
        if len(d_j) != m:
            raise ValueError(f"length mismatch: {len(d_j)} vs {m}")
        constraints.append(LinConstraint([a - b for a, b in zip(d_i, d_j)], 0))
    for i in range(m):
        constraints.append(LinConstraint([-(j == i) for j in range(m)], -1))
    return LinSystem(m, constraints)


def grid_feasible(system, bound: int) -> tuple[int, ...] | None:
    """Exhaustive integer grid search over weights 1..bound (test-only)."""
    for point in product(range(1, bound + 1), repeat=system.dimension):
        if all(c.holds_at([Fraction(x) for x in point]) for c in system.constraints):
            return point
    return None


def brute_maxcons(inst) -> set[frozenset[int]]:
    m = len(inst.profile)
    universe = inst.universe

    def consistent(indices) -> bool:
        for model in models_of(TRUE, universe):
            if evaluate(inst.constraints, model) and all(
                evaluate(inst.profile[i], model) for i in indices
            ):
                return True
        return False

    cons = [
        frozenset(s)
        for size in range(m + 1)
        for s in combinations(range(m), size)
        if consistent(s)
    ]
    return {
        s for s in cons
        if not any(s < t for t in cons)
    }


def subset_maxcons(inst) -> tuple[frozenset[int], ...]:
    """maxcons by enumerating the profile subsets by descending size,
    skipping subsets of an already found maxcon; consistency is one
    truth-table intersection. Sorted as maxcons.maxcons sorts."""
    m = inst.m
    found: list[frozenset[int]] = []
    for size in range(m, -1, -1):
        for subset in combinations(range(m), size):
            s = frozenset(subset)
            if any(s <= bigger for bigger in found):
                continue
            table = inst.mu_table
            for i in subset:
                table = table & inst.profile_tables[i]
            if table.any():
                found.append(s)
    return tuple(sorted(found, key=lambda s: tuple(sorted(s))))


def subset_maxcons_disjunction(inst) -> frozenset[Model]:
    """Models of the union over subset_maxcons of mu /\\ AND F_i."""
    union = np.zeros_like(inst.mu_table)
    for s in subset_maxcons(inst):
        table = inst.mu_table.copy()
        for i in s:
            table &= inst.profile_tables[i]
        union |= table
    return frozenset(
        Model(inst.universe, int(b)) for b in np.nonzero(union)[0]
    )


def universe_of(*names: str) -> Universe:
    return Universe(names)


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, first, inverse): the distinct rows in lexicographic order,
    the index of each one's first occurrence, and the distinct row of
    every input row."""
    rows, first, inverse = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True
    )
    return rows, first, inverse.reshape(-1)


def merge_json(result, kind: DistanceKind, scheme) -> str:
    """``merge --json`` text: the payload dict, built from the result's
    Model views, through json.dumps(indent=2, sort_keys=True)."""
    models = sorted(result.models, key=lambda m: m.bits)
    payload = {
        "distance": str(kind),
        "scheme": scheme_to_text(scheme),
        "models": [list(m.literals()) for m in models],
        "witnesses": [
            list(result.witnesses[m]) if m in result.witnesses else None
            for m in models
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def full_row_lp_merge(matrix: np.ndarray) -> dict[int, tuple[int, ...]]:
    """The all-positive merge over a distance matrix with one lp.decide
    per distinct front row against every other front row: the selected
    row indices, each mapped to its distinct row's witness."""
    rows, _, inverse, front = distinct_front(matrix)
    candidates = rows[front].tolist()
    found = {}
    for i, d in zip(np.flatnonzero(front).tolist(), candidates):
        w = lp.decide(d, [e for e in candidates if e != d])[0]
        if w is not None:
            found[i] = w
    return {r: found[i] for r, i in enumerate(inverse.tolist()) if i in found}


_NEAREST_CELLS = 4096  # L1 distances sorted at once: block rows x front rows


def row_generation_merge(matrix: np.ndarray):
    """All-positive scheme over the Pareto front, by row generation;
    returns (rows, weights, witness_index): the rows and witness indices
    as _argmin_merge returns them, and the weights the indices point to.

    A row off the front is excluded: a front row strictly dominates it.
    Each undecided front row d is asked of lp.decide against an active
    set of other front rows, seeded with the m nearest to d in L1. A
    zero optimum is a certificate over the whole front. A witness is
    checked against every front row; while some row scores below d, the
    m most violated join the active set and the LP runs again. A witness
    that passes selects every undecided front row tying d's score, so
    those rows are never asked. The L1 order is sorted for a block of
    the next undecided rows at once, _NEAREST_CELLS // |front| of them.
    """
    rows, _, inverse, front = distinct_front(matrix)
    on_front = np.flatnonzero(front)
    front_rows = rows[on_front]
    m = front_rows.shape[1]
    weights = []
    slot = np.full(len(rows), -1, dtype=np.intp)  # distinct row -> its witness
    undecided = np.ones(len(front_rows), dtype=bool)
    nearest = {}  # row of the current block -> all front rows, nearest to it in L1 first
    for i, d in enumerate(front_rows.tolist()):
        if not undecided[i]:
            continue
        if i not in nearest:  # i is past the last block: order the next one
            block = np.flatnonzero(undecided)[: max(1, _NEAREST_CELLS // len(front_rows))]
            l1 = np.abs(front_rows[block, None, :] - front_rows[None, :, :]).sum(axis=2)
            nearest = dict(zip(block.tolist(), np.argsort(l1, axis=1, kind="stable")))
        undecided[i] = False
        order = nearest[i]
        active = np.sort(order[order != i][:m])
        while True:
            w = lp.decide(d, front_rows[active].tolist())[0]
            if w is None:
                break
            scores = _scores(front_rows, [w], int(front_rows.max()))[0]
            violated = np.flatnonzero(scores < scores[i])
            if len(violated) == 0:
                break
            worst = violated[np.argsort(scores[violated], kind="stable")[:m]]
            active = np.sort(np.concatenate((active, worst)))
        if w is not None:
            ties = undecided & (scores == scores[i])
            ties[i] = True
            slot[on_front[ties]] = len(weights)
            weights.append(w)
            undecided &= ~ties
    witness_index = slot[inverse]
    chosen = np.flatnonzero(witness_index >= 0)
    return chosen, weights, witness_index[chosen]


def _recursive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts positive parts, in
    lexicographic order, one level of recursion per part."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first, *rest)


def recursive_gcd_one_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """The positive integer m-vectors with gcd 1, by increasing sum and
    lexicographically within a sum, from the recursive composer; (1,) is
    the only one for m = 1."""
    if m == 1:
        yield (1,)
        return
    for total in count(m):
        for v in _recursive_compositions(total, m):
            if gcd(*v) == 1:
                yield v


def _dot(w: Sequence[int], d: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(w, d))


def spread_lp_merge(matrix: np.ndarray):
    """All-positive scheme with a witness slot per distinct row; returns
    (rows, weights, witness_index): the rows and witness indices as
    merge._argmin_merge returns them, and the weights the indices point
    to.

    The distinct front rows (numpy's unique rows, then those no other
    distinct row strictly dominates) are decided in Python ints: a
    select screen over the first 64 positive gcd-1 vectors, where each
    row takes the first vector making it minimal and the vectors used
    are numbered in screen order; an exclude screen, where a row goes
    when the midpoint of two front rows strictly dominates it; then row
    generation with lp.decide, where a witness that passes writes its
    slot into every undecided row tying under it. The slots are spread
    to the input rows through the inverse.
    """
    rows, _, inverse = unique_rows(matrix)
    distinct = [tuple(r) for r in rows.tolist()]
    on_front = [
        k for k, d in enumerate(distinct)
        if not any(strictly_dominates(e, d) for e in distinct)
    ]
    front = [distinct[k] for k in on_front]
    m = matrix.shape[1]
    screen = list(islice(recursive_gcd_one_vectors(m), 64))
    first = {}  # front row -> the screen vector first making it minimal
    for j, w in enumerate(screen):
        scores = [_dot(w, d) for d in front]
        for i, score in enumerate(scores):
            if score == min(scores):
                first.setdefault(i, j)
    used = sorted(set(first.values()))
    weights = [screen[j] for j in used]
    slot = [-1] * len(distinct)  # distinct row -> its witness
    for i, j in first.items():
        slot[on_front[i]] = used.index(j)
    undecided = [i not in first for i in range(len(front))]
    for i, d in enumerate(front):
        below = [e for e in front if all(y <= 2 * x for x, y in zip(d, e))]
        undecided[i] = undecided[i] and not any(
            min(gap) >= 0 and any(gap)
            for a in below for b in below
            for gap in [[2 * x - y - z for x, y, z in zip(d, a, b)]]
        )
    for i, d in enumerate(front):
        if not undecided[i]:
            continue
        undecided[i] = False
        l1 = [sum(abs(x - y) for x, y in zip(d, e)) for e in front]
        nearest = [j for j in sorted(range(len(front)), key=l1.__getitem__) if j != i]
        active = sorted(nearest[:m])
        while True:
            w = lp.decide(list(d), [list(front[j]) for j in active])[0]
            if w is None:
                break
            scores = [_dot(w, e) for e in front]
            violated = [j for j, score in enumerate(scores) if score < scores[i]]
            if not violated:
                break
            active = sorted(active + sorted(violated, key=scores.__getitem__)[:m])
        if w is not None:
            for j, score in enumerate(scores):
                if (undecided[j] or j == i) and score == scores[i]:
                    slot[on_front[j]] = len(weights)
                    undecided[j] = False
            weights.append(w)
    chosen = [r for r, k in enumerate(inverse.tolist()) if slot[k] >= 0]
    witness_index = [slot[k] for k in inverse[chosen].tolist()]
    return np.array(chosen, dtype=np.intp), weights, np.array(witness_index, dtype=np.intp)


_MU_MODELS = weakref.WeakKeyDictionary()  # Instance -> its mu models


def mu_models(inst) -> tuple[Model, ...]:
    """Models of mu in mu_bits order (lexicographic bit order), built
    once per instance."""
    if inst not in _MU_MODELS:
        _MU_MODELS[inst] = tuple(Model(inst.universe, b) for b in inst.mu_bits.tolist())
    return _MU_MODELS[inst]


def perfbench_inputs():
    """perfbench/inputs.py, read as a module without touching sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_column(cands: np.ndarray, targets: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """min over targets t of table[popcount(c ^ t)] per candidate c, by
    one hypercube sweep over the n-bit cube: reach[x] gets bit h set iff
    some target lies at Hamming distance h from x."""
    reach = np.zeros(1 << n, dtype=np.uint32)
    reach[targets] = 1
    for k in range(n):
        pairs = reach.reshape(-1, 2, 1 << k)
        low, high = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :] |= high << 1
        pairs[:, 1, :] |= low << 1
    sets = reach[cands]
    values = sorted(set(table.tolist()))
    out = np.full(len(cands), values[-1], dtype=np.int64)
    for v in values[-2::-1]:
        mask = sum(1 << h for h in np.flatnonzero(table == v).tolist())
        out[(sets & mask) != 0] = v
    return out


def full_cube_matrix(cands, tables, table, n: int) -> np.ndarray:
    """The distance kernel before per-column supports: every column on
    the whole n-bit cube, pairwise or in sweep batches by the size rule,
    through the package's unchanged _min_mapped_numpy, _sweep and
    _read_sets; a table flat above 0 reads the truth table."""
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.int64)
    out = np.empty((cands.shape[0], len(tables)), dtype=np.int64, order="F")
    flat = len(set(table[1:].tolist())) <= 1
    monotone = bool((table[1:] >= table[:-1]).all())
    sweep = []
    for j, targets in enumerate(tables):
        count = np.count_nonzero(targets)
        assert count, "distance to an unsatisfiable formula is undefined"
        if flat:
            np.multiply(~targets[cands], table[-1], out=out[:, j])
        elif cands.shape[0] * count >= n * ((1 << n) + _kernels._SWEEP_OVERHEAD):
            sweep.append(j)
        else:
            out[:, j] = _kernels._min_mapped_numpy(
                cands, np.flatnonzero(targets), table, monotone
            )
    per_batch = max(1, _kernels.CELLS >> n)
    for lo in range(0, len(sweep), per_batch):
        cols = sweep[lo : lo + per_batch]
        sets = _kernels._sweep(np.array([tables[j] for j in cols], dtype=np.uint32), n)[:, cands]
        out[:, cols] = _kernels._read_sets(sets, table, monotone).T
    return out


def fraction_witness(values: Sequence[int], denom: int) -> tuple[int, ...]:
    """The integer witness of the rational point values / denom, through
    Fractions: each entry reduced, then every denominator cleared."""
    point = [Fraction(v, denom) for v in values]
    scale = lcm(*(x.denominator for x in point))
    return tuple(int(x * scale) for x in point)


# --- the recursive concrete syntax -------------------------------------------
#
# formula := iff
# iff     := imp ("<->" imp)*        right-associative
# imp     := or ("->" or)*           right-associative
# or      := and ("|" and)*
# and     := unary ("&" unary)*
# unary   := "!" unary | "(" formula ")" | "true" | "false" | ident

_TOKEN_RE = re.compile(r"\s*(<->|->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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


class _RecursiveParser:
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
        items = [self.conj()]
        while self.peek() == "|":
            self.advance()
            items.append(self.conj())
        return Or(*items) if len(items) > 1 else items[0]

    def conj(self) -> Formula:
        items = [self.unary()]
        while self.peek() == "&":
            self.advance()
            items.append(self.unary())
        return And(*items) if len(items) > 1 else items[0]

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


def recursive_parse(text: str, universe: Universe) -> Formula:
    """The formula of text by recursive descent over a token list."""
    return _RecursiveParser(text, universe).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}


def recursive_formula_to_text(f: Formula) -> str:
    """Concrete syntax of f, one recursive call per AST node."""

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
            case Or(operands):
                s = " | ".join(rec(h, 4) for h in operands)
            case And(operands):
                s = " & ".join(rec(h, 5) for h in operands)
            case _:
                raise TypeError(f"not a formula node: {g!r}")
        return f"({s})" if _PREC[type(g)] < min_prec else s

    return rec(f, 0)
