"""Independent reference computations for the benchmark's output checks.

Nothing here calls the engine: formulae are parsed by a parser of the
benchmark's own, evaluated over all 2^n worlds with numpy, distances are
recomputed by a hypercube sweep (and, on samples, by brute-force
popcount), finite schemes by an integer argmin, and exclusion under the
all-positive scheme by an exact Fraction simplex on the dual (a convex
combination of other vectors that is <= the excluded one everywhere and
< in one coordinate).

World numbering follows the engine's documented convention: variable j
of n occupies bit n-1-j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

import numpy as np

# --- formulae -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<->|->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")


class ParseError(ValueError):
    pass


def parse(text: str, variables) -> tuple:
    """Parse the engine's formula grammar into an n-ary tuple AST.

    Nodes: ("const", bool), ("var", j), ("not", f), ("and", [fs]),
    ("or", [fs]), ("imp", a, b), ("iff", a, b). "->" and "<->" associate
    to the right, "&" and "|" are flattened.
    """
    index = {v: j for j, v in enumerate(variables)}
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad character at {pos}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def peek():
        return tokens[at]

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def chain(sub, op, tag):
        items = [sub()]
        while peek() == op:
            take()
            items.append(sub())
        out = items[-1]
        for item in reversed(items[:-1]):
            out = (tag, item, out)
        return out

    def nary(sub, op, tag):
        items = [sub()]
        while peek() == op:
            take()
            items.append(sub())
        return items[0] if len(items) == 1 else (tag, items)

    def iff():
        return chain(imp, "<->", "iff")

    def imp():
        return chain(disj, "->", "imp")

    def disj():
        return nary(conj, "|", "or")

    def conj():
        return nary(unary, "&", "and")

    def unary():
        tok = take()
        if tok == "!":
            return ("not", unary())
        if tok == "(":
            f = iff()
            if take() != ")":
                raise ParseError("expected )")
            return f
        if tok in ("true", "false"):
            return ("const", tok == "true")
        if tok in index:
            return ("var", index[tok])
        raise ParseError(f"unexpected token {tok!r}")

    f = iff()
    if peek() != "":
        raise ParseError(f"trailing token {peek()!r}")
    return f


def binary_nodes(f) -> int:
    """Node count of the binary AST the engine's grammar builds for f."""
    tag = f[0]
    if tag in ("const", "var"):
        return 1
    if tag == "not":
        return 1 + binary_nodes(f[1])
    if tag in ("and", "or"):
        return len(f[1]) - 1 + sum(binary_nodes(g) for g in f[1])
    return 1 + binary_nodes(f[1]) + binary_nodes(f[2])


def truth_table(f, n: int) -> np.ndarray:
    """Boolean column of f over all worlds 0 .. 2^n - 1."""
    worlds = np.arange(1 << n, dtype=np.int64)

    def ev(g):
        tag = g[0]
        if tag == "const":
            return np.full(worlds.shape, g[1], dtype=bool)
        if tag == "var":
            return ((worlds >> (n - 1 - g[1])) & 1).astype(bool)
        if tag == "not":
            return ~ev(g[1])
        if tag == "and":
            out = ev(g[1][0])
            for h in g[1][1:]:
                out = out & ev(h)
            return out
        if tag == "or":
            out = ev(g[1][0])
            for h in g[1][1:]:
                out = out | ev(h)
            return out
        if tag == "imp":
            return ~ev(g[1]) | ev(g[2])
        return ev(g[1]) == ev(g[2])

    return ev(f)


def literals_to_bits(literals, variables) -> int:
    """World number of a model printed as its literal list."""
    n = len(variables)
    if len(literals) != n:
        raise ValueError("model does not assign every variable")
    bits = 0
    for j, (lit, name) in enumerate(zip(literals, variables)):
        positive = not lit.startswith("!")
        if lit.lstrip("!") != name:
            raise ValueError(f"literal {lit!r} out of universe order")
        if positive:
            bits |= 1 << (n - 1 - j)
    return bits


# --- distances ------------------------------------------------------------


class Dist:
    """A distance given by its value on each Hamming count 0..n."""

    def __init__(self, name: str, values):
        self.name = name
        self.values = tuple(int(v) for v in values)

    @classmethod
    def from_spec(cls, spec, n: int) -> "Dist":
        if spec == "hamming":
            return cls("hamming", range(n + 1))
        if spec == "drastic":
            return cls("drastic", [0] + [1] * n)
        table = dict((int(k), int(v)) for k, v in spec["table"])
        default = spec.get("default")
        return cls("table", [table[h] if h in table else default for h in range(n + 1)])


def distance_column(table: np.ndarray, n: int, dist: Dist) -> np.ndarray:
    """d(x, F) for every world x, from F's truth table, by a hypercube sweep.

    reach[x] has bit h set when some model of F lies at Hamming count h
    from x; one sweep per dimension (reach[x] |= reach[x ^ 2^k] << 1)
    builds it in O(n 2^n). Exact for any remap table.
    """
    reach = table.astype(np.uint32)
    for k in range(n):
        r = reach.reshape(-1, 2, 1 << k)
        reach = (r | (r[:, ::-1, :] << 1)).reshape(-1)
    big = np.iinfo(np.int64).max
    out = np.full(reach.shape, big, dtype=np.int64)
    for h in range(n + 1):
        hit = ((reach >> h) & 1).astype(bool)
        out = np.where(hit, np.minimum(out, dist.values[h]), out)
    if (out == big).any():
        raise ValueError("distance to an unsatisfiable formula")
    return out


def brute_distance(x: int, models, dist: Dist) -> int:
    """min over models J of dist(popcount(x ^ J)), in plain Python."""
    return min(dist.values[(x ^ j).bit_count()] for j in models)


class Reference:
    """mu worlds and their distance vectors, computed apart from the engine."""

    def __init__(self, variables, mu_text: str, profile_texts, dist_spec):
        self.variables = tuple(variables)
        self.n = n = len(self.variables)
        self.dist = Dist.from_spec(dist_spec, n)
        self.mu_ast = parse(mu_text, self.variables)
        self.profile_asts = [parse(t, self.variables) for t in profile_texts]
        self.mu_table = truth_table(self.mu_ast, n)
        self.tables = [truth_table(f, n) for f in self.profile_asts]
        self.mu_worlds = np.nonzero(self.mu_table)[0]
        columns = [distance_column(t, n, self.dist) for t in self.tables]
        matrix = np.stack([c[self.mu_worlds] for c in columns], axis=1)
        self.vectors = [tuple(int(v) for v in row) for row in matrix]
        self.vector_of = dict(zip((int(w) for w in self.mu_worlds), self.vectors))

    @property
    def m(self) -> int:
        return len(self.tables)

    def ast_nodes(self) -> int:
        return sum(binary_nodes(f) for f in [self.mu_ast] + self.profile_asts)

    def profile_models(self) -> int:
        return sum(int(t.sum()) for t in self.tables)

    def sample_brute_force(self, worlds) -> dict[int, tuple[int, ...]]:
        """Distance vectors of a few worlds by brute-force popcount."""
        models = [np.nonzero(t)[0].tolist() for t in self.tables]
        return {
            w: tuple(brute_distance(w, ms, self.dist) for ms in models)
            for w in worlds
        }


# --- the decision step ----------------------------------------------------


def strictly_below(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and tuple(a) != tuple(b)


def pareto_front(vectors) -> list[tuple[int, ...]]:
    distinct = sorted(set(vectors))
    return [d for d in distinct if not any(strictly_below(e, d) for e in distinct)]


def integer_argmin(worlds, vectors, w) -> set[int]:
    scores = [sum(a * b for a, b in zip(w, d)) for d in vectors]
    best = min(scores)
    return {x for x, s in zip(worlds, scores) if s == best}


def _pivot(rows, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]


def _simplex_max(rows, basis, cost, allowed) -> None:
    """Maximise cost.x over the tableau in place (Bland's rule)."""
    while True:
        reduced = [
            cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(len(rows)))
            for j in range(len(cost))
        ]
        enter = next((j for j in allowed if reduced[j] > 0), None)
        if enter is None:
            return
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("unbounded simplex on a bounded problem")
        _pivot(rows, best[1], enter)
        basis[best[1]] = enter


def exclusion_certificate(d, others):
    """A convex combination of others that is <= d everywhere and < d in
    one coordinate, as {index into others: weight}, or None.

    Maximises sum(s) subject to sum_j lam_j o_j + s = d, sum(lam) = 1,
    lam, s >= 0, in exact Fractions; a basic optimum uses at most m of
    the others.
    """
    m = len(d)
    k = len(others)
    if k == 0:
        return None
    single = next((j for j, o in enumerate(others) if strictly_below(o, d)), None)
    if single is not None:
        return {single: Fraction(1)}
    # columns: lam_0..lam_{k-1}, s_0..s_{m-1}, art_0..art_m, rhs
    width = k + m + m + 1
    rows = []
    for c in range(m + 1):
        row = [Fraction(0)] * (width + 1)
        for j, o in enumerate(others):
            row[j] = Fraction(o[c] if c < m else 1)
        if c < m:
            row[k + c] = Fraction(1)
        row[k + m + c] = Fraction(1)
        row[-1] = Fraction(d[c] if c < m else 1)
        rows.append(row)
    basis = [k + m + c for c in range(m + 1)]
    phase1 = [Fraction(0)] * (k + m) + [Fraction(-1)] * (m + 1)
    _simplex_max(rows, basis, phase1, range(width))
    if any(rows[i][-1] != 0 for i, b in enumerate(basis) if b >= k + m):
        return None  # nothing convex lies below d
    for i in range(len(rows) - 1, -1, -1):  # drive artificials out
        if basis[i] >= k + m:
            col = next((j for j in range(k + m) if rows[i][j] != 0), None)
            if col is None:
                del rows[i], basis[i]
            else:
                _pivot(rows, i, col)
                basis[i] = col
    phase2 = [Fraction(0)] * k + [Fraction(1)] * m + [Fraction(0)] * (m + 1)
    _simplex_max(rows, basis, phase2, range(k + m))
    slack = sum((rows[i][-1] for i, b in enumerate(basis) if k <= b < k + m), Fraction(0))
    if slack == 0:
        return None
    return {b: rows[i][-1] for i, b in enumerate(basis) if b < k and rows[i][-1] != 0}


def certifies_exclusion(d, others, lam) -> bool:
    """Exact check of an exclusion certificate of at most m vectors."""
    if not lam or len(lam) > len(d):
        return False
    if any(v < 0 for v in lam.values()) or sum(lam.values()) != 1:
        return False
    combo = [sum(lam[j] * others[j][c] for j in lam) for c in range(len(d))]
    return all(a <= b for a, b in zip(combo, d)) and any(a < b for a, b in zip(combo, d))


def certifies_selection(w, d, distinct) -> bool:
    """Exact check that positive integer weights w make d minimal."""
    if len(w) != len(d) or any(not isinstance(x, int) or x <= 0 for x in w):
        return False
    score = sum(a * b for a, b in zip(w, d))
    return all(score <= sum(a * b for a, b in zip(w, e)) for e in distinct)


def all_weights_merge(worlds, vectors) -> set[int]:
    """Worlds selected by some positive weighting, decided by the dual."""
    front = pareto_front(vectors)
    excluded = {}
    for d in set(vectors):
        others = [e for e in front if e != d]
        excluded[d] = exclusion_certificate(d, others) is not None
    return {x for x, d in zip(worlds, vectors) if not excluded[d]}


def maxcons_disjunction(mu_table, tables) -> np.ndarray:
    """Worlds of mu satisfying a maximal consistent subset of the profile."""
    m = len(tables)
    consistent = []
    for size in range(m, -1, -1):
        for subset in combinations(range(m), size):
            if any(set(subset) <= s for s in consistent):
                continue
            t = mu_table.copy()
            for i in subset:
                t &= tables[i]
            if t.any():
                consistent.append(set(subset))
    union = np.zeros_like(mu_table)
    for s in consistent:
        t = mu_table.copy()
        for i in s:
            t &= tables[i]
        union |= t
    return union
