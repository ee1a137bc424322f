"""Merging operators over weight schemes.

An Instance bundles the universe, the integrity constraints and the
profile, validates satisfiability up front, and keeps the truth tables
it built, with each profile formula's support (the variables it
mentions, read in the same pass). Every operator reads one read-only
int64 distance matrix per distance kind: row r is the distance vector of
the r-th mu model in bit order, column j the distance to F_j, all from
one distance-kernel call over the profile truth tables, each column
computed on its support's cube where that is cheaper. No entry exceeds
the kind's largest value, the bound that sets the default expert weight
and from which _scores alone picks int64 or Python-int sums. The merge core
(``_scheme_merge``) reads only mu bitmasks, a matrix and that bound, so
a caller can merge row and column selections of one instance's matrix.
Every scheme is decided by one argmin merge: an exact (vectors x rows)
matrix product scores rows against a finite list of integer weight
vectors, and a row some vector makes minimal is selected, witnessed by
the first such vector. Finite schemes score every row against their own
list. The all-positive scheme scores the distinct Pareto front rows
against its critical weights, spreads the verdicts to every row through
distinct_front's inverse, and certifies the weights in three exact
steps: a select screen (the first 64 small positive weight vectors), an
exclude screen (a midpoint of two front rows that strictly dominates the
row), and row generation for the rest: an exact LP (lp.decide) over a
few active front rows, a witness checked against the whole front by one
exact product, the most violated rows added until none is left, and
every undecided row that ties under a found witness decided with it. An
excluded model's certificate comes from lp.decide: at most m other
models whose convex combination of vectors beats it. Rows are
deduplicated on mixed-radix packed keys, by counting when the keys span
little more than the rows and by a stable lexsort otherwise. Scores are
(vectors x rows), so every reduction runs along the long axis of a tall
matrix. A MergeResult holds the selected bitmasks as a sorted int64
array with an index into its witness vectors per row; its Model views
are built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, count, islice
from math import gcd
from typing import Iterator, Sequence

import numpy as np

from . import _kernels, lp
from .distance import DistanceKind, distance_matrix
from .errors import (
    DistanceTableError,
    InconsistentConstraintsError,
    InconsistentProfileError,
    UniverseMismatchError,
)
from .formulae import Formula, Model, Universe, table_and_support, table_bits, truth_table
from .weights import WeightScheme, expand_scheme


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Instance:
    """Integrity constraints mu plus an ordered profile F_1..F_m.

    Rejects an inconsistent mu and any unsatisfiable profile entry at
    construction: every operator in the package presupposes both. The
    read-only truth tables ``mu_table`` and ``profile_tables`` (one
    boolean per assignment, in bitmask order) are kept for reuse, with
    ``profile_supports``, the bitmask of the variables each profile
    formula mentions, and ``mu_bits`` holds the mu models' bitmasks as a
    sorted read-only int64 array.
    """

    def __init__(
        self, universe: Universe, constraints: Formula, profile: Sequence[Formula]
    ):
        profile = tuple(profile)
        if not profile:
            raise ValueError("profile must contain at least one formula")
        self.universe = universe
        self.constraints = constraints
        self.profile = profile

        self.mu_table = _read_only(truth_table(constraints, universe))
        self.mu_bits = _read_only(table_bits(self.mu_table))
        if self.mu_bits.shape[0] == 0:
            raise InconsistentConstraintsError("integrity constraints are unsatisfiable")
        tables, supports = [], []
        for idx, f in enumerate(profile):
            table, support = table_and_support(f, universe)
            if not table.any():
                raise InconsistentProfileError(idx)
            tables.append(_read_only(table))
            supports.append(support)
        self.profile_tables = tuple(tables)
        self.profile_supports = tuple(supports)
        self._distances: dict[DistanceKind, np.ndarray] = {}

    @property
    def m(self) -> int:
        return len(self.profile)

    def _models_at(self, rows) -> list[Model]:
        return [Model(self.universe, b) for b in self.mu_bits[rows].tolist()]

    def distances(self, kind: DistanceKind) -> np.ndarray:
        """Read-only int64 matrix of d(I, F_j): one row per mu model, in
        the order of mu_bits, one column per profile entry."""
        if kind not in self._distances:
            self._distances[kind] = _read_only(
                distance_matrix(
                    kind, self.mu_bits, self.profile_tables, self.universe.n,
                    self.profile_supports,
                )
            )
        return self._distances[kind]

    def vectors(self, kind: DistanceKind) -> tuple[tuple[int, ...], ...]:
        """Distance vectors d(I, F_1..F_m) as int tuples, aligned with mu_bits."""
        return tuple(map(tuple, self.distances(kind).tolist()))

    def model_index(self, i: Model) -> int:
        """Position of i among the mu models; raises if i does not satisfy mu."""
        if i.universe != self.universe:
            raise UniverseMismatchError("model belongs to a different universe")
        pos = int(np.searchsorted(self.mu_bits, i.bits))
        if pos == len(self.mu_bits) or int(self.mu_bits[pos]) != i.bits:
            raise ValueError("model does not satisfy the integrity constraints")
        return pos

    def __repr__(self) -> str:
        return f"Instance(n={self.universe.n}, m={self.m}, mu_models={len(self.mu_bits)})"


@dataclass(frozen=True, eq=False)
class MergeResult:
    """Selected models plus, per model, one integer weight vector
    certifying its minimality under the scheme.

    ``bits`` holds the selected bitmasks as a sorted read-only int64
    array, and row r's witness is ``weights[witness_index[r]]``, the
    first of the scheme's vectors (for the all-positive scheme, its
    critical weights) under which that model is minimal. The views
    ``models`` (a frozenset of Model) and ``witnesses`` (a dict from
    Model to weight tuple) are built on first use.
    """

    universe: Universe
    bits: np.ndarray
    weights: tuple[tuple[int, ...], ...]
    witness_index: np.ndarray

    @cached_property
    def witnesses(self) -> dict[Model, tuple[int, ...]]:
        return {
            Model(self.universe, b): self.weights[j]
            for b, j in zip(self.bits.tolist(), self.witness_index.tolist())
        }

    @cached_property
    def models(self) -> frozenset[Model]:
        return frozenset(self.witnesses)

    def __eq__(self, other):
        if not isinstance(other, MergeResult):
            return NotImplemented
        return self.witnesses == other.witnesses

    __hash__ = None


_COUNTING_SLACK = 64  # a key span up to 4 * rows + this groups by counting, not sorting


def distinct_front(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, first, inverse, front) for an integer matrix: its distinct
    rows in lexicographic order, the index of each one's first
    occurrence, the distinct row of every input row, and the mask of
    distinct rows no other row strictly dominates (the Pareto front).

    A strictly dominating row comes first lexicographically, so the
    first live row is always on the front; it then drops every row it
    dominates. Memory stays O(k * m) for k rows of length m.

    The rows are packed into mixed-radix int64 words, first column most
    significant, each digit a column minus its minimum; a column whose
    range reaches 2^63 is a raw word of its own. Word order is row order.
    One word of small span is grouped by counting: a slot table over the
    keys present gives the inverse, and a minimum scatter the first
    occurrences. Otherwise a stable lexsort orders the words, and a row
    starts a new distinct row where some word differs from its
    predecessor's, so that row is the first occurrence.
    """
    words, span = [], 2**63  # no word open: the first column starts one
    for column in matrix.T:  # one column at a time: fast in either memory order
        low, high = int(column.min()), int(column.max())
        radix = high - low + 1
        if span * radix < 2**63:
            words[-1] = words[-1] * radix + (column - low)
            span *= radix
        else:  # a new word, the raw column where its digits would not fit
            words.append(column - low if radix <= 2**63 else column)
            span = min(radix, 2**63)
    if len(words) == 1 and span <= 4 * len(matrix) + _COUNTING_SLACK:
        present = np.zeros(span, dtype=bool)
        present[words[0]] = True
        inverse = (np.cumsum(present) - 1)[words[0]]
        first = np.full(np.count_nonzero(present), len(matrix), dtype=np.intp)
        np.minimum.at(first, inverse, np.arange(len(matrix)))
    else:
        order = np.lexsort(words[::-1])
        ordered = [word[order] for word in words]
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.logical_or.reduce([w[1:] != w[:-1] for w in ordered])
        first = order[new]
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
    rows = matrix[first]
    front = np.zeros(len(rows), dtype=bool)
    live = np.ones(len(rows), dtype=bool)
    i = 0
    while live[i]:  # argmax falls back to 0, the first row, once none is live
        front[i] = True
        live &= (rows[i] > rows).any(axis=1)
        i = int(live.argmax())
    return rows, first, inverse, front


def _scores(matrix: np.ndarray, vectors, bound: int, top: int | None = None) -> np.ndarray:
    """Exact vectors @ matrix.T for non-negative entries and weights, one
    row per vector: int64 while no score can reach 2^63, Python ints
    (object) above. No entry of matrix exceeds bound; vectors are tuples,
    or an int64 array whose largest row sum is top."""
    if top is None:
        top = max(map(sum, vectors))
    if max(bound, 1) * top < 2**63:
        return np.asarray(vectors, dtype=np.int64) @ matrix.astype(np.int64, copy=False).T
    return np.array(vectors, dtype=object) @ matrix.astype(object).T


def _argmin_merge(matrix: np.ndarray, vectors, bound: int, top: int | None = None):
    """Rows minimal under at least one integer weight vector, each with
    the first vector that selects it: (rows, witness_index), row rows[j]
    with witness vectors[witness_index[j]]. bound, vectors and top are
    as _scores takes them."""
    scores = _scores(matrix, vectors, bound, top)
    hit = scores == scores.min(axis=1, keepdims=True)
    rows = np.flatnonzero(hit.any(axis=0))
    return rows, hit[:, rows].argmax(axis=0)


_SCREEN_SIZE = 64  # weight vectors the select screen tries before any LP


def _gcd_one_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """The positive integer m-vectors with gcd 1, by increasing sum and
    lexicographically within a sum; (1,) is the only one for m = 1. A
    vector of sum total is read off its m - 1 cut points in 1..total - 1,
    whose lexicographic order is that of the vectors."""
    if m == 1:
        yield (1,)
        return
    for total in count(m):
        for cuts in combinations(range(1, total), m - 1):
            v = tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
            if gcd(*v) == 1:
                yield v


@cache
def _screen_vectors(m: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, int]:
    """The first _SCREEN_SIZE of _gcd_one_vectors(m): as tuples, as a
    read-only int64 array, and their largest sum."""
    vectors = tuple(islice(_gcd_one_vectors(m), _SCREEN_SIZE))
    return vectors, _read_only(np.array(vectors, dtype=np.int64)), sum(vectors[-1])


def _midpoint_pairs(front_rows: np.ndarray, asked: np.ndarray) -> np.ndarray:
    """For each front row d = front_rows[i], i in asked, the first pair
    (a, b) of front row indices with d - front_rows[a] >= front_rows[b]
    - d in every coordinate and != in some, so that their midpoint
    strictly dominates d; (-1, -1) where no pair does. Entries are
    non-negative, so only rows with a - d <= d can take part. Every
    difference of two entries in [0, 2^63) fits int64, so no bound
    applies; candidate pairs are compared in chunks of at most
    _kernels.CELLS cells."""
    pairs = np.full((len(asked), 2), -1, dtype=np.intp)
    for k, row in enumerate(asked.tolist()):
        above = front_rows - front_rows[row]  # b - d for every front row b
        members = np.flatnonzero((above <= front_rows[row]).all(axis=1))  # row itself fits
        above = above[members]
        chunk = max(1, _kernels.CELLS // above.size)
        for a in range(0, len(above), chunk):
            below = -above[a : a + chunk, None, :]  # d - a
            ok = (below >= above).all(axis=2) & (below != above).any(axis=2)
            if ok.any():
                i, j = np.unravel_index(int(ok.argmax()), ok.shape)
                pairs[k] = members[a + i], members[j]
                break
    return pairs


def _critical_weights(front_rows: np.ndarray, bound: int) -> list[tuple[int, ...]]:
    """Positive integer weight vectors whose argmin merge of the distinct
    Pareto front rows, none above bound, witnesses included, is their
    all-positive merge.

    The rows are decided in three steps, each settling a row only with
    an exactly checked certificate:

    1. Select screen: the front rows against _screen_vectors(m). Each
       vector first to make some row minimal is kept, in screen order;
       (1, ..., 1) always is, so a front of one row is decided here.
    2. Exclude screen: a remaining row d is excluded when the midpoint
       of two front rows strictly dominates it (_midpoint_pairs), a
       convex certificate of 2 <= m rows.
    3. Row generation: each row still undecided is asked of lp.decide
       against an active set of other front rows, seeded with the m
       nearest to it in L1 (exact sums from _scores, ties in front
       order). A zero optimum is a certificate over the whole front. A
       witness is checked against every front row; while some row
       scores below d, the m most violated join the active set and the
       LP runs again. A witness that passes is kept and decides every
       undecided front row tying d's score, none of which an earlier
       vector makes minimal.
    """
    m = front_rows.shape[1]
    vectors, screen, top = _screen_vectors(m)
    hit, hit_index = _argmin_merge(front_rows, screen, bound, top)
    weights = [vectors[j] for j in np.flatnonzero(np.bincount(hit_index)).tolist()]
    undecided = np.ones(len(front_rows), dtype=bool)
    undecided[hit] = False
    rest = np.flatnonzero(undecided)
    if len(rest):
        undecided[rest[_midpoint_pairs(front_rows, rest)[:, 0] >= 0]] = False
    for i in np.flatnonzero(undecided).tolist():
        if not undecided[i]:
            continue
        d = front_rows[i].tolist()
        l1 = _scores(np.abs(front_rows - front_rows[i]), [(1,) * m], bound)[0]
        order = np.argsort(l1, kind="stable")
        active = np.sort(order[order != i][:m])
        while True:
            w = lp.decide(d, front_rows[active].tolist())[0]
            if w is None:
                break
            scores = _scores(front_rows, [w], bound)[0]
            violated = np.flatnonzero(scores < scores[i])
            if len(violated) == 0:
                break
            worst = violated[np.argsort(scores[violated], kind="stable")[:m]]
            active = np.sort(np.concatenate((active, worst)))
        if w is not None:
            undecided &= scores != scores[i]
            weights.append(w)
    return weights


def _scheme_merge(universe: Universe, mu_bits: np.ndarray, matrix: np.ndarray,
                  scheme: WeightScheme, bound: int) -> MergeResult:
    """The scheme's merge of the worlds mu_bits whose distance vectors
    are the rows of matrix, one column per profile entry, no entry above
    bound. bound is all the merge knows of the distance: it sizes the
    scores and the default expert weight (expand_scheme). All-positive
    weights score only the distinct front rows: no other row is
    minimal."""
    weights = expand_scheme(scheme, bound, matrix.shape[1])
    if weights is not None:
        rows, witness_index = _argmin_merge(matrix, weights, bound)
    else:
        distinct, _, inverse, front = distinct_front(matrix)
        weights = _critical_weights(distinct[front], bound)
        hit, hit_index = _argmin_merge(distinct[front], weights, bound)
        slot = np.full(len(distinct), -1, dtype=np.intp)  # distinct row -> its witness
        slot[np.flatnonzero(front)[hit]] = hit_index
        rows = np.flatnonzero(slot[inverse] >= 0)
        witness_index = slot[inverse[rows]]
    return MergeResult(
        universe, _read_only(mu_bits[rows]), tuple(weights), _read_only(witness_index)
    )


def merge_scheme(inst: Instance, scheme: WeightScheme, kind: DistanceKind) -> MergeResult:
    """Union of the fixed-weight merges over every vector the scheme admits."""
    bound = kind.largest(inst.universe.n)
    return _scheme_merge(inst.universe, inst.mu_bits, inst.distances(kind), scheme, bound)


def undominated(inst: Instance, kind: DistanceKind) -> frozenset[Model]:
    """Models of mu whose distance vector no other mu model strictly dominates."""
    _, _, inverse, front = distinct_front(inst.distances(kind))
    return frozenset(inst._models_at(np.flatnonzero(front[inverse])))


def excluding_subset(
    i: Model, inst: Instance, kind: DistanceKind
) -> tuple[Model, ...] | None:
    """For an excluded model, at most m other mu models that already
    exclude it; None when i is selected.

    The models are the support of lp.decide's exclusion certificate over
    the distinct other vectors: some convex combination of their vectors
    is <= i's in every coordinate and < in one. Each vector stands for
    its first mu model in bit order; the result is in bit order too.
    """
    pos = inst.model_index(i)
    matrix = inst.distances(kind)
    rows, first, _, _ = distinct_front(matrix)
    other = (rows != matrix[pos]).any(axis=1)
    witness, certificate = lp.decide(matrix[pos].tolist(), rows[other].tolist())
    if witness is not None:
        return None
    return tuple(inst._models_at(np.sort(first[other][list(certificate)])))


def multi_source_merge(
    universe: Universe,
    constraints: Formula,
    sources: Sequence[Sequence[Formula]],
    scheme: WeightScheme,
    kind: DistanceKind,
) -> MergeResult:
    """Merge sources that each provide a set of formulae.

    All formulae of one source share that source's weight: the score of
    a model is sum_i w_i * sum_{F in S_i} d(I, F), so each source
    contributes the per-source sum as one coordinate of an aggregated
    distance vector and the single-profile machinery applies unchanged.
    Raises DistanceTableError when a per-source sum could reach 2^63.
    """
    sources = [tuple(s) for s in sources]
    if not sources or any(not s for s in sources):
        raise ValueError("each source must provide at least one formula")
    inst = Instance(universe, constraints, [f for s in sources for f in s])
    matrix = inst.distances(kind)
    widest = max(map(len, sources))
    bound = kind.largest(universe.n) * widest
    if bound >= 2**63 and int(matrix.max()) * widest >= 2**63:
        raise DistanceTableError("per-source distance sums do not fit in 64 bits")
    # 0/1 matrix sending each flat formula's column to its source's column
    to_source = np.repeat(
        np.eye(len(sources), dtype=np.int64), [len(s) for s in sources], axis=0
    )
    return _scheme_merge(universe, inst.mu_bits, matrix @ to_source, scheme, bound)
