"""Merging operators over weight schemes.

An Instance bundles the universe, the integrity constraints and the
profile, validates satisfiability up front, and keeps the truth tables
it built. Every operator reads one read-only int64 distance matrix per
distance kind: row r is the distance vector of the r-th mu model in bit
order, column j the distance to F_j, all from one distance-kernel call
over the profile truth tables. The merge core (``_scheme_merge``) reads
only mu bitmasks and a matrix, so a caller can merge row and column
selections of one instance's matrix. A finite scheme scores every row
against every integer weight vector with one exact matrix product and
keeps the column minima. The all-positive scheme excludes every row off
the Pareto front and decides the distinct front rows in three exact
steps: a select screen (the argmin of the front against the first 64
small positive weight vectors), an exclude screen (a midpoint of two
front rows that strictly dominates the row), and row generation for the
rest: an exact LP (lp.decide) over a few active front rows, a witness
checked against the whole front by one exact product, the most violated
rows added until none is left, and every undecided row that ties under
a found witness selected with it. An excluded model's certificate comes
from lp.decide: at most m other models whose convex combination of
vectors beats it; a selected model's witness is read off the
all-positive merge. Rows are deduplicated on mixed-radix packed keys,
by counting when the keys span little more than the rows and by a
stable lexsort otherwise. Scores are (vectors x rows), so every
reduction runs along the long axis of a tall matrix. A MergeResult
holds the selected bitmasks as a sorted int64 array with an index into
its witness vectors per row; its Model views are built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count
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
from .formulae import Formula, Model, Universe, table_bits, truth_table
from .weights import AllPositiveWeights, ExplicitWeights, WeightScheme, expand_scheme


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Instance:
    """Integrity constraints mu plus an ordered profile F_1..F_m.

    Rejects an inconsistent mu and any unsatisfiable profile entry at
    construction: every operator in the package presupposes both. The
    read-only truth tables ``mu_table`` and ``profile_tables`` (one
    boolean per assignment, in bitmask order) are kept for reuse, and
    ``mu_bits`` holds the mu models' bitmasks as a sorted read-only
    int64 array.
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
        tables = []
        for idx, f in enumerate(profile):
            table = _read_only(truth_table(f, universe))
            if not table.any():
                raise InconsistentProfileError(idx)
            tables.append(table)
        self.profile_tables = tuple(tables)
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
                distance_matrix(kind, self.mu_bits, self.profile_tables, self.universe.n)
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
    array, and row r's witness is ``weights[witness_index[r]]``. The
    views ``models`` (a frozenset of Model) and ``witnesses`` (a dict
    from Model to weight tuple) are built on first use.
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


def merge_fixed(inst: Instance, w, kind: DistanceKind) -> frozenset[Model]:
    """Models of mu at minimal distance weighted by the fixed vector w."""
    return merge_scheme(inst, ExplicitWeights([w]), kind).models


def minimal_for_some_positive(
    i: Model, inst: Instance, kind: DistanceKind
) -> tuple[int, ...] | None:
    """i's witness in the all-positive merge, or None when i is excluded."""
    inst.model_index(i)
    return merge_scheme(inst, AllPositiveWeights(), kind).witnesses.get(i)


def _scores(matrix: np.ndarray, vectors) -> np.ndarray:
    """Exact vectors @ matrix.T for non-negative entries and weights, one
    row per vector: int64 while no score can reach 2^63, Python ints
    (object) above."""
    bound = max(int(matrix.max()), 1) * max(map(sum, vectors))
    dtype = np.int64 if bound < 2**63 else object
    return np.array(vectors, dtype=dtype) @ matrix.astype(dtype, copy=False).T


def _argmin_merge(matrix: np.ndarray, vectors):
    """Rows minimal under at least one integer weight vector, each with
    the first vector that selects it: (rows, vectors, witness_index),
    row rows[j] with witness vectors[witness_index[j]]."""
    scores = _scores(matrix, vectors)
    hit = scores == scores.min(axis=1, keepdims=True)
    rows = np.flatnonzero(hit.any(axis=0))
    return rows, vectors, hit[:, rows].argmax(axis=0)


_SCREEN_SIZE = 64  # weight vectors the select screen tries before any LP


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts positive parts, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@cache
def _screen_vectors(m: int) -> tuple[tuple[int, ...], ...]:
    """The first _SCREEN_SIZE positive integer m-vectors with gcd 1, by
    increasing sum and lexicographically within a sum; (1,) is the only
    one for m = 1."""
    if m == 1:
        return ((1,),)
    vectors = []
    for total in count(m):
        for v in _compositions(total, m):
            if gcd(*v) == 1:
                vectors.append(v)
                if len(vectors) == _SCREEN_SIZE:
                    return tuple(vectors)


def _midpoint_pairs(front_rows: np.ndarray, asked: np.ndarray) -> np.ndarray:
    """For each front row d = front_rows[i], i in asked, the first pair
    (a, b) of front row indices with gap = 2d - front_rows[a] -
    front_rows[b] >= 0 in every coordinate and != 0, so that their
    midpoint strictly dominates d; (-1, -1) where no pair does. Entries
    are non-negative, so only rows <= 2d can take part. Python ints
    (object) once 2d can reach 2^63; candidate pairs are compared in
    chunks of at most _kernels.CELLS cells."""
    if 2 * int(front_rows.max()) >= 2**63:
        front_rows = front_rows.astype(object)
    pairs = np.full((len(asked), 2), -1, dtype=np.intp)
    for k, row in enumerate(asked.tolist()):
        twice = 2 * front_rows[row]
        members = np.flatnonzero((front_rows <= twice).all(axis=1))  # row itself fits
        cand = front_rows[members]
        slack = twice - cand
        chunk = max(1, _kernels.CELLS // cand.size)
        for a in range(0, len(cand), chunk):
            gap = slack[a : a + chunk, None, :] - cand[None, :, :]
            ok = (gap >= 0).all(axis=2) & (gap != 0).any(axis=2)
            if ok.any():
                i, j = np.unravel_index(int(ok.argmax()), ok.shape)
                pairs[k] = members[a + i], members[j]
                break
    return pairs


def _lp_merge(matrix: np.ndarray):
    """All-positive scheme over the Pareto front; returns (rows, weights,
    witness_index) as _argmin_merge does.

    A row off the front is excluded: a front row strictly dominates it.
    The distinct front rows are decided in three steps, each settling a
    row only with an exactly checked certificate:

    1. Select screen: one _argmin_merge of the front rows against
       _screen_vectors(m). A row some vector makes minimal is selected,
       witnessed by the first such vector. A front of one row is
       decided here, by (1, ..., 1).
    2. Exclude screen: a remaining row d is excluded when the midpoint
       of two front rows strictly dominates it (_midpoint_pairs), a
       convex certificate of 2 <= m rows.
    3. Row generation: each row still undecided is asked of lp.decide
       against an active set of other front rows, seeded with the m
       nearest to it in L1. A zero optimum is a certificate over the
       whole front. A witness is checked against every front row; while
       some row scores below d, the m most violated join the active set
       and the LP runs again. A witness that passes selects every
       undecided front row tying d's score, so those rows are never
       asked.
    """
    rows, _, inverse, front = distinct_front(matrix)
    on_front = np.flatnonzero(front)
    front_rows = rows[on_front]
    m = front_rows.shape[1]
    hit, vectors, hit_index = _argmin_merge(front_rows, _screen_vectors(m))
    used, hit_slot = np.unique(hit_index, return_inverse=True)
    weights = [vectors[j] for j in used.tolist()]
    slot = np.full(len(rows), -1, dtype=np.intp)  # distinct row -> its witness
    slot[on_front[hit]] = hit_slot
    undecided = np.ones(len(front_rows), dtype=bool)
    undecided[hit] = False
    rest = np.flatnonzero(undecided)
    if len(rest):
        undecided[rest[_midpoint_pairs(front_rows, rest)[:, 0] >= 0]] = False
    for i in np.flatnonzero(undecided).tolist():
        if not undecided[i]:
            continue
        undecided[i] = False
        d = front_rows[i].tolist()
        order = np.argsort(np.abs(front_rows - front_rows[i]).sum(axis=1), kind="stable")
        active = np.sort(order[order != i][:m])
        while True:
            w = lp.decide(d, front_rows[active].tolist())[0]
            if w is None:
                break
            scores = _scores(front_rows, [w])[0]
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


def _scheme_merge(universe: Universe, mu_bits: np.ndarray, matrix: np.ndarray,
                  scheme: WeightScheme, kind: DistanceKind) -> MergeResult:
    """The scheme's merge of the worlds mu_bits whose distance vectors
    are the rows of matrix, one column per profile entry."""
    vectors = expand_scheme(scheme, kind, universe.n, matrix.shape[1])
    if vectors is None:
        rows, weights, witness_index = _lp_merge(matrix)
    else:
        rows, weights, witness_index = _argmin_merge(matrix, vectors)
    return MergeResult(
        universe, _read_only(mu_bits[rows]), tuple(weights), _read_only(witness_index)
    )


def merge_scheme(inst: Instance, scheme: WeightScheme, kind: DistanceKind) -> MergeResult:
    """Union of the fixed-weight merges over every vector the scheme admits."""
    return _scheme_merge(inst.universe, inst.mu_bits, inst.distances(kind), scheme, kind)


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
    if int(matrix.max()) * max(map(len, sources)) >= 2**63:
        raise DistanceTableError("per-source distance sums do not fit in 64 bits")
    # 0/1 matrix sending each flat formula's column to its source's column
    to_source = np.repeat(
        np.eye(len(sources), dtype=np.int64), [len(s) for s in sources], axis=0
    )
    return _scheme_merge(universe, inst.mu_bits, matrix @ to_source, scheme, kind)
