"""Merging operators over weight schemes.

An Instance bundles the universe, the integrity constraints and the
profile, validates satisfiability up front, and caches model sets and
distance vectors. Merging with a finite scheme is plain argmin; merging
with the all-positive scheme asks one exact LP (lp.decide) about each
distinct vector on the Pareto front, and excludes every vector off it.
An excluded model's certificate comes from the same LP: at most m other
models whose convex combination of vectors beats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import lp
from .distance import DistanceKind, distances_to_bits
from .errors import (
    InconsistentConstraintsError,
    InconsistentProfileError,
    UniverseMismatchError,
)
from .formulae import (
    DEFAULT_MAX_VARS,
    Formula,
    Model,
    Universe,
    models_bits,
)
from .weights import (
    ExpertWeights,
    WeightScheme,
    as_weight_vector,
    default_expert_weight,
    expand_scheme,
    strictly_dominates,
    weighted_distance,
)


class Instance:
    """Integrity constraints mu plus an ordered profile F_1..F_m.

    Rejects an inconsistent mu and any unsatisfiable profile entry at
    construction: every operator in the package presupposes both.
    """

    def __init__(
        self,
        universe: Universe,
        constraints: Formula,
        profile: Sequence[Formula],
        max_vars: int = DEFAULT_MAX_VARS,
    ):
        profile = tuple(profile)
        if not profile:
            raise ValueError("profile must contain at least one formula")
        self.universe = universe
        self.constraints = constraints
        self.profile = profile
        self.max_vars = max_vars

        self._mu_bits = models_bits(constraints, universe, max_vars)
        if self._mu_bits.shape[0] == 0:
            raise InconsistentConstraintsError("integrity constraints are unsatisfiable")
        self._entry_bits = []
        for idx, f in enumerate(profile):
            bits = models_bits(f, universe, max_vars)
            if bits.shape[0] == 0:
                raise InconsistentProfileError(idx)
            self._entry_bits.append(bits)
        self._models = tuple(Model(universe, int(b)) for b in self._mu_bits)
        self._vectors: dict[DistanceKind, tuple[tuple[int, ...], ...]] = {}

    @property
    def m(self) -> int:
        return len(self.profile)

    def mu_models(self) -> tuple[Model, ...]:
        """Models of mu in lexicographic bit order."""
        return self._models

    def vectors(self, kind: DistanceKind) -> tuple[tuple[int, ...], ...]:
        """Distance vectors d(I, F_1..F_m), aligned with mu_models()."""
        cached = self._vectors.get(kind)
        if cached is None:
            n = self.universe.n
            columns = [
                distances_to_bits(kind, self._mu_bits, bits, n)
                for bits in self._entry_bits
            ]
            cached = tuple(map(tuple, np.column_stack(columns).tolist()))
            self._vectors[kind] = cached
        return cached

    def model_index(self, i: Model) -> int:
        """Position of i among the mu models; raises if i does not satisfy mu."""
        if i.universe != self.universe:
            raise UniverseMismatchError("model belongs to a different universe")
        pos = int(np.searchsorted(self._mu_bits, i.bits))
        if pos == len(self._mu_bits) or int(self._mu_bits[pos]) != i.bits:
            raise ValueError("model does not satisfy the integrity constraints")
        return pos

    def __repr__(self) -> str:
        return f"Instance(n={self.universe.n}, m={self.m}, mu_models={len(self._models)})"


@dataclass(frozen=True)
class MergeResult:
    """Selected models plus, per model, one integer weight vector
    certifying its minimality under the scheme."""

    models: frozenset[Model]
    witnesses: dict[Model, tuple[int, ...]] = field(default_factory=dict)


def _argmin_models(models, vectors, w) -> frozenset[Model]:
    totals = [weighted_distance(w, d) for d in vectors]
    best = min(totals)
    return frozenset(m for m, t in zip(models, totals) if t == best)


def merge_fixed(inst: Instance, w, kind: DistanceKind) -> frozenset[Model]:
    """Models of mu at minimal distance weighted by the fixed vector w."""
    w = as_weight_vector(w)
    if len(w) != inst.m:
        raise ValueError(f"weight vector length {len(w)} != profile length {inst.m}")
    return _argmin_models(inst.mu_models(), inst.vectors(kind), w)


def _pareto_front(vectors) -> list[tuple[int, ...]]:
    """Distinct vectors not strictly dominated by another; constraining
    against these is equivalent to constraining against all vectors."""
    distinct = sorted(set(vectors))
    return [
        d for d in distinct
        if not any(strictly_dominates(e, d) for e in distinct if e is not d)
    ]


def _witness_for(d_i, others) -> tuple[int, ...] | None:
    return lp.decide(d_i, others)[0]


def minimal_for_some_positive(
    i: Model, inst: Instance, kind: DistanceKind
) -> tuple[int, ...] | None:
    """An integer weight vector under which i is minimal, if any exists."""
    pos = inst.model_index(i)
    vectors = inst.vectors(kind)
    d_i = vectors[pos]
    others = [d for d in _pareto_front(vectors) if d != d_i]
    return _witness_for(d_i, others)


def _resolve(scheme: WeightScheme, kind: DistanceKind, n: int, m: int) -> WeightScheme:
    if isinstance(scheme, ExpertWeights) and scheme.a is None:
        return ExpertWeights(default_expert_weight(kind, n, m))
    return scheme


def _scheme_merge(models, vectors, scheme: WeightScheme, kind: DistanceKind, n: int) -> MergeResult:
    m = len(vectors[0])
    scheme = _resolve(scheme, kind, n, m)
    expanded = expand_scheme(scheme, m)

    if expanded is not None:
        selected: dict[Model, tuple[int, ...]] = {}
        for w in expanded:
            witness = lp.integer_witness(w)
            for model in _argmin_models(models, vectors, w):
                selected.setdefault(model, witness)
        return MergeResult(frozenset(selected), selected)

    # all-positive scheme: one LP per front vector; a vector off the
    # front is excluded, a front vector strictly dominates it
    front = _pareto_front(vectors)
    witness_by_vector = {d: _witness_for(d, [e for e in front if e != d]) for d in front}
    selected = {}
    for model, d in zip(models, vectors):
        w = witness_by_vector.get(d)
        if w is not None:
            selected[model] = w
    return MergeResult(frozenset(selected), selected)


def merge_scheme(inst: Instance, scheme: WeightScheme, kind: DistanceKind) -> MergeResult:
    """Union of the fixed-weight merges over every vector the scheme admits."""
    return _scheme_merge(
        inst.mu_models(), inst.vectors(kind), scheme, kind, inst.universe.n
    )


def undominated(inst: Instance, kind: DistanceKind) -> frozenset[Model]:
    """Models of mu whose distance vector no other mu model strictly dominates."""
    vectors = inst.vectors(kind)
    front = set(_pareto_front(vectors))
    return frozenset(m for m, d in zip(inst.mu_models(), vectors) if d in front)


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
    vectors = inst.vectors(kind)
    d_i = vectors[inst.model_index(i)]
    first: dict[tuple[int, ...], Model] = {}
    for m, d in zip(inst.mu_models(), vectors):
        if d != d_i:
            first.setdefault(d, m)
    others = sorted(first)
    witness, certificate = lp.decide(d_i, others)
    if witness is not None:
        return None
    return tuple(sorted((first[others[j]] for j in certificate), key=lambda m: m.bits))


def multi_source_merge(
    universe: Universe,
    constraints: Formula,
    sources: Sequence[Sequence[Formula]],
    scheme: WeightScheme,
    kind: DistanceKind,
    max_vars: int = DEFAULT_MAX_VARS,
) -> MergeResult:
    """Merge sources that each provide a set of formulae.

    All formulae of one source share that source's weight: the score of
    a model is sum_i w_i * sum_{F in S_i} d(I, F), so each source
    contributes the per-source sum as one coordinate of an aggregated
    distance vector and the single-profile machinery applies unchanged.
    """
    sources = [tuple(s) for s in sources]
    if not sources or any(not s for s in sources):
        raise ValueError("each source must provide at least one formula")
    flat = [f for s in sources for f in s]
    inst = Instance(universe, constraints, flat, max_vars)

    flat_vectors = inst.vectors(kind)
    aggregated = []
    for vec in flat_vectors:
        agg, at = [], 0
        for s in sources:
            agg.append(sum(vec[at : at + len(s)]))
            at += len(s)
        aggregated.append(tuple(agg))

    return _scheme_merge(
        inst.mu_models(), tuple(aggregated), scheme, kind, universe.n
    )
