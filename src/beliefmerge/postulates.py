"""Per-instance checkers for the merging postulates.

These are verdicts on one concrete instance, not universal provers: the
theorems are exercised empirically by running the checkers over seeded
suites. A failing verdict always carries a witness that can be replayed.

Every checker is boolean algebra over truth tables in bitmask order: the
instance's mu and profile tables, the mu' table, and each merge written
as a table over the 2^n worlds. Models are built only for a failing
verdict's witness, as lists in bit order.

d(I, F_j) does not depend on mu, so every derived profile is an index
view of the instance's distance matrix: IC5/IC6 split its columns,
IC7/IC8 keep the rows where mu' holds, arbitration appends the last
column again, and majority repeats the second column of one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distance import DistanceKind, distance_matrix
from .formulae import Formula, Model, TRUE, Universe, table_bits, truth_table
from .merge import Instance, _scheme_merge
from .weights import AllPositiveWeights, ExplicitWeights, WeightScheme, expand_scheme

@dataclass(frozen=True)
class OperatorConfig:
    kind: DistanceKind
    scheme: WeightScheme


@dataclass(frozen=True)
class Verdict:
    passed: bool
    vacuous: bool = False
    witness: object = None


def _merged(
    cfg: OperatorConfig, inst: Instance, rows=slice(None), columns=slice(None)
) -> np.ndarray:
    """The merge of the mu models at rows against the profile entries at
    columns, as a boolean truth table over the 2^n worlds."""
    matrix = inst.distances(cfg.kind)[rows][:, columns]
    bound = cfg.kind.largest(inst.universe.n)
    result = _scheme_merge(inst.universe, inst.mu_bits[rows], matrix, cfg.scheme, bound)
    table = np.zeros_like(inst.mu_table)
    table[result.bits] = True
    return table


def _fail(universe: Universe, **witness) -> Verdict:
    """A failing verdict; every truth table in the witness becomes the
    list of its models in bit order."""
    for key, value in witness.items():
        if isinstance(value, np.ndarray):
            witness[key] = [Model(universe, b) for b in np.flatnonzero(value).tolist()]
    return Verdict(False, witness=witness)


def check_ic0(cfg: OperatorConfig, inst: Instance) -> Verdict:
    """Every merged model satisfies the integrity constraints."""
    bad = _merged(cfg, inst) & ~inst.mu_table
    return _fail(inst.universe, models=bad) if bad.any() else Verdict(True)


def check_ic1(cfg: OperatorConfig, inst: Instance) -> Verdict:
    """Consistent constraints yield a consistent merge."""
    return Verdict(bool(_merged(cfg, inst).any()))


def check_ic2(cfg: OperatorConfig, inst: Instance) -> Verdict:
    """When mu and the whole profile agree, merging is their conjunction."""
    conj = np.logical_and.reduce((inst.mu_table, *inst.profile_tables))
    if not conj.any():
        return Verdict(True, vacuous=True)
    merged = _merged(cfg, inst)
    if np.array_equal(merged, conj):
        return Verdict(True)
    return _fail(inst.universe, merged=merged, conjunction=conj)


def check_ic3(
    cfg: OperatorConfig,
    inst: Instance,
    other: Instance,
    permutation: Sequence[int] | None = None,
) -> Verdict:
    """Syntax independence: equivalent inputs merge to the same models.

    Profile equivalence is formula-wise at matching indices; an explicit
    permutation may be supplied, which is sound for permutation-closed
    schemes. Non-equivalent inputs are a usage error, not a failure.
    """
    if inst.universe != other.universe or inst.m != other.m:
        raise ValueError("instances are not comparable")
    perm = list(permutation) if permutation is not None else list(range(inst.m))
    if sorted(perm) != list(range(inst.m)):
        raise ValueError("permutation must be a bijection on profile indices")
    if not np.array_equal(inst.mu_table, other.mu_table):
        raise ValueError("constraints are not equivalent")
    for i, j in enumerate(perm):
        if not np.array_equal(inst.profile_tables[i], other.profile_tables[j]):
            raise ValueError(f"profile entries {i} and {j} are not equivalent")
    a, b = _merged(cfg, inst), _merged(cfg, other)
    return Verdict(True) if np.array_equal(a, b) else _fail(inst.universe, left=a, right=b)


def check_ic4(cfg: OperatorConfig, inst: Instance) -> Verdict:
    """Fairness between two sources that both respect the constraints."""
    if inst.m != 2:
        raise ValueError("IC4 is stated for two-formula profiles")
    for idx, table in enumerate(inst.profile_tables):
        if (table & ~inst.mu_table).any():
            raise ValueError(f"profile entry {idx + 1} does not entail the constraints")
    merged = _merged(cfg, inst)
    with_f1, with_f2 = ((merged & t).any() for t in inst.profile_tables)
    if with_f1 == with_f2:
        return Verdict(True)
    return _fail(inst.universe, merged=merged, consistent_with=1 if with_f1 else 2)


def product_scheme(
    left: WeightScheme,
    right: WeightScheme,
    k_left: int,
    k_right: int,
    bound: int,
) -> WeightScheme:
    """The scheme whose vectors concatenate one vector from each part,
    each part expanded as over distance vectors with no entry above bound.

    The product of two all-positive sets is the all-positive set of the
    joint dimension; any two finite parts multiply into an explicit list.
    """
    if isinstance(left, AllPositiveWeights) and isinstance(right, AllPositiveWeights):
        return AllPositiveWeights()
    lv = expand_scheme(left, bound, k_left)
    rv = expand_scheme(right, bound, k_right)
    if lv is None or rv is None:
        raise ValueError("cannot mix the all-positive scheme with a finite one in a product")
    # each part's denominators are cleared on its own scale, so an explicit
    # part joins with its rational vectors
    if isinstance(left, ExplicitWeights):
        lv = left.vectors
    if isinstance(right, ExplicitWeights):
        rv = right.vectors
    return ExplicitWeights([a + b for a in lv for b in rv])


def _split_check(
    kind: DistanceKind,
    inst: Instance,
    split: int,
    scheme_left: WeightScheme,
    scheme_right: WeightScheme,
):
    """(conjoined merges of the two column halves, product-scheme merge)."""
    if not 1 <= split < inst.m:
        raise ValueError(f"split must be in 1..{inst.m - 1}")
    combined_scheme = product_scheme(
        scheme_left, scheme_right, split, inst.m - split, kind.largest(inst.universe.n)
    )
    both = (_merged(OperatorConfig(kind, scheme_left), inst, columns=slice(None, split))
            & _merged(OperatorConfig(kind, scheme_right), inst, columns=slice(split, None)))
    return both, _merged(OperatorConfig(kind, combined_scheme), inst)


def check_ic5(
    kind: DistanceKind,
    inst: Instance,
    split: int,
    scheme_left: WeightScheme,
    scheme_right: WeightScheme,
) -> Verdict:
    """Conjoined part merges entail the product-scheme merge."""
    both, combined = _split_check(kind, inst, split, scheme_left, scheme_right)
    extra = both & ~combined
    return _fail(inst.universe, extra=extra) if extra.any() else Verdict(True)


def check_ic6(
    kind: DistanceKind,
    inst: Instance,
    split: int,
    scheme_left: WeightScheme,
    scheme_right: WeightScheme,
) -> Verdict:
    """A consistent conjunction of part merges absorbs the product merge."""
    both, combined = _split_check(kind, inst, split, scheme_left, scheme_right)
    if not both.any():
        return Verdict(True, vacuous=True)
    extra = combined & ~both
    return _fail(inst.universe, extra=extra) if extra.any() else Verdict(True)


def _narrowing(cfg: OperatorConfig, inst: Instance, mu_prime: Formula):
    """(merge, its models satisfying mu', the rows of mu ∧ mu' in inst's matrix)."""
    merged, keep = _merged(cfg, inst), truth_table(mu_prime, inst.universe)
    return merged, merged & keep, keep[inst.mu_bits]


def check_ic7(cfg: OperatorConfig, inst: Instance, mu_prime: Formula) -> Verdict:
    """Restricting after merging never beats merging under the restriction."""
    _, lhs, rows = _narrowing(cfg, inst, mu_prime)
    if not rows.any():  # mu ∧ mu' is unsatisfiable, so lhs is empty
        return Verdict(True, vacuous=True)
    extra = lhs & ~_merged(cfg, inst, rows=rows)
    return _fail(inst.universe, extra=extra) if extra.any() else Verdict(True)


def check_ic8(cfg: OperatorConfig, inst: Instance, mu_prime: Formula) -> Verdict:
    """The converse inclusion; fails for all-positive Hamming merging."""
    merged, lhs, rows = _narrowing(cfg, inst, mu_prime)
    if not lhs.any():
        return Verdict(True, vacuous=True)
    new = _merged(cfg, inst, rows=rows) & ~merged
    return _fail(inst.universe, new_models=new) if new.any() else Verdict(True)


def check_postulate(
    postulate: str,
    cfg: OperatorConfig,
    inst: Instance,
    *,
    other: Instance | None = None,
    permutation: Sequence[int] | None = None,
    mu_prime: Formula | None = None,
    split: int | None = None,
    scheme_left: WeightScheme | None = None,
    scheme_right: WeightScheme | None = None,
    reps: int | None = None,
) -> Verdict:
    """Dispatch a postulate id to its checker, validating the aux inputs.

    Besides ic0..ic8 it routes ``majority`` (the two-formula profile F1,
    F2 with F2 repeated ``reps`` times), ``disjunctive`` and
    ``arbitration``. ``majority`` merges F1 and the repeated F2 under
    the constraint TRUE (see check_majority): it ignores inst's
    constraints.
    """
    postulate = postulate.lower()
    if postulate == "ic0":
        return check_ic0(cfg, inst)
    if postulate == "ic1":
        return check_ic1(cfg, inst)
    if postulate == "ic2":
        return check_ic2(cfg, inst)
    if postulate == "ic3":
        if other is None:
            raise ValueError("ic3 needs a second, equivalent instance")
        return check_ic3(cfg, inst, other, permutation)
    if postulate == "ic4":
        return check_ic4(cfg, inst)
    if postulate in ("ic5", "ic6"):
        if split is None:
            raise ValueError(f"{postulate} needs a profile split point")
        left = scheme_left if scheme_left is not None else cfg.scheme
        right = scheme_right if scheme_right is not None else cfg.scheme
        fn = check_ic5 if postulate == "ic5" else check_ic6
        return fn(cfg.kind, inst, split, left, right)
    if postulate in ("ic7", "ic8"):
        if mu_prime is None:
            raise ValueError(f"{postulate} needs the extra constraint mu'")
        fn = check_ic7 if postulate == "ic7" else check_ic8
        return fn(cfg, inst, mu_prime)
    if postulate == "majority":
        if inst.m != 2:
            raise ValueError("majority is stated for two-formula profiles")
        if reps is None:
            raise ValueError("majority needs a repetition count")
        return check_majority(cfg, inst.universe, *inst.profile, reps)
    if postulate == "disjunctive":
        return check_disjunctive(cfg, inst)
    if postulate == "arbitration":
        return check_arbitration_duplicate(cfg, inst)
    raise ValueError(f"unknown postulate {postulate!r}")


# --- beyond IC0-IC8 --------------------------------------------------------


def closest_pairs_merge(inst: Instance) -> frozenset[Model]:
    """Arbitration by closest pairs over a two-formula profile F1, F2: all
    models appearing in some pair of (Mod(F1) x Mod(F2)) of minimal
    Hamming distance.

    Reads the instance's profile tables; the constraints play no part.
    Both entries are satisfiable, because Instance rejects any other.
    """
    if inst.m != 2:
        raise ValueError("closest pairs are stated for two-formula profiles")
    t1, t2 = inst.profile_tables
    b1, b2 = table_bits(t1), table_bits(t2)
    # a model is in some closest pair iff its distance to the other
    # formula is the global minimum
    n = inst.universe.n
    hamming = DistanceKind.hamming()
    s1, s2 = inst.profile_supports
    d1 = distance_matrix(hamming, b1, [t2], n, [s2])[:, 0]
    d2 = distance_matrix(hamming, b2, [t1], n, [s1])[:, 0]
    best = d1.min()
    chosen = np.concatenate([b1[d1 == best], b2[d2 == best]])
    return frozenset(Model(inst.universe, b) for b in chosen.tolist())


def check_majority(
    cfg: OperatorConfig,
    universe: Universe,
    f1: Formula,
    f2: Formula,
    reps: int,
) -> Verdict:
    """Whether repeating f2 ``reps`` times forces the merge to entail it,
    with no integrity constraint (mu = TRUE)."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    pair = Instance(universe, TRUE, [f1, f2])
    stray = _merged(cfg, pair, columns=[0] + [1] * reps) & ~pair.profile_tables[1]
    return _fail(universe, models=stray) if stray.any() else Verdict(True)


def check_disjunctive(cfg: OperatorConfig, inst: Instance) -> Verdict:
    """Every merged model satisfies at least one profile entry."""
    for table in inst.profile_tables:
        if not (table & inst.mu_table).any():
            return Verdict(True, vacuous=True)
    stray = _merged(cfg, inst) & ~np.logical_or.reduce(inst.profile_tables)
    return _fail(inst.universe, models=stray) if stray.any() else Verdict(True)


def check_arbitration_duplicate(cfg: OperatorConfig, inst: Instance) -> Verdict:
    """Duplicating the last source must not change the all-positive merge."""
    if not isinstance(cfg.scheme, AllPositiveWeights):
        raise ValueError("duplicate invariance is only claimed for the all-positive scheme")
    a, b = _merged(cfg, inst), _merged(cfg, inst, columns=[*range(inst.m), inst.m - 1])
    return Verdict(True) if np.array_equal(a, b) else _fail(inst.universe, base=a, doubled=b)
