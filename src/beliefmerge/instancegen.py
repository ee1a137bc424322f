"""Constructive instance generators.

``realize`` builds, for any finite set of distance vectors, an instance
whose mu models have exactly those Hamming distance vectors: formula i
is the conjunction of its own block of variables x1_i .. xN_i, and each
requested vector contributes the mu model that falsifies the first d_i
variables of block i. The construction is self-verifying.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from ._rng import Xoshiro256StarStar
from .distance import DistanceKind
from .errors import EnumerationLimitError, GenerationError
from .formulae import (
    MAX_VARS,
    And,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Universe,
    Var,
    conjunction,
    disjunction,
    satisfiable,
)
from .merge import Instance

BLOCK_VECTORS = ((3, 0), (1, 1), (0, 3))  # one block of the exponential construction

RANDOM_MAX_VARS = 12
RANDOM_MAX_FORMULAE = 5
_RETRIES = 200


def realize(vectors: Sequence[Sequence[int]], n: int | None = None) -> Instance:
    """Instance whose mu-model distance vectors are exactly ``vectors``.

    ``n`` is the per-block variable count; it defaults to the largest
    entry (minimum 1). Uses n*m variables named xJ_I for block I, and
    refuses more than the enumeration guard before building anything.
    """
    vecs = sorted({tuple(int(x) for x in v) for v in vectors})
    if not vecs:
        raise ValueError("need at least one distance vector")
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ValueError("all distance vectors must share one length")
    if any(x < 0 for v in vecs for x in v):
        raise ValueError("distance vector entries must be non-negative")
    bound = max(x for v in vecs for x in v)
    if n is None:
        n = max(1, bound)
    elif n < 1:
        raise ValueError("block size must be at least 1")
    elif bound > n:
        raise ValueError(f"entry {bound} exceeds the block size {n}")
    if n * m > MAX_VARS:
        raise EnumerationLimitError(
            f"universe would have {n * m} variables, enumeration guard is {MAX_VARS}"
        )

    names = [f"x{j}_{i}" for i in range(1, m + 1) for j in range(1, n + 1)]
    universe = Universe(names)
    blocks = [
        [Var(f"x{j}_{i}") for j in range(1, n + 1)] for i in range(1, m + 1)
    ]
    profile = [conjunction(block) for block in blocks]

    terms = []
    for vec in vecs:
        lits: list[Formula] = []
        for i, d in enumerate(vec):
            for j, var in enumerate(blocks[i]):
                lits.append(Not(var) if j < d else var)
        terms.append(conjunction(lits))
    mu = disjunction(terms)

    inst = Instance(universe, mu, profile)
    got = sorted(map(tuple, inst.distances(DistanceKind.hamming()).tolist()))
    if got != vecs:
        raise GenerationError(
            f"realized instance has vectors {got}, expected {vecs}"
        )
    return inst


def replicated_blocks(k: int) -> Instance:
    """k independent six-variable copies of the three-point construction.

    mu has 3^k models whose distance vectors are all concatenations of
    (3,0), (1,1) and (0,3); reproducing the all-positive merge with a
    finite scheme needs at least 2^k vectors.
    """
    if not 1 <= k <= 3:
        raise ValueError("k must be between 1 and 3 (6k variables)")
    vectors = [sum(combo, ()) for combo in product(BLOCK_VECTORS, repeat=k)]
    return realize(vectors, n=3)


def _random_formula(rng: Xoshiro256StarStar, universe: Universe, depth: int) -> Formula:
    # integer coins: below the depth cap branch with chance 2/3; negate with 1/2
    if depth == 0 or rng.next64() >= (2 << 64) // 3:
        var = Var(universe.variables[rng.below(universe.n)])
        return Not(var) if rng.next64() < 1 << 63 else var
    op = rng.below(4)
    left = _random_formula(rng, universe, depth - 1)
    right = _random_formula(rng, universe, depth - 1)
    return (And, Or, Implies, Iff)[op](left, right)


def random_instance(n: int, m: int, seed: int) -> Instance:
    """Seeded random instance with consistent mu and profile entries.

    Same (n, m, seed) always yields the identical instance; the
    stream is pinned to xoshiro256** so seeds survive reimplementation.
    Unsatisfiable draws are resampled, up to a bounded retry count.
    """
    if not 1 <= n <= RANDOM_MAX_VARS:
        raise ValueError(f"n must be in 1..{RANDOM_MAX_VARS}")
    if not 1 <= m <= RANDOM_MAX_FORMULAE:
        raise ValueError(f"m must be in 1..{RANDOM_MAX_FORMULAE}")
    rng = Xoshiro256StarStar(seed)
    universe = Universe([f"v{j}" for j in range(1, n + 1)])

    def consistent_draw() -> Formula:
        for _ in range(_RETRIES):
            f = _random_formula(rng, universe, depth=3)
            if satisfiable(f, universe):
                return f
        raise GenerationError(f"no consistent formula after {_RETRIES} draws")

    mu = consistent_draw()
    profile = [consistent_draw() for _ in range(m)]
    return Instance(universe, mu, profile)
