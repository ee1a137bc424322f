"""Seeded input generation for the four workloads.

Every workload has a fixed schedule of instance shapes (variable count,
profile length, model counts, distance, scheme); the seed only decides
the content: which variables, which polarities, which weight vectors,
which front vectors. Shapes are fixed so that the work per round does
not depend on the seed.

Formulae for kernel_wide and argmin_many are built from templates with
an exact model count, whatever the seed:

    H  a parity chain  l1 <-> l2 <-> ... <-> lk          1/2 of the worlds
    Q  l & (parity over other variables)                 1/4
    T  l | (parity over other variables)                 3/4
    E  l & l' & (parity over other variables)            1/8
"""

from __future__ import annotations

import itertools
import random

# A remap table that is not monotone in the Hamming count.
ZIGZAG = {"table": [[0, 0], [1, 2], [2, 1], [3, 3], [4, 2]], "default": 4}

# kernel_wide: (n, mu template, profile templates, distance); scheme "all".
KERNEL_SLOTS = [
    (12, "T", ["T", "H"], "hamming"),
    (12, "H", ["T", "H", "Q"], ZIGZAG),
    (12, "T", ["H", "H", "Q", "T"], "hamming"),
    (13, "T", ["Q", "E", "Q"], ZIGZAG),
    (13, "H", ["Q", "Q"], "hamming"),
]

# argmin_many: (n, mu template, profile templates, distance, scheme) where
# scheme is "expert" or the number of seeded list vectors. The Fraction
# argmin makes |W| * |mu| weighted sums of m terms. The middle slot (24576
# sums of 4) costs about half of the next dearer slot and twice the next
# cheaper one, so the median operation of a round is always that slot and
# does not flip between two slots of similar cost.
ARGMIN_SLOTS = [
    (11, "T", ["E", "E", "Q", "E", "Q"], "hamming", "expert"),
    (10, "T", ["Q", "H", "E"], ZIGZAG, 16),
    (10, "T", ["E", "Q", "E", "Q"], "hamming", 32),
    (10, "T", ["Q", "E", "Q", "H", "E"], ZIGZAG, 48),
    (10, "T", ["Q", "H", "E"], "hamming", 64),
]

# lp_front: (m, largest entry, block size, lower entry-sum level, front size),
# each shape used LP_COPIES times per round. Block size times m is the
# number of variables (12 to 16).
LP_SLOTS = [
    (3, 5, 5, 7, 20),
    (3, 4, 4, 6, 15),
    (4, 3, 3, 6, 20),
    (4, 3, 4, 6, 20),
    (5, 2, 3, 5, 15),
]
LP_COPIES = 6


def rng_for(seed: int, workload: str, slot: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{slot}")


def variables(n: int) -> list[str]:
    return [f"v{j}" for j in range(1, n + 1)]


def _literal(rng: random.Random, name: str) -> str:
    return name if rng.random() < 0.5 else "!" + name


def _parity(rng: random.Random, names) -> str:
    return "(" + " <-> ".join(_literal(rng, v) for v in names) + ")"


def template_formula(rng: random.Random, kind: str, names) -> str:
    """A formula of the given template over a random choice of variables."""
    heads = {"H": 0, "Q": 1, "T": 1, "E": 2}[kind]
    k = rng.randint(3, 6)
    chosen = rng.sample(names, heads + k)
    lits = [_literal(rng, v) for v in chosen[:heads]]
    parity = _parity(rng, chosen[heads:])
    if kind == "H":
        return parity
    if kind == "T":
        return f"{lits[0]} | {parity}"
    return " & ".join(lits + [parity])


def kernel_instance(seed: int, slot: int) -> dict:
    n, mu, profile, dist = KERNEL_SLOTS[slot]
    rng = rng_for(seed, "kernel_wide", slot)
    names = variables(n)
    return {
        "variables": names,
        "constraints": template_formula(rng, mu, names),
        "profile": [template_formula(rng, t, names) for t in profile],
        "distance": dist,
        "scheme": "all",
    }


def list_scheme(rng: random.Random, count: int, m: int) -> str:
    """count distinct positive integer weight vectors, entries 1..6."""
    seen: list[tuple[int, ...]] = []
    while len(seen) < count:
        w = tuple(rng.randint(1, 6) for _ in range(m))
        if w not in seen:
            seen.append(w)
    return "list:" + ";".join(",".join(str(x) for x in w) for w in seen)


def argmin_instance(seed: int, slot: int) -> dict:
    n, mu, profile, dist, scheme = ARGMIN_SLOTS[slot]
    rng = rng_for(seed, "argmin_many", slot)
    names = variables(n)
    spec = {
        "variables": names,
        "constraints": template_formula(rng, mu, names),
        "profile": [template_formula(rng, t, names) for t in profile],
        "distance": dist,
    }
    spec["scheme"] = "expert" if scheme == "expert" else list_scheme(rng, scheme, len(profile))
    return spec


def _incomparable(u, v) -> bool:
    return any(a < b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))


def front_vectors(seed: int, slot: int) -> tuple[list[tuple[int, ...]], int]:
    """A seeded antichain of distance vectors from two adjacent entry-sum
    levels, and the block size to realize it with."""
    m, top, block, level, count = LP_SLOTS[slot % len(LP_SLOTS)]
    rng = rng_for(seed, "lp_front", slot)
    pool = [
        v for v in itertools.product(range(top + 1), repeat=m)
        if sum(v) in (level, level + 1)
    ]
    while True:
        rng.shuffle(pool)
        chosen: list[tuple[int, ...]] = []
        for v in pool:
            if all(_incomparable(u, v) for u in chosen):
                chosen.append(v)
                if len(chosen) == count:
                    return chosen, block


# suite_small: one rotation of (check, distance, scheme).
SUITE_DISTANCES = {
    "drastic": "drastic",
    "hamming": "hamming",
    "table": {"table": [[0, 0], [1, 2], [2, 1], [3, 3]], "default": 3},
    "binary": {"table": [[0, 0], [1, 1]], "default": 1},
}
SCHEMES = ("all", "equal", "expert", "list")


def suite_rotation() -> list[tuple[str, str, str]]:
    rot = []
    for check in ("ic0", "ic1", "ic2", "ic3", "ic7", "ic5", "ic6", "ic8", "majority", "disjunctive"):
        for dist in ("drastic", "hamming", "table"):
            for scheme in SCHEMES:
                rot.append((check, dist, scheme))
    for dist in ("drastic", "hamming"):
        for scheme in SCHEMES:
            rot.append(("ic4", dist, scheme))
    for dist in ("drastic", "hamming", "table"):
        rot.append(("arbitration", dist, "all"))
    rot += [("maxcons", "drastic", "all")] * 3
    rot += [("undominated", "drastic", "all"), ("undominated", "binary", "all")]
    return rot


# Checks whose verdict must be a pass on every instance.
def must_pass(check: str, dist: str, scheme: str) -> bool:
    if check in ("ic0", "ic1", "ic2", "ic3", "ic7", "arbitration", "maxcons", "undominated"):
        return True
    return check == "ic4" and dist in ("drastic", "hamming")
