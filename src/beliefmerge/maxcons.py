"""Maximal subsets of the profile that stay consistent with mu.

A maxcon is stored as a 0-based index set into the profile, never as a
formula set: duplicate profile entries stay distinct elements, which
matters for repetition-sensitivity checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .formulae import Model
from .merge import Instance


def maxcons(inst: Instance) -> tuple[frozenset[int], ...]:
    """All maximal index sets S with mu /\\ AND_{i in S} F_i consistent.

    Enumerates by descending subset size, skipping subsets of an already
    found maxcon; consistency is one truth-table intersection. Output is
    sorted lexicographically on the sorted index tuples.
    """
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


def maxcons_disjunction(inst: Instance) -> frozenset[Model]:
    """Models of the disjunction over all maxcons of mu /\\ AND F_i."""
    union = np.zeros_like(inst.mu_table)
    for s in maxcons(inst):
        table = inst.mu_table.copy()
        for i in s:
            table &= inst.profile_tables[i]
        union |= table
    return frozenset(
        Model(inst.universe, int(b)) for b in np.nonzero(union)[0]
    )
