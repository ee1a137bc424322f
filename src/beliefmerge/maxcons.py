"""Maximal subsets of the profile that stay consistent with mu.

A maxcon is stored as a 0-based index set into the profile, never as a
formula set: duplicate profile entries stay distinct elements, which
matters for repetition-sensitivity checks.

A set S is consistent with mu exactly when some mu model satisfies every
F_i with i in S, so the maxcons are the maximal satisfied sets of the mu
models. Under the drastic distance a model's vector is 0 where it
satisfies F_i and 1 elsewhere, and a maximal satisfied set is a distinct
row on the Pareto front of that matrix. The disjunction of the maxcons
is therefore the drastic undominated set, which is also the drastic
merge under all positive weights.
"""

from __future__ import annotations

import numpy as np

from .distance import DistanceKind
from .formulae import Model
from .merge import Instance, distinct_front, undominated


def maxcons(inst: Instance) -> tuple[frozenset[int], ...]:
    """All maximal index sets S with mu /\\ AND_{i in S} F_i consistent.

    Each is the zero columns of one distinct front row of the instance's
    drastic distance matrix. Output is sorted lexicographically on the
    sorted index tuples.
    """
    rows, _, _, front = distinct_front(inst.distances(DistanceKind.drastic()))
    found = [frozenset(np.flatnonzero(row == 0).tolist()) for row in rows[front]]
    return tuple(sorted(found, key=lambda s: tuple(sorted(s))))


def maxcons_disjunction(inst: Instance) -> frozenset[Model]:
    """Models of the disjunction over all maxcons of mu /\\ AND F_i: the
    mu models whose satisfied set is maximal."""
    return undominated(inst, DistanceKind.drastic())
