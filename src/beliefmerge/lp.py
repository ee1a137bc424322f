"""The exact LP behind the all-positive-weights merge.

A distance vector d is minimal under some strictly positive weighting
exactly when the LP

    maximise z  subject to  w.(d - o_j) <= 0  for every other vector o_j,
                            z - w_c <= 0      for every coordinate c,
                            sum(w) <= 1,      w, z >= 0

has an optimum z* > 0. The origin is feasible, so one phase of the
simplex suffices. Pivots are integer-preserving (Bareiss): the tableau
holds integers over one common positive denominator, every division is
exact, and no float or Fraction enters the loop. Bland's rule keeps the
heavily degenerate pivots from cycling.

When z* = 0, Motzkin's transposition theorem gives the other side: the
optimal duals on the o_j rows, normalised, are a convex combination of
other vectors that is <= d everywhere and < d somewhere. At most m of
them are positive: a basis has m + 1 non-basic variables, and at least
one of them is z or the slack of a z - w_c row, since the duals of
those rows must sum to at least 1.

The answer is sound for any subset of the other vectors in one
direction: a certificate over a subset excludes d against all of them,
while a witness over a subset must still be checked against the rest.
merge._critical_weights relies on this to pass only a few active rows
(row generation), and asks only the front rows that its two cheaper
exact screens leave undecided: a small fixed weight vector making the
row minimal, or two front rows whose midpoint strictly dominates it (a
two-row certificate of the same kind). Its witnesses are the weights
whose argmin is the all-positive merge. decide itself always answers
about exactly the rows given.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def _pivot(rows: list[list[int]], r: int, s: int, denom: int) -> int:
    """Exchange the basic variable of row r with the non-basic column s,
    in place; returns the new common denominator."""
    pivot_row = rows[r]
    p = pivot_row[s]
    for i, row in enumerate(rows):
        if i != r:
            f = row[s]
            row[:] = [(x * p - f * y) // denom for x, y in zip(row, pivot_row)]
            row[s] = -f
    pivot_row[s] = denom
    return p


def decide(
    d: Sequence[int], others: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...] | None, dict[int, Fraction] | None]:
    """(witness, None) when some positive integer weighting makes d
    minimal against every vector in others, else (None, certificate).

    The certificate maps indices into others to convex weights, at most
    len(d) of them, whose combination of others is <= d in every
    coordinate and < d in at least one.
    """
    m, k = len(d), len(others)
    # Over the common denominator, row i >= 1 reads slack_i + sum_j
    # rows[i][j] * x_j = rows[i][-1], and row 0 reads the same with the
    # objective value in place of the slack; at the start that row is
    # obj - z = 0. Columns j < m are w, column m is z.
    rows = [[0] * m + [-1, 0]]
    rows += [[a - b for a, b in zip(d, o)] + [0, 0] for o in others]
    rows += [[-(j == c) for j in range(m)] + [1, 0] for c in range(m)]
    rows.append([1] * m + [0, 1])
    # variable ids: w and z are 0..m, the slack of row i is m + i
    nonbasic = list(range(m + 1))
    basic = [None] + [m + i for i in range(1, len(rows))]
    denom = 1
    while True:
        objective = rows[0]
        entering = [j for j in range(m + 1) if objective[j] < 0]
        if not entering:
            break
        s = min(entering, key=nonbasic.__getitem__)
        r = None
        for i in range(1, len(rows)):
            a = rows[i][s]
            if a > 0 and (
                r is None
                or rows[i][-1] * rows[r][s] < rows[r][-1] * a
                or (rows[i][-1] * rows[r][s] == rows[r][-1] * a and basic[i] < basic[r])
            ):
                r = i
        denom = _pivot(rows, r, s, denom)
        nonbasic[s], basic[r] = basic[r], nonbasic[s]

    if rows[0][-1] > 0:  # then every w_c >= z* > 0 is basic
        values = [0] * m
        for i in range(1, len(rows)):
            if basic[i] < m:
                values[basic[i]] = rows[i][-1]
        return _witness(values, denom), None
    duals = {
        v - m - 1: rows[0][j]
        for j, v in enumerate(nonbasic)
        if m < v <= m + k and rows[0][j] > 0
    }
    total = sum(duals.values())
    return None, {j: Fraction(y, total) for j, y in sorted(duals.items())}


def _witness(values: list[int], denom: int) -> tuple[int, ...]:
    """weights.integer_witness(values / denom): the reduced denominators' lcm is denom / g."""
    g = gcd(denom, *values)
    return tuple(v // g for v in values)
