"""Exact 2-D geometry of two-formula merging.

Each mu model becomes the point of its distance vector. Merging with
all positive weights selects the part of the point set's lower-left
convex chain that is visible from the origin; ties on a chain segment
survive, points reachable only along the axis-parallel closing
segments do not. Everything is exact integer arithmetic, no epsilons
anywhere.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .distance import DistanceKind
from .formulae import Model
from .merge import Instance, distinct_front

Point2 = tuple[int, int]


def _cross(o: Point2, a: Point2, b: Point2) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def visible_hull(points: Iterable[Point2]) -> set[Point2]:
    """Points on the origin-facing convex chain, including points interior
    to chain segments (they tie with the endpoints for the segment's
    normal weights).

    After discarding dominated points the survivors have strictly
    decreasing y for increasing x; a monotone-chain walk that pops only
    on strictly concave turns keeps exactly the on-chain points.
    """
    pts = np.array(list(points), dtype=np.int64).reshape(-1, 2)
    if not len(pts):
        raise ValueError("empty point set")
    rows, _, _, front = distinct_front(pts)
    chain: list[Point2] = []
    for p in map(tuple, rows[front].tolist()):
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) < 0:
            chain.pop()
        chain.append(p)
    return set(chain)


def _excludes(p: Point2, j: Point2, k: Point2) -> bool:
    """Whether the mutually undominated pair (j, k) leaves p minimal for
    no positive weights: p strictly inside the pair's band and strictly
    cut from the origin by the line through j and k. The cut is a strict
    sign test: a point on the line, or a line through the origin, cuts
    nothing."""
    if j[0] > k[0]:
        j, k = k, j
    if not (p[0] > j[0] and p[1] > k[1]):
        return False
    return _cross(j, k, p) * _cross(j, k, (0, 0)) < 0


def algorithm1(inst: Instance, kind: DistanceKind) -> frozenset[Model]:
    """Two-formula merge by progressive exclusion.

    First removes the strictly dominated models (one pass suffices:
    strict dominance is transitive, so a front vector dominates every
    dominated one), then removes every model excluded by some pair of
    the remaining ones. One pass over the pairs suffices too: whether a
    pair excludes a point depends only on the three points, and a second
    pass would only see a subset of the first pass's pairs. Both passes
    run on the distinct rows of the instance's distance matrix; each
    verdict then reaches the mu models through the dedupe's inverse. The
    survivors are exactly the all-positive-weights merge (cross-checked
    against the LP route in the test suite).
    """
    if inst.m != 2:
        raise ValueError("the geometric algorithm applies to two-formula profiles only")
    rows, _, inverse, front = distinct_front(inst.distances(kind))
    points = list(map(tuple, rows[front].tolist()))
    pairs = list(combinations(points, 2))
    keep = np.zeros(len(rows), dtype=bool)
    keep[front] = [
        not any(p not in (j, k) and _excludes(p, j, k) for j, k in pairs)
        for p in points
    ]
    return frozenset(inst._models_at(np.flatnonzero(keep[inverse])))


def critical_weight_set(points: Iterable[Point2]) -> list[tuple[int, ...]]:
    """A finite weight set whose merge equals the all-positive merge.

    One vector per mutually undominated pair (the normal of the line
    through the two points, reduced to coprime positive integers), plus
    the two near-axis vectors [1, K] and [K, 1] covering the extreme
    slopes. Argmin sets change only at pair normals, so sampling every
    normal plus the two extremes reaches every selectable point.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty point set")
    out: dict[tuple[int, ...], None] = {}
    big = 1 + 2 * max(max(x, y) for x, y in pts)
    out[(1, big)] = None
    out[(big, 1)] = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p, q = pts[i], pts[j]
            w1 = q[1] - p[1]
            w2 = p[0] - q[0]
            if w1 == 0 or w2 == 0 or (w1 > 0) != (w2 > 0):
                continue  # one point dominates the other
            w1, w2 = abs(w1), abs(w2)
            g = gcd(w1, w2)
            out[(w1 // g, w2 // g)] = None
    return list(out)


def render_svg(
    points: Sequence[Point2],
    selected: Iterable[Point2],
    path: str,
) -> None:
    """Deterministic SVG snapshot: axes, visible chain, then one circle
    per point, selected points filled. Byte-identical for equal input."""
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty point set")
    chosen = set(selected)
    margin = 40
    span = 600 - 2 * margin
    top = max(1, max(max(x, y) for x, y in pts))
    unit = span // top if top <= span else 1

    def sx(x: int) -> int:
        return margin + x * unit

    def sy(y: int) -> int:
        return 600 - margin - y * unit

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 600 600">',
        f'<line x1="{margin}" y1="{600 - margin}" x2="{600 - margin}" y2="{600 - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{600 - margin}" x2="{margin}" y2="{margin}" stroke="black"/>',
    ]
    chain = sorted(visible_hull(pts))
    if len(chain) >= 2:
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in chain)
        lines.append(f'<polyline points="{coords}" fill="none" stroke="gray"/>')
    for x, y in pts:
        fill = "black" if (x, y) in chosen else "white"
        lines.append(
            f'<circle cx="{sx(x)}" cy="{sy(y)}" r="8" fill="{fill}" stroke="black"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
