"""Exact 2-D geometry of two-formula merging: the visible chain and its
SVG plot.

Each mu model becomes the point of its distance vector. Merging with
all positive weights selects the part of the point set's lower-left
convex chain that is visible from the origin; ties on a chain segment
survive, points reachable only along the axis-parallel closing
segments do not. Everything is exact integer arithmetic, no epsilons
anywhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .merge import distinct_front

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
    # whole pixels per unit up to span, else scaled down to fit the canvas
    unit, over = (span // top, 1) if top <= span else (span, top)

    def sx(x: int) -> int:
        return margin + x * unit // over

    def sy(y: int) -> int:
        return 600 - margin - y * unit // over

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
