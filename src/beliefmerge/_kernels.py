"""Hot loop behind model-set distance computation.

The one kernel that dominates runtime fills a whole distance matrix from
candidate bitmasks and the truth tables of the target formulas:

    out[i, j] = min over worlds t with tables[j][t] of table[popcount(cands[i] ^ t)]

A table flat above 0 (drastic) reads a column off the truth table; any
other column takes one of two exact paths, chosen from its sizes alone:

* the hypercube sweep: for every world x of the n-bit cube, the set of
  Hamming counts at which some target lies, in O(n * 2^n) word
  operations, for all sweep columns at once; the high half of the bits
  is swept in world order and the low half on a transposed copy, so
  every pass runs along long contiguous rows; each candidate then reads
  the best table value off its world's set
* pairwise: chunked broadcasting over |cands| x |targets|, cheaper when
  that product is small next to the cube

One cell budget, CELLS, bounds every chunked temporary in the package:
no broadcast block, sweep batch or pair test holds more than about
CELLS elements (or one row of them, where a single row is wider).

A non-decreasing table (Hamming) is read with one lookup per candidate,
at its nearest count, as min and a monotone map commute: the pairwise
block's uint8 row minimum, or the sweep set's lowest bit.

A column whose formula mentions only the r variables of its support may
run on that support's cube instead: the sweep or pairwise step fills the
2^r sub-worlds under the window table

    table'[h] = min(table[h .. h + n - r])

(a target matches the candidate off the support, or differs there by up
to n - r bits), and each candidate reads its sub-world's value, ranked
through two half-width lookup tables. A support of all n variables is
the whole cube itself; columns on one cube share its passes. The same
size rule picks each column's cube, with a measured fixed cost per
column moved.

The matrix is column-major: the kernel fills it a column at a time, and
every later column reduction reads contiguous memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import UnsatisfiableFormulaError

CELLS = 1 << 20  # elements in any one broadcast temporary
_SWEEP_OVERHEAD = 2048  # measured fixed cost of one sweep pass, in element operations
_CUBE_OVERHEAD = 48000  # measured fixed cost of one column on its support's cube, likewise


def _min_mapped_numpy(
    cands: np.ndarray, targets: np.ndarray, table: np.ndarray, monotone: bool
) -> np.ndarray:
    out = np.empty(cands.shape[0], dtype=np.int64)
    chunk = max(1, CELLS // len(targets))
    for lo in range(0, cands.shape[0], chunk):
        counts = np.bitwise_count(cands[lo : lo + chunk, None] ^ targets[None, :])
        if monotone:
            out[lo : lo + chunk] = table[counts.min(axis=1)]
        else:
            out[lo : lo + chunk] = table[counts].min(axis=1)
    return out


def _sweep(reach: np.ndarray, n: int) -> np.ndarray:
    """Of (k, 2^n) uint32 rows seeded 1 at their targets (overwritten),
    the (k, 2^n) sets whose entry [j, x] has bit h set iff some target
    of row j lies at Hamming distance h from x; counts 0..n fit uint32.

    Bits n//2..n-1 are swept in world order, then bits 0..n//2-1 on one
    transposed copy with them on top (the passes commute), so no pass
    runs along fewer than 2^min(n//2, n - n//2) contiguous cells; a
    second transposed copy returns the rows to world order."""
    k, h = reach.shape[0], n // 2
    size = k << max(n - 1, 0)
    from_low, from_high = np.empty(size, reach.dtype), np.empty(size, reach.dtype)
    for step, b in enumerate([*range(h, n), *range(n - h, n)]):
        if step == n - h:  # world x now sits at (x mod 2^h) * 2^(n-h) + x // 2^h
            reach = reach.reshape(k, 1 << (n - h), 1 << h).transpose(0, 2, 1).reshape(k, -1)
        # R[x] |= R[x ^ 2^b] << 1, with x on both sides of bit b
        pairs = reach.reshape(k, -1, 2, 1 << b)
        low, high = pairs[:, :, 0, :], pairs[:, :, 1, :]
        np.left_shift(low, 1, out=from_low.reshape(low.shape))
        np.left_shift(high, 1, out=from_high.reshape(high.shape))
        low |= from_high.reshape(low.shape)
        high |= from_low.reshape(high.shape)
    return reach.reshape(k, 1 << h, 1 << (n - h)).transpose(0, 2, 1).reshape(k, -1)


def _read_sets(sets: np.ndarray, table: np.ndarray, monotone: bool) -> np.ndarray:
    """The smallest table[h] over the bits h of each non-zero set."""
    if monotone:  # the lowest bit, the nearest count, is best
        return table[np.bitwise_count((sets & -sets) - 1)]
    values = sorted(set(table.tolist()))
    out = np.full(sets.shape, values[-1], dtype=np.int64)
    # smallest value last, so it wins wherever its counts are reached
    for v in values[-2::-1]:
        mask = sum(1 << h for h in np.flatnonzero(table == v).tolist())
        out[(sets & mask) != 0] = v
    return out


def _cost(cands: int, count: int, n: int) -> int:
    """Element operations for one column of count targets against cands
    candidates on the n-bit cube: pairwise, or the sweep where cheaper."""
    return min(cands * count, n * ((1 << n) + _SWEEP_OVERHEAD))


def _fill(cands, columns, table, n, monotone, out) -> None:
    """out[:, k] = the column of each (k, truth table, model count) of
    columns on the n-bit cube: pairwise, or in sweep batches where the
    sweep costs less."""
    sweep = []
    for k, targets, count in columns:
        if cands.shape[0] * count >= n * ((1 << n) + _SWEEP_OVERHEAD):
            sweep.append((k, targets))
        else:
            out[:, k] = _min_mapped_numpy(cands, np.flatnonzero(targets), table, monotone)
    per_batch = max(1, CELLS >> n)  # one column at a time from n = 20 on
    for lo in range(0, len(sweep), per_batch):
        batch = sweep[lo : lo + per_batch]  # seeded by the truth tables themselves
        sets = _sweep(np.array([t for _, t in batch], dtype=np.uint32), n)[:, cands]
        out[:, [k for k, _ in batch]] = _read_sets(sets, table, monotone).T


def _ranks(mask: int, k: int) -> np.ndarray:
    """For every world x < 2^k, the rank of x's bits on mask among the
    2^|mask| sub-worlds (pext(x, mask)): those ranks broadcast along the
    bits off mask."""
    shape = [2 if mask >> b & 1 else 1 for b in reversed(range(k))]
    ranks = np.empty((2,) * k, dtype=np.int64)
    ranks[...] = np.arange(1 << mask.bit_count(), dtype=np.int64).reshape(shape)
    return ranks.reshape(-1)


def _on_cube(cands, columns, table, n, cube, out) -> None:
    """_fill for columns whose formulas depend on no variable off cube,
    computed on the r = |cube| bits of cube.

    Each column's truth table is read at the 2^r sub-worlds (the bits
    off cube held at 0) and filled there under the window table
    table'[h] = min(table[h .. h + n - r]), the best count of a target
    that also matches the candidate off cube. Each candidate then reads
    its sub-world, found through two half-width rank tables, in chunks
    of CELLS candidates."""
    r, h = cube.bit_count(), n // 2
    held = tuple(slice(None) if cube >> b & 1 else 0 for b in reversed(range(n)))
    sub = [
        (k, np.asarray(t).reshape((2,) * n)[held].reshape(-1), count >> (n - r))
        for k, (_, t, count) in enumerate(columns)
    ]
    counts = table.tolist()
    window = [min(counts[c : c + n - r + 1]) for c in range(r + 1)]
    monotone = all(a <= b for a, b in zip(window, window[1:]))
    values = np.empty((1 << r, len(sub)), dtype=np.int64, order="F")
    window = np.array(window, dtype=np.int64)
    _fill(np.arange(1 << r, dtype=np.int64), sub, window, r, monotone, values)
    low_mask = (1 << h) - 1
    low = _ranks(cube & low_mask, h)
    high = _ranks(cube >> h, n - h) << (cube & low_mask).bit_count()
    for lo in range(0, cands.shape[0], CELLS):
        part = cands[lo : lo + CELLS]
        rank = np.take(high, part >> h)
        rank |= np.take(low, part & low_mask)
        for k, (j, _, _) in enumerate(columns):
            np.take(values[:, k], rank, out=out[lo : lo + CELLS, j])


def min_mapped_matrix(
    cands: np.ndarray,
    tables: Sequence[np.ndarray],
    table: np.ndarray,
    n: int,
    supports: Sequence[int] | None = None,
) -> np.ndarray:
    """(len(cands), len(tables)) column-major int64 matrix of the minimum of
    table[popcount(c ^ t)] over the worlds t where tables[j] holds, per
    candidate c and column j. Bitmasks lie below 2^n, truth tables have
    2^n entries, table covers the counts 0..n; an all-false one raises.

    supports[j] is a bitmask of the variables tables[j] may depend on
    (all n when supports is None). A column runs on its support's cube
    where _cost, plus a gather per candidate and _CUBE_OVERHEAD, says
    that is cheaper than the whole cube; columns on one cube share it."""
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.int64)
    out = np.empty((cands.shape[0], len(tables)), dtype=np.int64, order="F")
    flat = len(set(table[1:].tolist())) <= 1
    whole = (1 << n) - 1
    cubes: dict[int, list] = {}
    for j, targets in enumerate(tables):
        count = int(np.count_nonzero(targets))
        if count == 0:
            raise UnsatisfiableFormulaError("distance to an unsatisfiable formula is undefined")
        if flat:  # 0 exactly on a target, the one positive value elsewhere
            np.multiply(~targets[cands], table[-1], out=out[:, j])
            continue
        cube = whole if supports is None else supports[j]
        # a gather per candidate and a fixed cost buy the smaller cube
        spare = _cost(cands.shape[0], count, n) - cands.shape[0] - _CUBE_OVERHEAD
        r = cube.bit_count()
        if spare <= 0 or _cost(1 << r, count >> (n - r), r) >= spare:
            cube = whole
        cubes.setdefault(cube, []).append((j, targets, count))
    for cube, columns in cubes.items():
        if cube == whole:
            monotone = bool((table[1:] >= table[:-1]).all())
            _fill(cands, columns, table, n, monotone, out)
        else:
            _on_cube(cands, columns, table, n, cube, out)
    return out
