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

A non-decreasing table (Hamming) is read with one lookup per candidate,
at its nearest count, as min and a monotone map commute: the pairwise
block's uint8 row minimum, or the sweep set's lowest bit.

The matrix is column-major: the kernel fills it a column at a time, and
every later column reduction reads contiguous memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import UnsatisfiableFormulaError

_CHUNK = 4096  # pairwise path materializes a CHUNK x len(targets) block
_SWEEP_OVERHEAD = 2048  # measured fixed cost of one sweep pass, in element operations
_CUBE_CELLS = 1 << 20  # per sweep batch: one column at a time from n = 20 on


def _min_mapped_numpy(
    cands: np.ndarray, targets: np.ndarray, table: np.ndarray, monotone: bool
) -> np.ndarray:
    out = np.empty(cands.shape[0], dtype=np.int64)
    for lo in range(0, cands.shape[0], _CHUNK):
        counts = np.bitwise_count(cands[lo : lo + _CHUNK, None] ^ targets[None, :])
        if monotone:
            out[lo : lo + _CHUNK] = table[counts.min(axis=1)]
        else:
            out[lo : lo + _CHUNK] = table[counts].min(axis=1)
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


def min_mapped_matrix(
    cands: np.ndarray, tables: Sequence[np.ndarray], table: np.ndarray, n: int
) -> np.ndarray:
    """(len(cands), len(tables)) column-major int64 matrix of the minimum of
    table[popcount(c ^ t)] over the worlds t where tables[j] holds, per
    candidate c and column j. Bitmasks lie below 2^n, truth tables have
    2^n entries, table covers the counts 0..n; an all-false one raises."""
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.int64)
    out = np.empty((cands.shape[0], len(tables)), dtype=np.int64, order="F")
    flat = len(set(table[1:].tolist())) <= 1
    monotone = bool((table[1:] >= table[:-1]).all())
    sweep = []
    for j, targets in enumerate(tables):
        count = np.count_nonzero(targets)
        if count == 0:
            raise UnsatisfiableFormulaError("distance to an unsatisfiable formula is undefined")
        if flat:  # 0 exactly on a target, the one positive value elsewhere
            np.multiply(~targets[cands], table[-1], out=out[:, j])
        elif cands.shape[0] * count >= n * ((1 << n) + _SWEEP_OVERHEAD):
            sweep.append(j)
        else:
            out[:, j] = _min_mapped_numpy(cands, np.flatnonzero(targets), table, monotone)
    per_batch = max(1, _CUBE_CELLS >> n)
    for lo in range(0, len(sweep), per_batch):
        cols = sweep[lo : lo + per_batch]  # seeded by the truth tables themselves
        sets = _sweep(np.array([tables[j] for j in cols], dtype=np.uint32), n)[:, cands]
        out[:, cols] = _read_sets(sets, table, monotone).T
    return out
