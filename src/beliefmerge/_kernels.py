"""Hot loop behind model-set distance computation.

The one kernel that dominates runtime takes every candidate bitmask to
its minimum remapped Hamming distance against a target bitmask array:

    out[i] = min over j of table[popcount(cands[i] ^ targets[j])]

It has two exact paths, chosen by size:

* the hypercube sweep: for every world x of the n-bit cube, the set of
  Hamming counts at which some target lies, in O(n * 2^n) word
  operations; each candidate then reads the best table value off its
  world's set
* pairwise: chunked broadcasting over |cands| x |targets|, cheaper when
  that product is small next to the cube

Both are plain numpy; the choice is made per call from the sizes alone.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096  # pairwise path materializes a CHUNK x len(targets) block
# measured fixed cost of one sweep pass, in element operations
_SWEEP_OVERHEAD = 2048


def _min_mapped_numpy(cands: np.ndarray, targets: np.ndarray, table: np.ndarray) -> np.ndarray:
    out = np.empty(cands.shape[0], dtype=np.int64)
    for lo in range(0, cands.shape[0], _CHUNK):
        block = cands[lo : lo + _CHUNK, None] ^ targets[None, :]
        out[lo : lo + _CHUNK] = table[np.bitwise_count(block)].min(axis=1)
    return out


def _hamming_sets(targets: np.ndarray, n: int) -> np.ndarray:
    """Per world x of the n-bit cube, a mask with bit h set iff some
    target lies at Hamming distance exactly h from x. Counts 0..n fit
    uint32 for n <= 31, far above what enumerating 2^n worlds allows."""
    reach = np.zeros(1 << n, dtype=np.uint32)
    reach[targets] = 1
    size = 1 << max(n - 1, 0)
    from_low, from_high = np.empty(size, reach.dtype), np.empty(size, reach.dtype)
    for k in range(n):
        # R[x] |= R[x ^ 2^k] << 1, with x on both sides of bit k
        pairs = reach.reshape(-1, 2, 1 << k)
        low, high = pairs[:, 0, :], pairs[:, 1, :]
        np.left_shift(low, 1, out=from_low.reshape(low.shape))
        np.left_shift(high, 1, out=from_high.reshape(high.shape))
        low |= from_high.reshape(low.shape)
        high |= from_low.reshape(high.shape)
    return reach


def _min_mapped_sweep(cands: np.ndarray, targets: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    sets = _hamming_sets(targets, n)[cands]
    values = sorted(set(table.tolist()))
    out = np.full(cands.shape[0], values[-1], dtype=np.int64)
    # smallest value last, so it wins wherever its counts are reached
    for v in values[-2::-1]:
        mask = sum(1 << h for h in np.flatnonzero(table == v).tolist())
        out[(sets & mask) != 0] = v
    return out


def min_mapped_distance(
    cands: np.ndarray, targets: np.ndarray, table: np.ndarray, n: int
) -> np.ndarray:
    """Minimum of table[popcount(c ^ t)] over targets, per candidate.

    Every bitmask lies below 2^n and table covers the counts 0..n."""
    if targets.shape[0] == 0:
        raise ValueError("empty target set")
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.int64)
    if cands.shape[0] * targets.shape[0] >= n * ((1 << n) + _SWEEP_OVERHEAD):
        return _min_mapped_sweep(cands, targets, table, n)
    return _min_mapped_numpy(cands, targets, table)
