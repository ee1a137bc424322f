"""Distance kinds and the distance from worlds to a formula.

Every supported distance factors through the Hamming count of differing
bits: drastic collapses it to {0, 1}, plain Hamming keeps it, and a
remap table sends each count to an arbitrary value (subject to 0 -> 0
and k > 0 -> positive, which preserve d(I, I) = 0 and d(I, J) > 0).
``distance_matrix`` computes, by one distance-kernel call, the distances
from candidate bitmasks (rows) to formulas given by their truth tables
(columns): ``merge.Instance.distances`` over the mu models and profile.
Given each formula's support (the variables it mentions), d(I, F)
depends only on I's bits there, so the kernel may compute a column on
the support's cube under the window table min(table[h .. h + n - r]),
the best count over the n - r bits the formula leaves free.
``DistanceKind.largest`` bounds every entry, so scoring never scans a
matrix for its maximum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DistanceTableError


@dataclass(frozen=True)
class DistanceKind:
    """One of drastic, hamming, or a remap table over Hamming counts.

    ``pairs`` lists (count, value) with strictly increasing counts;
    ``default`` applies to counts above the last key (None = undefined,
    an error if such a count comes up). Counts and values are integers.
    """

    name: str
    pairs: tuple[tuple[int, int], ...] = ()
    default: int | None = None

    @classmethod
    def drastic(cls) -> "DistanceKind":
        return cls("drastic")

    @classmethod
    def hamming(cls) -> "DistanceKind":
        return cls("hamming")

    @classmethod
    def from_table(cls, pairs, default: int | None = None) -> "DistanceKind":
        """Table kind from (count, value) pairs; every key, value and the
        default must be an integer (TypeError otherwise, floats included),
        and every value and the default must fit in int64."""
        pairs = tuple((operator.index(k), operator.index(v)) for k, v in pairs)
        if not pairs or pairs[0] != (0, 0):
            raise DistanceTableError("table must start with the pair [0, 0]")
        last = -1
        for k, v in pairs:
            if k <= last:
                raise DistanceTableError("table keys must be strictly increasing")
            last = k
            if k > 0 and v <= 0:
                raise DistanceTableError(f"table value for count {k} must be positive")
            if v >= 2**63:
                raise DistanceTableError(f"table value for count {k} must be below 2^63")
        if default is not None:
            default = operator.index(default)
            if default <= 0:
                raise DistanceTableError("table default must be positive")
            if default >= 2**63:
                raise DistanceTableError("table default must be below 2^63")
        return cls("table", pairs, default)

    def mapped(self, count: int) -> int:
        """Value of the distance for a Hamming count."""
        if count < 0:
            raise ValueError("negative Hamming count")
        if self.name == "hamming":
            return count
        if self.name == "drastic":
            return 0 if count == 0 else 1
        for k, v in self.pairs:
            if k == count:
                return v
        if count > self.pairs[-1][0] and self.default is not None:
            return self.default
        raise DistanceTableError(f"table does not cover Hamming count {count}")

    def table_array(self, n: int) -> np.ndarray:
        """Remap vector for counts 0..n, as consumed by the kernels."""
        return np.array([self.mapped(h) for h in range(n + 1)], dtype=np.int64)

    def largest(self, n: int) -> int:
        """The largest value of table_array(n), for n >= 1: no distance
        between worlds of n variables exceeds it."""
        if self.name != "table":
            return n if self.name == "hamming" else 1
        return max(map(self.mapped, range(n + 1)))

    def __str__(self) -> str:
        if self.name != "table":
            return self.name
        body = ",".join(f"{k}:{v}" for k, v in self.pairs)
        tail = f",*:{self.default}" if self.default is not None else ""
        return f"table[{body}{tail}]"


def distance_matrix(
    kind: DistanceKind,
    cand_bits: np.ndarray,
    tables: Sequence[np.ndarray],
    n: int,
    supports: Sequence[int] | None = None,
) -> np.ndarray:
    """int64 matrix of the distance from each candidate bitmask (rows)
    to each formula given by its truth table (columns); raises
    UnsatisfiableFormulaError on an unsatisfiable formula. supports[j],
    when given, is the bitmask of the variables formula j mentions."""
    return _kernels.min_mapped_matrix(cand_bits, tables, kind.table_array(n), n, supports)
