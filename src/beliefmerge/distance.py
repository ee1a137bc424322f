"""Model/model, model/formula and model/profile distances.

Every supported distance factors through the Hamming count of differing
bits: drastic collapses it to {0, 1}, plain Hamming keeps it, and a
remap table sends each count to an arbitrary value (subject to 0 -> 0
and k > 0 -> positive, which preserve d(I, I) = 0 and d(I, J) > 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DistanceTableError,
    UniverseMismatchError,
    UnsatisfiableFormulaError,
)
from .formulae import (
    DEFAULT_MAX_VARS,
    Formula,
    Model,
    evaluate,
    models_bits,
)


@dataclass(frozen=True)
class DistanceKind:
    """One of drastic, hamming, or a remap table over Hamming counts.

    ``pairs`` lists (count, value) with strictly increasing counts;
    ``default`` applies to counts above the last key (None = undefined,
    an error if such a count comes up).
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
        pairs = tuple((int(k), int(v)) for k, v in pairs)
        if not pairs or pairs[0] != (0, 0):
            raise DistanceTableError("table must start with the pair [0, 0]")
        last = -1
        for k, v in pairs:
            if k <= last:
                raise DistanceTableError("table keys must be strictly increasing")
            last = k
            if k > 0 and v <= 0:
                raise DistanceTableError(f"table value for count {k} must be positive")
        if default is not None and default <= 0:
            raise DistanceTableError("table default must be positive")
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

    def __str__(self) -> str:
        if self.name != "table":
            return self.name
        body = ",".join(f"{k}:{v}" for k, v in self.pairs)
        tail = f",*:{self.default}" if self.default is not None else ""
        return f"table[{body}{tail}]"


def model_distance(kind: DistanceKind, i: Model, j: Model) -> int:
    if i.universe != j.universe:
        raise UniverseMismatchError("models belong to different universes")
    return kind.mapped((i.bits ^ j.bits).bit_count())


def distances_to_bits(
    kind: DistanceKind,
    cand_bits: np.ndarray,
    target_bits: np.ndarray,
    n: int,
) -> np.ndarray:
    """Distance from each candidate bitmask to the formula given by its
    satisfying bitmasks; raises on an empty target set."""
    if target_bits.shape[0] == 0:
        raise UnsatisfiableFormulaError(
            "distance to an unsatisfiable formula is undefined"
        )
    return _kernels.min_mapped_distance(cand_bits, target_bits, kind.table_array(n), n)


def formula_distance(
    kind: DistanceKind,
    i: Model,
    f: Formula,
    max_vars: int = DEFAULT_MAX_VARS,
) -> int:
    """min over J |= f of model_distance(kind, i, J); 0 iff i |= f."""
    bits = models_bits(f, i.universe, max_vars)
    cand = np.array([i.bits], dtype=np.int64)
    return int(distances_to_bits(kind, cand, bits, i.universe.n)[0])


def profile_distance_vector(
    kind: DistanceKind,
    i: Model,
    profile,
    max_vars: int = DEFAULT_MAX_VARS,
) -> tuple[int, ...]:
    return tuple(formula_distance(kind, i, f, max_vars) for f in profile)


def subsat(i: Model, profile) -> frozenset[int]:
    """0-based indices of the profile entries satisfied by i."""
    return frozenset(idx for idx, f in enumerate(profile) if evaluate(f, i))
