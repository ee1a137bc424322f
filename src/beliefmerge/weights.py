"""Weight vectors and weight schemes.

An explicit scheme keeps its strictly positive rationals as written,
an integral one as an int and only a true rational as a Fraction; it
reads each weight (a CLI token too) once and checks each rule once. All
comparisons the engine makes are homogeneous, so positive-rational
feasibility agrees with the positive-integer convention once
denominators are cleared (integer_witness): a finite scheme expands to
integer vectors, and public witnesses are always reported as integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

WeightVector = tuple[Union[int, Fraction], ...]


def _weight(v) -> int | Fraction:
    """v as an int when integral, else as a Fraction. A string is read
    by int() when that parses, else by Fraction(), with Fraction's errors."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    elif type(v) is int:
        return v
    v = Fraction(v)
    return int(v) if v.denominator == 1 else v


def integer_witness(w: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Clear the denominators of a positive vector of ints and Fractions;
    same argmin set by homogeneity of the scalar product."""
    scale = lcm(*(x.denominator for x in w))
    return tuple(x.numerator * (scale // x.denominator) for x in w)


# --- schemes ---------------------------------------------------------------


@dataclass(frozen=True)
class EqualWeights:
    """W_= : the single all-ones vector."""


@dataclass(frozen=True)
class ExpertWeights:
    """W_a : one source gets weight a, the others 1; which one is open.

    a=None makes the expert overrule all other sources together:
    ``expand_scheme`` sets a from the bound on a distance vector's
    entries. Explicit values must be integers >= 2 (a float or Fraction
    raises TypeError).
    """

    a: int | None = None

    def __post_init__(self):
        if self.a is not None and operator.index(self.a) < 2:
            raise ValueError("expert weight must be at least 2")


@dataclass(frozen=True)
class AllPositiveWeights:
    """W_exists : every strictly positive weight vector (decided by LP)."""


@dataclass(frozen=True)
class ExplicitWeights:
    vectors: tuple[WeightVector, ...]

    def __init__(self, vectors):
        vecs = tuple(tuple(map(_weight, v)) for v in vectors)
        for v in vecs:
            if not v:
                raise ValueError("weight vector must be non-empty")
            for w in v:
                if w <= 0:
                    raise ValueError(f"weights must be strictly positive, got {w}")
        if not vecs:
            raise ValueError("explicit scheme must list at least one vector")
        if len({len(v) for v in vecs}) > 1:
            raise ValueError("explicit scheme vectors must share one length")
        object.__setattr__(self, "vectors", vecs)


WeightScheme = Union[EqualWeights, ExpertWeights, AllPositiveWeights, ExplicitWeights]


def expand_scheme(scheme: WeightScheme, bound: int, m: int) -> list[tuple[int, ...]] | None:
    """Finite integer vector list of a scheme over m sources, or None for
    the symbolic all-positive set. An explicit vector has its
    denominators cleared (``integer_witness``). An expert scheme
    without a weight takes bound * m + 1, where no coordinate of a
    distance vector exceeds bound: the expert then outweighs every other
    source together."""
    if m < 1:
        raise ValueError("profile length must be at least 1")
    match scheme:
        case EqualWeights():
            return [(1,) * m]
        case ExpertWeights(a):
            if a is None:
                a = bound * m + 1
            return [tuple(a if j == i else 1 for j in range(m)) for i in range(m)]
        case ExplicitWeights(vectors):
            if len(vectors[0]) != m:  # the vectors share one length
                raise ValueError(f"scheme vector length {len(vectors[0])} != profile length {m}")
            return [integer_witness(v) for v in vectors]
        case AllPositiveWeights():
            return None
    raise TypeError(f"not a weight scheme: {scheme!r}")


def parse_scheme(text: str) -> WeightScheme:
    """CLI syntax: equal | expert | expert:A | all | list:2,1;1,2"""
    if text == "equal":
        return EqualWeights()
    if text == "all":
        return AllPositiveWeights()
    if text == "expert":
        return ExpertWeights()
    if text.startswith("expert:"):
        return ExpertWeights(int(text.split(":", 1)[1]))
    if text.startswith("list:"):
        tokens = [part.split(",") for part in text.split(":", 1)[1].split(";")]
        if any("" in part for part in tokens):
            raise ValueError(f"empty entry in weight scheme {text!r}")
        try:
            return ExplicitWeights(tokens)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in weight scheme {text!r}") from None
    raise ValueError(f"unrecognized weight scheme {text!r}")


def scheme_to_text(scheme: WeightScheme) -> str:
    match scheme:
        case EqualWeights():
            return "equal"
        case AllPositiveWeights():
            return "all"
        case ExpertWeights(a):
            return "expert" if a is None else f"expert:{a}"
        case ExplicitWeights(vectors):
            return "list:" + ";".join(",".join(str(w) for w in v) for v in vectors)
    raise TypeError(f"not a weight scheme: {scheme!r}")
