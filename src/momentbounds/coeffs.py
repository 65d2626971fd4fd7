"""Coefficient vectors and their basic services.

Everything downstream works with the nonincreasing rearrangement of the
absolute coefficients and with the split of a rearranged vector into the
few largest entries (the *head*, 1-based indices i < ceil(p/2)) and the
remainder (the *tail*, indices i >= ceil(p/2)).  Contracts are stated
1-based; storage is an ordinary 0-based tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "CoefficientVector",
    "half_ceil",
    "head_count_below",
    "strict_head",
    "rearrange",
    "norm",
    "head_tail_split",
]


@dataclass(frozen=True, init=False)
class CoefficientVector:
    """A finite real weight sequence.

    Entries must be finite (no NaN/inf).  The empty vector is permitted so
    that the head of a p <= 2 split stays representable; sums over an empty
    vector are 0 and every norm of it is 0.
    """

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        vals = tuple(float(x) for x in values)
        for i, x in enumerate(vals):
            if not math.isfinite(x):
                raise ValueError(f"coefficient {i} is not finite: {x!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def is_rearranged(self) -> bool:
        """True when |a_1| >= |a_2| >= ... >= |a_n|."""
        a = self.values
        return all(abs(a[i]) >= abs(a[i + 1]) for i in range(len(a) - 1))


def half_ceil(p: float) -> int:
    """ceil(p/2) computed exactly.

    Halving a normal float changes only its exponent, so p / 2 is exact and
    half-integer p cannot drift across an integer.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    return math.ceil(p / 2)


def head_count_below(p: float, n: int) -> int:
    """Number of 1-based indices i with i < p, clamped to [0, n].

    Used for the strict head ``i < p`` of the log-concave bound: the
    integers i < p are 1, ..., ceil(p) - 1 for integer and non-integer p
    alike.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    return max(0, min(math.ceil(p) - 1, n))


def rearrange(v: CoefficientVector) -> CoefficientVector:
    """Nonincreasing rearrangement of the absolute coefficients.

    Ties are broken by original index (stable), which pins a unique output
    for reproducibility; no computed quantity depends on the tie order.
    """
    absvals = [abs(x) for x in v.values]
    order = sorted(range(len(absvals)), key=lambda i: (-absvals[i], i))
    return CoefficientVector(absvals[i] for i in order)


def norm(v: CoefficientVector, q: float) -> float:
    """l_q norm for q = 2 or inf, the orders the bounds use; the empty
    vector has norm 0."""
    if q not in (2, math.inf):
        raise ValueError(f"q must be 2 or inf, got {q!r}")
    if len(v) == 0:
        return 0.0
    a = np.abs(v.as_array())
    if q == math.inf:
        return float(a.max())
    return _l2_rows(a[None, :])[0]


def _l2_rows(a: np.ndarray) -> list[float]:
    """The l2 norm of each row of a (rows, n) array of absolute values.

    Each row is scaled by the power of two of its largest entry; that is
    exact, so in-range results keep every bit while squares of tiny or huge
    entries neither underflow nor overflow.  A row gets the same bits in
    any batch; OverflowError when a norm exceeds the float range.
    """
    e = np.frexp(a.max(axis=1, initial=0.0))[1]
    s = np.ldexp(a, -e[:, None])
    return list(map(math.ldexp, np.sqrt((s * s).sum(axis=1)).tolist(), e.tolist()))


def head_tail_split(v: CoefficientVector, p: float) -> tuple[CoefficientVector, CoefficientVector]:
    """Split a rearranged vector at m = ceil(p/2), 1-based.

    head holds indices i < m (possibly empty), tail indices i >= m.
    Requires p >= 2 and a rearranged input.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p!r}")
    if not v.is_rearranged():
        raise ValueError("head_tail_split requires a rearranged vector")
    m = half_ceil(p)
    cut = min(m - 1, len(v))
    return CoefficientVector(v.values[:cut]), CoefficientVector(v.values[cut:])


def strict_head(v: CoefficientVector, p: float) -> CoefficientVector:
    """The entries i < p (1-based) of a rearranged vector: the head of the
    log-concave bound, possibly empty."""
    if not v.is_rearranged():
        raise ValueError("strict_head requires a rearranged vector")
    return CoefficientVector(v.values[: head_count_below(p, len(v))])
