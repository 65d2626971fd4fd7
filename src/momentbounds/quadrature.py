"""Adaptive quadrature with hard failure on non-convergence.

A globally adaptive 21-point Gauss–Kronrod rule in numpy, at relative
tolerance 1e-12 or an absolute epsabs.  Each panel carries QUADPACK's QK21
error estimate.  The first round takes four equal panels; each later round
bisects together the worst panels, the fewest whose errors cover the excess
over the tolerance.  A round evaluates the integrand once, on the nodes of
all its new panels: f takes a 1-D array of points and returns the array of
its values.  A blown subdivision cap, a panel too narrow to halve or a
non-finite result raises QuadratureError instead of returning a
possibly-degraded value; callers never get a silently bad integral.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["integrate_adaptive"]

DEFAULT_SUBDIVISION_CAP = 200
_EPSREL = 1e-12
_EPS = np.finfo(float).eps
# the panels of the first round: a round costs about as much at four panels
# as at one, and an oscillating integrand skips two rounds of bisection
_FIRST_PANELS = 4

# QUADPACK's QK21 table: the Kronrod nodes in [0, 1) with their weights, and
# the 10-point Gauss weights of the nodes at odd positions (none at 0)
_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_KRONROD = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _mirror(half: tuple[float, ...], sign: float) -> np.ndarray:
    return np.array(half + tuple(sign * x for x in reversed(half[:-1])))


_X = _mirror(_NODES, -1.0)
_WK = _mirror(_KRONROD, 1.0)
_WG = np.zeros(21)
_WG[1:10:2] = _GAUSS
_WG[11:20:2] = _GAUSS[::-1]
# one product gives the Kronrod sum and the Kronrod-minus-Gauss difference
_W = np.stack([_WK, _WK - _WG], axis=1)
_TINY = np.finfo(float).tiny


def _qk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kronrod value of f on each panel [lo, hi] and QUADPACK's estimate
    of its error, from one call of f on every node."""
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _X) + (lo + half)[:, None]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    resk, diff = (fx @ _W).T
    resabs = np.abs(fx) @ _WK
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _WK
    # QUADPACK scales |Kronrod - Gauss| by the spread of f about its mean;
    # a constant f has no spread and leaves the rounding floor, 50 ulps of
    # the integral of |f| (the ratio overflows to inf there, harmlessly)
    with np.errstate(over="ignore"):
        err = resasc * np.minimum(1.0, (200.0 * np.abs(diff) / np.maximum(resasc, _TINY)) ** 1.5)
    return resk * half, np.maximum(err, 50.0 * _EPS * resabs) * np.abs(half)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    epsabs: float = 0.0,
    limit: int = DEFAULT_SUBDIVISION_CAP,
) -> tuple[float, float]:
    """Integrate f over the finite [a, b] to relative 1e-12 or absolute
    epsabs, whichever is looser.  Returns the value and the sum of the
    panels' error estimates.  Raises QuadratureError when more than limit
    panels would be needed, a panel cannot be halved, or the value or its
    error is not finite.
    """
    edges = np.linspace(float(a), float(b), min(_FIRST_PANELS, limit) + 1)
    lo, hi = edges[:-1], edges[1:]
    val, err = _qk21(f, lo, hi)
    while True:
        total, abserr = float(val.sum()), float(err.sum())
        if not math.isfinite(total + abserr):
            raise QuadratureError(f"adaptive quadrature on [{a!r}, {b!r}] produced a non-finite value")
        excess = abserr - max(epsabs, _EPSREL * abs(total))
        if excess <= 0.0:
            return total, abserr
        order = np.argsort(-err)
        k = min(int(np.searchsorted(np.cumsum(err[order]), excess)) + 1, len(val), limit - len(val))
        if k <= 0:
            raise QuadratureError(
                f"adaptive quadrature on [{a!r}, {b!r}] did not converge (cap {limit} subintervals)"
            )
        worst, rest = order[:k], order[k:]
        left, right = lo[worst], hi[worst]
        mid = 0.5 * (left + right)
        if np.any((mid <= left) | (mid >= right)):
            raise QuadratureError(f"adaptive quadrature on [{a!r}, {b!r}] cannot halve a panel")
        new_val, new_err = _qk21(f, np.concatenate([left, mid]), np.concatenate([mid, right]))
        lo = np.concatenate([lo[rest], left, mid])
        hi = np.concatenate([hi[rest], mid, right])
        val = np.concatenate([val[rest], new_val])
        err = np.concatenate([err[rest], new_err])
