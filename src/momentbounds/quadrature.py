"""Adaptive quadrature with hard failure on non-convergence.

Thin wrapper around QUADPACK (scipy.integrate.quad) at relative tolerance
1e-12.  A blown subdivision cap or any other failure flag raises
QuadratureError instead of returning a possibly-degraded value; callers
never get a silently bad integral.
"""

from __future__ import annotations

from typing import Callable

from scipy import integrate

from .errors import QuadratureError

__all__ = ["integrate_adaptive"]

DEFAULT_SUBDIVISION_CAP = 200


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    epsabs: float = 0.0,
    limit: int = DEFAULT_SUBDIVISION_CAP,
) -> tuple[float, float]:
    """Integrate f over [a, b] to relative 1e-12 or absolute epsabs,
    whichever is looser; b may be +inf.  Returns the value and QUADPACK's
    estimate of its absolute error.  Raises QuadratureError when QUADPACK
    signals non-convergence or the subdivision cap overflows.
    """
    result = integrate.quad(f, a, b, epsrel=1e-12, epsabs=epsabs, limit=limit, full_output=1)
    if len(result) > 3:
        # full_output packs an explanation string only on failure
        message = result[3] if isinstance(result[3], str) else "quadrature failed"
        raise QuadratureError(
            f"adaptive quadrature on [{a!r}, {b!r}] did not converge "
            f"(cap {limit} subintervals): {message.splitlines()[0]}"
        )
    return float(result[0]), float(result[1])
