"""Bracketed scalar root search with geometric bracket expansion."""

import numpy as np
from scipy import optimize

from .errors import RootFindError


def bracketed_root(f, lo=1e-10, hi=1e10, max_expand=30, context=""):
    """Root of ``f`` on (0, inf) located by bracketing and bisection refinement.

    The initial bracket [lo, hi] is expanded geometrically (lo /= 10,
    hi *= 10) until the endpoint values change sign.  Raises RootFindError
    when no sign change appears after ``max_expand`` expansions.

    ``f``, and every array it reaches, is released when this returns:
    brentq wraps its function in a closure that refers to itself, which
    would keep them alive until the next garbage collection, so brentq
    gets a one-slot holder that is emptied on the way out.
    """
    slot = [f]
    del f

    def call(x):
        return slot[0](x)

    try:
        flo, fhi = call(lo), call(hi)
        for _ in range(max_expand):
            if np.isfinite(flo) and np.isfinite(fhi) and flo * fhi < 0:
                break
            lo, hi = lo / 10.0, hi * 10.0
            flo, fhi = call(lo), call(hi)
        else:
            raise RootFindError(
                f"no sign change in [{lo:.3e}, {hi:.3e}] "
                f"(f(lo)={flo:.6e}, f(hi)={fhi:.6e}){': ' + context if context else ''}"
            )
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        return float(optimize.brentq(call, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300))
    finally:
        slot.clear()
