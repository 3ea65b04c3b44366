"""Safeguarded Newton root search on (0, inf), elementwise over arrays."""

import numpy as np

from .errors import RootFindError


def bracketed_root(f, slope, x0, context=""):
    """One root of ``f`` on (0, inf) per element of ``x0``, all searched at once.

    ``f(x, rows)`` and ``slope(x, rows)`` give the function and its
    derivative at ``x`` for the elements ``rows`` (an index array).  Each
    element's bracket starts at [1e-10, 1e10] and grows tenfold per side
    until ``f`` changes sign across it.  Newton steps then start from the
    element's ``x0``: every evaluation tightens its bracket, a step that
    would leave the bracket goes to its geometric midpoint instead, and
    the element stops once its step is within two ulps.  Elements never
    mix, so each root is, to the bit, the one its element gets alone.

    Returns an array shaped like ``x0``, or a float for a scalar.  Raises
    one RootFindError, naming the first failing element in ``column``
    (None for a scalar ``x0``), when an element finds no sign change after
    30 expansions or does not stop within 100 steps.
    """
    prefix = f"{context}: " if context else ""
    named = np.ndim(x0) > 0
    x = np.array(x0, dtype=float, ndmin=1)
    lo, hi = np.full(x.shape, 1e-10), np.full(x.shape, 1e10)
    act = np.arange(x.size)
    flo, fhi = f(lo, act), f(hi, act)
    for expansion in range(31):
        act = act[~(np.sign(flo[act]) * np.sign(fhi[act]) < 0.0)]
        if not act.size:
            break
        if expansion == 30:
            j = int(act[0])
            raise RootFindError(f"{prefix}no sign change in [{lo[j]:.3e}, {hi[j]:.3e}] "
                                f"(f(lo)={flo[j]:.6e}, f(hi)={fhi[j]:.6e})",
                                column=j if named else None)
        lo[act], hi[act] = lo[act] / 10.0, hi[act] * 10.0
        flo[act], fhi[act] = f(lo[act], act), f(hi[act], act)
    negative_lo = flo < 0.0
    x = np.where((lo < x) & (x < hi), x, np.sqrt(lo) * np.sqrt(hi))
    act = np.arange(x.size)
    for _ in range(100):
        xa = x[act]
        fx = f(xa, act)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(fx == 0.0, xa, xa - fx / slope(xa, act))
        low = (fx < 0.0) == negative_lo[act]
        lo[act[low]], hi[act[~low]] = xa[low], xa[~low]
        inside = (lo[act] < new) & (new < hi[act]) | (fx == 0.0)
        x[act] = new = np.where(inside, new, np.sqrt(lo[act]) * np.sqrt(hi[act]))
        act = act[np.abs(new - xa) > 2.0 * np.spacing(xa)]
        if not act.size:
            return x if named else float(x[0])
    j = int(act[0])
    raise RootFindError(f"{prefix}no convergence in 100 steps "
                        f"(bracket [{lo[j]:.17e}, {hi[j]:.17e}])",
                        column=j if named else None)
