"""Safeguarded Newton root search on (0, inf), elementwise over arrays."""

import numpy as np

from .errors import RootFindError

#: a point whose |f| is at most this times the sum of the magnitudes of
#: f's terms is within the rounding noise of that sum, so it is a root
NOISE_BOUND = 16.0 * np.finfo(float).eps

#: the ends of the search range: the normal floats short of the largest,
#: which has no ulp above it
_TINY, _HUGE = np.finfo(float).tiny, np.nextafter(np.finfo(float).max, 0.0)


def bracketed_root(fdf, x0, context=""):
    """One root of ``f`` on (0, inf) per element of ``x0``, all searched at once.

    ``fdf(x, rows)`` gives ``(f, f', scale)`` at ``x`` for the elements
    ``rows`` (an index array) in one evaluation, where ``scale`` is the
    sum of the magnitudes of the terms that make up ``f``.  The contract:
    each element's ``f`` is negative below its root and positive above it.

    Newton steps start from ``x0``, and the sign of ``f`` at each point
    tightens the element's bracket, which starts as (0, inf).  A Newton
    step is taken when it lands strictly inside the bracket (so an
    infinite slope gives none) and is at most half the element's previous
    step.  Otherwise the point moves toward an open end of the bracket,
    or else to the bracket's geometric midpoint.  Toward infinity it
    moves tenfold or by squaring, whichever goes further.  Toward zero it
    moves at least tenfold and at most by squaring, and in between to
    where Newton's step in 1/x, x / (1 + f / (x f')), lands: that step
    stays in (0, x) and is exact where f runs like c - a/x, so the point
    does not square past a root deep below it.  An element stops at a
    point whose ``|f|`` is at most NOISE_BOUND times ``scale``, below
    which the sign of ``f`` is rounding noise, or once its step is within
    two ulps.  Elements never mix, so each root is, to the bit, the one
    its element gets alone.

    Returns an array shaped like ``x0``, or a float for a scalar.  Raises
    one RootFindError, naming the first failing element in ``column``
    (None for a scalar ``x0``), when an element's ``f`` keeps one sign out
    to the end of the float range or the element does not stop within
    100 steps.
    """
    prefix = f"{context}: " if context else ""
    named = np.ndim(x0) > 0
    x = np.array(x0, dtype=float, ndmin=1)
    lo, hi = np.zeros(x.shape), np.full(x.shape, np.inf)
    last = np.full(x.shape, np.inf)
    act = np.arange(x.size)
    for _ in range(100):
        xa = x[act]
        fx, dfx, scale = fdf(xa, act)
        below = fx < 0.0
        lo[act[below]], hi[act[~below]] = xa[below], xa[~below]
        la, ha = lo[act], hi[act]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            newton = xa - fx / dfx
            inverse = xa / (1.0 + fx / (xa * dfx))  # Newton's step in 1/x
            inverse = np.where((0.0 < inverse) & (inverse < xa), inverse, 0.0)
            toward = np.where(ha == np.inf, np.maximum(10.0 * xa, xa * xa),
                              np.where(la == 0.0,
                                       np.minimum(xa / 10.0, np.maximum(xa * xa, inverse)),
                                       np.sqrt(la) * np.sqrt(ha)))
        take = (la < newton) & (newton < ha) & (np.abs(newton - xa) <= 0.5 * last[act])
        new = np.clip(np.where(take, newton, toward), _TINY, _HUGE)
        noise = np.abs(fx) <= NOISE_BOUND * scale
        new[noise] = xa[noise]
        # an element at an end of the float range that cannot move on
        out = np.flatnonzero(~noise & (new == xa) & ((xa == _TINY) | (xa == _HUGE)))
        if out.size:
            j = int(act[out[0]])
            raise RootFindError(f"{prefix}no sign change in (0, inf): f stays "
                                f"{'negative' if below[out[0]] else 'positive'} out to "
                                f"{xa[out[0]]:.3e} (f={fx[out[0]]:.6e})",
                                column=j if named else None)
        x[act], last[act] = new, np.abs(new - xa)
        act = act[last[act] > 2.0 * np.spacing(xa)]
        if not act.size:
            return x if named else float(x[0])
    j = int(act[0])
    raise RootFindError(f"{prefix}no convergence in 100 steps "
                        f"(bracket [{lo[j]:.17e}, {hi[j]:.17e}])",
                        column=j if named else None)
