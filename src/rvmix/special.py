"""Special functions for the truncated-Gamma / Normal-Laplace prior family.

Everything here reduces to shape-1/2, scale-1 Gamma quantities and the
(scaled) complementary error function.  The hazard ratio and the
Normal/Laplace normalization are written in cancellation-free form via
``erfcx`` so they stay accurate far into the tail, which is what the
hyperparameter root searches rely on.
"""

import numpy as np
from scipy import special as sp

from .errors import DomainError, NumericError

SQRT_PI = np.sqrt(np.pi)


def _as_float_array(x, name, allow_zero=True):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0) or not allow_zero and np.any(arr == 0):
        raise DomainError(f"{name} must be {'>=' if allow_zero else '>'} 0")
    return arr


def gamma_half_tail(k):
    """Upper tail mass of the Gamma(1/2, 1) density beyond ``k``.

    Equals erfc(sqrt(k)); strictly decreasing, 1 at k=0, positive for all
    finite k (no underflow to zero for k <= ~700).
    """
    arr = _as_float_array(k, "k")
    out = sp.erfc(np.sqrt(arr))
    return float(out) if np.isscalar(k) or np.ndim(k) == 0 else out


def gamma_half_log_tail(k):
    """log of gamma_half_tail, stable far into the tail (no erfc underflow).

    Uses log erfc(sqrt(k)) = -k + log erfcx(sqrt(k)).
    """
    arr = _as_float_array(k, "k")
    out = -arr + np.log(sp.erfcx(np.sqrt(arr)))
    return float(out) if np.isscalar(k) or np.ndim(k) == 0 else out


def gamma_half_hazard(k):
    """Ratio Gamma(1/2,1) density over its own upper tail at ``k`` > 0.

    Computed as 1 / (sqrt(pi) * sqrt(k) * erfcx(sqrt(k))), which avoids the
    exp(-k)/erfc(sqrt(k)) cancellation and stays accurate for k up to 1e8
    and beyond.  Diverges like 1/sqrt(pi*k) as k -> 0+ and tends to 1 from
    above as k -> inf.
    """
    arr = _as_float_array(k, "k", allow_zero=False)
    root = np.sqrt(arr)
    out = 1.0 / (SQRT_PI * root * sp.erfcx(root))
    return float(out) if np.isscalar(k) or np.ndim(k) == 0 else out


def tgamma_half_pdf(gamma, k):
    """Density of the Gamma(1/2, 1) distribution truncated to (k, inf)."""
    karr = _as_float_array(k, "k")
    g = np.asarray(gamma, dtype=float)
    tail = sp.erfc(np.sqrt(karr))
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(g > karr, np.exp(-g) / (np.sqrt(np.abs(g)) * SQRT_PI * tail), 0.0)
    out = np.where(g > karr, dens, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def normal_laplace_log_z(alpha1, alpha2):
    """Log normalization of exp(-alpha1*x**2 - alpha2*|x|) over the real line.

    Closed form sqrt(pi/alpha1) * exp(k) * erfc(sqrt(k)) with
    k = alpha2**2 / (4*alpha1), evaluated through erfcx so the exp(k)
    overflow never materializes.
    """
    a1 = _as_float_array(alpha1, "alpha1", allow_zero=False)
    a2 = _as_float_array(alpha2, "alpha2")
    k = a2 * a2 / (4.0 * a1)
    out = 0.5 * np.log(np.pi / a1) + np.log(sp.erfcx(np.sqrt(k)))
    return float(out) if np.ndim(out) == 0 else out


def truncation_coefficient(alpha1, alpha2):
    """Lower truncation limit alpha2**2 / (4*alpha1) of the mixing density."""
    a1 = _as_float_array(alpha1, "alpha1", allow_zero=False)
    a2 = _as_float_array(alpha2, "alpha2")
    out = a2 * a2 / (4.0 * a1)
    return float(out) if np.ndim(out) == 0 else out


def scale_mixture_density(x, alpha1, k):
    """Gaussian scale mixture with truncated-Gamma mixing, by quadrature.

    Evaluates  integral over gamma in (k, inf) of
    N(x | 0, (1/(2*alpha1))*(1 - k/gamma)) * TGa(gamma | 1/2, 1, (k, inf)).

    This is an independent oracle used to verify that the mixture equals
    the normalized Normal/Laplace density; it is never on a solver path.
    The change of variable gamma = k + u**2 removes the inverse-sqrt
    endpoint singularity before the adaptive rule is applied.  u runs over
    [0, sqrt(50)] whatever k: the mixing density holds
    erfc(sqrt(k + 50)) / erfc(sqrt(k)) <= e**-50 of its mass beyond.
    """
    # imported here, not at the top: scipy.integrate pulls in scipy.optimize,
    # scipy.sparse and more, which no solver path needs and every
    # ``import rvmix`` would otherwise pay for
    from scipy import integrate

    a1 = float(_as_float_array(alpha1, "alpha1", allow_zero=False))
    kk = float(_as_float_array(k, "k"))
    xx = float(x)
    # exp(-gamma)/tail(k) = exp(-u**2)/erfcx(sqrt(k)) with gamma = k + u**2:
    # both factors stay in range even for k in the hundreds.
    inv_erfcx = 1.0 / sp.erfcx(np.sqrt(kk))

    def integrand(u):
        g = kk + u * u
        if g <= 0.0:
            return 0.0
        lam = u * u / (2.0 * a1 * g)  # (1 - k/g)/(2 alpha1) without the cancellation
        if lam <= 0.0:
            return 0.0
        tga = np.exp(-u * u) * inv_erfcx / (np.sqrt(g) * SQRT_PI)
        gauss = np.exp(-xx * xx / (2.0 * lam)) / np.sqrt(2.0 * np.pi * lam)
        return gauss * tga * 2.0 * u

    upper = np.sqrt(50.0)
    # The integrand changes on scales far below the O(1) decay of exp(-u**2):
    # the variance factor 1 - k/gamma rises from 0 around u = sqrt(k), and the
    # Gaussian factor switches on where that variance reaches x**2.  Bisecting
    # [0, upper] does not resolve features that narrow (the rule stalls on
    # roundoff and misses their mass), so the interval is split at both scales
    # and at every decade from the smaller one up to 1.  Below u = 1e-15 the
    # integrand, which is bounded, holds no mass that matters.
    scales = [np.sqrt(kk)]
    r = 2.0 * a1 * xx * xx
    if r < 1.0:
        scales.append(np.sqrt(r * kk / (1.0 - r)))
    smallest = min((b for b in scales if b > 0.0), default=1.0)
    scales += list(10.0 ** np.arange(np.floor(np.log10(max(smallest, 1e-15))), 0.0))
    points = sorted({b for b in scales if 1e-15 < b < upper}) or None
    val, abserr = integrate.quad(integrand, 0.0, upper, points=points,
                                 limit=200, epsabs=1e-13, epsrel=1e-12)
    if not np.isfinite(val):
        raise NumericError("scale mixture quadrature produced a non-finite value")
    return val
