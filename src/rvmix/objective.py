"""Negative log-posterior of the hyperparameters, with both prior branches.

``neg_log_posterior_enet`` / ``neg_log_posterior_mxn`` are the true
objective used as the convergence monitor.  Each takes the posterior it
scores, the PosteriorMoments of the same sweep, and factors nothing
itself.  Each column's value is its negative log evidence,
v'A^{-1}v / 2 + log det(A) / 2 with A = K diag(lam) K' + beta I
(Tipping 2001), which the posterior reads off its own Cholesky factor
(PosteriorMoments.evidence), plus the branch's hyperprior.  At the
posterior mean this equals the familiar form
||v - K mu||^2 / (2 beta) + mu' diag(lam)^{-1} mu / 2
+ log det(I + diag(lam) K'K / beta) / 2 + (N/2) log beta, but it carries
no residual that cancels as the data grow.  Every column is evaluated at
once, and each column's value is returned, which the solvers' per-column
stop test uses.

Values are reported up to additive model constants; the constants dropped
are (documented per branch):

* Gaussian 2*pi factors of likelihood and prior (they cancel against the
  |2*pi*Sigma|^(1/2) factor except for a data-independent term),
* log Gamma(1/2) = log sqrt(pi) per coordinate,
* the normalization of the Gamma prior on the truncation coefficient,
* the alpha-independent part of the coupling-prior normalization; its
  alpha-dependent part, -(S/2) log alpha per column, cancels exactly
  against the (S/2) log alpha arising from the gamma substitution and
  both are therefore omitted together,
* for coordinates with zero coupling (delta_i = 0) the degenerate
  gamma-block contribution is defined as its finite limit, zero.
"""

import numpy as np

from .errors import DomainError, NumericError
from .posterior import _rows
from .special import gamma_half_log_tail


def w_inverse_apply(delta_col):
    """Apply the inverse coupling matrix without materializing it.

    W = ones(S,S) - I has inverse W^{-1} = ones/(S-1) - I, so
    W^{-1} d = (sum(d)/(S-1)) * ones - d.  Requires S >= 2.  A 2-D
    argument is a stack of rows, each of S sources.
    """
    d = np.asarray(delta_col, dtype=float)
    s = d.shape[-1]
    if s < 2:
        raise DomainError("coupling algebra requires at least two sources")
    return np.sum(d, axis=-1, keepdims=True) / (s - 1) - d


def _check_lambda_bar(lam_bar):
    lb = np.asarray(lam_bar, dtype=float)
    if np.any(~np.isfinite(lb)) or np.any(lb < 0):
        raise DomainError("lambda_bar must be finite and nonnegative")
    if np.any(lb >= 1.0):
        raise DomainError("lambda_bar must be strictly below 1 (gamma would be infinite)")
    return lb


def _as_t_vector(x, t, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = np.full(t, float(arr))
    if arr.shape != (t,):
        raise DomainError(f"{name} must be a scalar or a length-{t} vector")
    return arr


def _enet_hyperprior(lam_bar, k, tau, nu):
    """-log p(hyperparameters) of every column, Normal/Laplace branch.

    lam_bar is (T, S), one column per row, and k is (T,).  k == 0 is the
    untruncated limit, where the gamma block and its prior are absent.
    """
    s = lam_bar.shape[-1]
    truncated = k > 0.0
    kk = np.where(truncated, k, 1.0)
    gamma = kk[:, None] / (1.0 - lam_bar)
    gamma_part = np.sum(0.5 * np.log(gamma) + gamma, axis=-1)
    out = s * gamma_half_log_tail(kk) + gamma_part + nu * kk - tau * np.log(kk)
    return np.where(truncated, out, 0.0)


def neg_log_posterior_enet(post, lambda_bar, k, tau, nu):
    """Hyperparameter negative log-posterior of each column, Normal/Laplace
    (elastic-net) branch, as a (T,) array.

    Parameters
    ----------
    post : PosteriorMoments of the columns at prior variances
        lambda_bar / (2 alpha1) and their noise variances
    lambda_bar : (S, T) unit-interval variance factors, entries in [0, 1)
    k : scalar or (T,) truncation coefficient per column
    tau, nu : Gamma prior parameters of the truncation coefficient
    """
    lb = _rows(_check_lambda_bar(lambda_bar))
    kv = _as_t_vector(k, lb.shape[0], "k")
    if np.any(kv < 0):
        raise DomainError("k must be nonnegative")
    return post.evidence + _enet_hyperprior(lb, kv, tau, nu)


def _mxn_hyperprior(lam_bar, delta, alpha):
    """-log p(hyperparameters) of every column, mixed-norm branch.

    lam_bar and delta are (T, S), one column per row.  The (S/2) log alpha
    terms from the gamma substitution and from the coupling-prior
    normalization cancel exactly and are omitted together.
    """
    d = np.asarray(delta, dtype=float)
    if np.any(d < 0):
        raise DomainError("delta must be nonnegative")
    with np.errstate(over="ignore"):
        trunc = alpha * d * d
    bad = np.flatnonzero(~np.all(np.isfinite(trunc), axis=-1))
    if bad.size:
        raise NumericError("objective: alpha * delta**2 overflows; the data's scale is beyond "
                           "the float range", column=int(bad[0]))
    tail_part = np.sum(gamma_half_log_tail(trunc), axis=-1)
    one_m = 1.0 - lam_bar
    gamma_part = np.sum(trunc / one_m, axis=-1)
    # log(1) = 0 stands in for the coordinates with zero coupling; where
    # d * d underflows (d below ~1e-154) its log is taken as 2 log d instead
    dd = d * d
    under = (d > 0.0) & (dd < np.finfo(float).tiny)
    logs = np.log(np.where((d > 0.0) & ~under, dd / one_m, 1.0))
    if np.any(under):
        logs[under] = 2.0 * np.log(d[under]) - np.log(one_m[under])
    log_part = np.sum(0.5 * logs, axis=-1)
    coupling = alpha * np.sum(np.abs(w_inverse_apply(d)), axis=-1) ** 2
    return tail_part + gamma_part + log_part + coupling


def neg_log_posterior_mxn(post, lambda_bar, delta, alpha):
    """Hyperparameter negative log-posterior of each column, mixed-norm
    (elitist) branch, as a (T,) array.

    delta is the (S, T) matrix of coupling magnitudes; alpha is the single
    global scale shared by every column.  post and lambda_bar are as for
    neg_log_posterior_enet, post at prior variances lambda_bar / (2 alpha).
    """
    lb = _check_lambda_bar(lambda_bar)
    if alpha <= 0 or not np.isfinite(alpha):
        raise DomainError("alpha must be positive")
    return post.evidence + _mxn_hyperprior(_rows(lb), _rows(delta), alpha)
