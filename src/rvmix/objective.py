"""Negative log-posterior of the hyperparameters, with both prior branches.

Two families of evaluators live here:

* ``neg_log_posterior_enet`` / ``neg_log_posterior_mxn`` - the true
  objective used as the convergence monitor.  The determinant piece is
  the combined form log det(I + (1/beta) diag(lam) K^T K) from the
  posterior module, which stays finite when prior variances hit zero.
  Every column is evaluated at once, and the breakdown keeps each
  column's total, which the solvers' per-column stop test uses.

* ``aux_objective_enet`` / ``aux_objective_mxn`` - the coordinate-descent
  auxiliary in which the posterior moments (mu, diag Sigma) are frozen.
  Each closed-form hyperparameter update is an exact stationary point of
  this auxiliary along its own coordinate, and the auxiliary majorizes
  the true objective, which is what makes the outer iteration descend.
  These are the stationarity oracles used by the tests.

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

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .posterior import _rows, _rowwise, posterior_moments
from .special import gamma_half_log_tail


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Additive pieces of the hyperparameter negative log-posterior.

    data_fit        : sum_t ||v_t - K mu_t||^2 / (2 beta_t)
    logdet          : combined determinant term including (N/2) log beta_t
    prior_quadratic : sum_t mu_t' diag(lam_t)^{-1} mu_t / 2
    hyperprior      : -log p(hyperparameters), branch dependent
    columns         : (T,) total of each column, when the evaluator kept it
    """

    data_fit: float
    logdet: float
    prior_quadratic: float
    hyperprior: float
    columns: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def total(self):
        return self.data_fit + self.logdet + self.prior_quadratic + self.hyperprior


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


def _breakdown(data, svd, mu, lam_bar, scale, beta, logdet_terms, hyperprior):
    """The ObjectiveBreakdown of all columns, from (S, T) mu and lam_bar,
    scale = 2*alpha and beta per column, the posterior's logdet_terms at
    lam_bar / scale (None computes them) and the branch's (T,) hyperprior.
    """
    if logdet_terms is None:
        logdet_terms = posterior_moments(svd, lam_bar / scale, beta, data.V).logdet_term
    elif len(logdet_terms) != data.n_times:
        raise DomainError(f"logdet_terms must have length {data.n_times}")
    V, mu, lb = _rows(data.V), _rows(mu), _rows(lam_bar)
    resid = V - _rowwise(data.K, mu)
    ratio = np.divide(mu * mu, lb, out=np.zeros_like(mu), where=lb > 0.0)
    parts = (np.sum(resid * resid, axis=1) / (2.0 * beta),
             0.5 * np.asarray(logdet_terms, dtype=float) + 0.5 * data.n_sensors * np.log(beta),
             0.5 * scale * np.sum(ratio, axis=1),
             hyperprior)
    return ObjectiveBreakdown(*(float(np.sum(part)) for part in parts), columns=sum(parts))


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


def neg_log_posterior_enet(data, svd, mu, lambda_bar, alpha1, k, beta, tau, nu,
                           logdet_terms=None):
    """Hyperparameter negative log-posterior, Normal/Laplace (elastic-net) branch.

    Parameters
    ----------
    data : ProblemData
    svd : LeadFieldSVD of data.K
    mu : (S, T) current posterior means
    lambda_bar : (S, T) unit-interval variance factors, entries in [0, 1)
    alpha1, k, beta : scalars or (T,) vectors (variance scale, truncation
        coefficient, noise variance per column)
    tau, nu : Gamma prior parameters of the truncation coefficient
    logdet_terms : optional (T,) PosteriorMoments logdet_term of the
        columns at lambda_bar / (2 alpha1) and beta.  None computes them
        here with posterior_moments.
    """
    lb = _check_lambda_bar(lambda_bar)
    t_count = data.n_times
    a1 = _as_t_vector(alpha1, t_count, "alpha1")
    kv = _as_t_vector(k, t_count, "k")
    bv = _as_t_vector(beta, t_count, "beta")
    if np.any(a1 <= 0) or np.any(bv <= 0) or np.any(kv < 0):
        raise DomainError("alpha1 and beta must be positive, k nonnegative")
    return _breakdown(data, svd, mu, lb, 2.0 * a1, bv, logdet_terms,
                      _enet_hyperprior(_rows(lb), kv, tau, nu))


def _mxn_hyperprior(lam_bar, delta, alpha):
    """-log p(hyperparameters) of every column, mixed-norm branch.

    lam_bar and delta are (T, S), one column per row.  The (S/2) log alpha
    terms from the gamma substitution and from the coupling-prior
    normalization cancel exactly and are omitted together.
    """
    d = np.asarray(delta, dtype=float)
    if np.any(d < 0):
        raise DomainError("delta must be nonnegative")
    trunc = alpha * d * d
    tail_part = np.sum(gamma_half_log_tail(trunc), axis=-1)
    one_m = 1.0 - lam_bar
    gamma_part = np.sum(trunc / one_m, axis=-1)
    # log(1) = 0 stands in for the coordinates with zero coupling
    log_part = np.sum(0.5 * np.log(np.where(d > 0.0, d * d / one_m, 1.0)), axis=-1)
    coupling = alpha * np.sum(np.abs(w_inverse_apply(d)), axis=-1) ** 2
    return tail_part + gamma_part + log_part + coupling


def neg_log_posterior_mxn(data, svd, mu, lambda_bar, delta, alpha, beta, logdet_terms=None):
    """Hyperparameter negative log-posterior, mixed-norm (elitist) branch.

    delta is the (S, T) matrix of coupling magnitudes; alpha is the single
    global scale shared by every column.  logdet_terms are as for
    neg_log_posterior_enet, at lambda_bar / (2 alpha).
    """
    lb = _check_lambda_bar(lambda_bar)
    if alpha <= 0 or not np.isfinite(alpha):
        raise DomainError("alpha must be positive")
    bv = _as_t_vector(beta, data.n_times, "beta")
    if np.any(bv <= 0):
        raise DomainError("beta must be positive")
    return _breakdown(data, svd, mu, lb, 2.0 * alpha, bv, logdet_terms,
                      _mxn_hyperprior(_rows(lb), _rows(delta), alpha))


def _aux_frozen_part(mu, sigma_diag, lam_bar, alpha):
    """alpha sum (mu^2 + sigma) / lambda_bar + (1/2) sum log lambda_bar
    - (size/2) log(2 alpha): the part of both auxiliaries that holds the
    frozen moments, for one column or an (S, T) map.  Returns it with the
    (T, S) rows of lambda_bar, which must lie strictly inside (0, 1)."""
    mu, sig, lb = (_rows(x) for x in (mu, sigma_diag, lam_bar))
    if np.any(lb <= 0) or np.any(lb >= 1):
        raise DomainError("auxiliary objective needs lambda_bar strictly inside (0, 1)")
    part = (alpha * float(np.sum((mu * mu + sig) / lb))
            + 0.5 * float(np.sum(np.log(lb)))
            - 0.5 * lb.size * np.log(2.0 * alpha))
    return part, lb


def aux_objective_enet(mu_col, sigma_diag_col, lam_bar_col, alpha1, k, tau, nu):
    """Frozen-moments auxiliary for one column, Normal/Laplace branch.

    With (mu, diag Sigma) held at their current values this is, up to
    terms constant in (lambda_bar, alpha1, k), an upper bound of the true
    objective that touches it at the current state.  The closed-form
    updates are exact stationary points of this function along their own
    coordinates.  Requires lambda_bar strictly inside (0, 1).
    """
    if alpha1 <= 0 or k <= 0:
        raise DomainError("alpha1 and k must be positive")
    part, lb = _aux_frozen_part(mu_col, sigma_diag_col, lam_bar_col, alpha1)
    return part + float(_enet_hyperprior(lb, np.array([k], dtype=float), tau, nu)[0])


def aux_objective_mxn(mu, sigma_diag, lam_bar, delta, alpha):
    """Frozen-moments auxiliary over the whole map, mixed-norm branch.

    Same construction as the elastic-net auxiliary; the single alpha
    couples all columns, so the auxiliary is evaluated over the full
    spatio-temporal state.  A 1-D argument is one column.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    part, lb = _aux_frozen_part(mu, sigma_diag, lam_bar, alpha)
    return part + float(np.sum(_mxn_hyperprior(lb, _rows(delta), alpha)))
