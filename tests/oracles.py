"""Reference implementations that only the tests call.

* ``posterior_direct`` - the dense O(S^3) posterior, against which the
  sensor-space (N x N) path of ``rvmix.posterior`` is checked.
* ``mu_form_evidence`` - twice the negative log evidence written through
  a mean: at the posterior mean it must equal what the posterior reads
  off its Cholesky factor.
* ``objective_enet`` / ``objective_mxn`` - a problem's hyperparameter
  objective from scratch: its posterior, then the objective of that
  posterior, as the solvers compose them in one sweep.
* ``ring_first_difference`` - the dense (S, S) matrix of the fusion
  penalty's first difference J[r] - J[r+1 mod S] on the ring, which
  ``rvmix.baselines`` applies without forming it.
* ``reconstruct`` - K rebuilt from its rank-truncated SVD, which the
  ridge maps use.
* ``aux_objective_enet`` / ``aux_objective_mxn`` - the coordinate-descent
  auxiliary in which the posterior moments (mu, diag Sigma) are frozen.
  Each closed-form hyperparameter update is an exact stationary point of
  this auxiliary along its own coordinate, and the auxiliary majorizes
  the true objective, which is what makes the outer iteration descend.
"""

import numpy as np

from rvmix.errors import DomainError, NumericError
from rvmix.objective import (
    _enet_hyperprior,
    _mxn_hyperprior,
    neg_log_posterior_enet,
    neg_log_posterior_mxn,
)
from rvmix.posterior import PosteriorMoments, _rows, posterior_moments


def posterior_direct(K, lambda_col, beta, v_col):
    """Dense O(S^3) oracle: invert (1/beta) K^T K + diag(lam)^{-1} directly.

    Zero prior variances are floored at 1e-300 so the inverse exists; for
    small problems only.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    lam = np.maximum(np.asarray(lambda_col, dtype=float), 1e-300)
    v = np.asarray(v_col, dtype=float)
    if np.any(~np.isfinite(lam)):
        raise DomainError("lambda_col must be finite")
    if beta <= 0:
        raise DomainError("beta must be positive")
    prec = K.T @ K / beta
    prec[np.diag_indices_from(prec)] += 1.0 / lam
    try:
        sigma = np.linalg.inv(prec)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"direct posterior inversion failed: {exc}") from exc
    # a solve, not sigma @ K'v: the mean keeps its accuracy when beta is
    # small and the precision ill-conditioned
    mu = np.linalg.solve(prec, K.T @ v) / beta
    # the evidence from the dense N x N system A = K diag(lam) K' + beta I
    A = (K * lam) @ K.T + beta * np.eye(K.shape[0])
    sign, logdet_a = np.linalg.slogdet(A)
    if sign <= 0:
        raise NumericError("direct evidence system is not positive definite")
    evidence = 0.5 * float(v @ np.linalg.solve(A, v)) + 0.5 * logdet_a
    sigma_diag = np.diag(sigma).copy()
    # N - sum(gamma), gamma_i = 1 - sigma_i / lam_i: about 0 at a floored lam_i
    resid_dof = K.shape[0] - float(np.sum(1.0 - sigma_diag / lam))
    return PosteriorMoments(mu=mu, sigma_diag=sigma_diag, evidence=evidence,
                            resid_dof=resid_dof)


def mu_form_evidence(K, lambda_col, beta, v_col, mu_col):
    """||v - K mu||^2 / beta + mu' diag(lam)^+ mu + log det(I + diag(lam) K'K / beta)
    + N log beta for one column, the determinant dense over S x S.  At the
    posterior mean it is twice the negative log evidence
    v'A^{-1}v / 2 + log det(A) / 2, A = K diag(lam) K' + beta I; a zero
    lam_i with mu_i = 0 adds nothing (the pseudo-inverse)."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    lam, v, mu = (np.asarray(x, dtype=float) for x in (lambda_col, v_col, mu_col))
    n, s = K.shape
    resid = v - K @ mu
    quad = np.sum(np.divide(mu * mu, lam, out=np.zeros(s), where=lam > 0.0))
    sign, logdet = np.linalg.slogdet(np.eye(s) + lam[:, None] * (K.T @ K) / beta)
    if sign <= 0:
        raise NumericError("I + diag(lam) K'K / beta has a nonpositive determinant")
    return float(resid @ resid / beta + quad + logdet + n * np.log(beta))


def objective_enet(data, lambda_bar, alpha1, k, beta, tau, nu):
    """neg_log_posterior_enet of the columns of data at prior variances
    lambda_bar / (2 alpha1) and noise variances beta (scalars or (T,))."""
    lb = np.asarray(lambda_bar, dtype=float)
    post = posterior_moments(data.K, lb / (2.0 * alpha1), beta, data.V)
    return neg_log_posterior_enet(post, lb, k, tau, nu)


def objective_mxn(data, lambda_bar, delta, alpha, beta):
    """neg_log_posterior_mxn of the columns of data at prior variances
    lambda_bar / (2 alpha) and noise variances beta (a scalar or (T,))."""
    lb = np.asarray(lambda_bar, dtype=float)
    post = posterior_moments(data.K, lb / (2.0 * alpha), beta, data.V)
    return neg_log_posterior_mxn(post, lb, delta, alpha)


def ring_first_difference(s):
    """Periodic first-difference operator on a ring of s nodes."""
    L = np.eye(s)
    idx = np.arange(s)
    L[idx, (idx + 1) % s] = -1.0
    return L


def reconstruct(svd):
    """Lmat @ diag(D) @ R.T of a LeadFieldSVD."""
    return (svd.Lmat * svd.D) @ svd.R.T


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
    objective that touches it at the current state.  Requires lambda_bar
    strictly inside (0, 1).
    """
    if alpha1 <= 0 or k <= 0:
        raise DomainError("alpha1 and k must be positive")
    part, lb = _aux_frozen_part(mu_col, sigma_diag_col, lam_bar_col, alpha1)
    return part + float(_enet_hyperprior(lb, np.array([k], dtype=float), tau, nu)[0])


def aux_objective_mxn(mu, sigma_diag, lam_bar, delta, alpha):
    """Frozen-moments auxiliary over the whole map, mixed-norm branch.

    The single alpha couples all columns, so the auxiliary is evaluated
    over the full spatio-temporal state.  A 1-D argument is one column.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    part, lb = _aux_frozen_part(mu, sigma_diag, lam_bar, alpha)
    return part + float(np.sum(_mxn_hyperprior(lb, _rows(delta), alpha)))
