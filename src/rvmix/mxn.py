"""Mixed-norm (elitist) sparse Bayesian solver with a single global scale.

The squared column-L1 penalty is handled through per-coordinate coupling
magnitudes delta[i, t] = sum of |mu[k, t]| over k != i, which turn the
non-separable prior into a Normal/Laplace form per coordinate.  One
global scale alpha is shared by the whole spatio-temporal map, so unlike
the elastic-net solver the columns are coupled: every outer sweep updates
all columns, then refreshes alpha once.

Coupling magnitudes are refreshed from the posterior means rather than
optimized (the objective is not differentiable in them).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .enet import (
    Solution,
    SolverConfig,
    _ridge_mu,
    update_beta_enet,
    update_lambda_bar_enet,
)
from .errors import DomainError, NumericError, RootFindError
from .objective import _as_columns, _mxn_hyperprior_column, aux_objective_mxn
from .posterior import ProblemData, posterior_moments, svd_decompose
from .rootfind import bracketed_root
from .special import gamma_half_hazard

#: objective-stagnation stop for the coupled whole-map solver
MXN_TOL_OBJECTIVE = 5e-3


@dataclass(frozen=True)
class MxnHyperState:
    """Final hyperparameter state of the mixed-norm solver."""

    lambda_bar: np.ndarray  # (S, T) in [0, 1)
    delta: np.ndarray  # (S, T) nonnegative coupling magnitudes
    alpha: float  # global scale
    beta: np.ndarray  # (T,)

    def effective_variances(self):
        return self.lambda_bar / (2.0 * self.alpha)

    def gamma(self):
        return self.alpha * self.delta**2 / (1.0 - self.lambda_bar)


def update_lambda_bar_mxn(mu_i, sigma_ii, alpha, delta_i):
    """Variance-factor update: the elastic-net rule at scale alpha and
    truncation alpha * delta**2, applied to a whole column (or a scalar)
    in one array call.  Coordinates with zero coupling get the cap."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    d = np.asarray(delta_i, dtype=float)
    if np.any(d < 0):
        raise DomainError("delta must be nonnegative")
    return update_lambda_bar_enet(mu_i, sigma_ii, alpha, alpha * d**2)


def update_delta(mu_col):
    """Coupling magnitudes: delta_i = ||mu||_1 - |mu_i|, computed in O(S)."""
    mu = np.asarray(mu_col, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise DomainError("mu must be finite")
    a = np.abs(mu)
    return np.sum(a) - a


def _alpha_gradient_terms(mu, sigma_diag, lam_bar, delta):
    """The alpha-free parts of alpha_gradient over the whole map.

    Returns (frozen, st, dp2): frozen = sum m2s/lb + sum d^2/(1-lb)
    + sum_t ||W^-1 d_t||_1^2, st = S*T, and dp2 the squared positive
    couplings that enter the hazard term.
    """
    mu = _as_columns(mu)
    sig = _as_columns(sigma_diag)
    lb = _as_columns(lam_bar)
    d = _as_columns(delta)
    s, t_count = lb.shape
    m2s = mu * mu + sig
    alive = lb > 0.0
    if np.any(~alive & (m2s > 0.0)):
        raise DomainError("zero lambda_bar with nonzero moments is inconsistent")
    if s < 2:
        raise DomainError("coupling algebra requires at least two sources")
    frozen = float(np.sum(m2s[alive] / lb[alive]))
    frozen += float(np.sum(d * d / (1.0 - lb)))
    # W^-1 d_t = sum(d_t)/(S-1) - d_t (see w_inverse_apply), all columns at once
    wd_l1 = np.sum(np.abs(np.sum(d, axis=0) / (s - 1) - d), axis=0)
    frozen += float(np.sum(wd_l1 * wd_l1))
    return frozen, s * t_count, d[d > 0.0] ** 2


def alpha_gradient(alpha, mu, sigma_diag, lam_bar, delta, terms=None):
    """Derivative of the objective along the global scale, moments frozen.

    terms : optional _alpha_gradient_terms(mu, sigma_diag, lam_bar, delta).
        The root search passes it, so each of its evaluations computes
        only -S*T/(2 alpha) and the hazard term.
    Raises DomainError for fewer than two sources, where the coupling
    algebra is undefined.
    """
    frozen, st, dp2 = terms or _alpha_gradient_terms(mu, sigma_diag, lam_bar, delta)
    total = frozen - st / (2.0 * alpha)
    if dp2.size:
        total -= float(np.sum(dp2 * gamma_half_hazard(alpha * dp2)))
    return total


def update_alpha_mxn(mu, sigma_diag, lam_bar, delta):
    """Global scale as the root of its gradient over the whole map.

    Bracketed search expanding from [1e-10, 1e10] on alpha_gradient, with
    its frozen-moment terms computed once per root.  If no sign change is
    found, falls back to minimizing the frozen-moments objective on a log
    grid (with a warning).
    """
    terms = _alpha_gradient_terms(mu, sigma_diag, lam_bar, delta)

    def f(a):
        return alpha_gradient(a, mu, sigma_diag, lam_bar, delta, terms)

    try:
        return bracketed_root(f, context="global scale update")
    except RootFindError:
        lb = np.clip(_as_columns(lam_bar), 1e-300, 1.0 - 1e-12)
        grid = np.logspace(-10, 10, 201)
        vals = [aux_objective_mxn(mu, sigma_diag, lb, delta, a) for a in grid]
        best = grid[int(np.argmin(vals))]
        warnings.warn(
            f"global scale bracketing failed; grid minimizer {best:.3e} used instead",
            RuntimeWarning,
        )
        return float(best)
    finally:
        # scipy's brentq wraps f in a self-referencing closure, so f and the
        # arrays it reaches outlive this call until the next garbage
        # collection; drop the hoisted terms now
        terms = None


def solve_mxn(data, config=None, svd=None):
    """Run the mixed-norm solver: per-column sweeps plus one alpha update.

    Requires at least two sources (the coupling algebra is undefined for
    S = 1).  A single-column problem degenerates to a purely spatial
    solver and is fully supported.
    """
    config = config or SolverConfig()
    if not isinstance(data, ProblemData):
        raise DomainError("data must be a ProblemData")
    if data.n_sources < 2:
        raise DomainError("mixed-norm model needs at least two sources")
    svd = svd or svd_decompose(data, config.rank_tol)
    s, t_count, n = data.n_sources, data.n_times, data.n_sensors

    tol_objective = config.tol_objective if config.tol_objective is not None else MXN_TOL_OBJECTIVE
    learn_alpha = config.fixed_alpha is None
    alpha = config.alpha_init if learn_alpha else float(config.fixed_alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    lam_bar = np.full((s, t_count), 0.5)
    delta = np.empty((s, t_count))
    for t in range(t_count):
        delta[:, t] = update_delta(_ridge_mu(svd, data.V[:, t]))
    beta = np.ones(t_count)

    mu = np.zeros((s, t_count))
    sigma_diag = np.zeros((s, t_count))
    obj_trace, alpha_trace, beta_trace, delta_l1 = [], [], [], []
    prev_mu = None
    prev_obj = None
    converged = False

    for _ in range(config.max_iter):
        obj = 0.0
        for t in range(t_count):
            v = data.V[:, t]
            lam = lam_bar[:, t] / (2.0 * alpha)
            try:
                post = posterior_moments(svd, lam, beta[t], v)
            except NumericError as exc:
                raise NumericError(f"column {t}: {exc}") from exc
            mu[:, t] = post.mu
            sigma_diag[:, t] = post.sigma_diag

            resid = v - data.K @ post.mu
            alive = lam_bar[:, t] > 0.0
            obj += (
                float(resid @ resid) / (2.0 * beta[t])
                + 0.5 * post.logdet_term
                + 0.5 * n * np.log(beta[t])
                + alpha * float(np.sum(post.mu[alive] ** 2 / lam_bar[alive, t]))
                + _mxn_hyperprior_column(lam_bar[:, t], delta[:, t], alpha)
            )

            lam_bar[:, t] = update_lambda_bar_mxn(
                post.mu, post.sigma_diag, alpha, delta[:, t]
            )
            delta[:, t] = update_delta(post.mu)
            # noise variance update disabled under fixed_one (the default)
            if config.beta_mode == "learned":
                beta[t] = update_beta_enet(
                    v, data.K, mu[:, t], sigma_diag[:, t], lam_bar[:, t], alpha,
                    mode="learned",
                )

        obj_trace.append(obj)
        alpha_trace.append(alpha)
        beta_trace.append(beta.copy())
        delta_l1.append(np.sum(np.abs(delta), axis=0))

        if prev_mu is not None:
            scale = float(np.max(np.abs(mu)))
            step = float(np.max(np.abs(mu - prev_mu)))
            rel = step / scale if scale > 0 else (0.0 if step == 0.0 else np.inf)
            dobj = abs(obj - prev_obj) <= tol_objective * max(abs(obj), 1.0)
            if rel <= config.tol_mu and dobj:
                converged = True
                break
        prev_mu, prev_obj = mu.copy(), obj

        if learn_alpha:
            alpha = update_alpha_mxn(mu, sigma_diag, lam_bar, delta)

    return Solution(
        mu=mu,
        sigma_diag=sigma_diag,
        lambda_bar=lam_bar,
        hyper_trace={
            "alpha": np.asarray(alpha_trace),
            "beta": np.asarray(beta_trace),
            "delta_l1": np.asarray(delta_l1),
        },
        objective_trace=np.asarray(obj_trace),
        iterations=len(obj_trace),
        converged=converged,
        extras={
            "alpha_final": alpha,
            "learn_alpha": learn_alpha,
            "state": MxnHyperState(lambda_bar=lam_bar, delta=delta,
                                   alpha=alpha, beta=beta),
        },
    )
