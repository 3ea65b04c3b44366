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

import numpy as np

from .enet import _Iteration, update_beta_enet, update_lambda_bar_enet
from .errors import DomainError, NumericError
from .objective import neg_log_posterior_mxn, w_inverse_apply
from .posterior import _rows
from .rootfind import bracketed_root
from .special import gamma_half_hazard

#: objective-stagnation stop for the coupled whole-map solver
MXN_TOL_OBJECTIVE = 5e-3


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
    """Coupling magnitudes: delta_i = ||mu||_1 - |mu_i|, computed in O(S).

    mu_col is one column (S,) or a stack of columns as rows (T, S)."""
    mu = np.asarray(mu_col, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise DomainError("mu must be finite")
    a = np.abs(mu)
    return np.sum(a, axis=-1, keepdims=True) - a


def _alpha_gradient_terms(mu, sigma_diag, lam_bar, delta):
    """The alpha-free parts of alpha_gradient over the whole map.

    Returns (frozen, st, dp2): frozen = sum m2s/lb + sum d^2/(1-lb)
    + sum_t ||W^-1 d_t||_1^2, st = S*T, and dp2 the squared positive
    couplings that enter the hazard term.
    """
    mu, sig, lb, d = (_rows(x) for x in (mu, sigma_diag, lam_bar, delta))
    m2s = mu * mu + sig
    alive = lb > 0.0
    if np.any(~alive & (m2s > 0.0)):
        raise DomainError("zero lambda_bar with nonzero moments is inconsistent")
    frozen = float(np.sum(m2s[alive] / lb[alive]))
    frozen += float(np.sum(d * d / (1.0 - lb)))
    wd_l1 = np.sum(np.abs(w_inverse_apply(d)), axis=1)
    frozen += float(np.sum(wd_l1 * wd_l1))
    return frozen, lb.size, d[d > 0.0] ** 2


def alpha_gradient(alpha, terms):
    """Derivative of the objective along the global scale, moments frozen,
    given its alpha-free terms _alpha_gradient_terms(mu, sigma_diag,
    lam_bar, delta), which the root search computes once per root; as
    (f, f', scale): the derivative, its slope and the sum of the
    magnitudes of its terms, from one hazard evaluation over all couplings.

    Raises NumericError when alpha * delta**2 underflows, where the hazard
    is undefined (K x 1e-150 on a small ring), or when the derivative
    overflows.
    """
    frozen, st, dp2 = terms
    x = alpha * dp2
    if x.size and not x.min() >= np.finfo(float).tiny:
        raise NumericError(f"global scale update: alpha * delta**2 underflows to 0 or to a "
                           f"subnormal at alpha = {float(np.min(alpha)):.3e}")
    h = gamma_half_hazard(x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hazard = np.sum(dp2 * h)
        out = (frozen - 0.5 * st / alpha - hazard,
               st / (2.0 * alpha * alpha) - np.sum(dp2 * dp2 * h * (h - 1.0 - 0.5 / x)),
               frozen + 0.5 * st / alpha + hazard)
    if not np.all(np.isfinite((out[0], out[2]))):
        raise NumericError(f"global scale update: the gradient overflows at "
                           f"alpha = {float(np.min(alpha)):.3e}")
    return out


def update_alpha_mxn(mu, sigma_diag, lam_bar, delta, alpha0=1.0):
    """Global scale as the root of its gradient over the whole map: Newton
    steps from alpha0 (the current alpha), each a call of alpha_gradient.
    Raises DomainError for fewer than two sources, where the coupling
    algebra is undefined, RootFindError when the search fails and
    NumericError when alpha_gradient does; the column of either is None,
    as alpha is one root for the whole map.
    """
    terms = _alpha_gradient_terms(mu, sigma_diag, lam_bar, delta)
    return bracketed_root(lambda a, _: alpha_gradient(a, terms), alpha0,
                          context="global scale update")


class _MxnIteration(_Iteration):
    """Mixed-norm model: one global alpha, per-column coupling magnitudes
    and beta; lambda_bar, delta and beta are refreshed before the stop
    test, which covers the whole map, and alpha after it."""

    per_column = False
    default_tol_objective = MXN_TOL_OBJECTIVE
    unread = "fixed_hyper"

    def __init__(self, data, config):
        super().__init__(data, config)
        t_count, s = data.n_times, data.n_sources
        if s < 2:
            raise DomainError("mixed-norm model needs at least two sources")
        self.learn_alpha = self.config.fixed_alpha is None
        self.alpha = 1.0 if self.learn_alpha else float(self.config.fixed_alpha)
        # the columns share alpha, so only an all-zero map stops after one sweep
        self.zero_data = np.full(t_count, not np.any(self.V))
        self.lam_bar = np.full((t_count, s), 0.5)
        self.delta = update_delta(self.ridge_start())
        self.beta = np.ones(t_count)
        self.traces = {"alpha": [], "beta": [], "delta_l1": []}

    def scale(self, rows):
        return np.full(rows.size, 2.0 * self.alpha)

    def objective(self, rows, post):
        return neg_log_posterior_mxn(post, self.lam_bar[rows].T, self.delta[rows].T, self.alpha)

    def refresh(self, rows, mu, sigma, resid_dof):
        self.lam_bar[rows] = update_lambda_bar_mxn(mu, sigma, self.alpha, self.delta[rows])
        self.delta[rows] = update_delta(mu)
        # noise variance update disabled under fixed_one (the default)
        self.beta[rows] = update_beta_enet(self.V[rows], self.K, mu, resid_dof,
                                           mode=self.config.beta_mode)

    def record(self):
        self.traces["alpha"].append(self.alpha)
        self.traces["beta"].append(self.beta.copy())
        self.traces["delta_l1"].append(np.sum(np.abs(self.delta), axis=1))

    def step(self, rows, mu, sigma, resid_dof):
        if self.learn_alpha:
            self.alpha = update_alpha_mxn(mu.T, sigma.T, self.lam_bar.T, self.delta.T, self.alpha)


def solve_mxn(data, config=None):
    """Run the mixed-norm solver: sweeps over all columns plus one alpha update.

    Requires at least two sources (the coupling algebra is undefined for
    S = 1).  A single-column problem degenerates to a purely spatial
    solver and is fully supported.  extras["stop_reason"] is "tol",
    "max_iter" or "zero_data" (an all-zero map, solved in one sweep), for
    the whole map, and extras["alpha_final"] is alpha after the last step.
    """
    core = _MxnIteration(data, config)
    sol = core.run()
    sol.extras["alpha_final"] = core.alpha
    return sol
