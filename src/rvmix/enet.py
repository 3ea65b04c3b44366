"""Elastic-net flavored sparse Bayesian solver with hyperparameter learning.

Per column of the observation matrix the solver alternates posterior
moments with closed-form coordinate updates of the unit-interval variance
factors, the variance scale, the truncation coefficient of the Gamma
mixing density, and (optionally) the noise variance.  Columns are fully
independent, so solving them in any order, alone or together, gives
bit-identical results.  The iteration itself (_Iteration) is shared with
the mixed-norm solver and runs on all live columns at once.

Coefficients are never pruned: a coordinate whose variance factor falls
to numerical zero keeps participating and may grow back later.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DomainError, NumericError
from .objective import neg_log_posterior_enet
from .posterior import ProblemData, _rowwise, posterior_moments, svd_decompose, svd_ridge
from .rootfind import bracketed_root
from .special import gamma_half_hazard, truncation_coefficient

LAMBDA_BAR_CAP = 1.0 - 1e-12


@dataclass
class SolverConfig:
    """Knobs shared by the Bayesian solvers.

    fixed_hyper : optional (alpha1, alpha2) pair for the elastic-net
        solver only; None (the default) learns alpha1 and the truncation
        coefficient k by empirical Bayes, a pair fixes both, with
        k = alpha2**2 / (4*alpha1).
    fixed_alpha : optional fixed global scale > 0 for the mixed-norm
        solver only; None (the default) learns alpha, starting from 1.
        Each solver raises DomainError when the other's setting is given.
    beta_mode : "fixed_one" keeps the noise variance pinned at 1 (the
        default), "learned" enables the closed-form update.
    epsilon_prior : epsilon > 0 in nu = epsilon * S, the rate of the Gamma
        prior of the truncation coefficient (tau is fixed at S).
    """

    max_iter: int = 100
    tol_mu: float = 5e-2
    tol_objective: float | None = None  # per-solver default when None
    fixed_hyper: tuple | None = None
    fixed_alpha: float | None = None
    beta_mode: str = "fixed_one"
    epsilon_prior: float = 1e-2

    def __post_init__(self):
        if self.beta_mode not in ("fixed_one", "learned"):
            raise DomainError(f"beta_mode must be fixed_one or learned, got {self.beta_mode!r}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter!r}")
        optional = ("tol_objective", "fixed_alpha")  # None: the solver's default, or learned
        for name in ("tol_mu", "epsilon_prior", *optional):
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            if not 0.0 < value < np.inf:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if self.fixed_hyper is not None:
            a1, a2 = self.fixed_hyper
            if not (0.0 < a1 < np.inf and 0.0 <= a2 < np.inf):
                raise DomainError(f"fixed_hyper needs finite alpha1 > 0 and alpha2 >= 0, "
                                  f"got {self.fixed_hyper!r}")


@dataclass
class Solution:
    """Solver output: posterior summaries plus per-iteration traces."""

    mu: np.ndarray
    sigma_diag: np.ndarray
    hyper_trace: dict
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    lambda_bar: np.ndarray = None
    extras: dict = field(default_factory=dict)


def update_lambda_bar_enet(mu_i, sigma_ii, alpha1, k):
    """Stationary unit-interval variance factor given frozen moments.

    Solves the per-coordinate optimality condition through the root
    eta = -1/4 + sqrt(1/16 + (mu^2 + sigma) * alpha1 * k), written in the
    cancellation-free form eta = c / (1/4 + sqrt(1/16 + c)), and returns
    eta / (k + eta) capped just below 1.  k = 0 is the untruncated
    Gaussian limit and returns the cap directly.  All arguments are
    scalars or arrays broadcast elementwise (the mixed-norm solver passes
    its truncations alpha * delta**2 as one array); entries with k == 0
    get the cap.  Raises NumericError when (mu**2 + sigma) * alpha1 * k
    overflows, or underflows to 0 with mu**2 + sigma and k positive (the
    factor would be 0 with nonzero moments), naming the row of a (T, S)
    stack in ``column``.
    """
    mu_arr = np.asarray(mu_i, dtype=float)
    sig = np.asarray(sigma_ii, dtype=float)
    kk = np.asarray(k, dtype=float)
    if np.any(sig < 0):
        raise DomainError("sigma_ii must be nonnegative")
    if np.any(np.asarray(alpha1) <= 0) or np.any(kk < 0):
        raise DomainError("alpha1 must be positive and k nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        m2s = mu_arr * mu_arr + sig
        c = m2s * alpha1 * kk
    for bad, what in ((~np.isfinite(c), "overflows"),
                      ((c == 0.0) & (m2s > 0.0) & (kk > 0.0), "underflows to 0")):
        if np.any(bad):
            raise NumericError(f"variance factor update: (mu**2 + sigma) * scale * truncation "
                               f"{what}; the data's scale is beyond the float range",
                               column=int(np.nonzero(bad)[0][0]) if c.ndim == 2 else None)
    eta = c / (0.25 + np.sqrt(0.0625 + c))
    # eta > 0 implies k > 0, so the division never meets 0/0
    lam_bar = np.divide(eta, kk + eta, out=np.zeros_like(eta), where=eta > 0.0)
    out = np.where(kk == 0.0, LAMBDA_BAR_CAP, np.minimum(lam_bar, LAMBDA_BAR_CAP))
    return float(out) if out.ndim == 0 else out


def update_alpha1(mu_col, sigma_diag_col, lambda_bar_col):
    """Stationary variance scale (S/2) / sum((mu^2 + sigma)/lambda_bar), of
    one column (S,) or of each row of a (T, S) stack of columns."""
    mu = np.asarray(mu_col, dtype=float)
    lb = np.asarray(lambda_bar_col, dtype=float)
    m2s = mu * mu + np.asarray(sigma_diag_col, dtype=float)
    alive = lb > 0.0
    if np.any(~alive & (m2s > 0.0)):
        raise DomainError("zero lambda_bar with nonzero moments is inconsistent")
    denom = np.sum(np.divide(m2s, lb, out=np.zeros_like(m2s), where=alive), axis=-1)
    if np.any(denom <= 0.0):
        raise DegenerateStateError("every coordinate is pruned; variance scale undefined")
    out = 0.5 * lb.shape[-1] / denom
    return float(out) if out.ndim == 0 else out


def _k_gradient_total(lambda_bar, nu):
    """The k-free part of k_gradient, sum 1/(1 - lambda_bar) + nu, of one
    column (S,) or of each row of a (T, S) stack."""
    return np.sum(1.0 / (1.0 - lambda_bar), axis=-1) + nu


def k_gradient(k, lambda_bar, tau, nu, total=None):
    """Derivative of the objective along the truncation coefficient k > 0,
    of one column (S,) at a scalar k or of each row of a (T, S) stack at
    its own entry of a (T,) k.

    total : optional _k_gradient_total(lambda_bar, nu), which the root
        search computes once per search.
    Returns (f, f', scale): the derivative, its slope and the sum of the
    magnitudes of its terms, from one evaluation of the hazard h, whose
    slope is h' = h (h - 1 - 1/(2k)).
    """
    kk = np.asarray(k, dtype=float)
    if not np.all((kk > 0.0) & np.isfinite(kk)):
        raise DomainError(f"k must be positive and finite, got {k!r}")
    lb = np.asarray(lambda_bar, dtype=float)
    s = lb.shape[-1]
    if total is None:
        total = _k_gradient_total(lb, nu)
    c, h = tau - 0.5 * s, gamma_half_hazard(kk)
    with np.errstate(over="ignore"):  # k * k beyond the float range: c / k**2 is 0
        out = (total - c / kk - s * h, c / (kk * kk) - s * h * (h - 1.0 - 0.5 / kk),
               total + abs(c) / kk + s * h)
    return tuple(map(float, out)) if np.ndim(out[0]) == 0 else out


def update_k(lambda_bar, tau, nu, k0=1.0):
    """Truncation coefficient as the root of its gradient on (0, inf), of
    one column (S,) or of every row of a (T, S) stack in one search.

    Newton steps from k0 (the current k; a scalar or (T,)), each a call
    of k_gradient.  With tau = S the gradient tends to -inf as k -> 0 and
    has a single sign change.  Raises RootFindError, naming the row in
    ``column``, when the search fails (no sign change, for one).
    """
    lb = np.asarray(lambda_bar, dtype=float)
    if np.any(lb < 0) or np.any(lb >= 1):
        raise DomainError("lambda_bar must lie in [0, 1)")
    rows_of = lb.reshape(-1, lb.shape[-1])
    totals = _k_gradient_total(rows_of, nu)
    return bracketed_root(lambda k, rows: k_gradient(k, rows_of[rows], tau, nu, totals[rows]),
                          np.broadcast_to(k0, lb.shape[:-1]), context="truncation update")


#: the smallest noise variance the learned update returns
BETA_FLOOR = 1e-12


def update_beta_enet(v_col, K, mu_col, resid_dof, mode="learned"):
    """Closed-form noise variance ||v - K mu||^2 / resid_dof (MacKay 1992),
    at least BETA_FLOOR; disabled (returns 1.0) under fixed_one.  mu_col
    and resid_dof come from one posterior (PosteriorMoments.resid_dof > 0).
    For a stack of columns as rows (v (T, N), mu (T, S), resid_dof (T,))
    it returns (T,).
    """
    if mode == "fixed_one":
        return 1.0
    resid = np.asarray(v_col, dtype=float) - _rowwise(np.asarray(K, dtype=float), mu_col)
    beta = np.maximum(np.sum(resid * resid, axis=-1) / resid_dof, BETA_FLOOR)
    return float(beta) if beta.ndim == 0 else beta


class _Iteration:
    """The iteration both Bayesian solvers share, on (T, S) state with one
    contiguous row per column.  A sweep computes the posterior moments and
    objective of all live columns at once, then the model's refresh, the
    stop test (per column, or for the whole map) and the model's step.
    A model sets lam_bar (T, S), beta (T,) and zero_data (T,), the columns
    that stop after one sweep, and provides scale (twice the variance
    scale of given rows), objective (their per-column values, given their
    PosteriorMoments), record and step, and names in unread the
    SolverConfig field it rejects when set.
    """

    per_column = True

    def __init__(self, data, config):
        if not isinstance(data, ProblemData):
            raise DomainError("data must be a ProblemData")
        self.config = config = config or SolverConfig()
        if getattr(config, self.unread) is not None:
            raise DomainError(f"this solver does not read {self.unread}; the other one does")
        self.tol_objective = (config.tol_objective if config.tol_objective is not None
                              else self.default_tol_objective)
        self.K, self.V = data.K, np.ascontiguousarray(data.V.T)

    def ridge_start(self):
        """(T, S) ridge means at lambda = 1e-2 mean(D**2), D the singular values of K."""
        svd = svd_decompose(self.K)
        return svd_ridge(svd, 1e-2 * float(np.mean(svd.D**2)), self.V)

    def refresh(self, rows, mu, sigma, resid_dof):
        """Model state updated before the stop test: none by default."""

    def stalled(self, rows, mu, prev_mu, obj, prev_obj):
        """The stop test: max |mu - prev_mu| / max |mu| at most tol_mu and
        |obj - prev_obj| at most tol_objective * max(|obj|, 1), for each
        of the rows or, for a whole-map model, for all of them at once."""
        if self.per_column:
            mu, prev_mu, obj, prev_obj, axis = mu[rows], prev_mu[rows], obj[rows], prev_obj[rows], 1
        else:
            obj, prev_obj, axis = obj.sum(), prev_obj.sum(), None
        scale = np.max(np.abs(mu), axis=axis)
        step = np.max(np.abs(mu - prev_mu), axis=axis)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(step == 0.0, 0.0, step / scale)
        stop = (rel <= self.config.tol_mu) & (
            np.abs(obj - prev_obj) <= self.tol_objective * np.maximum(np.abs(obj), 1.0))
        return np.broadcast_to(stop, rows.shape)

    def run(self):
        """Iterate to the stop and return the Solution, whose objective
        trace holds finished columns at their final value.  extras holds
        the stop_reason of each column and its column_iterations, or for
        a whole-map model the one stop_reason; a learned-noise solve adds
        beta_floor_columns, the columns whose final beta is BETA_FLOOR."""
        t_count, s = self.lam_bar.shape
        mu, sigma, objective = np.zeros((t_count, s)), np.zeros((t_count, s)), np.zeros(t_count)
        resid_dof = np.zeros(t_count)
        iterations = np.zeros(t_count, dtype=int)
        stop_reason = np.full(t_count, "max_iter", dtype=object)
        live = np.ones(t_count, dtype=bool)
        trace = []
        for it in range(self.config.max_iter):
            rows = np.flatnonzero(live)
            prev_mu, prev_obj = mu.copy(), objective.copy()
            try:
                lam = self.lam_bar[rows] / self.scale(rows)[:, None]
                post = posterior_moments(self.K, lam.T, self.beta[rows], self.V[rows].T)
                mu[rows], sigma[rows] = post.mu.T, post.sigma_diag.T
                resid_dof[rows] = post.resid_dof
                objective[rows] = self.objective(rows, post)
                iterations[rows] += 1
                self.refresh(rows, mu[rows], sigma[rows], resid_dof[rows])
                trace.append(objective.copy())
                self.record()

                if it == 0:
                    stop, reason = self.zero_data[rows], "zero_data"
                else:
                    stop, reason = self.stalled(rows, mu, prev_mu, objective, prev_obj), "tol"
                stop_reason[rows[stop]] = reason
                live[rows[stop]] = False
                rows = rows[~stop]
                if not rows.size:
                    break
                collapsed = rows[self.step(rows, mu[rows], sigma[rows], resid_dof[rows])]
            except NumericError as exc:
                where = "" if exc.column is None else f"column {rows[exc.column]}: "
                raise NumericError(f"{where}iteration {it + 1}, {exc}") from exc
            mu[collapsed] = sigma[collapsed] = self.lam_bar[collapsed] = 0.0
            stop_reason[collapsed] = "collapsed"
            live[collapsed] = False
        stop_reason = list(stop_reason)
        extras = ({"stop_reason": stop_reason, "column_iterations": iterations}
                  if self.per_column else {"stop_reason": stop_reason[0]})
        if self.config.beta_mode == "learned":
            # a noise variance at the floor is where the update stopped, not a fit
            extras["beta_floor_columns"] = [int(j) for j in np.flatnonzero(self.beta == BETA_FLOOR)]
        return Solution(
            mu=np.ascontiguousarray(mu.T),
            sigma_diag=np.ascontiguousarray(sigma.T),
            lambda_bar=np.ascontiguousarray(self.lam_bar.T),
            hyper_trace={name: np.array(values) for name, values in self.traces.items()},
            objective_trace=np.sum(trace, axis=1),
            iterations=len(trace),
            converged="max_iter" not in stop_reason,
            extras=extras,
        )


#: objective-stagnation stop for the per-column solver (relative change)
ENET_TOL_OBJECTIVE = 1.2e-3


class _EnetIteration(_Iteration):
    """Elastic-net model: per-column alpha1, k and beta; each column stops
    on its own, and an all-zero column after one sweep."""

    default_tol_objective = ENET_TOL_OBJECTIVE
    unread = "fixed_alpha"

    def __init__(self, data, config):
        super().__init__(data, config)
        config = self.config
        t_count, s = data.n_times, data.n_sources
        self.tau, self.nu = float(s), config.epsilon_prior * s
        self.zero_data = ~np.any(self.V, axis=1)
        if config.fixed_hyper is not None:
            self.alpha1 = np.full(t_count, float(config.fixed_hyper[0]))
            self.k = np.full(t_count, truncation_coefficient(*config.fixed_hyper))
        else:
            with np.errstate(over="ignore"):
                ss = np.sum(self.ridge_start() ** 2, axis=1)
            if not np.all(np.isfinite(ss)):
                j = int(np.flatnonzero(~np.isfinite(ss))[0])
                raise NumericError(f"column {j}: starting variance scale: the squared ridge means "
                                   f"overflow; the data's scale is beyond the float range", column=j)
            self.alpha1 = np.divide(s, 2.0 * ss, out=np.ones(t_count), where=ss > 0.0)
            self.k = np.ones(t_count)
        self.alpha1[self.zero_data] = self.k[self.zero_data] = 1.0
        self.lam_bar = np.full((t_count, s), 0.5)
        self.beta = np.ones(t_count)
        self.traces = {"alpha1": [], "k": [], "beta": []}

    def scale(self, rows):
        return 2.0 * self.alpha1[rows]

    def objective(self, rows, post):
        return neg_log_posterior_enet(None, self.lam_bar[rows].T, self.alpha1[rows],
                                      self.k[rows], self.beta[rows], self.tau, self.nu, post=post)

    def record(self):
        for name, trace in self.traces.items():
            trace.append(getattr(self, name).copy())

    def step(self, rows, mu, sigma, resid_dof):
        """lambda_bar, then alpha1, k and beta of the given columns; returns
        the mask of columns that collapsed (every coordinate pruned, so the
        variance scale is undefined).  alpha1 and k are learned unless
        fixed_hyper fixes them."""
        learn = self.config.fixed_hyper is None
        alpha1, k, beta = self.alpha1[rows], self.k[rows], self.beta[rows]
        lam_bar = update_lambda_bar_enet(mu, sigma, alpha1[:, None], k[:, None])
        collapsed = np.zeros(rows.size, dtype=bool)
        if learn:
            collapsed = ~np.any(lam_bar > 0.0, axis=1)
            alpha1[~collapsed] = update_alpha1(mu[~collapsed], sigma[~collapsed],
                                               lam_bar[~collapsed])
        keep = np.flatnonzero(~collapsed)
        try:
            if learn:
                k[keep] = update_k(lam_bar[keep], self.tau, self.nu, k[keep])
            beta[keep] = update_beta_enet(self.V[rows[keep]], self.K, mu[keep], resid_dof[keep],
                                          mode=self.config.beta_mode)
        except NumericError as exc:
            raise NumericError(str(exc), column=keep[exc.column]) from exc
        kept = rows[keep]
        self.lam_bar[kept] = lam_bar[keep]
        self.alpha1[kept], self.k[kept], self.beta[kept] = alpha1[keep], k[keep], beta[keep]
        return collapsed


def solve_enet(data, config=None):
    """Run the elastic-net Bayesian solver on every column independently.

    Returns a Solution whose objective_trace is the per-iteration total
    over columns (columns that finished early are held at their final
    value) and whose last hyper_trace rows hold the final alpha1, k and
    beta; extras holds each column's iteration count (column_iterations),
    stop_reason ("tol", "max_iter", "collapsed": every coordinate pruned,
    or "zero_data") and the prior's tau and nu.  Numeric errors name the
    column and iteration.
    """
    core = _EnetIteration(data, config)
    sol = core.run()
    sol.extras.update(tau=core.tau, nu=core.nu)
    return sol
