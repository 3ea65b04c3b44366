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
from .posterior import ProblemData, _rowwise, posterior_moments, svd_decompose
from .rootfind import bracketed_root
from .special import gamma_half_hazard, truncation_coefficient

LAMBDA_BAR_CAP = 1.0 - 1e-12


@dataclass
class SolverConfig:
    """Knobs shared by the Bayesian solvers.

    fixed_hyper : optional (alpha1, alpha2) pair; setting it turns off
        learning and precomputes the truncation coefficient
        k = alpha2**2 / (4*alpha1).
    fixed_alpha : optional fixed global scale for the mixed-norm solver;
        None means alpha is learned.
    beta_mode : "fixed_one" keeps the noise variance pinned at 1 (the
        default), "learned" enables the closed-form update.
    epsilon_prior : epsilon > 0 in nu = epsilon * S, the rate of the Gamma
        prior of the truncation coefficient (tau is fixed at S).
    """

    max_iter: int = 100
    tol_mu: float = 5e-2
    tol_objective: float | None = None  # per-solver default when None
    learn_k: bool = True
    learn_alpha1: bool = True
    fixed_hyper: tuple | None = None
    fixed_alpha: float | None = None
    beta_mode: str = "fixed_one"
    epsilon_prior: float = 1e-2
    alpha_init: float = 1.0

    def __post_init__(self):
        if self.beta_mode not in ("fixed_one", "learned"):
            raise DomainError(f"beta_mode must be fixed_one or learned, got {self.beta_mode!r}")
        if self.max_iter < 1 or self.tol_mu <= 0:
            raise DomainError("max_iter must be >= 1 and tolerances positive")
        if self.tol_objective is not None and self.tol_objective <= 0:
            raise DomainError("tol_objective must be positive")
        if not self.epsilon_prior > 0:
            raise DomainError(f"epsilon_prior must be positive, got {self.epsilon_prior!r}")
        if self.fixed_hyper is not None:
            a1, a2 = self.fixed_hyper
            if a1 <= 0 or a2 < 0:
                raise DomainError("fixed_hyper needs alpha1 > 0 and alpha2 >= 0")
            self.learn_k = False
            self.learn_alpha1 = False


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


@dataclass(frozen=True)
class EnetHyperState:
    """Final hyperparameter state of the elastic-net solver.

    lambda_bar holds the unit-interval variance factors; alpha1, k and
    beta are per-column.  The mixing variable gamma and the equivalent
    absolute-penalty weight are derived, never stored.
    """

    lambda_bar: np.ndarray  # (S, T) in [0, 1)
    alpha1: np.ndarray  # (T,)
    k: np.ndarray  # (T,)
    beta: np.ndarray  # (T,)
    tau: float
    nu: float

    def effective_variances(self):
        return self.lambda_bar / (2.0 * self.alpha1)

    def gamma(self):
        return self.k / (1.0 - self.lambda_bar)

    def alpha2_equivalent(self):
        return np.sqrt(4.0 * self.alpha1 * self.k)


def update_lambda_bar_enet(mu_i, sigma_ii, alpha1, k):
    """Stationary unit-interval variance factor given frozen moments.

    Solves the per-coordinate optimality condition through the root
    eta = -1/4 + sqrt(1/16 + (mu^2 + sigma) * alpha1 * k), written in the
    cancellation-free form eta = c / (1/4 + sqrt(1/16 + c)), and returns
    eta / (k + eta) capped just below 1.  k = 0 is the untruncated
    Gaussian limit and returns the cap directly.  All arguments are
    scalars or arrays broadcast elementwise (the mixed-norm solver passes
    its truncations alpha * delta**2 as one array); entries with k == 0
    get the cap.
    """
    mu_arr = np.asarray(mu_i, dtype=float)
    sig = np.asarray(sigma_ii, dtype=float)
    kk = np.asarray(k, dtype=float)
    if np.any(sig < 0):
        raise DomainError("sigma_ii must be nonnegative")
    if np.any(np.asarray(alpha1) <= 0) or np.any(kk < 0):
        raise DomainError("alpha1 must be positive and k nonnegative")
    c = (mu_arr * mu_arr + sig) * alpha1 * kk
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


def k_gradient(k, lambda_bar, tau, nu):
    """Derivative of the objective along the truncation coefficient k > 0,
    of one column (S,) at a scalar k or of each row of a (T, S) stack at
    its own entry of a (T,) k."""
    kk = np.asarray(k, dtype=float)
    if not np.all((kk > 0.0) & np.isfinite(kk)):
        raise DomainError(f"k must be positive and finite, got {k!r}")
    lb = np.asarray(lambda_bar, dtype=float)
    s = lb.shape[-1]
    out = np.sum(1.0 / (1.0 - lb), axis=-1) + nu - (tau - 0.5 * s) / kk - s * gamma_half_hazard(kk)
    return float(out) if out.ndim == 0 else out


def update_k(lambda_bar, tau, nu, k0=1.0):
    """Truncation coefficient as the root of its gradient on (0, inf), of
    one column (S,) or of every row of a (T, S) stack in one search.

    Newton steps from k0 (the current k; a scalar or (T,)) inside
    brackets grown from [1e-10, 1e10]; with tau = S the gradient has a
    single sign change.  The slope uses h' = h (h - 1 - 1/(2k)) for the
    hazard h.  Raises RootFindError, naming the row in ``column``, when
    the search fails (no sign change, for one).
    """
    lb = np.asarray(lambda_bar, dtype=float)
    if np.any(lb < 0) or np.any(lb >= 1):
        raise DomainError("lambda_bar must lie in [0, 1)")
    s = lb.shape[-1]
    rows_of = lb.reshape(-1, s)

    def slope(k, rows):
        h = gamma_half_hazard(k)
        return (tau - 0.5 * s) / (k * k) - s * h * (h - 1.0 - 0.5 / k)

    return bracketed_root(lambda k, rows: k_gradient(k, rows_of[rows], tau, nu), slope,
                          np.broadcast_to(k0, lb.shape[:-1]), context="truncation update")


def update_beta_enet(v_col, K, mu_col, sigma_diag_col, lambda_bar_col, alpha1, mode="learned"):
    """Closed-form noise variance; disabled (returns 1.0) under fixed_one.

    For a stack of columns as rows (v (T, N), the others (T, S), alpha1
    (T,)) it returns (T,), and a NumericError names the row in ``column``.
    """
    if mode == "fixed_one":
        return 1.0
    v = np.asarray(v_col, dtype=float)
    sig = np.asarray(sigma_diag_col, dtype=float)
    lb = np.asarray(lambda_bar_col, dtype=float)
    resid = v - _rowwise(np.asarray(K, dtype=float), mu_col)
    ratio = np.divide(sig, lb, out=np.zeros_like(sig), where=lb > 0.0)
    denom = np.asarray(v.shape[-1] + 2.0 * alpha1 * np.sum(ratio, axis=-1) - lb.shape[-1])
    bad = np.flatnonzero(denom.ravel() <= 0.0)
    if bad.size:
        raise NumericError(f"noise variance denominator is not positive "
                           f"({denom.ravel()[bad[0]]:.6e})", column=bad[0] if denom.ndim else None)
    beta = np.maximum(np.sum(resid * resid, axis=-1) / denom, 1e-12)
    return float(beta) if beta.ndim == 0 else beta


def _ridge_mu(svd, v):
    """Cheap ridge pass (lambda = 1e-2 mean(D**2)) used only to seed the
    hyperparameters; v is one column (N,) or a stack of columns as rows (T, N)."""
    lam_r = 1e-2 * float(np.mean(svd.D**2))
    coef = svd.D / (svd.D**2 + lam_r)
    return _rowwise(svd.R, coef * _rowwise(svd.Lmat.T, v))


class _Iteration:
    """The iteration both Bayesian solvers share, on (T, S) state with one
    contiguous row per column.  A sweep computes the posterior moments and
    objective of all live columns at once, then the model's refresh, the
    stop test (per column, or for the whole map) and the model's step.
    A model sets lam_bar (T, S), beta (T,) and zero_data (T,), the columns
    that stop after one sweep, and provides scale (twice the variance
    scale of given rows), objective (their per-column values), record and
    step.
    """

    per_column = True

    def __init__(self, data, config, svd):
        if not isinstance(data, ProblemData):
            raise DomainError("data must be a ProblemData")
        self.config = config = config or SolverConfig()
        self.svd = svd or svd_decompose(data)
        self.tol_objective = (config.tol_objective if config.tol_objective is not None
                              else self.default_tol_objective)
        self.K, self.V = data.K, np.ascontiguousarray(data.V.T)

    def refresh(self, rows, mu, sigma):
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
        a whole-map model the one stop_reason."""
        t_count, s = self.lam_bar.shape
        mu, sigma, objective = np.zeros((t_count, s)), np.zeros((t_count, s)), np.zeros(t_count)
        iterations = np.zeros(t_count, dtype=int)
        stop_reason = np.full(t_count, "max_iter", dtype=object)
        live = np.ones(t_count, dtype=bool)
        trace = []
        for it in range(self.config.max_iter):
            rows = np.flatnonzero(live)
            prev_mu, prev_obj = mu.copy(), objective.copy()
            try:
                live_data = ProblemData(K=self.K, V=self.V[rows].T)
                lam = self.lam_bar[rows] / self.scale(rows)[:, None]
                post = posterior_moments(self.svd, lam.T, self.beta[rows], live_data.V)
                mu[rows], sigma[rows] = post.mu.T, post.sigma_diag.T
                objective[rows] = self.objective(rows, live_data, post)
                iterations[rows] += 1
                self.refresh(rows, mu[rows], sigma[rows])
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
                collapsed = rows[self.step(rows, mu[rows], sigma[rows])]
            except NumericError as exc:
                where = "" if exc.column is None else f"column {rows[exc.column]}: "
                raise NumericError(f"{where}iteration {it + 1}, {exc}") from exc
            mu[collapsed] = sigma[collapsed] = self.lam_bar[collapsed] = 0.0
            stop_reason[collapsed] = "collapsed"
            live[collapsed] = False
        stop_reason = list(stop_reason)
        return Solution(
            mu=np.ascontiguousarray(mu.T),
            sigma_diag=np.ascontiguousarray(sigma.T),
            lambda_bar=np.ascontiguousarray(self.lam_bar.T),
            hyper_trace={name: np.array(values) for name, values in self.traces.items()},
            objective_trace=np.sum(trace, axis=1),
            iterations=len(trace),
            converged="max_iter" not in stop_reason,
            extras={"stop_reason": stop_reason, "column_iterations": iterations}
            if self.per_column else {"stop_reason": stop_reason[0]},
        )


#: objective-stagnation stop for the per-column solver (relative change)
ENET_TOL_OBJECTIVE = 1.2e-3


class _EnetIteration(_Iteration):
    """Elastic-net model: per-column alpha1, k and beta; each column stops
    on its own, and an all-zero column after one sweep."""

    default_tol_objective = ENET_TOL_OBJECTIVE

    def __init__(self, data, config, svd):
        super().__init__(data, config, svd)
        config, svd = self.config, self.svd
        t_count, s = data.n_times, data.n_sources
        self.tau, self.nu = float(s), config.epsilon_prior * s
        self.zero_data = np.sum(self.V * self.V, axis=1) == 0.0
        if config.fixed_hyper is not None:
            self.alpha1 = np.full(t_count, float(config.fixed_hyper[0]))
            self.k = np.full(t_count, truncation_coefficient(*config.fixed_hyper))
        else:
            ss = np.sum(_ridge_mu(svd, self.V) ** 2, axis=1)
            self.alpha1 = np.divide(s, 2.0 * ss, out=np.ones(t_count), where=ss > 0.0)
            self.k = np.ones(t_count)
        self.alpha1[self.zero_data] = self.k[self.zero_data] = 1.0
        self.lam_bar = np.full((t_count, s), 0.5)
        self.beta = np.ones(t_count)
        self.traces = {"alpha1": [], "k": [], "beta": []}

    def scale(self, rows):
        return 2.0 * self.alpha1[rows]

    def objective(self, rows, data, post):
        return neg_log_posterior_enet(
            data, self.svd, post.mu, self.lam_bar[rows].T, self.alpha1[rows], self.k[rows],
            self.beta[rows], self.tau, self.nu, logdet_terms=post.logdet_term).columns

    def record(self):
        for name, trace in self.traces.items():
            trace.append(getattr(self, name).copy())

    def step(self, rows, mu, sigma):
        """lambda_bar, then alpha1, k and beta of the given columns; returns
        the mask of columns that collapsed (every coordinate pruned, so the
        variance scale is undefined)."""
        cfg = self.config
        alpha1, k, beta = self.alpha1[rows], self.k[rows], self.beta[rows]
        lam_bar = update_lambda_bar_enet(mu, sigma, alpha1[:, None], k[:, None])
        collapsed = np.zeros(rows.size, dtype=bool)
        if cfg.learn_alpha1:
            collapsed = ~np.any(lam_bar > 0.0, axis=1)
            alpha1[~collapsed] = update_alpha1(mu[~collapsed], sigma[~collapsed],
                                               lam_bar[~collapsed])
        keep = np.flatnonzero(~collapsed)
        try:
            if cfg.learn_k:
                k[keep] = update_k(lam_bar[keep], self.tau, self.nu, k[keep])
            beta[keep] = update_beta_enet(self.V[rows[keep]], self.K, mu[keep], sigma[keep],
                                          lam_bar[keep], alpha1[keep], mode=cfg.beta_mode)
        except NumericError as exc:
            raise NumericError(str(exc), column=keep[exc.column]) from exc
        kept = rows[keep]
        self.lam_bar[kept] = lam_bar[keep]
        self.alpha1[kept], self.k[kept], self.beta[kept] = alpha1[keep], k[keep], beta[keep]
        return collapsed


def solve_enet(data, config=None, svd=None):
    """Run the elastic-net Bayesian solver on every column independently.

    Returns a Solution whose objective_trace is the per-iteration total
    over columns (columns that finished early are held at their final
    value); extras holds each column's iteration count (column_iterations)
    and stop_reason: "tol", "max_iter", "collapsed" (every coordinate
    pruned) or "zero_data".  Numeric errors name the column and iteration.
    """
    core = _EnetIteration(data, config, svd)
    sol = core.run()
    last = {name: trace[-1] for name, trace in sol.hyper_trace.items()}
    sol.extras.update(tau=core.tau, nu=core.nu, state=EnetHyperState(
        lambda_bar=sol.lambda_bar, tau=core.tau, nu=core.nu, **last))
    return sol
