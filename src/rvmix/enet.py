"""Elastic-net flavored sparse Bayesian solver with hyperparameter learning.

Per column of the observation matrix the solver alternates posterior
moments with closed-form coordinate updates of the unit-interval variance
factors, the variance scale, the truncation coefficient of the Gamma
mixing density, and (optionally) the noise variance.  Columns are fully
independent, so solving them in any order gives identical results.

Coefficients are never pruned: a coordinate whose variance factor falls
to numerical zero keeps participating and may grow back later.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DomainError, NumericError
from .objective import neg_log_posterior_enet
from .posterior import ProblemData, posterior_moments, svd_decompose
from .rootfind import bracketed_root
from .special import gamma_half_hazard

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
    epsilon_prior : epsilon in nu = epsilon * S for the Gamma prior of the
        truncation coefficient (tau is fixed at S).
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
    rank_tol: float = 1e-12

    def __post_init__(self):
        if self.beta_mode not in ("fixed_one", "learned"):
            raise DomainError(f"beta_mode must be fixed_one or learned, got {self.beta_mode!r}")
        if self.max_iter < 1 or self.tol_mu <= 0:
            raise DomainError("max_iter must be >= 1 and tolerances positive")
        if self.tol_objective is not None and self.tol_objective <= 0:
            raise DomainError("tol_objective must be positive")
        if self.fixed_hyper is not None:
            a1, a2 = self.fixed_hyper
            if a1 <= 0 or a2 < 0:
                raise DomainError("fixed_hyper needs alpha1 > 0 and alpha2 >= 0")
            self.learn_k = False
            self.learn_alpha1 = False

    def fixed_k(self):
        a1, a2 = self.fixed_hyper
        return a2 * a2 / (4.0 * a1)


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
    Gaussian limit and returns the cap directly.  mu_i, sigma_ii and k
    are scalars or arrays broadcast elementwise, so the mixed-norm solver
    passes its per-coordinate truncations alpha * delta**2 as one array;
    entries with k == 0 get the cap.
    """
    mu_arr = np.asarray(mu_i, dtype=float)
    sig = np.asarray(sigma_ii, dtype=float)
    kk = np.asarray(k, dtype=float)
    if np.any(sig < 0):
        raise DomainError("sigma_ii must be nonnegative")
    if alpha1 <= 0 or np.any(kk < 0):
        raise DomainError("alpha1 must be positive and k nonnegative")
    c = (mu_arr * mu_arr + sig) * alpha1 * kk
    eta = c / (0.25 + np.sqrt(0.0625 + c))
    # eta > 0 implies k > 0, so the division never meets 0/0
    lam_bar = np.divide(eta, kk + eta, out=np.zeros_like(eta), where=eta > 0.0)
    out = np.where(kk == 0.0, LAMBDA_BAR_CAP, np.minimum(lam_bar, LAMBDA_BAR_CAP))
    return float(out) if out.ndim == 0 else out


def update_alpha1(mu_col, sigma_diag_col, lambda_bar_col):
    """Stationary variance scale (S/2) / sum((mu^2 + sigma)/lambda_bar)."""
    mu = np.asarray(mu_col, dtype=float)
    sig = np.asarray(sigma_diag_col, dtype=float)
    lb = np.asarray(lambda_bar_col, dtype=float)
    m2s = mu * mu + sig
    alive = lb > 0.0
    if np.any(~alive & (m2s > 0.0)):
        raise DomainError("zero lambda_bar with nonzero moments is inconsistent")
    denom = float(np.sum(m2s[alive] / lb[alive]))
    if denom <= 0.0:
        raise DegenerateStateError("every coordinate is pruned; variance scale undefined")
    return 0.5 * lb.shape[0] / denom


def _k_gradient_terms(lambda_bar_col, tau, nu):
    """The k-free parts of k_gradient: (sum(1/(1-lb)) + nu, tau - S/2, S)."""
    lb = np.asarray(lambda_bar_col, dtype=float)
    s = lb.shape[0]
    return float(np.sum(1.0 / (1.0 - lb))) + nu, tau - 0.5 * s, s


def k_gradient(k, lambda_bar_col, tau, nu, terms=None):
    """Derivative of the objective along the truncation coefficient k > 0.

    terms : optional _k_gradient_terms(lambda_bar_col, tau, nu).  The root
        search passes it, so each of its evaluations is a few float
        operations and one hazard; the value is the same to the bit.
    """
    lead, tau_term, s = terms or _k_gradient_terms(lambda_bar_col, tau, nu)
    if not 0.0 < k < math.inf:
        raise DomainError(f"k must be positive and finite, got {k!r}")
    return lead - tau_term / k - s * gamma_half_hazard(k)


def update_k(lambda_bar_col, tau, nu):
    """Truncation coefficient as the root of its gradient on (0, inf).

    Bracketed search expanding from [1e-10, 1e10]; with tau = S the
    gradient has a single sign change.  The k-free parts of k_gradient
    are computed once per root.  Raises RootFindError (with the
    offending state in the message) when no bracket is found.
    """
    lb = np.asarray(lambda_bar_col, dtype=float)
    if np.any(lb < 0) or np.any(lb >= 1):
        raise DomainError("lambda_bar must lie in [0, 1)")
    terms = _k_gradient_terms(lb, tau, nu)
    ctx = f"sum 1/(1-lb) + nu={terms[0]:.6e}, tau={tau}, nu={nu}"
    return bracketed_root(lambda k: k_gradient(k, lb, tau, nu, terms), context=ctx)


def update_beta_enet(v_col, K, mu_col, sigma_diag_col, lambda_bar_col, alpha1, mode="learned"):
    """Closed-form noise variance; disabled (returns 1.0) under fixed_one."""
    if mode == "fixed_one":
        return 1.0
    v = np.asarray(v_col, dtype=float)
    mu = np.asarray(mu_col, dtype=float)
    sig = np.asarray(sigma_diag_col, dtype=float)
    lb = np.asarray(lambda_bar_col, dtype=float)
    resid = v - np.asarray(K, dtype=float) @ mu
    alive = lb > 0.0
    n = v.shape[0]
    denom = n + 2.0 * alpha1 * float(np.sum(sig[alive] / lb[alive])) - lb.shape[0]
    if denom <= 0.0:
        raise NumericError(f"noise variance denominator is not positive ({denom:.6e})")
    beta = float(resid @ resid) / denom
    return max(beta, 1e-12)


def _ridge_mu(svd, v, shrink=1e-2):
    """Cheap ridge pass used only to seed the hyperparameters."""
    lam_r = shrink * float(np.mean(svd.D**2))
    coef = svd.D / (svd.D**2 + lam_r)
    return svd.R @ (coef * (svd.Lmat.T @ v))


#: objective-stagnation stop for the per-column solver (relative change)
ENET_TOL_OBJECTIVE = 1.2e-3


def _solve_enet_column(data, svd, v, config, tau, nu, tol_objective):
    s = svd.n_sources
    if float(v @ v) == 0.0:
        post = posterior_moments(svd, np.full(s, 0.25), 1.0, v)
        lb0 = np.full((s, 1), 0.5)
        obj = neg_log_posterior_enet(
            ProblemData(K=data.K, V=v.reshape(-1, 1)), svd,
            np.zeros((s, 1)), lb0, 1.0, 1.0, 1.0, tau, nu,
        ).total
        return {
            "mu": np.zeros(s), "sigma_diag": post.sigma_diag, "lambda_bar": lb0[:, 0],
            "objective": [obj], "alpha1": [1.0], "k": [1.0], "beta": [1.0],
            "converged": True,
        }

    if config.fixed_hyper is not None:
        alpha1 = float(config.fixed_hyper[0])
        k = config.fixed_k()
    else:
        mu_r = _ridge_mu(svd, v)
        ss = float(np.sum(mu_r**2))
        alpha1 = s / (2.0 * ss) if ss > 0 else 1.0
        k = 1.0
    lam_bar = np.full(s, 0.5)
    beta = 1.0

    col_data = ProblemData(K=data.K, V=v.reshape(-1, 1))
    obj_trace, a1_trace, k_trace, b_trace = [], [], [], []
    prev_mu = None
    prev_obj = None
    converged = False
    mu = np.zeros(s)
    sigma_diag = np.zeros(s)

    for it in range(config.max_iter):
        op = "posterior moments"
        try:
            lam = lam_bar / (2.0 * alpha1)
            post = posterior_moments(svd, lam, beta, v)
            mu, sigma_diag = post.mu, post.sigma_diag
            op = "objective"
            obj = neg_log_posterior_enet(
                col_data, svd, mu.reshape(-1, 1), lam_bar.reshape(-1, 1),
                alpha1, k, beta, tau, nu, logdet_terms=(post.logdet_term,),
            ).total
        except NumericError as exc:
            raise NumericError(f"iteration {it + 1}, {op}: {exc}") from exc
        obj_trace.append(obj)
        a1_trace.append(alpha1)
        k_trace.append(k)
        b_trace.append(beta)

        if prev_mu is not None:
            scale = float(np.max(np.abs(mu)))
            delta = float(np.max(np.abs(mu - prev_mu)))
            rel = delta / scale if scale > 0 else (0.0 if delta == 0.0 else np.inf)
            dobj = abs(obj - prev_obj) <= tol_objective * max(abs(obj), 1.0)
            if rel <= config.tol_mu and dobj:
                converged = True
                break
        prev_mu, prev_obj = mu, obj

        lam_bar = update_lambda_bar_enet(mu, sigma_diag, alpha1, k)
        try:
            if config.learn_alpha1:
                op = "variance scale update"
                alpha1 = update_alpha1(mu, sigma_diag, lam_bar)
            if config.learn_k:
                op = "truncation update"
                k = update_k(lam_bar, tau, nu)
            op = "noise update"
            beta = update_beta_enet(v, data.K, mu, sigma_diag, lam_bar, alpha1,
                                    mode=config.beta_mode)
        except DegenerateStateError:
            mu = np.zeros(s)
            sigma_diag = np.zeros(s)
            lam_bar = np.zeros(s)
            converged = True
            break
        except NumericError as exc:
            raise NumericError(f"iteration {it + 1}, {op}: {exc}") from exc

    return {
        "mu": mu, "sigma_diag": sigma_diag, "lambda_bar": lam_bar,
        "objective": obj_trace, "alpha1": a1_trace, "k": k_trace, "beta": b_trace,
        "converged": converged,
    }


def solve_enet(data, config=None, svd=None):
    """Run the elastic-net Bayesian solver on every column independently.

    Returns a Solution whose objective_trace is the per-iteration total
    over columns (columns that finished early are held at their final
    value).  Raised numeric errors carry (column, operation) context.
    """
    config = config or SolverConfig()
    if not isinstance(data, ProblemData):
        raise DomainError("data must be a ProblemData")
    svd = svd or svd_decompose(data, config.rank_tol)
    s, t_count = data.n_sources, data.n_times
    tau = float(s)
    nu = config.epsilon_prior * s

    tol_objective = config.tol_objective if config.tol_objective is not None else ENET_TOL_OBJECTIVE
    cols = []
    for t in range(t_count):
        try:
            cols.append(_solve_enet_column(data, svd, data.V[:, t], config, tau, nu,
                                           tol_objective))
        except NumericError as exc:
            raise NumericError(f"column {t}: {exc}") from exc

    iters = max(len(c["objective"]) for c in cols)

    def padded(key):
        out = np.empty((iters, t_count))
        for t, c in enumerate(cols):
            seq = c[key]
            out[: len(seq), t] = seq
            out[len(seq):, t] = seq[-1]
        return out

    objective_trace = padded("objective").sum(axis=1)
    lambda_bar = np.column_stack([c["lambda_bar"] for c in cols])
    state = EnetHyperState(
        lambda_bar=lambda_bar,
        alpha1=np.array([c["alpha1"][-1] for c in cols]),
        k=np.array([c["k"][-1] for c in cols]),
        beta=np.array([c["beta"][-1] for c in cols]),
        tau=tau, nu=nu,
    )
    solution = Solution(
        mu=np.column_stack([c["mu"] for c in cols]),
        sigma_diag=np.column_stack([c["sigma_diag"] for c in cols]),
        lambda_bar=lambda_bar,
        hyper_trace={
            "alpha1": padded("alpha1"),
            "k": padded("k"),
            "beta": padded("beta"),
        },
        objective_trace=objective_trace,
        iterations=iters,
        converged=all(c["converged"] for c in cols),
        extras={"tau": tau, "nu": nu, "state": state},
    )
    return solution
