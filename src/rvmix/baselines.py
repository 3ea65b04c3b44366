"""Classical penalized least-squares baselines.

Covers the closed-form quadratic family (plain ridge and a
Laplacian-weighted variant on the ring) and the majorization solvers for
the L1-bearing penalties (lasso, elastic net, total-variation style
fusion on the ring), with generalized cross-validation for picking the
regularization weight.

The majorization step replaces each |x| by the quadratic
x**2 / (2*(|x0| + eps)) + const, whose exact descent objective is the
smoothed penalty |x| - eps*log(1 + |x|/eps); both the smoothed and the
plain-L1 objectives are reported.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError, SelectionError
from .posterior import svd_decompose

PENALTY_KINDS = ("ridge", "laplacian_ridge", "lasso", "enet", "lasso_fusion")


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty selector for the classical arms.

    kind : one of ridge | laplacian_ridge | lasso | enet | lasso_fusion
    lam : overall regularization weight (lambda in the penalized objective)
    mu_mix : elastic-net split in (0, 1); the squared-norm weight is
        lam*mu_mix and the L1 weight lam*(1 - mu_mix)
    L_operator : optional (S, S) matrix applied inside the penalty; the
        fusion arm defaults to the periodic first difference
    """

    kind: str
    lam: float
    mu_mix: float | None = None
    L_operator: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise DomainError(f"unknown penalty kind {self.kind!r}")
        if self.lam <= 0 or not np.isfinite(self.lam):
            raise DomainError("lam must be positive and finite")
        if self.kind == "enet":
            if self.mu_mix is None or not 0.0 < self.mu_mix < 1.0:
                raise DomainError("enet requires mu_mix in (0, 1)")


def ring_laplacian(s):
    """Periodic second-difference operator on a ring of s nodes."""
    L = 2.0 * np.eye(s)
    idx = np.arange(s)
    L[idx, (idx + 1) % s] = -1.0
    L[idx, (idx - 1) % s] = -1.0
    return L


def ring_first_difference(s):
    """Periodic first-difference operator on a ring of s nodes."""
    L = np.eye(s)
    idx = np.arange(s)
    L[idx, (idx + 1) % s] = -1.0
    return L


def ridge_solve(data, lam, L_operator=None):
    """Quadratic-penalty solution J = (K'K + lam*L'L)^{-1} K'V.

    With no operator the SVD path is used; with an operator the dense
    normal equations are solved.
    """
    if lam <= 0:
        raise DomainError("lam must be positive")
    if L_operator is None:
        svd = svd_decompose(data)
        coef = svd.D / (svd.D**2 + lam)
        return svd.R @ (coef[:, None] * (svd.Lmat.T @ data.V))
    L = np.asarray(L_operator, dtype=float)
    A = data.K.T @ data.K + lam * L.T @ L
    try:
        return np.linalg.solve(A, data.K.T @ data.V)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge normal equations are singular: {exc}") from exc


def _penalty_weights(spec, s):
    """(alpha1, alpha2, L) decomposition of a penalty for the MM solver."""
    if spec.kind == "lasso":
        return 0.0, spec.lam, None
    if spec.kind == "enet":
        return spec.lam * spec.mu_mix, spec.lam * (1.0 - spec.mu_mix), None
    if spec.kind == "lasso_fusion":
        L = spec.L_operator if spec.L_operator is not None else ring_first_difference(s)
        return 0.0, spec.lam, np.asarray(L, dtype=float)
    raise DomainError(f"{spec.kind} is not a majorization penalty")


def smoothed_abs(x, eps):
    """|x| - eps*log(1 + |x|/eps): the exact descent surrogate of the
    majorization weights 1/(|x| + eps)."""
    a = np.abs(x)
    return a - eps * np.log1p(a / eps)


def mm_objective(data, J, spec, eps_lqa=0.0):
    """Penalized objective ||V - KJ||^2 + penalty; eps_lqa > 0 gives the
    smoothed penalty the iteration provably descends."""
    resid = data.V - data.K @ J
    val = float(np.sum(resid * resid))
    alpha1, alpha2, L = _penalty_weights(spec, data.n_sources)
    arg = J if L is None else L @ J
    if eps_lqa > 0:
        val += alpha2 * float(np.sum(smoothed_abs(arg, eps_lqa)))
    else:
        val += alpha2 * float(np.sum(np.abs(arg)))
    val += alpha1 * float(np.sum(J * J))
    return val


def _mm_step(KtK, KtV, K, J, alpha1, alpha2, L, eps):
    """One batched majorization step; returns the updated (S, T) matrix."""
    s, t_count = J.shape
    if L is None:
        # diagonal quadratic part: go through the (N, N) system per column
        d = alpha1 + 0.5 * alpha2 / (np.abs(J) + eps)  # (S, T)
        KD = K[None, :, :] / d.T[:, None, :]  # (T, N, S) = K D^{-1}
        M = KD @ K.T  # (T, N, N)
        M[:, np.arange(K.shape[0]), np.arange(K.shape[0])] += 1.0
        KtV_d = KtV.T[:, :, None] / d.T[:, :, None]  # (T, S, 1) = D^{-1}K'V
        inner = np.linalg.solve(M, K[None, :, :] @ KtV_d)  # (T, N, 1)
        out = KtV_d - np.transpose(KD, (0, 2, 1)) @ inner
        return out[:, :, 0].T
    w = 1.0 / (np.abs(L @ J) + eps)  # (rows(L), T)
    A = np.empty((t_count, s, s))
    for t in range(t_count):
        A[t] = KtK + 0.5 * alpha2 * (L.T * w[:, t]) @ L
    try:
        return np.linalg.solve(A, KtV.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"majorized normal equations are singular: {exc}") from exc


@dataclass(frozen=True)
class MMInfo:
    """How an mm_solve run ended: steps taken and whether the relative-change
    test was met (False means it stopped at max_iter)."""

    iterations: int
    converged: bool


def mm_solve(data, penalty, eps_lqa=1e-8, max_iter=200, tol=1e-6, return_trace=False,
             return_info=False):
    """Majorization-minimization solver for the L1-bearing penalties.

    Iterates reweighted quadratic solves until the relative change of J
    drops below tol; entries with |J| <= eps_lqa are truncated to exact
    zeros afterwards.  Raises NumericError if the (smoothed) objective
    ever increases beyond roundoff.

    Returns J, or a tuple of J followed by the objective trace
    (return_trace) and an MMInfo (return_info), in that order.
    """
    if eps_lqa <= 0:
        raise DomainError("eps_lqa must be positive")
    alpha1, alpha2, L = _penalty_weights(penalty, data.n_sources)
    K = data.K
    KtK = K.T @ K
    KtV = K.T @ data.V
    J = np.zeros((data.n_sources, data.n_times))
    trace = [mm_objective(data, J, penalty, eps_lqa)]
    converged = False
    for _ in range(max_iter):
        J_new = _mm_step(KtK, KtV, K, J, alpha1, alpha2, L, eps_lqa)
        obj = mm_objective(data, J_new, penalty, eps_lqa)
        if obj > trace[-1] + 1e-10 * max(abs(trace[-1]), 1.0):
            raise NumericError(
                f"majorization step increased the objective "
                f"({trace[-1]:.12e} -> {obj:.12e})"
            )
        trace.append(obj)
        scale = float(np.max(np.abs(J_new)))
        step = float(np.max(np.abs(J_new - J)))
        J = J_new
        if scale == 0.0 or step <= tol * scale:
            converged = True
            break
    J = J.copy()
    J[np.abs(J) <= eps_lqa] = 0.0
    out = (J,)
    if return_trace:
        out += (np.asarray(trace),)
    if return_info:
        out += (MMInfo(iterations=len(trace) - 1, converged=converged),)
    return out if len(out) > 1 else J


def _df_diagonal(K, J, alpha1, alpha2, eps):
    """Per-column effective degrees of freedom through the (N, N) system."""
    d = alpha1 + 0.5 * alpha2 / (np.abs(J) + eps)
    KD = K[None, :, :] / d.T[:, None, :]
    M = KD @ K.T
    eye = np.eye(K.shape[0])
    return np.array([
        float(np.trace(np.linalg.solve(eye + M[t], M[t]))) for t in range(J.shape[1])
    ])


def gcv_select(data, penalty_family, lambda_grid, eps_lqa=1e-8, max_iter=200):
    """Pick the regularization weight minimizing generalized cross-validation.

    GCV(lam) = (||V - K J_lam||^2 / (N*T)) / (1 - df(lam)/N)^2 with df the
    trace of the linearized hat matrix at the converged weights (averaged
    over columns for the majorization arms).  Returns the winning lambda
    and the full (lambda, gcv) curve for audit.
    """
    grid = [float(g) for g in np.atleast_1d(lambda_grid)]
    if not grid or any(g <= 0 for g in grid):
        raise DomainError("lambda_grid must be nonempty and positive")
    n, t_count = data.n_sensors, data.n_times
    curve = []
    best = None
    for lam in grid:
        spec = replace(penalty_family, lam=lam)
        if spec.kind in ("ridge", "laplacian_ridge"):
            L = spec.L_operator
            if spec.kind == "laplacian_ridge" and L is None:
                L = ring_laplacian(data.n_sources)
            J = ridge_solve(data, lam, L)
            A = data.K.T @ data.K + lam * (L.T @ L if L is not None else np.eye(data.n_sources))
            hat = data.K @ np.linalg.solve(A, data.K.T)
            df = np.full(t_count, float(np.trace(hat)))
        else:
            J = mm_solve(data, spec, eps_lqa=eps_lqa, max_iter=max_iter)
            alpha1, alpha2, L = _penalty_weights(spec, data.n_sources)
            if L is None:
                df = _df_diagonal(data.K, J, alpha1, alpha2, eps_lqa)
            else:
                w = 1.0 / (np.abs(L @ J) + eps_lqa)
                df = np.empty(t_count)
                for t in range(t_count):
                    A = data.K.T @ data.K + 0.5 * alpha2 * (L.T * w[:, t]) @ L
                    hat = data.K @ np.linalg.solve(A, data.K.T)
                    df[t] = float(np.trace(hat))
        df_mean = float(np.mean(df))
        if df_mean >= n:
            curve.append((lam, np.inf))
            continue
        rss = float(np.sum((data.V - data.K @ J) ** 2))
        gcv = (rss / (n * t_count)) / (1.0 - df_mean / n) ** 2
        curve.append((lam, gcv))
        if best is None or gcv < best[1]:
            best = (lam, gcv)
    if best is None:
        raise SelectionError("effective degrees of freedom reach N on the whole grid")
    return best[0], np.asarray(curve)
