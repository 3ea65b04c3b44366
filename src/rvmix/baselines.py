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
    L_operator : (S, S) matrix applied inside the penalty; laplacian_ridge
        requires one, and the fusion arm defaults to the periodic first
        difference
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
        if self.kind == "laplacian_ridge" and self.L_operator is None:
            raise DomainError("laplacian_ridge requires an L_operator")


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


def _ridge_fit(data, lam, L_operator, svd=None):
    """The quadratic-penalty map J = (K'K + lam*L'L)^{-1} K'V and the trace of
    its hat matrix K (K'K + lam*L'L)^{-1} K', from one factorization: the
    SVD with no operator (``svd`` when given, so that a grid factors K
    once), else one dense solve of the normal equations."""
    if lam <= 0:
        raise DomainError("lam must be positive")
    K, V = data.K, data.V
    if L_operator is None:
        svd = svd or svd_decompose(data)
        D2 = svd.D**2
        coef = svd.D / (D2 + lam)
        return svd.R @ (coef[:, None] * (svd.Lmat.T @ V)), float(np.sum(D2 / (D2 + lam)))
    L = np.asarray(L_operator, dtype=float)
    A = K.T @ K + lam * L.T @ L
    try:
        X = np.linalg.solve(A, np.hstack([K.T @ V, K.T]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge normal equations are singular: {exc}") from exc
    J, hat = np.split(X, [V.shape[1]], axis=1)
    return J, float(np.trace(K @ hat))


def ridge_solve(data, lam, L_operator=None):
    """Quadratic-penalty solution J = (K'K + lam*L'L)^{-1} K'V: by the SVD
    with no operator, by the dense normal equations with one."""
    return _ridge_fit(data, lam, L_operator)[0]


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


def _product_table(K):
    """(N*N, S) table of the products K[a, i] * K[b, i]: for any stack of
    diagonal weights, every K D_t K' comes out of one product with it."""
    n, s = K.shape
    return (K[:, None, :] * K[None, :, :]).reshape(n * n, s)


def _weighted_grams(table, inv_d, n):
    """(T, N, N) stack of K diag(inv_d[:, t]) K', one GEMM on the table."""
    return (table @ inv_d).T.reshape(inv_d.shape[1], n, n)


def _fusion_pattern(L):
    """Where L'diag(w)L can be nonzero for any w >= 0: the (rows, cols)
    pattern of |L|'|L|, and the (rows(L), nnz) products L[r, rows]*L[r, cols].
    A dense L gives the full pattern."""
    absL = np.abs(L)
    rows, cols = np.nonzero(absL.T @ absL)
    return rows, cols, L[:, rows] * L[:, cols]


def _fusion_normals(KtK, pattern, w, alpha2):
    """(T, S, S) stack of K'K + alpha2/2 * L'diag(w[:, t])L."""
    rows, cols, P = pattern
    A = np.repeat(KtK[None], w.shape[1], axis=0)
    A[:, rows, cols] += (0.5 * alpha2) * (w.T @ P)
    return A


@dataclass(frozen=True)
class _MMSystem:
    """The parts of a majorization step that do not depend on J, built once
    per solve: the product table for a diagonal penalty (lasso, enet), K'K
    and the L'diag(w)L pattern for fusion."""

    K: np.ndarray
    KtV: np.ndarray
    alpha1: float
    alpha2: float
    eps: float
    L: np.ndarray | None
    table: np.ndarray | None = None
    KtK: np.ndarray | None = None
    pattern: tuple | None = None

    def weights(self, J):
        """The majorizer's weights at J: the (S, T) diagonal d of a lasso or
        enet penalty, or the (rows(L), T) fusion weights w."""
        if self.L is None:
            return self.alpha1 + 0.5 * self.alpha2 / (np.abs(J) + self.eps)
        return 1.0 / (np.abs(self.L @ J) + self.eps)


def _mm_system(data, spec, eps):
    """The _MMSystem of one penalty on one problem."""
    alpha1, alpha2, L = _penalty_weights(spec, data.n_sources)
    K = data.K
    common = dict(K=K, KtV=K.T @ data.V, alpha1=alpha1, alpha2=alpha2, eps=eps, L=L)
    if L is None:
        return _MMSystem(**common, table=_product_table(K))
    return _MMSystem(**common, KtK=K.T @ K, pattern=_fusion_pattern(L))


def _mm_step(system, J):
    """One majorization step over all columns; returns the updated (S, T) map."""
    K, KtV = system.K, system.KtV
    if system.L is None:
        # diagonal quadratic part: through the (N, N) systems I + K D_t^{-1} K'
        n = K.shape[0]
        d = system.weights(J)
        M = _weighted_grams(system.table, 1.0 / d, n)  # (T, N, N)
        M[:, np.arange(n), np.arange(n)] += 1.0
        # the right-hand side stays a batched product: forming it as
        # K @ (KtV / d) reorders its sums, and the capped small-lambda maps
        # amplify that rounding over their steps to ~1e-10 relative
        KtV_d = KtV.T[:, :, None] / d.T[:, :, None]  # (T, S, 1) = D^{-1}K'V
        inner = np.linalg.solve(M, K[None, :, :] @ KtV_d)[:, :, 0]  # (T, N)
        return (KtV - K.T @ inner.T) / d
    A = _fusion_normals(system.KtK, system.pattern, system.weights(J), system.alpha2)
    try:
        return np.linalg.solve(A, KtV.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"majorized normal equations are singular: {exc}") from exc


@dataclass(frozen=True)
class MMInfo:
    """How an mm_solve run ended: steps taken, whether the relative-change
    test was met (False means it stopped at max_iter), and the relative
    change max|J_new - J| / max|J_new| of the last step (0 for an all-zero
    map, None when no step was taken)."""

    iterations: int
    converged: bool
    final_step: float | None


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
    if max_iter < 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter}")
    system = _mm_system(data, penalty, eps_lqa)
    J = np.zeros((data.n_sources, data.n_times))
    trace = [mm_objective(data, J, penalty, eps_lqa)]
    converged = False
    final_step = None
    for _ in range(max_iter):
        J_new = _mm_step(system, J)
        obj = mm_objective(data, J_new, penalty, eps_lqa)
        if obj > trace[-1] + 1e-10 * max(abs(trace[-1]), 1.0):
            raise NumericError(
                f"majorization step increased the objective "
                f"({trace[-1]:.12e} -> {obj:.12e})"
            )
        trace.append(obj)
        scale = float(np.max(np.abs(J_new)))
        step = float(np.max(np.abs(J_new - J)))
        final_step = step / scale if scale > 0.0 else 0.0
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
        out += (MMInfo(iterations=len(trace) - 1, converged=converged, final_step=final_step),)
    return out if len(out) > 1 else J


def _df_columns(system, J):
    """Per-column effective degrees of freedom trace(K A_t^{-1} K') of the
    majorized problem at J, A_t the step's normal matrix."""
    K = system.K
    if system.L is None:
        # trace(K (K'K + D_t)^{-1} K') = trace((I + M_t)^{-1} M_t), M_t = K D_t^{-1} K'
        n = K.shape[0]
        M = _weighted_grams(system.table, 1.0 / system.weights(J), n)
        return np.trace(np.linalg.solve(M + np.eye(n), M), axis1=1, axis2=2)
    A = _fusion_normals(system.KtK, system.pattern, system.weights(J), system.alpha2)
    X = np.linalg.solve(A, np.broadcast_to(K.T, (J.shape[1],) + K.T.shape))  # (T, S, N)
    return np.sum(K.T * X, axis=(1, 2))


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
    plain_ridge = penalty_family.kind == "ridge" and penalty_family.L_operator is None
    svd = svd_decompose(data) if plain_ridge else None
    curve = []
    best = None
    for lam in grid:
        spec = replace(penalty_family, lam=lam)
        if spec.kind in ("ridge", "laplacian_ridge"):
            J, df = _ridge_fit(data, lam, spec.L_operator, svd)
        else:
            J = mm_solve(data, spec, eps_lqa=eps_lqa, max_iter=max_iter)
            df = float(np.mean(_df_columns(_mm_system(data, spec, eps_lqa), J)))
        if df >= n:
            curve.append((lam, np.inf))
            continue
        rss = float(np.sum((data.V - data.K @ J) ** 2))
        gcv = (rss / (n * t_count)) / (1.0 - df / n) ** 2
        curve.append((lam, gcv))
        if best is None or gcv < best[1]:
            best = (lam, gcv)
    if best is None:
        raise SelectionError("effective degrees of freedom reach N on the whole grid")
    return best[0], np.asarray(curve)
