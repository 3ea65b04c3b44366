"""Classical penalized least-squares baselines.

Covers the closed-form quadratic family (plain ridge and a
Laplacian-weighted variant on the ring) and the majorization solvers for
the L1-bearing penalties (lasso, elastic net, total-variation style
fusion on the ring), with generalized cross-validation for picking the
regularization weight.

The majorization step replaces each |x| by the quadratic
x**2 / (2*(|x0| + eps)) + const, whose exact descent objective is the
smoothed penalty |x| - eps*log(1 + |x|/eps).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericError, SelectionError
from .posterior import BLOCK_BYTES, posterior_moments, svd_decompose, svd_ridge

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
        svd = svd or svd_decompose(K)
        return svd_ridge(svd, lam, V.T).T, float(np.sum(svd.D**2 / (svd.D**2 + lam)))
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


def mm_objective(data, J, spec, eps_lqa=0.0, resid=None):
    """Penalized objective ||V - KJ||^2 + penalty; eps_lqa > 0 gives the
    smoothed penalty the iteration provably descends.  ``resid``, when
    given, is taken for V - KJ instead of computing it."""
    if resid is None:
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
    """(N(N+1)/2, S) table of the products K[a, i] * K[b, i] with a <= b, and
    the (N*N,) index of each Gram entry's row in it: for any stack of
    diagonal weights, every K D_t K' comes out of one product with the
    table and one gather."""
    n = K.shape[0]
    a, b = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[a, b] = index[b, a] = np.arange(a.size)
    return K[a] * K[b], index.ravel()


def _weighted_grams(table, inv_d, n):
    """(T, N, N) stack of K diag(inv_d[:, t]) K', exactly symmetric: one GEMM
    on the _product_table pair, then one gather."""
    products, index = table
    return (products @ inv_d)[index].T.reshape(inv_d.shape[1], n, n)


def _spd_solve(A, B, what):
    """Solve A[t] X = B[t] for every t of an SPD stack, one LAPACK dposv per
    column. Both stacks are overwritten: A by its Cholesky factors, B by the
    solutions, which are returned. Raises NumericError naming the system and
    the column when a factorization fails."""
    for t, (a, b) in enumerate(zip(A, B)):
        # a.T is a's matrix in Fortran order, so dposv factors it in place
        _, x, info = lapack.dposv(a.T, b, lower=0, overwrite_a=1, overwrite_b=1)
        if info:
            raise NumericError(f"{what}: column {t} is not numerically SPD "
                               f"(LAPACK dposv info {info})", column=t)
        b[...] = x  # a copy only where LAPACK could not work on b in place
    return B


def _fusion_pattern(L):
    """Where L'diag(w)L can be nonzero for any w >= 0: the (rows, cols)
    pattern of |L|'|L|, and the (rows(L), nnz) products L[r, rows]*L[r, cols].
    A dense L gives the full pattern."""
    absL = np.abs(L)
    rows, cols = np.nonzero(absL.T @ absL)
    P = L[:, rows]
    P *= L[:, cols]
    return rows, cols, P


def _fusion_blocks(system, J):
    """The majorized normal matrices K'K + alpha2/2 * L'diag(w_t)L at J, one
    block of columns at a time: yields (columns, A), a slice of the T
    columns and their (B, S, S) stack.  B is sized so that the stack takes
    about BLOCK_BYTES, and every block is written into the same buffer, so
    a block is gone once the next is yielded."""
    rows, cols, P = system.pattern
    s = system.KtK.shape[0]
    # one GEMM over all T columns, whatever the blocks: a GEMM's rounding
    # can depend on how many rows it is given
    added = (0.5 * system.alpha2) * (system.weights(J).T @ P)  # (T, nnz)
    t_count = added.shape[0]
    block = max(1, min(t_count, BLOCK_BYTES // (8 * s * s)))
    buffer = np.empty((block, s, s))
    for lo in range(0, t_count, block):
        A = buffer[: min(block, t_count - lo)]
        A[...] = system.KtK
        A[:, rows, cols] += added[lo : lo + len(A)]
        yield slice(lo, lo + len(A)), A


def _lu_solve(A, B):
    """np.linalg.solve(A, B), a singular system raised as NumericError."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"majorized normal equations are singular: {exc}") from exc


@dataclass(frozen=True)
class _MMSystem:
    """The parts of a majorization step that do not depend on J, built once
    per solve: V and the product table for a diagonal penalty (lasso, enet),
    K'V, K'K and the L'diag(w)L pattern for fusion."""

    K: np.ndarray
    alpha1: float
    alpha2: float
    eps: float
    L: np.ndarray | None
    V: np.ndarray | None = None
    table: tuple | None = None
    KtV: np.ndarray | None = None
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
    common = dict(K=K, alpha1=alpha1, alpha2=alpha2, eps=eps, L=L)
    if L is None:
        return _MMSystem(**common, V=data.V, table=_product_table(K))
    return _MMSystem(**common, KtV=K.T @ data.V, KtK=K.T @ K, pattern=_fusion_pattern(L))


def _mm_step(system, J):
    """One majorization step over all columns: the updated (S, T) map, and
    its residual V - K J_new where the step has it for free (lasso, enet),
    else None."""
    K = system.K
    if system.L is None:
        # diagonal quadratic part, by push-through: with M_t = K D_t^{-1} K',
        # (K'K + D_t)^{-1} K'v_t = D_t^{-1} K' (I + M_t)^{-1} v_t, so each
        # column takes one (N, N) solve against v_t and nothing cancels
        n = K.shape[0]
        d = system.weights(J)
        M = _weighted_grams(system.table, 1.0 / d, n)  # (T, N, N)
        # add I through a strided view of the diagonals: M's rows of n*n entries
        # are evenly strided, so this reshape is a view, not a copy
        M.reshape(M.shape[0], n * n)[:, :: n + 1] += 1.0
        # I + M_t has every eigenvalue >= 1, so Cholesky fails only on overflow;
        # _spd_solve overwrites its right-hand side, so it gets a copy of V
        rhs = system.V.T[:, :, None].copy()  # (T, N, 1)
        X = _spd_solve(M, rhs, "majorization step I + K D^{-1} K'")[:, :, 0]  # (T, N)
        # x_t = (I + M_t)^{-1} v_t is the residual: K j_t = M_t x_t = v_t - x_t
        return (K.T @ X.T) / d, X.T
    out = np.empty((J.shape[1], J.shape[0]))  # (T, S)
    for columns, A in _fusion_blocks(system, J):
        out[columns] = _lu_solve(A, system.KtV.T[columns, :, None])[:, :, 0]
    return out.T, None


@dataclass(frozen=True)
class MMInfo:
    """How an mm_solve run ended: steps taken, whether the relative-change
    test was met (False means it stopped at max_iter), and the relative
    change max|J_new - J| / max|J_new| of the last step (0 for an all-zero
    map, None when no step was taken)."""

    iterations: int
    converged: bool
    final_step: float | None


def check_mm_settings(eps_lqa=None, max_iter=None):
    """mm_solve's rule for its smoothing width and step cap: eps_lqa finite
    and positive, max_iter at least 0 (0 returns the all-zero start).  A
    setting left at None is not given, so not checked."""
    if eps_lqa is not None and not 0.0 < eps_lqa < np.inf:
        raise DomainError(f"eps_lqa must be positive and finite, got {eps_lqa!r}")
    if max_iter is not None and max_iter < 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter!r}")


def mm_solve(data, penalty, eps_lqa=1e-8, max_iter=200, tol=1e-6, return_trace=False,
             return_info=False):
    """Majorization-minimization solver for the L1-bearing penalties.

    Iterates reweighted quadratic solves until the relative change of J
    drops below tol; entries with |J| <= eps_lqa are truncated to exact
    zeros afterwards.  Raises NumericError if the (smoothed) objective is
    not finite at the start or after a step, or ever increases beyond
    roundoff.

    Returns J, or a tuple of J followed by the objective trace
    (return_trace) and an MMInfo (return_info), in that order.
    """
    check_mm_settings(eps_lqa, max_iter)
    system = _mm_system(data, penalty, eps_lqa)
    J = np.zeros((data.n_sources, data.n_times))
    converged = False
    final_step = None
    # an overflow shows up as a non-finite objective, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [mm_objective(data, J, penalty, eps_lqa)]
        if not np.isfinite(trace[0]):
            raise NumericError(f"majorization objective is not finite at the start "
                               f"({trace[0]:.12e})")
        for _ in range(max_iter):
            J_new, resid = _mm_step(system, J)
            obj = mm_objective(data, J_new, penalty, eps_lqa, resid=resid)
            if not np.isfinite(obj):
                raise NumericError(f"majorization objective is not finite after step "
                                   f"{len(trace)} ({trace[-1]:.12e} -> {obj:.12e})")
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


def _df_columns(data, spec, eps, J):
    """Per-column effective degrees of freedom trace(K A_t^{-1} K') of the
    majorized problem at J, A_t the step's normal matrix.  It builds only
    what it reads: the weights for lasso and enet, and K'K and the
    L'diag(w)L pattern for fusion."""
    alpha1, alpha2, L = _penalty_weights(spec, data.n_sources)
    K = data.K
    if L is None:
        # the majorized problem is the posterior at prior variances 1/d and
        # noise variance 1: trace(K (K'K + D_t)^{-1} K') = N - resid_dof
        d = _MMSystem(K, alpha1, alpha2, eps, L).weights(J)
        return K.shape[0] - posterior_moments(K, 1.0 / d, 1.0, data.V).resid_dof
    system = _MMSystem(K, alpha1, alpha2, eps, L, KtK=K.T @ K, pattern=_fusion_pattern(L))
    df = np.empty(J.shape[1])
    for columns, A in _fusion_blocks(system, J):
        X = _lu_solve(A, np.broadcast_to(K.T, (len(A),) + K.T.shape))  # (B, S, N)
        df[columns] = np.sum(K.T * X, axis=(1, 2))
    return df


def gcv_select(data, penalty_family, lambda_grid, eps_lqa=1e-8, max_iter=200):
    """Pick the regularization weight minimizing generalized cross-validation.

    GCV(lam) = (||V - K J_lam||^2 / (N*T)) / (1 - df(lam)/N)^2 with df the
    trace of the linearized hat matrix at the converged weights (averaged
    over columns for the majorization arms).  Returns (lam, curve, J, info):
    the winning lambda, the full (lambda, gcv) curve for audit, the winning
    lambda's map and, for the majorization arms, its MMInfo (None for the
    quadratic ones), so that the winner need not be solved again.
    """
    grid = [float(g) for g in np.atleast_1d(lambda_grid)]
    if not grid or any(g <= 0 for g in grid):
        raise DomainError("lambda_grid must be nonempty and positive")
    n, t_count = data.n_sensors, data.n_times
    plain_ridge = penalty_family.kind == "ridge" and penalty_family.L_operator is None
    svd = svd_decompose(data.K) if plain_ridge else None
    curve = []
    best = None
    for lam in grid:
        spec = replace(penalty_family, lam=lam)
        info = None
        if spec.kind in ("ridge", "laplacian_ridge"):
            J, df = _ridge_fit(data, lam, spec.L_operator, svd)
        else:
            J, info = mm_solve(data, spec, eps_lqa=eps_lqa, max_iter=max_iter, return_info=True)
            df = float(np.mean(_df_columns(data, spec, eps_lqa, J)))
        if df >= n:
            curve.append((lam, np.inf))
            continue
        rss = float(np.sum((data.V - data.K @ J) ** 2))
        gcv = (rss / (n * t_count)) / (1.0 - df / n) ** 2
        curve.append((lam, gcv))
        if best is None or gcv < best[1]:
            best = (lam, gcv, J, info)
    if best is None:
        raise SelectionError("effective degrees of freedom reach N on the whole grid")
    return best[0], np.asarray(curve), best[2], best[3]
