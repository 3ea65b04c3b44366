"""Posterior moments of the Gaussian hierarchical model, for a stack of columns.

The model per column is  v = K j + noise,  noise ~ N(0, beta*I),
j ~ N(0, diag(lam)).  The posterior covariance is

    Sigma = ((1/beta) K^T K + diag(lam)^{-1})^{-1}

which is never formed directly on solver paths.  Instead we factor
K = L D R^T once (economy SVD, rank-truncated) and use the Woodbury
identity

    Sigma = diag(lam) - diag(lam) R M^{-1} R^T diag(lam),
    M     = R^T diag(lam) R + beta D^{-2}

so the only dense solve is an r x r SPD system (r = rank of K).  Zero
prior variances enter multiplicatively, so pruned coordinates come out
exactly zero instead of dividing by zero.  A dense O(S^3) reference
implementation is kept as an oracle for tests.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericError, RankError


@dataclass(frozen=True)
class ProblemData:
    """A discrete linear observation model: observations = K @ sources + noise."""

    K: np.ndarray  # (N, S) lead field
    V: np.ndarray  # (N, T) observations

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        V = np.asarray(self.V, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "V", V)
        if not np.all(np.isfinite(K)) or not np.all(np.isfinite(V)):
            raise DomainError("K and V must be finite")
        if K.shape[0] != V.shape[0]:
            raise DomainError(f"row mismatch: K has {K.shape[0]} rows, V has {V.shape[0]}")

    @property
    def n_sensors(self):
        return self.K.shape[0]

    @property
    def n_sources(self):
        return self.K.shape[1]

    @property
    def n_times(self):
        return self.V.shape[1]


@dataclass(frozen=True)
class LeadFieldSVD:
    """Rank-truncated economy SVD of the lead field, K ~= Lmat @ diag(D) @ R.T."""

    Lmat: np.ndarray  # (N, r) orthonormal columns
    D: np.ndarray  # (r,) singular values, descending, strictly positive
    R: np.ndarray  # (S, r) orthonormal columns

    @property
    def rank(self):
        return self.D.size

    @property
    def n_sources(self):
        return self.R.shape[0]

    def reconstruct(self):
        return (self.Lmat * self.D) @ self.R.T


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior mean, variance diagonal and determinant term, of one
    column ((S,) arrays, a float) or of T columns ((S, T) arrays, (T,)).

    logdet_term is log det(I + (1/beta) diag(lam) K^T K), i.e. the sum
    log|diag(lam)| + log|Sigma^{-1}| in a form that stays finite when
    entries of lam are exactly zero.
    """

    mu: np.ndarray
    sigma_diag: np.ndarray
    logdet_term: object


def svd_decompose(data):
    """Economy SVD of the lead field with singular values below 1e-12*max dropped."""
    K = data.K if isinstance(data, ProblemData) else np.atleast_2d(np.asarray(data, dtype=float))
    if not np.all(np.isfinite(K)):
        raise DomainError("lead field must be finite")
    try:
        U, s, Vt = np.linalg.svd(K, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is rare
        raise NumericError(f"SVD of the lead field failed: {exc}") from exc
    if s.size == 0 or s[0] <= 0.0:
        raise RankError("lead field has rank zero")
    keep = s > 1e-12 * s[0]
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise RankError("lead field has rank zero after truncation")
    return LeadFieldSVD(Lmat=U[:, :r].copy(), D=s[:r].copy(), R=Vt[:r].T.copy())


#: bytes of one column block's (B, r, S) work array
BLOCK_BYTES = 1 << 20


def _rows(x):
    """An (S, T) map, or one (S,) column, as contiguous (T, S) rows."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float).T))


def _rowwise(A, X):
    """A @ x for every row x of X (or for a 1-D X), as one stack of
    identical per-row products: a row's result does not depend on the
    rows beside it, as it would through one 2-D BLAS call."""
    return np.matmul(A, np.asarray(X, dtype=float)[..., None])[..., 0]


def _not_spd(M, lam, beta, offset):
    """NumericError naming the first matrix of the stack M that Cholesky
    rejects; a stacked factorization does not say which."""
    for j, m in enumerate(M):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            break
    return NumericError(
        f"inner posterior system is not numerically SPD (cond ~ {np.linalg.cond(m):.3e}); "
        f"beta={beta[j]:.3e}, max lam={lam[j].max():.3e}", column=offset + j)


def posterior_moments(svd, lambda_col, beta, v_col):
    """Posterior mean, variance diagonal and determinant term via the SVD path.

    Parameters
    ----------
    svd : LeadFieldSVD
    lambda_col : (S,) or (S, T) nonnegative prior variances
    beta : positive noise variance, a scalar or (T,)
    v_col : (N,) or (N, T) observations

    Returns
    -------
    PosteriorMoments shaped like lambda_col, with mu_i = sigma_diag_i = 0
    wherever lambda_col_i = 0.

    Columns are processed as rows, in blocks whose (B, r, S) work array
    takes about BLOCK_BYTES, so a column's result is the same to the bit
    alone or in any stack.  A non-SPD inner system raises NumericError
    with the column's index in ``column``.
    """
    ndim = np.ndim(lambda_col)
    lam, v = _rows(lambda_col), _rows(v_col)
    t_count, s, r = lam.shape[0], svd.n_sources, svd.rank
    if ndim not in (1, 2) or np.ndim(v_col) != ndim or lam.shape[1] != s \
            or v.shape != (t_count, svd.Lmat.shape[0]):
        raise DomainError(f"lambda_col and v_col must be ({s},) and (N,) or ({s}, T) and (N, T)")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise DomainError("lambda_col must be finite and nonnegative")
    beta = np.asarray(beta, dtype=float)
    if beta.shape not in ((), (t_count,)) or not np.all(np.isfinite(beta)) or np.any(beta <= 0):
        raise DomainError("beta must be positive, a scalar or one per column")
    beta = np.broadcast_to(beta, (t_count,))

    R, D = svd.R, svd.D
    # R^T in C order: the (B, r, S) products below run faster on it than
    # on the Fortran-ordered view R.T
    Rt = np.ascontiguousarray(R.T)
    diag = np.arange(r)
    mu, sigma_diag, logdet = np.empty((t_count, s)), np.empty((t_count, s)), np.empty(t_count)
    block = max(1, BLOCK_BYTES // (8 * s * r))
    for lo in range(0, t_count, block):
        rows = slice(lo, lo + block)
        lam_b = lam[rows]
        # M = R^T diag(lam) R + beta D^{-2}, one r x r matrix per column
        M = np.matmul(Rt * lam_b[:, None, :], R)
        M[:, diag, diag] += beta[rows, None] / (D * D)
        try:
            C = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise _not_spd(M, lam_b, beta[rows], lo) from None

        # Y = C^{-1} R^T and z = C^{-1} D^{-1} L^T v, so that
        # mu = diag(lam) R M^{-1} D^{-1} L^T v = lam * (Y^T z); the small
        # C^{-1} keeps Y the only (B, r, S) array a solve allocates
        C_inv = C.copy()
        for j, c in enumerate(C_inv):
            # c.T is the factor as a Fortran-ordered upper triangle, so
            # LAPACK inverts it in place; scipy's batched solve_triangular
            # is a Python loop that checks every matrix again
            info = lapack.dtrtri(c.T, lower=0, overwrite_c=1)[1]
            if info:
                raise NumericError(
                    f"inverse of the inner posterior factor failed (LAPACK info {info}); "
                    f"beta={beta[lo + j]:.3e}, max lam={lam_b[j].max():.3e}", column=lo + j)
        Y = np.matmul(C_inv, Rt)
        z = np.matmul(C_inv, (_rowwise(svd.Lmat.T, v[rows]) / D)[:, :, None])
        mu[rows] = lam_b * np.matmul(z.transpose(0, 2, 1), Y)[:, 0]

        # sigma_diag = lam - lam^2 * columnwise ||Y||^2
        q = np.square(Y, out=Y).sum(axis=1)
        del Y  # so that it is gone before the next block allocates its own
        # exact zeros stay exact; tiny negative values are roundoff from the subtraction
        np.clip(lam_b - lam_b * lam_b * q, 0.0, None, out=sigma_diag[rows])

        # log det(I + (1/beta) diag(lam) K^T K) = log det M + 2 sum log D - r log beta
        logdet[rows] = (2.0 * np.sum(np.log(np.diagonal(C, axis1=1, axis2=2)), axis=1)
                        + 2.0 * np.sum(np.log(D)) - r * np.log(beta[rows]))
    if ndim == 1:
        return PosteriorMoments(mu=mu[0], sigma_diag=sigma_diag[0], logdet_term=float(logdet[0]))
    return PosteriorMoments(mu=mu.T, sigma_diag=sigma_diag.T, logdet_term=logdet)


def posterior_direct(K, lambda_col, beta, v_col):
    """Dense O(S^3) oracle: invert (1/beta) K^T K + diag(lam)^{-1} directly.

    Zero prior variances are floored at 1e-300 so the inverse exists; this
    routine exists for tests and small problems only.
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
    sign, logdet_prec = np.linalg.slogdet(prec)
    if sign <= 0:
        raise NumericError("direct posterior precision is not positive definite")
    logdet = float(np.sum(np.log(lam)) + logdet_prec)
    return PosteriorMoments(mu=mu, sigma_diag=np.diag(sigma).copy(), logdet_term=logdet)
