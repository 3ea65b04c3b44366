"""Posterior moments of the Gaussian hierarchical model, for a stack of columns.

The model per column is  v = K j + noise,  noise ~ N(0, beta*I),
j ~ N(0, diag(lam)).  The posterior covariance is

    Sigma = ((1/beta) K^T K + diag(lam)^{-1})^{-1}

which is never formed directly on solver paths.  With N sensors and
S >> N sources it lives in sensor space instead: by the Woodbury identity

    Sigma = diag(lam) - diag(lam) K^T A^{-1} K diag(lam),
    A     = K diag(lam) K^T + beta I

so the only dense solve is an N x N SPD system, which beta I keeps
positive definite whatever the rank of K.  The two products per column,
A and C^{-1} K with C the Cholesky factor of A, are taken in strips of
STRIP_ROWS sensor rows, each only as far as its diagonal block: dpotrf
reads no more than A's lower triangle, and C^{-1} is lower triangular.
They cost about 2 N (N + STRIP_ROWS) S flops instead of 4 N^2 S, so
2.5 N^2 S at N = 64 and 3 N^2 S at N = 31.  Zero prior variances enter
multiplicatively, so pruned coordinates come out exactly zero instead of
dividing by zero.  The SVD of K serves the ridge maps (svd_ridge).
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


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior mean, variance diagonal, negative log evidence and
    residual degrees of freedom, of one column ((S,), floats) or T
    ((S, T), (T,)).

    evidence is the Gaussian part of the negative log evidence,
    v'A^{-1}v / 2 + log det(A) / 2 with A = K diag(lam) K' + beta I
    (Tipping 2001), up to the constant (N/2) log(2 pi); it stays finite
    when entries of lam are exactly zero.  resid_dof is N - sum(gamma)
    with gamma_i = 1 - sigma_i / lam_i (MacKay 1992), or beta tr(A^{-1}),
    which lies in (0, N].
    """

    mu: np.ndarray
    sigma_diag: np.ndarray
    evidence: object
    resid_dof: object


def svd_decompose(K):
    """Economy SVD of the lead field K with singular values below 1e-12*max dropped."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
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


#: bytes of one column block's (B, N, S) work array
BLOCK_BYTES = 1 << 20
#: sensor rows per strip of the block's products A = K diag(lam) K' and Y = C^{-1} K
STRIP_ROWS = 16


def _rows(x):
    """An (S, T) map, or one (S,) column, as contiguous (T, S) rows."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float).T))


def _rowwise(A, X):
    """A @ x for every row x of X (or for a 1-D X), as one stack of
    identical per-row products: a row's result does not depend on the
    rows beside it, as it would through one 2-D BLAS call."""
    return np.matmul(A, np.asarray(X, dtype=float)[..., None])[..., 0]


def svd_ridge(svd, lam, v):
    """(K'K + lam I)^{-1} K'v from the SVD of K, for v (N,) or row by row of v (T, N)."""
    coef = svd.D / (svd.D**2 + lam)
    return _rowwise(svd.R, coef * _rowwise(svd.Lmat.T, v))


def posterior_moments(K, lambda_col, beta, v_col):
    """Posterior mean, variance diagonal, evidence and residual degrees of
    freedom in sensor space.

    Parameters
    ----------
    K : (N, S) finite lead field
    lambda_col : (S,) or (S, T) nonnegative prior variances
    beta : positive noise variance, a scalar or (T,)
    v_col : (N,) or (N, T) observations

    Returns
    -------
    PosteriorMoments shaped like lambda_col, with mu_i = sigma_diag_i = 0
    wherever lambda_col_i = 0.

    Columns are processed as rows, in blocks whose (B, N, S) work array
    takes about BLOCK_BYTES.  Per block, A and Y = C^{-1} K are formed in
    strips of STRIP_ROWS sensor rows, rows r0:r1 of each from the first
    r1 rows of K; every strip is one stacked product of identical
    per-column calls, so a column's result is the same to the bit alone
    or in any stack.  A system A that overflows or is not
    numerically SPD, or a variance or evidence that overflows (lam or v
    too large to square), raises NumericError with the column's index in
    ``column``.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or not np.all(np.isfinite(K)):
        raise DomainError("lead field must be a finite 2-D array")
    n, s = K.shape
    ndim = np.ndim(lambda_col)
    lam, v = _rows(lambda_col), _rows(v_col)
    t_count = lam.shape[0]
    if ndim not in (1, 2) or np.ndim(v_col) != ndim or lam.shape[1] != s \
            or v.shape != (t_count, n):
        raise DomainError(f"need lambda_col ({s},) and v_col ({n},), or ({s}, T) and ({n}, T)")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise DomainError("lambda_col must be finite and nonnegative")
    beta = np.asarray(beta, dtype=float)
    if beta.shape not in ((), (t_count,)) or not np.all(np.isfinite(beta)) or np.any(beta <= 0):
        raise DomainError("beta must be positive, a scalar or one per column")
    beta = np.broadcast_to(beta, (t_count,))

    mu, sigma_diag = np.empty((t_count, s)), np.empty((t_count, s))
    evidence, resid_dof = np.empty(t_count), np.empty(t_count)
    block = max(1, BLOCK_BYTES // (8 * n * s))
    strips = [(r0, min(r0 + STRIP_ROWS, n)) for r0 in range(0, n, STRIP_ROWS)]
    for lo in range(0, t_count, block):
        rows = slice(lo, lo + block)
        lam_b = lam[rows]
        # A = K diag(lam) K' + beta I per column, beta added on a strided view
        # of the diagonals; each strip of rows is formed up to the diagonal
        # block only, since dpotrf reads no more than A's lower triangle
        A = np.empty((len(lam_b), n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            work = K * lam_b[:, None, :]  # the block's (B, N, S) array
            for r0, r1 in strips:
                np.matmul(work[:, r0:r1], K[:r1].T, out=A[:, r0:r1, :r1])
        A.reshape(len(A), n * n)[:, :: n + 1] += beta[rows, None]
        # a.T is each matrix as a Fortran-ordered array, so LAPACK works on
        # it in place: dpotrf leaves the factor C in a's lower triangle with
        # the unformed upper one zeroed, and dtrtri turns C into C^{-1}
        c_diag = np.empty((len(A), n))
        for j, a in enumerate(A):
            info = lapack.dpotrf(a.T, lower=0, overwrite_a=1, clean=1)[1]
            if info:
                raise NumericError(
                    f"inner posterior system is not numerically SPD (LAPACK dpotrf info {info}); "
                    f"beta={beta[lo + j]:.3e}, max lam={lam_b[j].max():.3e}", column=lo + j)
            c_diag[j] = np.diagonal(a)
            info = lapack.dtrtri(a.T, lower=0, overwrite_c=1)[1]
            if info:
                raise NumericError(
                    f"inverse of the inner posterior factor failed (LAPACK dtrtri info {info}); "
                    f"beta={beta[lo + j]:.3e}, max lam={lam_b[j].max():.3e}", column=lo + j)
        # dpotrf factors an infinite A without complaint, but an inf or nan
        # in the triangle it reads always reaches the diagonal of C
        bad = np.flatnonzero(~np.all(np.isfinite(c_diag), axis=1))
        if bad.size:
            raise NumericError(f"inner posterior system K diag(lam) K' + beta I overflows "
                               f"(max lam={lam_b[bad[0]].max():.3e})", column=lo + bad[0])

        # Y = C^{-1} K and z = C^{-1} v, so that mu = diag(lam) K' A^{-1} v
        # = lam * (Y' z); Y takes the place of the block's work array, and a
        # strip of C^{-1} is zero to the right of its diagonal block
        for r0, r1 in strips:
            np.matmul(A[:, r0:r1, :r1], K[:r1], out=work[:, r0:r1])
        Y = work
        z = np.matmul(A, v[rows, :, None])
        mu[rows] = lam_b * np.matmul(z.transpose(0, 2, 1), Y)[:, 0]

        # sigma_diag = lam - lam^2 * columnwise ||Y||^2
        q = np.square(Y, out=Y).sum(axis=1)
        del Y, work  # so that it is gone before the next block allocates its own
        with np.errstate(over="ignore", invalid="ignore"):
            sig = lam_b - lam_b * lam_b * q
        bad = np.flatnonzero(~np.all(np.isfinite(sig), axis=1))
        if bad.size:
            j = bad[0]
            raise NumericError(f"posterior variance overflows: lam**2 is beyond the float range "
                               f"(max lam={lam_b[j].max():.3e})", column=lo + j)
        # exact zeros stay exact; tiny negative values are roundoff from the subtraction
        np.clip(sig, 0.0, None, out=sigma_diag[rows])

        # v'A^{-1}v / 2 + log det(A) / 2 = ||z||^2 / 2 + sum log diag C
        with np.errstate(over="ignore"):
            zz = np.sum(np.square(z), axis=(1, 2))
        bad = np.flatnonzero(~np.isfinite(zz))
        if bad.size:
            raise NumericError("posterior evidence: ||C^-1 v||**2 overflows; the data's scale "
                               "is beyond the float range", column=lo + bad[0])
        evidence[rows] = 0.5 * zz + np.sum(np.log(c_diag), axis=1)
        # beta tr(A^{-1}) = beta ||C^{-1}||_F^2; clean=1 left the other triangle zero
        resid_dof[rows] = beta[rows] * np.sum(np.square(A), axis=(1, 2))
    if ndim == 1:
        return PosteriorMoments(mu[0], sigma_diag[0], float(evidence[0]), float(resid_dof[0]))
    return PosteriorMoments(mu.T, sigma_diag.T, evidence, resid_dof)
