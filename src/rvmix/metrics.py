"""Quality measures for recovered source maps.

All measures operate on the full spatio-temporal matrix (vectorized where
a scalar score is needed).  Percentages are reported in [0, 100].
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedMetricError

#: relative zero threshold for solver outputs that shrink but never prune;
#: about twice the measurement floor of the default 42 dB phantom regime
RVM_ZERO_TOL_REL = 1.5e-2
#: majorization solvers truncate converged coefficients to exact zeros
MM_ZERO_TOL_REL = 0.0


@dataclass(frozen=True)
class EvalReport:
    """One row of the quality table (column order of the summary CSVs)."""

    method: str
    one_minus_corr: float
    sparseness_pct: float
    sensitivity_pct: float
    specificity_pct: float
    auc_pct: float

    def as_row(self):
        return [
            self.method,
            f"{self.one_minus_corr:.6g}",
            f"{self.sparseness_pct:.6g}",
            f"{self.sensitivity_pct:.6g}",
            f"{self.specificity_pct:.6g}",
            f"{self.auc_pct:.6g}",
        ]

    CSV_HEADER = ["method", "1-corr", "Sp", "Sens", "Spec", "AUC"]


def one_minus_corr(J_est, J_true):
    """1 minus the Pearson correlation of the vectorized maps; in [0, 2]."""
    a = np.asarray(J_est, dtype=float).ravel()
    b = np.asarray(J_true, dtype=float).ravel()
    if a.shape != b.shape:
        raise DomainError("shape mismatch between estimate and truth")
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        raise UndefinedMetricError("correlation undefined for a constant map")
    return float(1.0 - np.corrcoef(a, b)[0, 1])


def sparseness_pct(J, zero_tol_rel=RVM_ZERO_TOL_REL):
    """Percentage of entries with |J| <= zero_tol_rel * max|J|.

    Use zero_tol_rel = 0 for solvers that produce exact zeros; it must lie
    in [0, 1).
    """
    if not 0.0 <= zero_tol_rel < 1.0:
        raise DomainError(f"zero_tol_rel must lie in [0, 1), got {zero_tol_rel!r}")
    a = np.abs(np.asarray(J, dtype=float))
    if not np.all(np.isfinite(a)):
        raise DomainError("J must be finite")
    peak = a.max() if a.size else 0.0
    return float(100.0 * np.mean(a <= zero_tol_rel * peak))


def sens_spec(J_est, support_true, threshold_frac=0.01):
    """Sensitivity and specificity of support detection at a relative threshold.

    A cell counts as detected when |J_est| exceeds threshold_frac times the
    maximum absolute estimate.
    """
    if not 0.0 < threshold_frac < 1.0:
        raise DomainError("threshold_frac must lie in (0, 1)")
    a = np.abs(np.asarray(J_est, dtype=float))
    truth = np.asarray(support_true, dtype=bool)
    if a.shape != truth.shape:
        raise DomainError("shape mismatch between estimate and support")
    if not truth.any():
        raise UndefinedMetricError("sensitivity undefined for an empty true support")
    detected = a > threshold_frac * a.max()
    tp = np.count_nonzero(detected & truth)
    fn = np.count_nonzero(~detected & truth)
    tn = np.count_nonzero(~detected & ~truth)
    fp = np.count_nonzero(detected & ~truth)
    sens = 100.0 * tp / (tp + fn)
    spec = 100.0 * tn / (tn + fp) if (tn + fp) else 100.0
    return float(sens), float(spec)


def roc_auc(J_est, support_true):
    """Area under the ROC curve of |J_est| scoring the true support, in percent.

    Computed as the Mann-Whitney count: each (support, off-support) pair
    scores 1 when the support cell's score is larger and 1/2 on a tie,
    which equals the threshold-sweep trapezoid area.
    """
    a = np.abs(np.asarray(J_est, dtype=float)).ravel()
    truth = np.asarray(support_true, dtype=bool).ravel()
    if a.shape != truth.shape:
        raise DomainError("shape mismatch between estimate and support")
    if not np.all(np.isfinite(a)):
        raise DomainError("J_est must be finite")
    npos = int(truth.sum())
    nneg = truth.size - npos
    if npos == 0 or nneg == 0:
        raise UndefinedMetricError("AUC undefined for empty or full true support")
    # off-support scores below each support score, plus half the ties
    neg, pos = np.sort(a[~truth]), a[truth]
    u = 0.5 * float(np.sum(np.searchsorted(neg, pos, "left"))
                    + np.sum(np.searchsorted(neg, pos, "right")))
    return float(100.0 * u / (npos * nneg))


def mixed_norm(J, p, q):
    """Composite norm: L_p inside columns, L_q across columns.

    (sum_t (sum_i |J[i,t]|**p)**(q/p))**(1/q); the elitist penalty is the
    square of mixed_norm(J, 1, 2).
    """
    if p < 1 or q < 1:
        raise DomainError("mixed norm requires p >= 1 and q >= 1")
    a = np.abs(np.atleast_2d(np.asarray(J, dtype=float)))
    col = np.sum(a**p, axis=0) ** (1.0 / p)
    return float(np.sum(col**q) ** (1.0 / q))


def evaluate(method, J_est, J_true, support_true, zero_tol_rel=RVM_ZERO_TOL_REL):
    """Assemble the full quality row for one solution; sensitivity and
    specificity are at sens_spec's default threshold."""
    sens, spec = sens_spec(J_est, support_true)
    return EvalReport(
        method=method,
        one_minus_corr=one_minus_corr(J_est, J_true),
        sparseness_pct=sparseness_pct(J_est, zero_tol_rel),
        sensitivity_pct=sens,
        specificity_pct=spec,
        auc_pct=roc_auc(J_est, support_true),
    )
