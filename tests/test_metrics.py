"""Quality measures: frozen examples, rank-statistic AUC, norm identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from rvmix.errors import DomainError, UndefinedMetricError
from rvmix.metrics import (
    EvalReport,
    evaluate,
    mixed_norm,
    one_minus_corr,
    roc_auc,
    sens_spec,
    sparseness_pct,
)


def auc_threshold_sweep(scores, truth):
    """Oracle: trapezoid area under the ROC curve swept over all thresholds."""
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth, dtype=bool).ravel()
    order = np.argsort(-scores)
    s_sorted = scores[order]
    y_sorted = truth[order]
    # walk distinct thresholds, accumulating TPR/FPR points
    tps = np.cumsum(y_sorted)
    fps = np.cumsum(~y_sorted)
    distinct = np.flatnonzero(np.diff(s_sorted)) if len(s_sorted) > 1 else np.array([], int)
    idx = np.concatenate([distinct, [len(s_sorted) - 1]])
    tpr = np.concatenate([[0.0], tps[idx] / truth.sum()])
    fpr = np.concatenate([[0.0], fps[idx] / (~truth).sum()])
    return 100.0 * float(np.trapezoid(tpr, fpr))


class TestOneMinusCorr:
    def test_perfect(self):
        J = np.random.default_rng(0).standard_normal((5, 4))
        assert one_minus_corr(J, J) == pytest.approx(0.0, abs=1e-12)

    def test_anti(self):
        J = np.random.default_rng(1).standard_normal((5, 4))
        assert one_minus_corr(-J, J) == pytest.approx(2.0, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(UndefinedMetricError):
            one_minus_corr(np.ones((3, 3)), np.random.default_rng(0).standard_normal((3, 3)))


class TestSparseness:
    def test_all_zero(self):
        assert sparseness_pct(np.zeros((4, 4))) == 100.0

    def test_all_ones(self):
        assert sparseness_pct(np.ones((4, 4))) == 0.0

    def test_exact_zero_convention(self):
        J = np.array([[0.0, 1e-9, 1.0]])
        assert sparseness_pct(J, 0.0) == pytest.approx(100.0 / 3)
        assert sparseness_pct(J, 1e-6) == pytest.approx(200.0 / 3)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            sparseness_pct(np.array([np.inf]))

    @pytest.mark.parametrize("zero_tol_rel", [-1.0, np.nan, 1.0, 2.0])
    def test_zero_tol_outside_unit_interval_rejected(self, zero_tol_rel):
        # -1 and nan used to give Sp = 0, and 2 gave 100 %
        with pytest.raises(DomainError, match="zero_tol_rel"):
            sparseness_pct(np.array([[0.0, 0.5, 1.0]]), zero_tol_rel)


class TestSensSpec:
    def test_perfect_recovery(self):
        truth = np.zeros((6, 5), dtype=bool)
        truth[2, :] = True
        J = np.where(truth, 1.0, 0.0)
        assert sens_spec(J, truth) == (100.0, 100.0)

    def test_zero_estimate(self):
        truth = np.zeros((6, 5), dtype=bool)
        truth[2, :] = True
        sens, spec = sens_spec(np.zeros((6, 5)), truth)
        assert sens == 0.0
        assert spec == 100.0

    def test_empty_support_rejected(self):
        with pytest.raises(UndefinedMetricError):
            sens_spec(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_threshold_domain(self):
        truth = np.eye(3, dtype=bool)
        with pytest.raises(DomainError):
            sens_spec(np.ones((3, 3)), truth, threshold_frac=0.0)


class TestRocAuc:
    def test_perfect_separation(self):
        truth = np.array([True] * 5 + [False] * 7)
        scores = np.array([2.0] * 5 + [0.5] * 7)
        assert roc_auc(scores, truth) == 100.0

    def test_permutation_near_half(self):
        rng = np.random.default_rng(42)
        truth = np.zeros(200, dtype=bool)
        truth[:40] = True
        aucs = []
        for _ in range(100):
            scores = rng.standard_normal(200)
            aucs.append(roc_auc(scores, truth))
        assert abs(np.mean(aucs) - 50.0) <= 3.0

    def test_monotone_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.1, 5.0, 150)
        truth = rng.uniform(size=150) < 0.3
        base = roc_auc(scores, truth)
        for f in (np.sqrt, np.log1p, lambda x: x**3, lambda x: 10 * x + 1e-6):
            assert roc_auc(f(np.abs(scores)), truth) == pytest.approx(base, abs=1e-10)

    def test_rank_equals_threshold_sweep(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            scores = np.abs(rng.standard_normal(200))
            if trial % 2 == 0:
                scores = np.round(scores, 1)  # force ties
            truth = rng.uniform(size=200) < 0.25
            if not truth.any() or truth.all():
                continue
            assert roc_auc(scores, truth) == pytest.approx(
                auc_threshold_sweep(scores, truth), abs=1e-10
            )

    def test_equals_rank_statistic_on_ties(self):
        # the Mann-Whitney count is the rank formula, to the bit, on
        # scores with many ties across and within the two classes
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            scores = rng.integers(0, int(rng.integers(1, 10)), n) * rng.choice([1e-3, 1.0, 7.3])
            truth = rng.uniform(size=n) < rng.uniform(0.05, 0.95)
            npos = int(truth.sum())
            if npos in (0, n):
                continue
            ranks = rankdata(scores)
            u = ranks[truth].sum() - npos * (npos + 1) / 2.0
            assert roc_auc(scores, truth) == float(100.0 * u / (npos * (n - npos)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            roc_auc(np.array([1.0, np.nan, 0.5]), np.array([True, False, False]))

    def test_degenerate_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.ones(4), np.array([True, True, True, True]))


class TestMixedNorm:
    def test_elitist_example(self):
        J = np.array([[1.0, -1.0], [2.0, 0.0]])
        # column L1 norms (3, 1) -> sqrt(10); penalty is the square
        assert mixed_norm(J, 1, 2) == pytest.approx(np.sqrt(10.0), rel=1e-12)
        assert mixed_norm(J, 1, 2) ** 2 == pytest.approx(10.0, rel=1e-12)

    def test_frobenius(self):
        J = np.random.default_rng(0).standard_normal((4, 6))
        assert mixed_norm(J, 2, 2) == pytest.approx(np.linalg.norm(J), rel=1e-12)

    def test_single_column_is_lp(self):
        x = np.array([3.0, -4.0])
        assert mixed_norm(x.reshape(-1, 1), 2, 7) == pytest.approx(5.0, rel=1e-12)
        assert mixed_norm(x.reshape(-1, 1), 1, 3) == pytest.approx(7.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mixed_norm(np.ones((2, 2)), 0.5, 2)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=1, max_side=6),
                      elements=st.floats(-10, 10)))
    @settings(max_examples=60, deadline=None)
    def test_elitist_decomposition(self, J):
        # mixed_norm(J,1,2)^2 = sum over columns of the squared column L1
        want = float(np.sum(np.sum(np.abs(J), axis=0) ** 2))
        assert mixed_norm(J, 1, 2) ** 2 == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(hnp.arrays(np.float64, (5, 4), elements=st.floats(-100, 100)))
    @settings(max_examples=40, deadline=None)
    def test_percentages_bounded(self, J):
        assert 0.0 <= sparseness_pct(J) <= 100.0
        truth = np.zeros((5, 4), dtype=bool)
        truth[0, 0] = True
        if np.any(np.abs(J) > 0):
            assert 0.0 <= roc_auc(J, truth) <= 100.0
            sens, spec = sens_spec(J, truth)
            assert 0.0 <= sens <= 100.0
            assert 0.0 <= spec <= 100.0


class TestEvaluate:
    @pytest.mark.parametrize("measure, against", [
        (one_minus_corr, "truth"),
        (lambda est, truth: sens_spec(est, truth != 0.0), "support"),
        (lambda est, truth: roc_auc(est, truth != 0.0), "support"),
    ], ids=["one_minus_corr", "sens_spec", "roc_auc"])
    def test_shape_mismatch_rejected(self, measure, against):
        est, truth = np.arange(15.0).reshape(5, 3), np.eye(5, 4)
        with pytest.raises(DomainError, match=f"shape mismatch between estimate and {against}"):
            measure(est, truth)

    def test_full_row(self):
        truth_support = np.zeros((5, 3), dtype=bool)
        truth_support[1, :] = True
        J_true = np.where(truth_support, 1.0, 0.0)
        rep = evaluate("self", J_true, J_true, truth_support, zero_tol_rel=0.0)
        assert rep.one_minus_corr == pytest.approx(0.0, abs=1e-12)
        assert rep.sensitivity_pct == 100.0
        assert rep.specificity_pct == 100.0
        assert rep.auc_pct == 100.0
        assert rep.sparseness_pct == pytest.approx(100.0 * 12 / 15)
        row = rep.as_row()
        assert row[0] == "self"
        assert len(row) == len(EvalReport.CSV_HEADER)
