"""Posterior moment computations: the sensor-space path against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvmix import posterior
from rvmix.errors import DomainError, RankError
from rvmix.posterior import (
    ProblemData,
    posterior_moments,
    svd_decompose,
    svd_ridge,
)

from oracles import posterior_direct, reconstruct


def rel_dev(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / scale


class TestSvdDecompose:
    def test_identity(self):
        svd = svd_decompose(np.eye(3))
        assert svd.rank == 3
        np.testing.assert_allclose(svd.D, np.ones(3))

    def test_zero_matrix_rejected(self):
        with pytest.raises(RankError):
            svd_decompose(np.zeros((3, 4)))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        K = rng.standard_normal((31, 200))
        svd = svd_decompose(K)
        resid = np.linalg.norm(K - reconstruct(svd)) / np.linalg.norm(K)
        assert resid <= 1e-10

    def test_rank_truncation(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 4))
        K = A @ rng.standard_normal((4, 50))  # rank 4
        svd = svd_decompose(K)
        assert svd.rank == 4

    def test_takes_the_lead_field_of_a_problem(self):
        data = ProblemData(K=np.eye(2), V=np.zeros((2, 1)))
        assert svd_decompose(data.K).rank == 2

    def test_ridge_matches_normal_equations_row_by_row(self):
        # svd_ridge is (K'K + lam I)^{-1} K'v, and a stack of columns as
        # rows gives each row what the column gives alone, to the bit
        rng = np.random.default_rng(8)
        K = rng.standard_normal((7, 25))
        V = rng.standard_normal((4, 7))
        svd = svd_decompose(K)
        stacked = svd_ridge(svd, 0.3, V)
        direct = np.linalg.solve(K.T @ K + 0.3 * np.eye(25), K.T @ V.T).T
        np.testing.assert_allclose(stacked, direct, rtol=1e-10, atol=1e-12)
        for t in range(4):
            np.testing.assert_array_equal(stacked[t], svd_ridge(svd, 0.3, V[t]))


class TestPosteriorMoments:
    def test_identity_case(self):
        # K = I, lam = 1, beta = 1: Sigma = (I + I)^{-1} = I/2, mu = v/2
        K = np.eye(3)
        v = np.array([1.0, -2.0, 0.5])
        post = posterior_moments(K, np.ones(3), 1.0, v)
        np.testing.assert_allclose(post.mu, v / 2)
        np.testing.assert_allclose(post.sigma_diag, np.full(3, 0.5))
        # A = 2I: v'v / 4 + (3/2) log 2
        assert post.evidence == pytest.approx(5.25 / 4 + 1.5 * np.log(2.0), rel=1e-12)
        # gamma_i = 1 - 0.5 / 1 each, so N - sum(gamma) = 3/2
        assert post.resid_dof == pytest.approx(1.5, rel=1e-15)

    def test_all_pruned(self):
        K = np.eye(3)
        post = posterior_moments(K, np.zeros(3), 1.0, np.ones(3))
        assert np.all(post.mu == 0.0)
        assert np.all(post.sigma_diag == 0.0)
        assert post.evidence == 1.5  # A = I: ||v||^2 / 2
        assert post.resid_dof == 3.0

    def test_partial_pruning_exact_zeros(self):
        rng = np.random.default_rng(0)
        K = rng.standard_normal((4, 9))
        lam = rng.uniform(0.1, 2.0, size=9)
        lam[[1, 5, 6]] = 0.0
        post = posterior_moments(K, lam, 0.7, rng.standard_normal(4))
        assert np.all(post.mu[[1, 5, 6]] == 0.0)
        assert np.all(post.sigma_diag[[1, 5, 6]] == 0.0)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(42)
        K = rng.standard_normal((10, 40))
        lam = rng.uniform(0.05, 3.0, size=40)
        v = rng.standard_normal(10)
        fast = posterior_moments(K, lam, 1.3, v)
        ref = posterior_direct(K, lam, 1.3, v)
        assert rel_dev(fast.mu, ref.mu) <= 1e-8
        assert rel_dev(fast.sigma_diag, ref.sigma_diag) <= 1e-8
        assert fast.evidence == pytest.approx(ref.evidence, rel=1e-9)

    def test_woodbury_equivalence_many_instances(self):
        # underdetermined instances with log-uniform prior variances
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(5, 21))
            s = int(rng.integers(10, 101))
            K = rng.standard_normal((n, s))
            lam = 10.0 ** rng.uniform(-6, 2, size=s)
            beta = float(10.0 ** rng.uniform(-1, 1))
            v = rng.standard_normal(n)
            fast = posterior_moments(K, lam, beta, v)
            ref = posterior_direct(K, lam, beta, v)
            worst = max(worst, rel_dev(fast.mu, ref.mu), rel_dev(fast.sigma_diag, ref.sigma_diag))
        assert worst <= 1e-7

    def test_resid_dof_matches_oracle(self):
        # N - sum(1 - sigma/lam) of the dense posterior, over random problems
        # with some prior variances exactly zero, which the oracle floors
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(4, 21))
            s = int(rng.integers(n, 81))
            K = rng.standard_normal((n, s))
            lam = 10.0 ** rng.uniform(-4, 2, size=s) * (rng.random(s) < 0.8)
            beta = float(10.0 ** rng.uniform(-1, 1))
            v = rng.standard_normal(n)
            fast = posterior_moments(K, lam, beta, v)
            ref = posterior_direct(K, lam, beta, v)
            assert 0.0 < fast.resid_dof <= n
            worst = max(worst, abs(fast.resid_dof - ref.resid_dof) / ref.resid_dof)
        assert worst <= 1e-10

    def test_monotone_pruning(self):
        rng = np.random.default_rng(5)
        K = rng.standard_normal((6, 12))
        lam = np.full(12, 1.0)
        v = rng.standard_normal(6)
        i = 4
        prev_mu, prev_sig = np.inf, np.inf
        for scale in [1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 0.0]:
            lam_i = lam.copy()
            lam_i[i] = scale
            post = posterior_moments(K, lam_i, 1.0, v)
            assert abs(post.mu[i]) <= prev_mu + 1e-15
            assert post.sigma_diag[i] <= prev_sig + 1e-15
            prev_mu, prev_sig = abs(post.mu[i]), post.sigma_diag[i]
        assert prev_mu == 0.0 and prev_sig == 0.0

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(11)
        K = rng.standard_normal((8, 30))
        lam = 10.0 ** rng.uniform(-5, 2, size=30)
        post = posterior_moments(K, lam, 0.5, rng.standard_normal(8))
        assert np.all(post.sigma_diag <= lam * (1 + 1e-12))
        assert np.all(post.sigma_diag >= 0)

    def test_domain_errors(self):
        K = np.eye(3)
        with pytest.raises(DomainError):
            posterior_moments(K, -np.ones(3), 1.0, np.zeros(3))
        with pytest.raises(DomainError):
            posterior_moments(K, np.ones(3), 0.0, np.zeros(3))
        with pytest.raises(DomainError):
            posterior_moments(K, np.ones(4), 1.0, np.zeros(3))


class TestStackedPosterior:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), s=st.integers(1, 14),
           t=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_oracle_column_by_column(self, seed, n, s, t):
        # random small problems, some prior variances exactly zero; each
        # column of the stacked call equals the one-column call to the bit
        # and the dense oracle to roundoff
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, s))
        lam = rng.uniform(0.05, 3.0, (s, t)) * (rng.random((s, t)) < 0.7)
        beta = rng.uniform(0.3, 2.0, t)
        V = rng.standard_normal((n, t))
        stacked = posterior_moments(K, lam, beta, V)
        assert stacked.mu.shape == stacked.sigma_diag.shape == (s, t)
        assert stacked.evidence.shape == (t,)
        for j in range(t):
            one = posterior_moments(K, lam[:, j], beta[j], V[:, j])
            np.testing.assert_array_equal(stacked.mu[:, j], one.mu)
            np.testing.assert_array_equal(stacked.sigma_diag[:, j], one.sigma_diag)
            assert stacked.evidence[j] == one.evidence
            assert stacked.resid_dof[j] == one.resid_dof
            ref = posterior_direct(K, lam[:, j], beta[j], V[:, j])
            np.testing.assert_allclose(stacked.mu[:, j], ref.mu, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(stacked.sigma_diag[:, j], ref.sigma_diag,
                                       rtol=1e-8, atol=1e-10)
            assert stacked.evidence[j] == pytest.approx(ref.evidence, rel=1e-8, abs=1e-10)
            assert np.all(stacked.mu[lam[:, j] == 0.0, j] == 0.0)
            assert np.all(stacked.sigma_diag[lam[:, j] == 0.0, j] == 0.0)
            assert stacked.resid_dof[j] == pytest.approx(ref.resid_dof, rel=1e-8)

    @pytest.mark.parametrize("case", ["lam_span", "beta_span", "zero_column", "rank_deficient"])
    def test_hostile_conditioning(self, case):
        # prior variances over 18 decades, noise variances over 9, a column
        # whose prior is all zero, and a lead field of rank 3 < N
        rng = np.random.default_rng(13)
        n, s, t = 8, 20, 5
        K = rng.standard_normal((n, s))
        lam = rng.uniform(0.05, 3.0, (s, t))
        beta = np.ones(t)
        if case == "lam_span":
            lam = 10.0 ** rng.uniform(-12.0, 6.0, (s, t))
        elif case == "beta_span":
            beta = np.logspace(-6.0, 3.0, t)
        elif case == "zero_column":
            lam[:, 2] = 0.0
        else:
            K = rng.standard_normal((n, 3)) @ rng.standard_normal((3, s))
        V = rng.standard_normal((n, t))
        stacked = posterior_moments(K, lam, beta, V)
        for out in (stacked.mu, stacked.sigma_diag, stacked.evidence, stacked.resid_dof):
            assert np.all(np.isfinite(out))
        for j in range(t):
            one = posterior_moments(K, lam[:, j], beta[j], V[:, j])
            np.testing.assert_array_equal(stacked.mu[:, j], one.mu)
            np.testing.assert_array_equal(stacked.sigma_diag[:, j], one.sigma_diag)
            assert stacked.evidence[j] == one.evidence
            # the oracle floors a zero lam at 1e-300, hence the tiny atol
            ref = posterior_direct(K, lam[:, j], beta[j], V[:, j])
            np.testing.assert_allclose(stacked.mu[:, j], ref.mu, rtol=1e-8,
                                       atol=1e-8 * np.max(np.abs(ref.mu)) + 1e-290)
            np.testing.assert_allclose(stacked.sigma_diag[:, j], ref.sigma_diag, rtol=1e-8,
                                       atol=1e-290)
            assert stacked.evidence[j] == pytest.approx(ref.evidence, rel=1e-8, abs=1e-10)

    def test_failed_triangular_inverse_is_named(self, monkeypatch):
        # LAPACK reports a singular factor for the second matrix of the stack
        dtrtri, calls = posterior.lapack.dtrtri, []

        def failing(c, **kwargs):
            calls.append(c)
            inv, info = dtrtri(c, **kwargs)
            return inv, 1 if len(calls) == 2 else info

        monkeypatch.setattr(posterior.lapack, "dtrtri", failing)
        rng = np.random.default_rng(4)
        K = rng.standard_normal((5, 9))
        with pytest.raises(posterior.NumericError) as info:
            posterior_moments(K, rng.uniform(0.5, 2.0, (9, 3)), 1.0, rng.standard_normal((5, 3)))
        assert info.value.column == 1
        assert len(calls) == 2

    def test_column_blocks_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(6)
        K = rng.standard_normal((9, 30))
        lam = rng.uniform(0.0, 2.0, (30, 7))
        V = rng.standard_normal((9, 7))
        whole = posterior_moments(K, lam, 1.0, V)
        # blocks of 2 columns: 9 sensors * 30 sources * 8 bytes * 2
        monkeypatch.setattr(posterior, "BLOCK_BYTES", 8 * 9 * 30 * 2)
        blocked = posterior_moments(K, lam, 1.0, V)
        for a, b in zip((whole.mu, whole.sigma_diag, whole.evidence, whole.resid_dof),
                        (blocked.mu, blocked.sigma_diag, blocked.evidence, blocked.resid_dof)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_strips_do_not_change_results(self, monkeypatch, rows):
        # strips of a few sensor rows against one strip of all of them, and
        # each column of the strip-wise stack against its one-column call
        rng = np.random.default_rng(rows)
        for n in range(9, 21):
            s, t = int(rng.integers(n, 3 * n)), 4
            K = rng.standard_normal((n, s))
            lam = rng.uniform(0.05, 2.0, (s, t)) * (rng.random((s, t)) < 0.8)
            beta = rng.uniform(0.3, 2.0, t)
            V = rng.standard_normal((n, t))
            monkeypatch.setattr(posterior, "STRIP_ROWS", n)
            whole = posterior_moments(K, lam, beta, V)
            monkeypatch.setattr(posterior, "STRIP_ROWS", rows)
            strips = posterior_moments(K, lam, beta, V)
            for a, b in zip((whole.mu, whole.sigma_diag, whole.evidence, whole.resid_dof),
                            (strips.mu, strips.sigma_diag, strips.evidence, strips.resid_dof)):
                assert rel_dev(a, b) <= 1e-13
            for j in range(t):
                one = posterior_moments(K, lam[:, j], beta[j], V[:, j])
                np.testing.assert_array_equal(strips.mu[:, j], one.mu)
                np.testing.assert_array_equal(strips.sigma_diag[:, j], one.sigma_diag)
                assert strips.evidence[j] == one.evidence
                assert strips.resid_dof[j] == one.resid_dof

    @pytest.mark.parametrize("case", ["overflow", "not_spd"])
    def test_error_in_a_later_strip_is_named(self, monkeypatch, case):
        # sensor row 18 of 20 lies in the second strip.  dpotrf gets each A
        # with its upper triangle, which the strips leave partly unformed,
        # set to NaN: the failing column is still the one named, and the
        # other columns still match the dense oracle
        dpotrf = posterior.lapack.dpotrf

        def poisoning(c, **kwargs):
            # c is A as its Fortran-ordered transpose: A's upper triangle is c's lower
            c[np.tril_indices(len(c), -1)] = np.nan
            return dpotrf(c, **kwargs)

        monkeypatch.setattr(posterior.lapack, "dpotrf", poisoning)
        rng = np.random.default_rng(18)
        n, s = 20, 30
        K = rng.standard_normal((n, s))
        K[:, 0] = 0.0
        lam = rng.uniform(0.5, 2.0, (s, 3))
        if case == "overflow":
            # K diag(lam) K' overflows in row 18, for column 1 only
            K[18, 0], lam[0] = 1e150, [0.0, 1e10, 0.0]
            match = "overflows"
        else:
            # rows 17 and 18 see only source 0, whose variance 2**130 swamps
            # beta = 1 in column 1: their 2 x 2 block of A is exactly singular
            K[17:19] = 0.0
            K[17:19, 0], lam[0] = 1.0, [0.0, 2.0**130, 0.0]
            match = r"not numerically SPD \(LAPACK dpotrf info 19\)"
        V = rng.standard_normal((n, 3))
        with pytest.raises(posterior.NumericError, match=match) as info:
            posterior_moments(K, lam, 1.0, V)
        assert info.value.column == 1
        # columns 0 and 2 give source 0 no variance, so the oracle drops it
        good = posterior_moments(K, lam[:, [0, 2]], 1.0, V[:, [0, 2]])
        assert np.all(good.mu[0] == 0.0) and np.all(good.sigma_diag[0] == 0.0)
        for j, col in enumerate((0, 2)):
            ref = posterior_direct(K[:, 1:], lam[1:, col], 1.0, V[:, col])
            np.testing.assert_allclose(good.mu[1:, j], ref.mu, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(good.sigma_diag[1:, j], ref.sigma_diag, rtol=1e-8)
            assert good.resid_dof[j] == pytest.approx(ref.resid_dof, rel=1e-10)

    def test_non_spd_column_is_named(self):
        # K diag(lam) K' + beta I overflows for column 1 only, as column 0's
        # lam vanishes on K's huge first source; LAPACK would factor the
        # infinite matrix without complaint
        K = np.array([[1e200, 0.0, 0.0], [0.0, 1.0, 1.0]])
        lam = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(posterior.NumericError, match="overflows") as info:
            posterior_moments(K, lam, 1.0, np.ones((2, 2)))
        assert info.value.column == 1

    def test_overflowing_variance_is_named(self):
        # lam**2 beyond the float range would clip a -inf variance to 0
        rng = np.random.default_rng(2)
        K = rng.standard_normal((4, 6))
        lam = np.ones((6, 3))
        lam[:, 2] = 1e200
        with pytest.raises(posterior.NumericError, match="posterior variance overflows") as info:
            posterior_moments(K, lam, 1.0, rng.standard_normal((4, 3)))
        assert info.value.column == 2

    def test_overflowing_evidence_is_named(self):
        # ||C^-1 v||**2 beyond the float range, for column 1 only
        rng = np.random.default_rng(3)
        K = rng.standard_normal((4, 6))
        V = rng.standard_normal((4, 3))
        V[:, 1] *= 1e200
        with pytest.raises(posterior.NumericError, match="evidence.* overflows") as info:
            posterior_moments(K, np.ones((6, 3)), 1.0, V)
        assert info.value.column == 1

    def test_shape_checks(self):
        K = np.eye(3)
        with pytest.raises(DomainError):
            posterior_moments(K, np.ones((3, 2)), 1.0, np.ones(3))
        with pytest.raises(DomainError):
            posterior_moments(K, np.ones((3, 2)), np.ones(3), np.ones((3, 2)))

    @pytest.mark.parametrize("K", [np.array([[1.0, np.nan, 0.0]]), np.ones(3),
                                   np.ones((1, 1, 3))])
    def test_lead_field_must_be_finite_and_2d(self, K):
        with pytest.raises(DomainError, match="lead field"):
            posterior_moments(K, np.ones(3), 1.0, np.ones(1))


class TestPosteriorDirect:
    def test_scalar_algebra(self):
        # S = N = 1, K = 2, lam = 1, beta = 1: Sigma = 1/(4+1) = 1/5, mu = 2v/5
        post = posterior_direct(np.array([[2.0]]), np.array([1.0]), 1.0, np.array([3.0]))
        assert post.sigma_diag[0] == pytest.approx(0.2, rel=1e-14)
        assert post.mu[0] == pytest.approx(2 * 3.0 / 5, rel=1e-14)

    def test_huge_beta_recovers_prior(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((3, 5))
        lam = rng.uniform(0.5, 2.0, size=5)
        post = posterior_direct(K, lam, 1e12, rng.standard_normal(3))
        np.testing.assert_allclose(post.sigma_diag, lam, rtol=1e-9)

    def test_evidence_consistency(self):
        # the evidence must agree between the factor and the dense system
        rng = np.random.default_rng(9)
        K = rng.standard_normal((5, 9))
        lam = 10.0 ** rng.uniform(-3, 1, size=9)
        v = rng.standard_normal(5)
        a = posterior_moments(K, lam, 2.0, v)
        b = posterior_direct(K, lam, 2.0, v)
        assert a.evidence == pytest.approx(b.evidence, rel=1e-10)


class TestProblemData:
    def test_shape_checks(self):
        with pytest.raises(DomainError):
            ProblemData(K=np.eye(3), V=np.zeros((2, 4)))
        with pytest.raises(DomainError):
            ProblemData(K=np.array([[np.inf, 0.0]]), V=np.zeros((1, 1)))

    def test_column_vector_promotion(self):
        d = ProblemData(K=np.eye(2), V=np.ones(2))
        assert d.V.shape == (2, 1)
        assert d.n_times == 1
