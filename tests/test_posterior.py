"""Posterior moment computations: SVD/Woodbury path against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvmix import posterior
from rvmix.errors import DomainError, RankError
from rvmix.posterior import (
    LeadFieldSVD,
    ProblemData,
    posterior_direct,
    posterior_moments,
    svd_decompose,
)


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
        resid = np.linalg.norm(K - svd.reconstruct()) / np.linalg.norm(K)
        assert resid <= 1e-10

    def test_rank_truncation(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 4))
        K = A @ rng.standard_normal((4, 50))  # rank 4
        svd = svd_decompose(K)
        assert svd.rank == 4

    def test_accepts_problem_data(self):
        data = ProblemData(K=np.eye(2), V=np.zeros((2, 1)))
        assert svd_decompose(data).rank == 2


class TestPosteriorMoments:
    def test_identity_case(self):
        # K = I, lam = 1, beta = 1: Sigma = (I + I)^{-1} = I/2, mu = v/2
        svd = svd_decompose(np.eye(3))
        v = np.array([1.0, -2.0, 0.5])
        post = posterior_moments(svd, np.ones(3), 1.0, v)
        np.testing.assert_allclose(post.mu, v / 2)
        np.testing.assert_allclose(post.sigma_diag, np.full(3, 0.5))
        assert post.logdet_term == pytest.approx(3 * np.log(2.0), rel=1e-12)

    def test_all_pruned(self):
        svd = svd_decompose(np.eye(3))
        post = posterior_moments(svd, np.zeros(3), 1.0, np.ones(3))
        assert np.all(post.mu == 0.0)
        assert np.all(post.sigma_diag == 0.0)
        assert post.logdet_term == pytest.approx(0.0, abs=1e-12)

    def test_partial_pruning_exact_zeros(self):
        rng = np.random.default_rng(0)
        K = rng.standard_normal((4, 9))
        svd = svd_decompose(K)
        lam = rng.uniform(0.1, 2.0, size=9)
        lam[[1, 5, 6]] = 0.0
        post = posterior_moments(svd, lam, 0.7, rng.standard_normal(4))
        assert np.all(post.mu[[1, 5, 6]] == 0.0)
        assert np.all(post.sigma_diag[[1, 5, 6]] == 0.0)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(42)
        K = rng.standard_normal((10, 40))
        svd = svd_decompose(K)
        lam = rng.uniform(0.05, 3.0, size=40)
        v = rng.standard_normal(10)
        fast = posterior_moments(svd, lam, 1.3, v)
        ref = posterior_direct(K, lam, 1.3, v)
        assert rel_dev(fast.mu, ref.mu) <= 1e-8
        assert rel_dev(fast.sigma_diag, ref.sigma_diag) <= 1e-8
        assert fast.logdet_term == pytest.approx(ref.logdet_term, rel=1e-9)

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
            fast = posterior_moments(svd_decompose(K), lam, beta, v)
            ref = posterior_direct(K, lam, beta, v)
            worst = max(worst, rel_dev(fast.mu, ref.mu), rel_dev(fast.sigma_diag, ref.sigma_diag))
        assert worst <= 1e-7

    def test_monotone_pruning(self):
        rng = np.random.default_rng(5)
        K = rng.standard_normal((6, 12))
        svd = svd_decompose(K)
        lam = np.full(12, 1.0)
        v = rng.standard_normal(6)
        i = 4
        prev_mu, prev_sig = np.inf, np.inf
        for scale in [1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 0.0]:
            lam_i = lam.copy()
            lam_i[i] = scale
            post = posterior_moments(svd, lam_i, 1.0, v)
            assert abs(post.mu[i]) <= prev_mu + 1e-15
            assert post.sigma_diag[i] <= prev_sig + 1e-15
            prev_mu, prev_sig = abs(post.mu[i]), post.sigma_diag[i]
        assert prev_mu == 0.0 and prev_sig == 0.0

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(11)
        K = rng.standard_normal((8, 30))
        svd = svd_decompose(K)
        lam = 10.0 ** rng.uniform(-5, 2, size=30)
        post = posterior_moments(svd, lam, 0.5, rng.standard_normal(8))
        assert np.all(post.sigma_diag <= lam * (1 + 1e-12))
        assert np.all(post.sigma_diag >= 0)

    def test_domain_errors(self):
        svd = svd_decompose(np.eye(3))
        with pytest.raises(DomainError):
            posterior_moments(svd, -np.ones(3), 1.0, np.zeros(3))
        with pytest.raises(DomainError):
            posterior_moments(svd, np.ones(3), 0.0, np.zeros(3))
        with pytest.raises(DomainError):
            posterior_moments(svd, np.ones(4), 1.0, np.zeros(3))


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
        svd = svd_decompose(K)
        stacked = posterior_moments(svd, lam, beta, V)
        assert stacked.mu.shape == stacked.sigma_diag.shape == (s, t)
        assert stacked.logdet_term.shape == (t,)
        for j in range(t):
            one = posterior_moments(svd, lam[:, j], beta[j], V[:, j])
            np.testing.assert_array_equal(stacked.mu[:, j], one.mu)
            np.testing.assert_array_equal(stacked.sigma_diag[:, j], one.sigma_diag)
            assert stacked.logdet_term[j] == one.logdet_term
            ref = posterior_direct(K, lam[:, j], beta[j], V[:, j])
            np.testing.assert_allclose(stacked.mu[:, j], ref.mu, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(stacked.sigma_diag[:, j], ref.sigma_diag,
                                       rtol=1e-8, atol=1e-10)
            assert stacked.logdet_term[j] == pytest.approx(ref.logdet_term, rel=1e-8, abs=1e-10)
            assert np.all(stacked.mu[lam[:, j] == 0.0, j] == 0.0)
            assert np.all(stacked.sigma_diag[lam[:, j] == 0.0, j] == 0.0)

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
        svd = svd_decompose(K)
        stacked = posterior_moments(svd, lam, beta, V)
        for out in (stacked.mu, stacked.sigma_diag, stacked.logdet_term):
            assert np.all(np.isfinite(out))
        for j in range(t):
            one = posterior_moments(svd, lam[:, j], beta[j], V[:, j])
            np.testing.assert_array_equal(stacked.mu[:, j], one.mu)
            np.testing.assert_array_equal(stacked.sigma_diag[:, j], one.sigma_diag)
            assert stacked.logdet_term[j] == one.logdet_term
            # the oracle floors a zero lam at 1e-300, hence the tiny atol
            ref = posterior_direct(K, lam[:, j], beta[j], V[:, j])
            np.testing.assert_allclose(stacked.mu[:, j], ref.mu, rtol=1e-8,
                                       atol=1e-8 * np.max(np.abs(ref.mu)) + 1e-290)
            np.testing.assert_allclose(stacked.sigma_diag[:, j], ref.sigma_diag, rtol=1e-8,
                                       atol=1e-290)
            assert stacked.logdet_term[j] == pytest.approx(ref.logdet_term, rel=1e-8, abs=1e-10)

    def test_failed_triangular_inverse_is_named(self, monkeypatch):
        # LAPACK reports a singular factor for the second matrix of the stack
        dtrtri, calls = posterior.lapack.dtrtri, []

        def failing(c, **kwargs):
            calls.append(c)
            inv, info = dtrtri(c, **kwargs)
            return inv, 1 if len(calls) == 2 else info

        monkeypatch.setattr(posterior.lapack, "dtrtri", failing)
        rng = np.random.default_rng(4)
        svd = svd_decompose(rng.standard_normal((5, 9)))
        with pytest.raises(posterior.NumericError) as info:
            posterior_moments(svd, rng.uniform(0.5, 2.0, (9, 3)), 1.0, rng.standard_normal((5, 3)))
        assert info.value.column == 1
        assert len(calls) == 2

    def test_column_blocks_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(6)
        K = rng.standard_normal((9, 30))
        lam = rng.uniform(0.0, 2.0, (30, 7))
        V = rng.standard_normal((9, 7))
        svd = svd_decompose(K)
        whole = posterior_moments(svd, lam, 1.0, V)
        # blocks of 2 columns: 9 sensors * 30 sources * 8 bytes * 2
        monkeypatch.setattr(posterior, "BLOCK_BYTES", 8 * 9 * 30 * 2)
        blocked = posterior_moments(svd, lam, 1.0, V)
        for a, b in zip((whole.mu, whole.sigma_diag, whole.logdet_term),
                        (blocked.mu, blocked.sigma_diag, blocked.logdet_term)):
            np.testing.assert_array_equal(a, b)

    def test_non_spd_column_is_named(self):
        # a rank-deficient R with an infinite singular value leaves column
        # 1's inner system singular, since its lam vanishes on R's support
        svd = LeadFieldSVD(Lmat=np.eye(2), D=np.array([1.0, np.inf]),
                           R=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        lam = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(posterior.NumericError) as info:
            posterior_moments(svd, lam, 1.0, np.ones((2, 2)))
        assert info.value.column == 1

    def test_shape_checks(self):
        svd = svd_decompose(np.eye(3))
        with pytest.raises(DomainError):
            posterior_moments(svd, np.ones((3, 2)), 1.0, np.ones(3))
        with pytest.raises(DomainError):
            posterior_moments(svd, np.ones((3, 2)), np.ones(3), np.ones((3, 2)))


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

    def test_logdet_consistency(self):
        # the combined determinant term must agree between the two paths
        rng = np.random.default_rng(9)
        K = rng.standard_normal((5, 9))
        lam = 10.0 ** rng.uniform(-3, 1, size=9)
        a = posterior_moments(svd_decompose(K), lam, 2.0, rng.standard_normal(5))
        b = posterior_direct(K, lam, 2.0, rng.standard_normal(5))
        assert a.logdet_term == pytest.approx(b.logdet_term, rel=1e-10)


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
