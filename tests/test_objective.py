"""Objective evaluation: hand-checked values, term structure, coupling algebra."""

import mpmath as mp
import numpy as np
import pytest

from rvmix.errors import DomainError
from rvmix.objective import (
    ObjectiveBreakdown,
    _mxn_hyperprior,
    neg_log_posterior_enet,
    neg_log_posterior_mxn,
    w_inverse_apply,
)
from rvmix.posterior import ProblemData, posterior_moments

from oracles import aux_objective_enet, aux_objective_mxn


def make_data(K, V):
    return ProblemData(K=np.asarray(K, dtype=float), V=np.asarray(V, dtype=float))


def symbolic_enet_objective(K, v, mu, lam_bar, alpha1, k, beta, tau, nu):
    """Independent evaluation of the scalar-case objective with mpmath.

    Sums the six pieces directly from their definitions (the determinant
    via a dense 1x1 computation, the tail via the regularized incomplete
    Gamma), sharing no code with the implementation.
    """
    with mp.workdps(40):
        K, v, mu, lam_bar = map(mp.mpf, (K, v, mu, lam_bar))
        alpha1, k, beta, tau, nu = map(mp.mpf, (alpha1, k, beta, tau, nu))
        lam = lam_bar / (2 * alpha1)
        resid = v - K * mu
        data_fit = resid**2 / (2 * beta)
        logdet = mp.log(1 + lam * K * K / beta) / 2 + mp.log(beta) / 2
        prior_quad = alpha1 * mu**2 / lam_bar
        gamma = k / (1 - lam_bar)
        tail = mp.gammainc(mp.mpf("0.5"), k, mp.inf, regularized=True)
        hyper = mp.log(tail) + mp.log(gamma) / 2 + gamma + nu * k - tau * mp.log(k)
        return float(data_fit + logdet + prior_quad + hyper)


class TestEnetObjective:
    def test_scalar_case_matches_symbolic(self):
        data = make_data([[1.0]], [[0.0]])
        out = neg_log_posterior_enet(
            data, mu=np.array([[0.0]]), lambda_bar=np.array([[0.5]]),
            alpha1=1.0, k=1.0, beta=1.0, tau=1.0, nu=1.0,
        )
        ref = symbolic_enet_objective(1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert np.isfinite(out.total)
        assert out.total == pytest.approx(ref, rel=1e-12)

    def test_scalar_case_nonzero_mean(self):
        data = make_data([[2.0]], [[1.5]])
        out = neg_log_posterior_enet(
            data, mu=np.array([[0.3]]), lambda_bar=np.array([[0.7]]),
            alpha1=0.8, k=2.0, beta=1.3, tau=3.0, nu=0.5,
        )
        ref = symbolic_enet_objective(2.0, 1.5, 0.3, 0.7, 0.8, 2.0, 1.3, 3.0, 0.5)
        assert out.total == pytest.approx(ref, rel=1e-12)

    def test_residual_doubling_linearity(self):
        rng = np.random.default_rng(0)
        K = rng.standard_normal((4, 7))
        v = rng.standard_normal((4, 1))
        mu = rng.standard_normal((7, 1)) * 0.1
        lb = np.full((7, 1), 0.4)
        beta = 2.0
        data = make_data(K, v)
        base = neg_log_posterior_enet(data, mu, lb, 1.0, 1.0, beta, 7.0, 0.1)
        # doubling the residual: replace v by v' so that resid' = 2*resid
        v2 = K @ mu[:, 0] + 2 * (v[:, 0] - K @ mu[:, 0])
        data2 = make_data(K, v2.reshape(-1, 1))
        out2 = neg_log_posterior_enet(data2, mu, lb, 1.0, 1.0, beta, 7.0, 0.1)
        r2 = float(np.sum((v[:, 0] - K @ mu[:, 0]) ** 2))
        assert out2.data_fit - base.data_fit == pytest.approx(3 * r2 / (2 * beta), rel=1e-12)
        assert out2.logdet == base.logdet
        assert out2.prior_quadratic == base.prior_quadratic
        assert out2.hyperprior == base.hyperprior

    def test_finite_with_zero_and_near_one_lambda_bar(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((3, 6))
        data = make_data(K, rng.standard_normal((3, 2)))
        lb = np.full((6, 2), 0.5)
        lb[0, 0] = 0.0
        lb[1, 0] = 1.0 - 1e-12
        mu = rng.standard_normal((6, 2)) * 0.01
        mu[0, 0] = 0.0  # pruned coordinate carries a zero mean
        out = neg_log_posterior_enet(data, mu, lb, 1.0, 1.0, 1.0, 6.0, 0.06)
        assert np.isfinite(out.total)

    def test_lambda_bar_at_one_rejected(self):
        data = make_data([[1.0]], [[0.0]])
        with pytest.raises(DomainError):
            neg_log_posterior_enet(data, np.zeros((1, 1)), np.ones((1, 1)),
                                   1.0, 1.0, 1.0, 1.0, 1.0)

    def test_total_is_sum_of_parts(self):
        data = make_data([[1.0, 0.2]], [[0.4]])
        out = neg_log_posterior_enet(data, np.zeros((2, 1)), np.full((2, 1), 0.3),
                                     1.0, 2.0, 1.0, 2.0, 0.02)
        assert out.total == pytest.approx(
            out.data_fit + out.logdet + out.prior_quadratic + out.hyperprior
        )

    def test_evidence_identity_at_posterior_mean(self):
        # at mu = posterior mean: mu' lam^{-1} mu + (1/b)||v-K mu||^2
        #                        = v' (b I + K lam K')^{-1} v
        rng = np.random.default_rng(3)
        K = rng.standard_normal((5, 11))
        v = rng.standard_normal(5)
        lam_bar = rng.uniform(0.1, 0.9, size=11)
        alpha1, beta = 1.7, 0.9
        lam = lam_bar / (2 * alpha1)
        from rvmix.posterior import posterior_moments

        data = make_data(K, v.reshape(-1, 1))
        post = posterior_moments(data.K, lam, beta, v)
        out = neg_log_posterior_enet(data, post.mu.reshape(-1, 1),
                                     lam_bar.reshape(-1, 1), alpha1, 1.0, beta, 11.0, 0.11)
        lhs = 2 * (out.prior_quadratic + out.data_fit)
        rhs = float(v @ np.linalg.solve(beta * np.eye(5) + (K * lam) @ K.T, v))
        assert lhs == pytest.approx(rhs, rel=1e-10)


    def test_reused_logdet_matches_recomputed(self):
        # the solver hands in each column's posterior logdet_term instead
        # of letting the objective factor the inner system again
        rng = np.random.default_rng(15)
        K = rng.standard_normal((6, 14))
        V = rng.standard_normal((6, 3))
        lam_bar = rng.uniform(0.0, 0.95, size=(14, 3))
        alpha1 = np.array([0.8, 1.3, 2.0])
        beta = np.array([1.0, 0.5, 2.0])
        data = make_data(K, V)
        posts = [posterior_moments(data.K, lam_bar[:, t] / (2 * alpha1[t]), beta[t], V[:, t])
                 for t in range(3)]
        mu = np.column_stack([p.mu for p in posts])
        args = (data, mu, lam_bar, alpha1, 1.5, beta, 14.0, 0.14)
        want = neg_log_posterior_enet(*args)
        got = neg_log_posterior_enet(*args, logdet_terms=[p.logdet_term for p in posts])
        assert got == want
        with pytest.raises(DomainError):
            neg_log_posterior_enet(*args, logdet_terms=[posts[0].logdet_term])


class TestMxnObjective:
    def test_w_inverse_closed_form(self):
        delta = np.array([5.0, 4.0, 3.0])
        out = w_inverse_apply(delta)
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0])
        # oracle: dense W^{-1} obtained by inverting W = ones - I
        W = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(out, np.linalg.solve(W, delta), atol=1e-12)
        assert np.sum(np.abs(out)) ** 2 == pytest.approx(36.0)

    def test_w_inverse_needs_two_sources(self):
        with pytest.raises(DomainError):
            w_inverse_apply(np.array([1.0]))

    def test_zero_delta_reduces_to_untruncated(self):
        rng = np.random.default_rng(2)
        K = rng.standard_normal((3, 5))
        data = make_data(K, rng.standard_normal((3, 2)))
        mu = rng.standard_normal((5, 2)) * 0.1
        lb = np.full((5, 2), 0.4)
        out = neg_log_posterior_mxn(data, mu, lb, np.zeros((5, 2)), 1.2, 1.0)
        assert np.isfinite(out.total)
        # no truncation mass, no coupling, no gamma-block contribution
        assert out.hyperprior == pytest.approx(0.0, abs=1e-12)

    def test_scaling_v_and_mu_touches_only_data_terms(self):
        rng = np.random.default_rng(4)
        K = rng.standard_normal((4, 6))
        V = rng.standard_normal((4, 3))
        mu = rng.standard_normal((6, 3)) * 0.2
        lb = rng.uniform(0.2, 0.8, size=(6, 3))
        delta = rng.uniform(0.0, 1.0, size=(6, 3))
        data = make_data(K, V)
        base = neg_log_posterior_mxn(data, mu, lb, delta, 0.7, 1.0)
        c = 3.0
        data2 = make_data(K, c * V)
        out2 = neg_log_posterior_mxn(data2, c * mu, lb, delta, 0.7, 1.0)
        assert out2.data_fit == pytest.approx(c * c * base.data_fit, rel=1e-12)
        assert out2.prior_quadratic == pytest.approx(c * c * base.prior_quadratic, rel=1e-12)
        assert out2.logdet == pytest.approx(base.logdet, rel=1e-12)
        assert out2.hyperprior == pytest.approx(base.hyperprior, rel=1e-12)

    def test_underflowing_coupling_square_stays_finite(self):
        # at delta ~ 1e-200, delta**2 underflows to 0, and with it
        # alpha * delta**2 and the coupling term: what is left is
        # 0.5 log(delta**2 / (1 - lambda_bar)) per positive coupling
        rng = np.random.default_rng(7)
        lb = rng.uniform(0.2, 0.8, size=(3, 6))
        delta = 1e-200 * rng.uniform(0.1, 0.9, size=(3, 6))
        delta[:, 0] = 0.0
        assert np.all(delta * delta == 0.0)
        want = np.sum(np.log(delta[:, 1:]) - 0.5 * np.log(1.0 - lb[:, 1:]), axis=1)
        np.testing.assert_allclose(_mxn_hyperprior(lb, delta, 0.7), want, rtol=1e-14)


class TestAuxiliaryObjectives:
    def test_enet_aux_matches_true_objective_shape(self):
        # the auxiliary differs from the true objective by terms constant in
        # (lambda_bar, alpha1, k); differences along those coordinates agree
        # at the point where the moments were computed, to first order.
        # Here: verify the k-dependence matches the true objective exactly.
        rng = np.random.default_rng(8)
        K = rng.standard_normal((4, 9))
        v = rng.standard_normal(4)
        data = make_data(K, v.reshape(-1, 1))
        lam_bar = rng.uniform(0.2, 0.8, size=9)
        mu = rng.standard_normal(9) * 0.1
        sig = rng.uniform(0.01, 0.1, size=9)
        tau, nu = 9.0, 0.09

        def true_l(k):
            return neg_log_posterior_enet(
                data, mu.reshape(-1, 1), lam_bar.reshape(-1, 1),
                1.0, k, 1.0, tau, nu
            ).total

        def aux_l(k):
            return aux_objective_enet(mu, sig, lam_bar, 1.0, k, tau, nu)

        d_true = true_l(2.5) - true_l(1.5)
        d_aux = aux_l(2.5) - aux_l(1.5)
        assert d_true == pytest.approx(d_aux, rel=1e-10)

    def test_mxn_aux_rejects_boundary(self):
        with pytest.raises(DomainError):
            aux_objective_mxn(np.zeros((2, 1)), np.zeros((2, 1)),
                              np.zeros((2, 1)), np.zeros((2, 1)), 1.0)

    def test_breakdown_dataclass(self):
        b = ObjectiveBreakdown(1.0, 2.0, 3.0, 4.0)
        assert b.total == 10.0
