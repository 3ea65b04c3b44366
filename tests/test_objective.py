"""Objective evaluation: hand-checked values, the evidence against its
mean form, and the coupling algebra."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvmix.errors import DomainError
from rvmix.objective import (
    _enet_hyperprior,
    _mxn_hyperprior,
    neg_log_posterior_enet,
    neg_log_posterior_mxn,
    w_inverse_apply,
)
from rvmix.posterior import ProblemData, _rows, posterior_moments

from oracles import aux_objective_enet, aux_objective_mxn, mu_form_evidence, posterior_direct


def make_data(K, V):
    return ProblemData(K=np.asarray(K, dtype=float), V=np.asarray(V, dtype=float))


def symbolic_enet_objective(K, v, lam_bar, alpha1, k, beta, tau, nu):
    """Independent evaluation of the scalar-case objective with mpmath.

    Takes the posterior mean from its definition and sums the six pieces
    of the mean form there (the determinant via a dense 1x1 computation,
    the tail via the regularized incomplete Gamma), sharing no code with
    the implementation.
    """
    with mp.workdps(40):
        K, v, lam_bar = map(mp.mpf, (K, v, lam_bar))
        alpha1, k, beta, tau, nu = map(mp.mpf, (alpha1, k, beta, tau, nu))
        lam = lam_bar / (2 * alpha1)
        mu = lam * K * v / (lam * K * K + beta)
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
        out = neg_log_posterior_enet(data, lambda_bar=np.array([[0.5]]),
                                     alpha1=1.0, k=1.0, beta=1.0, tau=1.0, nu=1.0)
        ref = symbolic_enet_objective(1.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert out.shape == (1,)
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(ref, rel=1e-12)

    def test_scalar_case_nonzero_mean(self):
        data = make_data([[2.0]], [[1.5]])
        out = neg_log_posterior_enet(data, lambda_bar=np.array([[0.7]]),
                                     alpha1=0.8, k=2.0, beta=1.3, tau=3.0, nu=0.5)
        ref = symbolic_enet_objective(2.0, 1.5, 0.7, 0.8, 2.0, 1.3, 3.0, 0.5)
        assert out[0] == pytest.approx(ref, rel=1e-12)

    def test_scaling_v_touches_only_the_quadratic_form(self):
        # v -> c v multiplies v'A^{-1}v / 2 by c**2 and leaves the
        # determinant and the hyperprior as they are
        rng = np.random.default_rng(0)
        K = rng.standard_normal((4, 7))
        v = rng.standard_normal(4)
        lb = np.full((7, 1), 0.4)
        beta, c = 2.0, 3.0
        base = neg_log_posterior_enet(make_data(K, v[:, None]), lb, 1.0, 1.0, beta, 7.0, 0.1)
        out = neg_log_posterior_enet(make_data(K, c * v[:, None]), lb, 1.0, 1.0, beta, 7.0, 0.1)
        A = (K * (lb[:, 0] / 2.0)) @ K.T + beta * np.eye(4)
        quad = 0.5 * float(v @ np.linalg.solve(A, v))
        assert out[0] - base[0] == pytest.approx((c * c - 1.0) * quad, rel=1e-12)

    def test_finite_with_zero_and_near_one_lambda_bar(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((3, 6))
        data = make_data(K, rng.standard_normal((3, 2)))
        lb = np.full((6, 2), 0.5)
        lb[0, 0] = 0.0
        lb[1, 0] = 1.0 - 1e-12
        out = neg_log_posterior_enet(data, lb, 1.0, 1.0, 1.0, 6.0, 0.06)
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_lambda_bar_at_one_rejected(self):
        data = make_data([[1.0]], [[0.0]])
        with pytest.raises(DomainError):
            neg_log_posterior_enet(data, np.ones((1, 1)), 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_given_posterior_matches_recomputed(self):
        # the solver hands in the posterior of the live columns instead of
        # letting the objective factor the inner system again
        rng = np.random.default_rng(15)
        K = rng.standard_normal((6, 14))
        V = rng.standard_normal((6, 3))
        lam_bar = rng.uniform(0.0, 0.95, size=(14, 3))
        alpha1 = np.array([0.8, 1.3, 2.0])
        beta = np.array([1.0, 0.5, 2.0])
        data = make_data(K, V)
        post = posterior_moments(K, lam_bar / (2 * alpha1), beta, V)
        args = (lam_bar, alpha1, 1.5, beta, 14.0, 0.14)
        want = neg_log_posterior_enet(data, *args)
        np.testing.assert_array_equal(neg_log_posterior_enet(None, *args, post=post), want)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), s=st.integers(2, 14),
       t=st.integers(1, 5), branch=st.sampled_from(["enet", "mxn"]))
@settings(max_examples=80, deadline=None)
def test_evidence_equals_mean_form_at_the_posterior_mean(seed, n, s, t, branch):
    # the objective reads the evidence off the posterior's factor; at the
    # posterior mean that is half the mean form of the dense oracle, column
    # by column, with some prior variances exactly zero and beta per column
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, s))
    V = rng.standard_normal((n, t))
    lam_bar = rng.uniform(0.05, 0.95, (s, t)) * (rng.random((s, t)) < 0.7)
    beta = rng.uniform(0.3, 2.0, t)
    data = make_data(K, V)
    if branch == "enet":
        scale = 2.0 * rng.uniform(0.5, 2.0, t)
        k = rng.uniform(0.5, 3.0, t)
        got = neg_log_posterior_enet(data, lam_bar, scale / 2.0, k, beta, float(s), 0.01 * s)
        hyper = _enet_hyperprior(_rows(lam_bar), k, float(s), 0.01 * s)
    else:
        alpha = float(rng.uniform(0.5, 2.0))
        scale = np.full(t, 2.0 * alpha)
        delta = rng.uniform(0.0, 1.0, (s, t))
        got = neg_log_posterior_mxn(data, lam_bar, delta, alpha, beta)
        hyper = _mxn_hyperprior(_rows(lam_bar), _rows(delta), alpha)
    lam = lam_bar / scale
    post = posterior_moments(K, lam, beta, V)
    assert got.shape == (t,)
    for j in range(t):
        half = 0.5 * mu_form_evidence(K, lam[:, j], beta[j], V[:, j], post.mu[:, j])
        want = half + hyper[j]
        assert abs(got[j] - want) <= 1e-10 * (abs(half) + abs(hyper[j]))
        # and the dense evidence of the same column
        assert post.evidence[j] == pytest.approx(
            posterior_direct(K, lam[:, j], beta[j], V[:, j]).evidence, rel=1e-10, abs=1e-12)


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

    def test_zero_delta_reduces_to_the_evidence(self):
        # no truncation mass, no coupling, no gamma-block contribution
        rng = np.random.default_rng(2)
        K = rng.standard_normal((3, 5))
        V = rng.standard_normal((3, 2))
        lb = np.full((5, 2), 0.4)
        out = neg_log_posterior_mxn(make_data(K, V), lb, np.zeros((5, 2)), 1.2, 1.0)
        np.testing.assert_array_equal(out, posterior_moments(K, lb / 2.4, 1.0, V).evidence)

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
            return neg_log_posterior_enet(data, lam_bar.reshape(-1, 1), 1.0, k, 1.0, tau, nu)[0]

        def aux_l(k):
            return aux_objective_enet(mu, sig, lam_bar, 1.0, k, tau, nu)

        d_true = true_l(2.5) - true_l(1.5)
        d_aux = aux_l(2.5) - aux_l(1.5)
        assert d_true == pytest.approx(d_aux, rel=1e-10)

    def test_mxn_aux_rejects_boundary(self):
        with pytest.raises(DomainError):
            aux_objective_mxn(np.zeros((2, 1)), np.zeros((2, 1)),
                              np.zeros((2, 1)), np.zeros((2, 1)), 1.0)
