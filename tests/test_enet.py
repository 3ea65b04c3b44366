"""Elastic-net Bayesian solver: update formulas and full iteration."""

import numpy as np
import pytest
from scipy import optimize

from rvmix.enet import (
    LAMBDA_BAR_CAP,
    SolverConfig,
    k_gradient,
    solve_enet,
    update_alpha1,
    update_beta_enet,
    update_k,
    update_lambda_bar_enet,
)
from rvmix.errors import DegenerateStateError, DomainError
from rvmix.objective import aux_objective_enet, neg_log_posterior_enet
from rvmix.posterior import ProblemData, posterior_moments, svd_decompose
from rvmix.rootfind import bracketed_root


def golden_min(f, lo, hi):
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
    return res.x, res.fun


class TestUpdateLambdaBar:
    def test_zero_moments_give_zero(self):
        assert update_lambda_bar_enet(0.0, 0.0, 1.0, 1.0) == 0.0

    def test_reference_point(self):
        # eta = -1/4 + sqrt(1/16 + 2) for mu^2+sigma = 2, alpha1 = k = 1
        eta = -0.25 + np.sqrt(0.0625 + 2.0)
        want = eta / (1.0 + eta)
        got = update_lambda_bar_enet(np.sqrt(1.5), 0.5, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.54257, abs=5e-6)

    def test_is_aux_objective_minimizer(self):
        # 1-D minimization of the frozen-moments objective over lambda_bar
        rng = np.random.default_rng(0)
        for _ in range(10):
            m2s = float(rng.uniform(0.01, 5.0))
            alpha1 = float(rng.uniform(0.1, 5.0))
            k = float(rng.uniform(0.05, 20.0))

            def f(lb):
                gamma = k / (1.0 - lb)
                return alpha1 * m2s / lb + 0.5 * np.log(lb) + 0.5 * np.log(gamma) + gamma

            got = update_lambda_bar_enet(np.sqrt(m2s), 0.0, alpha1, k)
            xstar, fstar = golden_min(f, 1e-9, 1 - 1e-9)
            assert got == pytest.approx(xstar, abs=1e-7)
            assert f(got) <= fstar + 1e-10 * abs(fstar)

    def test_large_k_sparsification_asymptote(self):
        # leading order sqrt(m2s*alpha1/k); relative error decays like the
        # asymptote itself
        m2s, alpha1 = 1.7, 0.8
        for k in [1e4, 1e6, 1e8]:
            lead = np.sqrt(m2s * alpha1 / k)
            got = update_lambda_bar_enet(np.sqrt(m2s), 0.0, alpha1, k)
            assert got == pytest.approx(lead, rel=2 * lead)
        assert update_lambda_bar_enet(np.sqrt(m2s), 0.0, alpha1, 1e12) < 1e-5

    def test_untruncated_limit_caps(self):
        got = update_lambda_bar_enet(1.0, 1.0, 1.0, 0.0)
        assert 0.999999 < got < 1.0

    def test_tiny_moments_no_cancellation(self):
        # the conjugate form must keep eta positive and proportional to c
        got = update_lambda_bar_enet(1e-15, 0.0, 1.0, 1.0)
        assert 0 < got < 1e-28 * 3
        assert got == pytest.approx(2e-30, rel=1e-6)

    def test_vectorized(self):
        mu = np.array([0.0, 1.0, -2.0])
        sig = np.array([0.0, 0.5, 0.1])
        out = update_lambda_bar_enet(mu, sig, 1.0, 2.0)
        assert out.shape == (3,)
        assert out[0] == 0.0
        for i in range(3):
            assert out[i] == update_lambda_bar_enet(mu[i], sig[i], 1.0, 2.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            update_lambda_bar_enet(0.0, -1e-3, 1.0, 1.0)

    def test_array_k_matches_scalar_rule(self):
        # one array call equals the scalar rule entry by entry, including
        # k == 0 entries (the cap) and exact-zero moments (zero)
        rng = np.random.default_rng(11)
        mu = rng.standard_normal(40) * (rng.random(40) < 0.5)
        sig = rng.uniform(0.0, 0.2, 40) * (rng.random(40) < 0.7)
        k = rng.uniform(0.0, 5.0, 40) * (rng.random(40) < 0.7)
        mu[:3], sig[:3], k[:3] = 0.0, 0.0, [0.0, 1.0, 1e-300]
        out = update_lambda_bar_enet(mu, sig, 0.8, k)
        for i in range(40):
            assert out[i] == update_lambda_bar_enet(float(mu[i]), float(sig[i]), 0.8, float(k[i]))
        assert out[0] == LAMBDA_BAR_CAP and out[1] == 0.0 and out[2] == 0.0

    def test_array_k_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            update_lambda_bar_enet(np.ones(3), np.ones(3), 1.0, np.array([1.0, -1e-12, 1.0]))


class TestUpdateAlpha1:
    def test_two_coordinate_identity(self):
        # S = 2 with sum (mu^2+sigma)/lb = 1 gives alpha1 = 1
        mu = np.array([np.sqrt(0.25), np.sqrt(0.25)])
        lb = np.array([0.5, 0.5])
        assert update_alpha1(mu, np.zeros(2), lb) == pytest.approx(1.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        mu = rng.standard_normal(6)
        sig = rng.uniform(0.01, 0.5, 6)
        lb = rng.uniform(0.2, 0.8, 6)
        base = update_alpha1(mu, sig, lb)
        scaled = update_alpha1(2 * mu, 4 * sig, lb)
        assert scaled == pytest.approx(base / 4, rel=1e-12)

    def test_stationarity_via_aux(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = 8
            mu = rng.standard_normal(s)
            sig = rng.uniform(0.01, 1.0, s)
            lb = rng.uniform(0.05, 0.95, s)
            k, tau, nu = 2.0, float(s), 0.01 * s
            got = update_alpha1(mu, sig, lb)

            def f(a1):
                return aux_objective_enet(mu, sig, lb, a1, k, tau, nu)

            xstar, fstar = golden_min(f, got * 1e-3, got * 1e3)
            assert f(got) <= fstar + 1e-10 * max(abs(fstar), 1.0)

    def test_degenerate_state(self):
        with pytest.raises(DegenerateStateError):
            update_alpha1(np.zeros(3), np.zeros(3), np.zeros(3))


class TestUpdateK:
    def test_root_residual_contract(self):
        lb = np.full(10, 0.3)
        tau, nu = 10.0, 0.1
        k = update_k(lb, tau, nu)
        scale = max(abs(k_gradient(1e-10, lb, tau, nu)), abs(k_gradient(1e10, lb, tau, nu)))
        assert abs(k_gradient(k, lb, tau, nu)) <= 1e-8 * scale

    def test_flat_state_formula(self):
        # lambda_bar all zero, tau = nu = S: F(k) = 2S - (S/2)/k - S*hazard(k)
        s = 6
        lb = np.zeros(s)
        k = update_k(lb, float(s), float(s))
        from rvmix.special import gamma_half_hazard

        f_direct = 2 * s - (s / 2) / k - s * gamma_half_hazard(k)
        assert f_direct == pytest.approx(0.0, abs=1e-10)
        # cross-check by grid-minimizing the aux objective over k
        lb_in = np.full(s, 1e-12)
        mu = np.zeros(s)
        sig = np.full(s, 1e-12)

        def f(kk):
            return aux_objective_enet(mu, sig, lb_in, 1.0, kk, float(s), float(s))

        xstar, _ = golden_min(f, 1e-4, 1e2)
        assert k == pytest.approx(xstar, rel=1e-6)

    def test_hoisted_search_is_bit_identical(self):
        # update_k hoists the k-free terms and takes the hazard's scalar
        # path; its root must be exactly the one the same bracketed search
        # finds on the gradient written out in full, with an array hazard
        from rvmix.special import gamma_half_hazard

        def full_gradient(k, lb, tau, nu):
            s = lb.shape[0]
            return (float(np.sum(1.0 / (1.0 - lb))) + nu - (tau - 0.5 * s) / k
                    - s * gamma_half_hazard(np.array(k)))

        rng = np.random.default_rng(12)
        for s in (3, 40, 200):
            lb = rng.uniform(0.0, 0.999, s) * (rng.random(s) < 0.8)
            tau, nu = float(s), 0.01 * s
            want = bracketed_root(lambda k: full_gradient(k, lb, tau, nu))
            assert update_k(lb, tau, nu) == want
            assert bracketed_root(lambda k: k_gradient(k, lb, tau, nu)) == want

    def test_gradient_rejects_nonpositive_k(self):
        lb = np.full(4, 0.3)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                k_gradient(bad, lb, 4.0, 0.04)

    def test_denser_solution_smaller_root(self):
        sparse_lb = np.full(12, 0.05)
        dense_lb = np.full(12, 0.75)
        tau, nu = 12.0, 0.12
        assert update_k(dense_lb, tau, nu) < update_k(sparse_lb, tau, nu)

    def test_stationarity_via_aux(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = 7
            mu = rng.standard_normal(s) * 0.3
            sig = rng.uniform(0.01, 0.3, s)
            lb = rng.uniform(0.05, 0.9, s)
            tau, nu = float(s), 0.02 * s
            k = update_k(lb, tau, nu)

            def f(kk):
                return aux_objective_enet(mu, sig, lb, 1.0, kk, tau, nu)

            xstar, fstar = golden_min(f, k * 1e-2, k * 1e2)
            assert f(k) <= fstar + 1e-10 * max(abs(fstar), 1.0)


class TestUpdateBeta:
    def test_fixed_one_mode(self):
        assert update_beta_enet(np.ones(3), np.eye(3), np.ones(3), np.ones(3),
                                np.full(3, 0.5), 1.0, mode="fixed_one") == 1.0

    def test_zero_residual_floor(self):
        v = np.array([1.0, 2.0])
        K = np.eye(2)
        beta = update_beta_enet(v, K, v, np.full(2, 0.1), np.full(2, 0.5), 1.0)
        assert beta == 1e-12

    def test_hand_checked_denominator(self):
        # K = I, mu = v/2, lambda_bar = 1/2, alpha1 = 1, S = N = 3:
        # denom = N + sum(2 * sigma / 0.5) - S = 4 * sum(sigma)
        v = np.array([2.0, -1.0, 0.5])
        sig = np.array([0.2, 0.1, 0.3])
        beta = update_beta_enet(v, np.eye(3), v / 2, sig, np.full(3, 0.5), 1.0)
        resid = float(np.sum((v / 2) ** 2))
        assert beta == pytest.approx(resid / (4 * np.sum(sig)), rel=1e-12)


def ring_problem(s=40, n=12, t=4, seed=0, snr=0.02):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, s))
    J = np.zeros((s, t))
    J[5, :] = np.sin(np.linspace(0.3, 2.0, t)) + 1.2
    J[20:23, :] = 0.8
    V = K @ J + snr * rng.standard_normal((n, t))
    return ProblemData(K=K, V=V), J


class TestSolveEnet:
    def test_zero_data(self):
        data = ProblemData(K=np.random.default_rng(0).standard_normal((4, 9)),
                           V=np.zeros((4, 3)))
        sol = solve_enet(data)
        assert np.all(sol.mu == 0.0)
        assert sol.converged
        assert sol.iterations <= 2

    def test_objective_descent(self):
        data, _ = ring_problem()
        sol = solve_enet(data, SolverConfig(max_iter=60))
        tr = sol.objective_trace
        assert len(tr) == sol.iterations
        diffs = np.diff(tr)
        assert np.all(diffs <= 1e-6 * np.abs(tr[:-1]))

    def test_converges(self):
        data, _ = ring_problem()
        sol = solve_enet(data)
        assert sol.converged
        assert sol.iterations <= 60
        # the stop is driven by stagnation of the objective
        tr = sol.objective_trace
        assert abs(tr[-1] - tr[-2]) <= 2e-3 * np.sum(np.abs(tr[-1]))

    def test_fixed_hyper_sparsity_ordering(self):
        from rvmix.metrics import sparseness_pct
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=64, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        data = ProblemData(K=ph.K, V=V)
        loose = solve_enet(data, SolverConfig(fixed_hyper=(1.0, 1.0)))
        tight = solve_enet(data, SolverConfig(fixed_hyper=(1.0, 100.0)))
        assert sparseness_pct(tight.mu) > sparseness_pct(loose.mu)

    def test_column_independence(self):
        data, _ = ring_problem(t=3, seed=5)
        sol_full = solve_enet(data)
        for t in range(3):
            single = ProblemData(K=data.K, V=data.V[:, [t]])
            sol_t = solve_enet(single)
            np.testing.assert_array_equal(sol_full.mu[:, t], sol_t.mu[:, 0])

    def test_converged_state_is_coordinatewise_local_min(self):
        # at a tightly converged fixed point the full objective cannot be
        # improved by +-1% probes of the scalar hyperparameters
        data, _ = ring_problem(s=12, n=9, t=1, seed=7)
        cfg = SolverConfig(tol_mu=1e-5, tol_objective=1e-8, max_iter=20000)
        sol = solve_enet(data, cfg)
        assert sol.converged
        svd = svd_decompose(data)
        a1 = sol.hyper_trace["alpha1"][-1, 0]
        k = sol.hyper_trace["k"][-1, 0]
        lb = sol.lambda_bar[:, [0]]
        tau, nu = sol.extras["tau"], sol.extras["nu"]

        def full_obj(a1_=None, k_=None):
            return neg_log_posterior_enet(
                data, svd, sol.mu, lb, a1_ or a1, k_ or k, 1.0, tau, nu
            ).total

        base = full_obj()
        for fac in (0.99, 1.01):
            assert full_obj(a1_=a1 * fac) >= base - 1e-6 * abs(base)
            assert full_obj(k_=k * fac) >= base - 1e-6 * abs(base)

    def test_hyper_trace_shapes(self):
        data, _ = ring_problem(t=2)
        sol = solve_enet(data)
        assert sol.hyper_trace["alpha1"].shape == (sol.iterations, 2)
        assert sol.hyper_trace["k"].shape == (sol.iterations, 2)
        assert np.all(sol.hyper_trace["beta"] == 1.0)

    def test_sparser_columns_get_stronger_shrinkage(self):
        # the learned sparsification strength per column (the equivalent
        # absolute-penalty weight sqrt(4*alpha1*k)) ranks columns by how
        # sparse the underlying truth is
        from scipy.stats import spearmanr

        from rvmix.phantom import NoiseSpec, add_noise, make_phantom

        ph = make_phantom()
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        sol = solve_enet(ProblemData(K=ph.K, V=V))
        state = sol.extras["state"]
        floor = 10 ** (-42 / 20) * np.abs(ph.J_true).max()
        zero_counts = ph.S - np.sum(np.abs(ph.J_true) > floor, axis=0)
        rho, _ = spearmanr(state.alpha2_equivalent(), zero_counts)
        assert rho > 0.5

    def test_final_state_invariants(self):
        data, _ = ring_problem(seed=2)
        sol = solve_enet(data)
        state = sol.extras["state"]
        np.testing.assert_allclose(
            state.effective_variances(), state.lambda_bar / (2 * state.alpha1)
        )
        gamma = state.gamma()
        alive = state.lambda_bar > 0
        assert np.all(gamma[alive] > np.broadcast_to(state.k, gamma.shape)[alive])
        np.testing.assert_allclose(
            state.alpha2_equivalent() ** 2 / (4 * state.alpha1), state.k
        )

    def test_revival_not_blocked(self):
        # coordinates never latch at exact zero for nonzero data: the
        # variance factor floor comes only from float underflow
        data, _ = ring_problem(seed=11)
        sol = solve_enet(data)
        assert np.all((sol.lambda_bar > 0) | (sol.mu == 0.0))


class TestNoiseRobustness:
    def test_higher_noise_presets_still_recover(self):
        from rvmix.metrics import roc_auc
        from rvmix.phantom import SNR_PRESETS_DB, NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=80, N=16, T=16, source_spec=SourceSpec(c_sigma_space=2.5))
        for snr in SNR_PRESETS_DB:
            V, _ = add_noise(ph.V_clean, NoiseSpec(snr, 0))
            sol = solve_enet(ProblemData(K=ph.K, V=V))
            assert sol.converged
            assert roc_auc(sol.mu, ph.support_true) > 70.0
