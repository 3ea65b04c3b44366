"""Elastic-net Bayesian solver: update formulas and full iteration."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from rvmix import enet, posterior
from rvmix.enet import (
    LAMBDA_BAR_CAP,
    SolverConfig,
    _k_gradient_terms,
    k_gradient,
    solve_enet,
    update_alpha1,
    update_beta_enet,
    update_k,
    update_lambda_bar_enet,
)
from rvmix.errors import DegenerateStateError, DomainError, NumericError, RootFindError
from rvmix.mxn import _alpha_gradient_terms, alpha_gradient, update_alpha_mxn
from rvmix.posterior import ProblemData
from rvmix.rootfind import NOISE_BOUND, bracketed_root

from oracles import aux_objective_enet, objective_enet


def golden_min(f, lo, hi):
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
    return res.x, res.fun


def oracle_bracketed_root(f, lo=1e-10, hi=1e10, max_expand=30):
    """The scalar search the Newton search replaced: the bracket grows
    tenfold per side until f changes sign, then brentq refines it."""
    flo, fhi = f(lo), f(hi)
    for _ in range(max_expand):
        if np.isfinite(flo) and np.isfinite(fhi) and flo * fhi < 0:
            break
        lo, hi = lo / 10.0, hi * 10.0
        flo, fhi = f(lo), f(hi)
    else:
        raise RootFindError(f"no sign change in [{lo:.3e}, {hi:.3e}]")
    return float(optimize.brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300))


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

    def test_overflow_names_the_row(self):
        # (mu**2 + sigma) * alpha1 * k beyond the float range is a numeric
        # failure, not a nan factor
        mu = np.ones((3, 4))
        mu[2, 1] = 1e160
        with pytest.raises(NumericError, match="overflows") as info:
            update_lambda_bar_enet(mu, np.zeros((3, 4)), 1.0, np.full((3, 1), 1e10))
        assert info.value.column == 2

    def test_underflow_names_the_row(self):
        # a product that underflows to 0 would give a zero factor that the
        # nonzero moments contradict (the mixed norm on K x 1e-100 met one);
        # zero moments still give a zero factor
        k = np.ones((3, 1))
        k[1] = 1e-300
        with pytest.raises(NumericError, match="underflows to 0") as info:
            update_lambda_bar_enet(np.zeros((3, 4)), np.ones((3, 4)), 1e-30, k)
        assert info.value.column == 1
        assert np.all(update_lambda_bar_enet(np.zeros((3, 4)), np.zeros((3, 4)), 1e-30, k) == 0.0)


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
        terms = _k_gradient_terms(lb, tau, nu)
        scale = max(abs(k_gradient(1e-10, terms)[0]), abs(k_gradient(1e10, terms)[0]))
        assert abs(k_gradient(k, terms)[0]) <= 1e-8 * scale

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

    def test_gradient_rejects_nonpositive_k(self):
        terms = _k_gradient_terms(np.full(4, 0.3), 4.0, 0.04)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                k_gradient(bad, terms)

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


class TestNewtonSearch:
    """update_k and update_alpha_mxn against the brentq search they replaced."""

    def test_no_convergence_in_100_steps_names_the_element(self):
        # element 1's slope has the wrong sign, so every Newton step leaves
        # its bracket; from 1e-300 the open end moves it up only tenfold per
        # step (squaring a point below 1 goes down), so the root at 1 is
        # 300 steps away and the search gives up; element 0 takes true steps
        def fdf(x, rows):
            return x - 1.0, np.where(rows == 1, -1.0, 1.0), np.zeros_like(x)

        with pytest.raises(RootFindError, match="no convergence in 100 steps") as info:
            bracketed_root(fdf, np.array([2.0, 1e-300]))
        assert info.value.column == 1

    @pytest.mark.parametrize("s", [3, 40, 200])
    def test_update_k_matches_oracle(self, s):
        rng = np.random.default_rng(s)
        lb = rng.uniform(0.0, 0.999, (6, s)) * (rng.random((6, s)) < 0.8)
        tau, nu = float(s), 0.01 * s
        got = update_k(lb, tau, nu, rng.uniform(0.05, 20.0, 6))
        for t in range(6):
            terms = _k_gradient_terms(lb[t], tau, nu)
            want = oracle_bracketed_root(lambda k: k_gradient(k, terms)[0])
            assert got[t] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [3, 40, 200])
    def test_update_alpha_mxn_matches_oracle(self, s):
        rng = np.random.default_rng(s + 1)
        t_count = 5
        mu = rng.standard_normal((s, t_count)) * (rng.random((s, t_count)) < 0.5)
        sig = rng.uniform(0.01, 0.3, (s, t_count))
        lb = rng.uniform(0.05, 0.9, (s, t_count))
        delta = rng.uniform(0.0, 1.5, (s, t_count)) * (rng.random((s, t_count)) < 0.8)
        terms = _alpha_gradient_terms(mu, sig, lb, delta)
        want = oracle_bracketed_root(lambda a: alpha_gradient(a, terms)[0])
        for alpha0 in (1.0, want * 1.3, 1e-6, 1e6):
            got = update_alpha_mxn(mu, sig, lb, delta, alpha0)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_stack_rows_equal_rows_alone(self):
        rng = np.random.default_rng(21)
        lb = rng.uniform(0.0, 0.999, (9, 50)) * (rng.random((9, 50)) < 0.7)
        k0 = rng.uniform(0.01, 50.0, 9)
        stacked = update_k(lb, 50.0, 0.5, k0)
        for t in range(9):
            assert stacked[t] == update_k(lb[t], 50.0, 0.5, k0[t])
        # any subset of the rows, in any order, too
        rows = [7, 2, 5]
        np.testing.assert_array_equal(update_k(lb[rows], 50.0, 0.5, k0[rows]), stacked[rows])

    def test_rootless_row_is_named(self):
        # with every lambda_bar zero the gradient is below nu = -1 on all of
        # (0, inf), so the search runs out of the float range.  (With nu = 0
        # it would tend to 0 from below, and k ~ 1e21, where it is within
        # its rounding noise of 0, counts as a root.)
        lb = np.full((4, 10), 0.3)
        lb[2] = 0.0
        with pytest.raises(RootFindError, match="no sign change in \\(0, inf\\): f stays "
                                                "negative") as info:
            update_k(lb, 10.0, -1.0)
        assert info.value.column == 2

    def test_solver_names_column_and_iteration(self, monkeypatch):
        # column 0 is all zero, so it stops after the first sweep and the
        # truncation update of that sweep sees columns 1, 2, 3 as rows 0, 1, 2
        data, _ = ring_problem(t=4)
        data = ProblemData(K=data.K, V=np.column_stack([np.zeros(data.n_sensors), data.V[:, 1:]]))
        real = enet.update_k

        def row_1_rootless(lam_bar, tau, nu, k0):
            lam_bar = lam_bar.copy()
            lam_bar[1] = 0.0
            return real(lam_bar, tau, -1.0, k0)

        monkeypatch.setattr(enet, "update_k", row_1_rootless)
        with pytest.raises(NumericError, match=r"^column 2: iteration 1, truncation update: "
                                               r"no sign change"):
            solve_enet(data)

    def test_search_starts_at_x0_without_a_cold_bracket(self):
        # a line's one Newton step from x0 = 1 lands on its root 1e12
        # exactly: two evaluations, the first at x0, none at 1e-10 or 1e10
        at = []

        def fdf(x, rows):
            at.extend(x)
            return x - 1e12, np.ones_like(x), x + 1e12

        assert bracketed_root(fdf, 1.0) == 1e12
        assert at == [1.0, 1e12]

    @pytest.mark.parametrize("root", [1e-40, 1e40, 1e-101, 1e250])
    def test_far_roots_are_reached_from_x0(self, root):
        # from far below the root of 1 - root/x, Newton only doubles x per
        # step, and from far above it, it lands below 0; a step that leaves
        # the bracket or does not halve the one before goes to the open end
        # tenfold or by squaring, or to the bracket's geometric midpoint, so
        # the roots are found in a few dozen steps, beyond the old
        # [1e-40, 1e40] cap too
        at = []

        def fdf(x, rows):
            at.extend(x)
            return 1.0 - root / x, root / x / x, 1.0 + root / x

        got = bracketed_root(fdf, 1.0)
        assert got == pytest.approx(root, rel=1e-15)
        assert at[0] == 1.0 and len(at) <= 40
        assert not {1e-10, 1e10} & set(at)

    def test_open_lower_end_does_not_square_past_the_root(self):
        # f = 1 - root/x from x0 = 1: squaring toward 0 would go from 1e-64
        # to 1e-128, 27 decades past the root, where a hazard of
        # alpha * delta**2 underflows; Newton's step in 1/x lands on it
        root, at = 1.2e-101, []

        def fdf(x, rows):
            at.extend(x)
            return 1.0 - root / x, root / x / x, 1.0 + root / x

        assert bracketed_root(fdf, 1.0) == pytest.approx(root, rel=1e-15)
        assert min(at) == pytest.approx(root, rel=1e-15)
        # tenfold to 1e-2, squaring to about 1e-64, then Newton's ask
        assert len(at) <= 10

    def test_root_within_rounding_noise_stops_there(self):
        # f(x) = x - 2 with scale x + 2: 4 ulps above the root, |f| is far
        # below NOISE_BOUND * 4, so the search stops at that point instead
        # of stepping onto 2; 1e-12 above it, |f| is not, and it steps
        for x0, path in [(2.0 + 4 * np.spacing(2.0), [2.0 + 4 * np.spacing(2.0)]),
                         (2.0 + 1e-12, [2.0 + 1e-12, 2.0])]:
            at = []

            def fdf(x, rows):
                at.extend(x)
                return x - 2.0, np.ones_like(x), x + 2.0

            assert bracketed_root(fdf, x0) == path[-1]
            assert at == path
        assert 4 * np.spacing(2.0) <= NOISE_BOUND * 4.0 < 1e-12

    @pytest.mark.parametrize("module, search", [("mxn", "alpha"), ("enet", "k")])
    def test_one_hazard_per_evaluation(self, monkeypatch, module, search):
        # every point the search evaluates calls the gradient once, and
        # each call evaluates the hazard exactly once
        from rvmix import mxn

        mod = {"mxn": mxn, "enet": enet}[module]
        calls = {"hazard": 0, "gradient": 0, "fdf": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def search_counting_fdf(fdf, x0, context=""):
            return bracketed_root(counted("fdf", fdf), x0, context)

        gradient = "alpha_gradient" if search == "alpha" else "k_gradient"
        monkeypatch.setattr(mod, "gamma_half_hazard", counted("hazard", mod.gamma_half_hazard))
        monkeypatch.setattr(mod, gradient, counted("gradient", getattr(mod, gradient)))
        monkeypatch.setattr(mod, "bracketed_root", search_counting_fdf)
        rng = np.random.default_rng(40)
        s, t_count = 40, 5
        if search == "alpha":
            mu = rng.standard_normal((s, t_count)) * (rng.random((s, t_count)) < 0.5)
            sig = rng.uniform(0.01, 0.3, (s, t_count))
            lb = rng.uniform(0.05, 0.9, (s, t_count))
            delta = rng.uniform(0.0, 1.5, (s, t_count)) * (rng.random((s, t_count)) < 0.8)
            mxn.update_alpha_mxn(mu, sig, lb, delta, 1e6)
        else:
            lb = rng.uniform(0.0, 0.999, (t_count, s))
            enet.update_k(lb, float(s), 0.01 * s, rng.uniform(0.05, 20.0, t_count))
        # 1e6 lies far from the root, so the search takes several steps
        assert calls["fdf"] >= 3
        assert calls["hazard"] == calls["gradient"] == calls["fdf"]


class TestUpdateBeta:
    def test_fixed_one_mode(self):
        assert update_beta_enet(np.ones(3), np.eye(3), np.zeros(3), 2.0, mode="fixed_one") == 1.0

    def test_zero_residual_floor(self):
        v = np.array([1.0, 2.0])
        K = np.eye(2)
        beta = update_beta_enet(v, K, v, 0.5)
        assert beta == 1e-12

    def test_hand_checked_residual_dof(self):
        # K = I, lam = 1, beta = 1, N = S = 3: mu = v/2, sigma = 1/2, so each
        # gamma = 1 - sigma/lam = 1/2 and resid_dof = N - sum(gamma) = 3/2
        v = np.array([2.0, -1.0, 0.5])
        post = posterior.posterior_moments(np.eye(3), np.ones(3), 1.0, v)
        assert post.resid_dof == pytest.approx(1.5, rel=1e-15)
        beta = update_beta_enet(v, np.eye(3), post.mu, post.resid_dof)
        resid = float(np.sum((v / 2) ** 2))
        assert beta == pytest.approx(resid / 1.5, rel=1e-12)

    def test_stacked_rows_match_one_column(self):
        # v (T, N), mu (T, S) and resid_dof (T,) give (T,), each row what its
        # column gives alone; a row with zero residual is floored
        rng = np.random.default_rng(3)
        K = rng.standard_normal((4, 7))
        mu = rng.standard_normal((3, 7))
        v = rng.standard_normal((3, 4))
        v[1] = K @ mu[1]
        dof = np.array([0.7, 2.0, 3.9])
        beta = update_beta_enet(v, K, mu, dof)
        assert beta.shape == (3,) and beta[1] == 1e-12
        for t in range(3):
            assert beta[t] == update_beta_enet(v[t], K, mu[t], dof[t])
        assert beta[0] == pytest.approx(np.sum((v[0] - K @ mu[0]) ** 2) / 0.7, rel=1e-12)


def ring_problem(s=40, n=12, t=4, seed=0, snr=0.02):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, s))
    J = np.zeros((s, t))
    J[5, :] = np.sin(np.linspace(0.3, 2.0, t)) + 1.2
    J[20:23, :] = 0.8
    V = K @ J + snr * rng.standard_normal((n, t))
    return ProblemData(K=K, V=V), J


class TestSolveEnet:
    def test_config_rejects_unknown_beta_mode_and_nonpositive_tol_objective(self):
        with pytest.raises(DomainError, match="beta_mode must be fixed_one or learned"):
            SolverConfig(beta_mode="fixed")
        for bad in (0.0, -1e-3):
            with pytest.raises(DomainError, match="tol_objective must be positive"):
                SolverConfig(tol_objective=bad)

    def test_nonpositive_epsilon_prior_rejected(self):
        # nu = epsilon_prior * S is the rate of k's Gamma prior
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match="epsilon_prior"):
                SolverConfig(epsilon_prior=bad)

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

    def test_fixed_alpha_is_not_read(self):
        # fixed_alpha is the mixed-norm solver's setting: solve_enet says so
        # instead of ignoring it
        data, _ = ring_problem(t=1)
        with pytest.raises(DomainError, match="fixed_alpha"):
            solve_enet(data, SolverConfig(fixed_alpha=1.0))

    def test_column_independence(self):
        data, _ = ring_problem(t=3, seed=5)
        sol_full = solve_enet(data)
        for t in range(3):
            single = ProblemData(K=data.K, V=data.V[:, [t]])
            sol_t = solve_enet(single)
            np.testing.assert_array_equal(sol_full.mu[:, t], sol_t.mu[:, 0])

    @given(s=st.integers(20, 64), n=st.integers(4, 40), t=st.integers(2, 8),
           seed=st.integers(0, 2**32 - 1), draw=st.data())
    @settings(max_examples=25, deadline=None)
    def test_column_separability_is_exact(self, s, n, t, seed, draw):
        # each column's result is the same to the bit whether it is solved
        # inside the batch or in any subset of the columns, in any order
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        # patches narrow enough to stay disjoint on a ring of 20
        ph = make_phantom(S=s, N=n, T=8, source_spec=SourceSpec(b_width=2, c_sigma_space=1.0))
        V = add_noise(ph.V_clean, NoiseSpec(42.0, seed))[0][:, :t]
        cols = draw.draw(st.permutations(range(t)))[:draw.draw(st.integers(1, t))]
        full = solve_enet(ProblemData(K=ph.K, V=V))
        part = solve_enet(ProblemData(K=ph.K, V=V[:, cols]))
        for key in ("mu", "sigma_diag", "lambda_bar"):
            np.testing.assert_array_equal(getattr(part, key), getattr(full, key)[:, cols])
        np.testing.assert_array_equal(part.extras["column_iterations"],
                                      full.extras["column_iterations"][cols])

    def test_stop_reasons(self):
        data, _ = ring_problem(t=4, seed=3)
        capped = solve_enet(data, SolverConfig(max_iter=2))
        assert capped.extras["stop_reason"] == ["max_iter"] * 4
        np.testing.assert_array_equal(capped.extras["column_iterations"], [2, 2, 2, 2])
        assert not capped.converged

        V = data.V.copy()
        V[:, 1] = 0.0
        sol = solve_enet(ProblemData(K=data.K, V=V))
        assert sol.extras["stop_reason"] == ["tol", "zero_data", "tol", "tol"]
        assert sol.extras["column_iterations"][1] == 1
        assert np.all(sol.mu[:, 1] == 0.0)
        assert sol.converged
        # a finished column is held at its final value in the traces
        assert np.all(sol.hyper_trace["alpha1"][:, 1] == 1.0)
        assert sol.iterations == max(sol.extras["column_iterations"])

    def test_non_spd_inner_system_names_column_and_iteration(self, monkeypatch):
        # LAPACK factors one matrix of the stack at a time; the solver must
        # still name the column.  Column 0 is all zero, so it stops after
        # one sweep and stack row 1 is column 2 at iteration 3.
        data, _ = ring_problem(t=4, seed=3)
        V = data.V.copy()
        V[:, 0] = 0.0
        real = posterior.lapack.dpotrf
        stacks = []

        def corrupting(a, *args, **kwargs):
            # a views one matrix of a block's (B, N, N) stack, its base
            if not stacks or a.base is not stacks[-1]:
                stacks.append(a.base)
            if len(stacks) == 3 and np.shares_memory(a, stacks[-1][1]):
                a[...] = -np.eye(a.shape[-1])  # in place: LAPACK sees it
            return real(a, *args, **kwargs)

        monkeypatch.setattr(posterior.lapack, "dpotrf", corrupting)
        with pytest.raises(NumericError, match=r"column 2: iteration 3, "
                                               r"inner posterior system is not numerically SPD"):
            solve_enet(ProblemData(K=data.K, V=V))
        assert [len(M) for M in stacks] == [4, 3, 3]

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_overflowing_scale_is_a_numeric_error(self, scale):
        # V x 1e100 puts the prior variances near 1e200, whose square
        # overflows in the posterior variance: the run names the column
        # instead of clipping -inf to 0 and running to max_iter
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        with pytest.raises(NumericError, match=r"^column 0: iteration 1, "
                                               r"posterior variance overflows"):
            solve_enet(ProblemData(K=ph.K, V=V * scale))

    def test_overflowing_ridge_start_is_a_numeric_error(self):
        # V x 1e200 puts the squared ridge means that set the starting
        # variance scale beyond the float range; it used to end in a
        # DomainError about lambda_col after overflow warnings
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        with pytest.raises(NumericError, match=r"^column 0: starting variance scale: "
                                               r"the squared ridge means overflow") as info:
            solve_enet(ProblemData(K=ph.K, V=V * 1e200))
        assert info.value.column == 0

    def test_converged_state_is_coordinatewise_local_min(self):
        # at a tightly converged fixed point the full objective cannot be
        # improved by +-1% probes of the scalar hyperparameters
        data, _ = ring_problem(s=12, n=9, t=1, seed=7)
        cfg = SolverConfig(tol_mu=1e-5, tol_objective=1e-8, max_iter=20000)
        sol = solve_enet(data, cfg)
        assert sol.converged
        a1 = sol.hyper_trace["alpha1"][-1, 0]
        k = sol.hyper_trace["k"][-1, 0]
        lb = sol.lambda_bar[:, [0]]
        tau, nu = sol.extras["tau"], sol.extras["nu"]

        def full_obj(a1_=None, k_=None):
            return objective_enet(data, lb, a1_ or a1, k_ or k, 1.0, tau, nu)[0]

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
        alpha2 = np.sqrt(4 * sol.hyper_trace["alpha1"][-1] * sol.hyper_trace["k"][-1])
        floor = 10 ** (-42 / 20) * np.abs(ph.J_true).max()
        zero_counts = ph.S - np.sum(np.abs(ph.J_true) > floor, axis=0)
        rho, _ = spearmanr(alpha2, zero_counts)
        assert rho > 0.5

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


class TestRootSearchReleasesItsFunction:
    """The root searches must not keep their functions, or any array they
    reach, alive until the next garbage collection (as a self-referencing
    closure would)."""

    @pytest.fixture(autouse=True)
    def no_gc(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_bracketed_root(self):
        def shifted_fdf(arr):
            return lambda x, rows: (x - arr[rows], np.ones_like(x), x + arr[rows])

        arr = np.array([2.0, 3.0])
        ref = weakref.ref(arr)
        roots = bracketed_root(shifted_fdf(arr), np.ones(2))
        np.testing.assert_allclose(roots, [2.0, 3.0])
        del arr
        assert ref() is None

    def test_update_k(self):
        lb = np.full(10, 0.3)
        ref = weakref.ref(lb)
        update_k(lb, 10.0, 0.1)
        del lb
        assert ref() is None

    def test_update_alpha_mxn(self):
        from rvmix.mxn import update_alpha_mxn

        rng = np.random.default_rng(4)
        mu = rng.standard_normal((5, 3)) * 0.5
        ref = weakref.ref(mu)
        update_alpha_mxn(mu, rng.uniform(0.01, 0.3, (5, 3)), rng.uniform(0.1, 0.8, (5, 3)),
                         rng.uniform(0.05, 1.0, (5, 3)))
        del mu
        assert ref() is None
