"""Mixed-norm solver: coupling algebra, updates, hierarchical consistency."""

import numpy as np
import pytest
from scipy import integrate, optimize

from rvmix import mxn
from rvmix.enet import LAMBDA_BAR_CAP, SolverConfig, solve_enet, update_lambda_bar_enet
from rvmix.errors import DomainError, NumericError, RootFindError
from rvmix.metrics import mixed_norm
from rvmix.mxn import (
    _alpha_gradient_terms,
    alpha_gradient,
    solve_mxn,
    update_alpha_mxn,
    update_delta,
    update_lambda_bar_mxn,
)
from rvmix.objective import w_inverse_apply
from rvmix.posterior import ProblemData
from rvmix.special import gamma_half_hazard

from oracles import aux_objective_mxn, objective_mxn


class TestCouplingAlgebra:
    def test_update_delta_example(self):
        np.testing.assert_allclose(update_delta(np.array([1.0, 2.0, -3.0])), [5.0, 4.0, 3.0])

    def test_update_delta_zero(self):
        np.testing.assert_array_equal(update_delta(np.zeros(4)), np.zeros(4))

    def test_update_delta_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for s in (2, 7, 50):
            mu = rng.standard_normal(s)
            W = np.ones((s, s)) - np.eye(s)
            np.testing.assert_allclose(update_delta(mu), W @ np.abs(mu), atol=1e-12)

    def test_w_inverse_identity(self):
        for s in range(2, 11):
            W = np.ones((s, s)) - np.eye(s)
            Winv = np.ones((s, s)) / (s - 1) - np.eye(s)
            np.testing.assert_allclose(W @ Winv, np.eye(s), atol=1e-12)
            d = np.random.default_rng(s).uniform(0, 3, s)
            np.testing.assert_allclose(w_inverse_apply(d), Winv @ d, atol=1e-12)

    def test_mixed_norm_pairwise_identity(self):
        # ||x||_1^2 = sum x^2 + sum_{i>k} 2|x_i||x_k|, exactly
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(2, 12))
            lhs = np.sum(np.abs(x)) ** 2
            rhs = np.sum(x * x)
            for i in range(len(x)):
                for k in range(i):
                    rhs += 2 * abs(x[i]) * abs(x[k])
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert mixed_norm(x.reshape(-1, 1), 1, 2) ** 2 == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda: update_lambda_bar_mxn(np.ones(3), np.ones(3), 0.0, np.ones(3)),
         "alpha must be positive"),
        (lambda: update_lambda_bar_mxn(np.ones(3), np.ones(3), 1.0, [1.0, -1.0, 1.0]),
         "delta must be nonnegative"),
        (lambda: update_delta([1.0, np.nan, 2.0]), "mu must be finite"),
        (lambda: update_alpha_mxn(np.ones(3), np.zeros(3), [0.5, 0.0, 0.5], np.ones(3)),
         "zero lambda_bar with nonzero moments is inconsistent"),
    ], ids=["lambda_bar_alpha", "lambda_bar_delta", "delta_mu", "alpha_pruned_moments"])
    def test_out_of_domain_rejected(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


class TestLambdaBarMxn:
    def test_zero_coupling_gives_cap(self):
        got = update_lambda_bar_mxn(1.0, 1.0, 2.0, 0.0)
        assert 0.999999 < got < 1.0

    def test_substitution_equivalence(self):
        # alpha = 1, delta = 1 reproduces the elastic-net update at
        # alpha1 = 1, k = 1
        got = update_lambda_bar_mxn(np.sqrt(1.5), 0.5, 1.0, 1.0)
        want = update_lambda_bar_enet(np.sqrt(1.5), 0.5, 1.0, 1.0)
        assert got == want
        assert got == pytest.approx(0.54257, abs=5e-6)

    def test_large_coupling_sparsifies(self):
        # decays like sqrt(m2s*alpha)/delta
        vals = [update_lambda_bar_mxn(1.0, 0.1, 1.0, d) for d in (0.5, 2.0, 10.0, 1e2, 1e4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-2] < 2e-2
        assert vals[-1] < 2e-4

    def test_stationarity_via_aux(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m2s = float(rng.uniform(0.05, 4.0))
            alpha = float(rng.uniform(0.2, 3.0))
            d = float(rng.uniform(0.1, 3.0))
            got = update_lambda_bar_mxn(np.sqrt(m2s), 0.0, alpha, d)
            k = alpha * d * d

            def f(lb):
                gamma = k / (1.0 - lb)
                return alpha * m2s / lb + 0.5 * np.log(lb) + 0.5 * np.log(gamma) + gamma

            res = optimize.minimize_scalar(f, bounds=(1e-9, 1 - 1e-9), method="bounded",
                                           options={"xatol": 1e-12})
            assert f(got) <= res.fun + 1e-10 * max(abs(res.fun), 1.0)


    def test_column_call_matches_per_element_rule(self):
        # the whole-column call equals the elastic-net rule applied per
        # coordinate at k = alpha * delta**2, zero couplings and moments included
        rng = np.random.default_rng(13)
        s, alpha = 30, 0.7
        mu = rng.standard_normal(s) * (rng.random(s) < 0.5)
        sig = rng.uniform(0.0, 0.1, s) * (rng.random(s) < 0.7)
        delta = rng.uniform(0.0, 3.0, s) * (rng.random(s) < 0.7)
        out = update_lambda_bar_mxn(mu, sig, alpha, delta)
        for i in range(s):
            k = alpha * (float(delta[i]) * float(delta[i]))
            assert out[i] == update_lambda_bar_enet(float(mu[i]), float(sig[i]), alpha, k)
        assert np.all(out[delta == 0.0] == LAMBDA_BAR_CAP)
        assert np.all(out[(mu == 0.0) & (sig == 0.0) & (delta > 0.0)] == 0.0)


def per_column_alpha_gradient(alpha, mu, sig, lb, d):
    """The frozen-moments alpha gradient written column by column."""
    s, t_count = lb.shape
    alive = lb > 0.0
    total = float(np.sum((mu * mu + sig)[alive] / lb[alive]))
    total += float(np.sum(d * d / (1.0 - lb)))
    for t in range(t_count):
        total += float(np.sum(np.abs(w_inverse_apply(d[:, t])))) ** 2
    total -= s * t_count / (2.0 * alpha)
    for t in range(t_count):
        for i in range(s):
            if d[i, t] > 0.0:
                dp2 = d[i, t] ** 2
                total -= dp2 * gamma_half_hazard(alpha * dp2)
    return total


class TestAlphaUpdate:
    def test_gradient_matches_per_column_formula(self):
        rng = np.random.default_rng(14)
        s, t = 40, 7
        mu = rng.standard_normal((s, t)) * (rng.random((s, t)) < 0.4)
        sig = rng.uniform(0.0, 0.2, (s, t))
        lb = rng.uniform(0.01, 0.95, (s, t))
        d = rng.uniform(0.0, 2.0, (s, t)) * (rng.random((s, t)) < 0.8)
        for alpha in (1e-6, 0.3, 2.0, 1e5):
            want = per_column_alpha_gradient(alpha, mu, sig, lb, d)
            got = alpha_gradient(alpha, _alpha_gradient_terms(mu, sig, lb, d))[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_single_source_rejected(self):
        one = np.full((1, 3), 0.5)
        with pytest.raises(DomainError):
            alpha_gradient(1.0, _alpha_gradient_terms(one, one, one, one))
        with pytest.raises(DomainError):
            update_alpha_mxn(one, one, one, one)

    def test_overflowing_gradient_raises(self):
        # an infinite frozen term makes the derivative infinite at any alpha
        with pytest.raises(NumericError, match="the gradient overflows at alpha = 1.000e"):
            alpha_gradient(1.0, (np.inf, 4, np.array([1.0])))

    def test_one_dimensional_input_is_one_column(self):
        rng = np.random.default_rng(5)
        s = 6
        mu = rng.standard_normal(s) * 0.5
        sig = rng.uniform(0.01, 0.3, s)
        lam_bar = rng.uniform(0.05, 0.9, s)
        delta = update_delta(mu)
        cols = [x[:, None] for x in (mu, sig, lam_bar, delta)]
        assert (alpha_gradient(0.7, _alpha_gradient_terms(mu, sig, lam_bar, delta))
                == alpha_gradient(0.7, _alpha_gradient_terms(*cols)))
        assert update_alpha_mxn(mu, sig, lam_bar, delta) == update_alpha_mxn(*cols)
        assert (aux_objective_mxn(mu, sig, lam_bar, delta, 0.7)
                == aux_objective_mxn(*cols, 0.7))

    def test_closed_form_special_case(self):
        # all couplings zero, flat lambda_bar: root = S*T*lb0 / (2 sum m2s)
        rng = np.random.default_rng(2)
        s, t = 6, 3
        mu = rng.standard_normal((s, t)) * 0.4
        sig = rng.uniform(0.01, 0.2, (s, t))
        lb0 = 0.35
        lam_bar = np.full((s, t), lb0)
        delta = np.zeros((s, t))
        got = update_alpha_mxn(mu, sig, lam_bar, delta)
        want = s * t * lb0 / (2.0 * np.sum(mu**2 + sig))
        assert got == pytest.approx(want, rel=1e-10)

    def test_root_residual_contract(self):
        rng = np.random.default_rng(3)
        s, t = 5, 3
        mu = rng.standard_normal((s, t)) * 0.5
        sig = rng.uniform(0.01, 0.3, (s, t))
        lam_bar = rng.uniform(0.05, 0.9, (s, t))
        delta = rng.uniform(0.0, 1.5, (s, t))
        alpha = update_alpha_mxn(mu, sig, lam_bar, delta)
        terms = _alpha_gradient_terms(mu, sig, lam_bar, delta)
        scale = max(abs(alpha_gradient(1e-10, terms)[0]), abs(alpha_gradient(1e10, terms)[0]))
        assert abs(alpha_gradient(alpha, terms)[0]) <= 1e-8 * scale

    def test_matches_grid_minimizer(self):
        rng = np.random.default_rng(4)
        s, t = 5, 3
        mu = rng.standard_normal((s, t)) * 0.5
        sig = rng.uniform(0.01, 0.3, (s, t))
        lam_bar = rng.uniform(0.1, 0.8, (s, t))
        delta = rng.uniform(0.05, 1.0, (s, t))
        alpha = update_alpha_mxn(mu, sig, lam_bar, delta)
        grid = alpha * np.logspace(-1, 1, 4001)
        vals = [aux_objective_mxn(mu, sig, lam_bar, delta, a) for a in grid]
        best = grid[int(np.argmin(vals))]
        assert alpha == pytest.approx(best, rel=1e-3)
        assert aux_objective_mxn(mu, sig, lam_bar, delta, alpha) <= min(vals) + 1e-10 * abs(min(vals))

    def test_failed_search_raises(self):
        # with all moments and couplings zero the gradient is -S*T/(2 alpha)
        # on all of (0, inf); alpha is one root for the map, so no column
        zero = np.zeros((6, 3))
        with pytest.raises(RootFindError, match="no sign change") as info:
            update_alpha_mxn(zero, zero, np.full((6, 3), 0.5), zero)
        assert info.value.column is None


def small_ring(t=4, seed=0):
    from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

    ph = make_phantom(S=48, N=14, T=max(t, 8), source_spec=SourceSpec(c_sigma_space=2.0))
    V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, seed))
    return ProblemData(K=ph.K, V=V[:, :t] if t < 8 else V), ph


class TestSolveMxn:
    def test_single_source_rejected(self):
        data = ProblemData(K=np.array([[1.0]]), V=np.array([[1.0]]))
        with pytest.raises(DomainError):
            solve_mxn(data)

    def test_alpha_search_failure_names_iteration(self, monkeypatch):
        data, _ = small_ring()
        monkeypatch.setattr(mxn, "alpha_gradient", lambda alpha, *args: (
            np.full_like(alpha, -1.0), np.ones_like(alpha), np.ones_like(alpha)))
        with pytest.raises(NumericError, match=r"^iteration 1, global scale update: "
                                               r"no sign change"):
            solve_mxn(data)

    def test_underflowing_scale_is_a_numeric_error(self):
        # on K x 1e-150 the alpha root lies where alpha * delta**2 underflows,
        # so the hazard is undefined there
        from rvmix.phantom import NoiseSpec, add_noise, make_phantom

        ph = make_phantom(S=96, N=16, T=8)
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        with pytest.raises(NumericError, match=r"^iteration 1, global scale update: "
                                               r"alpha \* delta\*\*2 underflows to 0") as info:
            solve_mxn(ProblemData(K=ph.K * 1e-150, V=V))
        assert info.value.column is None

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_overflowing_scale_is_a_numeric_error(self, scale):
        # on V x 1e100 the first variance factor update meets
        # (mu**2 + sigma) * alpha * (alpha * delta**2) beyond the float
        # range at the starting alpha = 1; it used to end in a nan factor
        # and a DomainError about inconsistent moments
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        with pytest.raises(NumericError, match=r"iteration 1, variance factor update: .* "
                                               r"overflows"):
            solve_mxn(ProblemData(K=ph.K, V=V * scale))

    def test_overflowing_evidence_is_a_numeric_error(self):
        # on V x 1e200 the posterior's ||C^-1 v||**2 is beyond the float
        # range, and so, at the starting alpha = 1, are the objective's
        # truncations alpha * delta**2: no warning may come first
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        with pytest.raises(NumericError, match=r"^column 0: iteration 1, posterior evidence: "
                                               r"\|\|C\^-1 v\|\|\*\*2 overflows"):
            solve_mxn(ProblemData(K=ph.K, V=V * 1e200))

    def test_overflowing_truncation_is_a_numeric_error(self):
        # the objective's truncations alpha * delta**2 beyond the float
        # range name their column
        from rvmix.objective import _mxn_hyperprior

        delta = np.ones((3, 5))
        delta[1, 2] = 1e200
        with pytest.raises(NumericError, match=r"^objective: alpha \* delta\*\*2") as info:
            _mxn_hyperprior(np.full((3, 5), 0.5), delta, 1.0)
        assert info.value.column == 1

    def test_zero_data(self):
        rng = np.random.default_rng(0)
        data = ProblemData(K=rng.standard_normal((4, 9)), V=np.zeros((4, 2)))
        sol = solve_mxn(data, SolverConfig(max_iter=30))
        assert np.max(np.abs(sol.mu)) < 1e-10
        # the columns share alpha, so only an all-zero map stops this early
        assert sol.iterations == 1
        assert sol.extras["stop_reason"] == "zero_data" and sol.converged

    def test_single_time_point_spatial_mode(self):
        data, ph = small_ring(t=1)
        sol = solve_mxn(data)
        assert sol.mu.shape == (48, 1)
        assert sol.converged

    def test_objective_descent(self):
        data, _ = small_ring()
        sol = solve_mxn(data)
        tr = sol.objective_trace
        assert len(tr) == sol.iterations
        assert np.all(np.diff(tr) <= 1e-6 * np.abs(tr[:-1]))

    def test_learning_beats_fixed(self):
        data, _ = small_ring(t=8, seed=1)
        learned = solve_mxn(data)
        alpha = learned.hyper_trace["alpha"]
        assert alpha[0] == 1.0 and 0.1 < alpha[-1] < 0.2
        for fixed in (1.0, 10.0):
            ref = solve_mxn(data, SolverConfig(fixed_alpha=fixed))
            assert learned.objective_trace[-1] <= ref.objective_trace[-1]

    def test_alpha_trace_recorded(self):
        data, _ = small_ring()
        sol = solve_mxn(data)
        assert sol.hyper_trace["alpha"].shape == (sol.iterations,)
        assert sol.extras["alpha_final"] > 0

    def test_stop_reason(self):
        data, _ = small_ring()
        capped = solve_mxn(data, SolverConfig(max_iter=2))
        assert capped.extras["stop_reason"] == "max_iter" and not capped.converged
        sol = solve_mxn(data)
        assert sol.extras["stop_reason"] == "tol" and sol.converged

    def test_fixed_hyper_is_not_read(self):
        # fixed_hyper is the elastic-net solver's setting: solve_mxn says so
        # instead of ignoring it
        data, _ = small_ring()
        with pytest.raises(DomainError, match="fixed_hyper"):
            solve_mxn(data, SolverConfig(fixed_hyper=(1.0, 1.0)))

    def test_epsilon_prior_is_not_read(self):
        # epsilon_prior sets the rate of the elastic net's k prior; the mixed
        # norm has no k, so a value other than the default is refused, and
        # the default itself, given explicitly, is not
        data, _ = small_ring()
        with pytest.raises(DomainError, match="does not read epsilon_prior"):
            solve_mxn(data, SolverConfig(epsilon_prior=100.0))
        default = SolverConfig.__dataclass_fields__["epsilon_prior"].default
        np.testing.assert_array_equal(solve_mxn(data, SolverConfig(epsilon_prior=default)).mu,
                                      solve_mxn(data).mu)

    def test_solver_trace_matches_objective_module(self):
        # first recorded value equals the independent evaluator at the
        # initial state
        from rvmix.posterior import svd_decompose, svd_ridge

        data, _ = small_ring(t=2, seed=3)
        svd = svd_decompose(data.K)
        sol = solve_mxn(data, SolverConfig(max_iter=1))
        s, t_count = 48, 2
        lam_bar = np.full((s, t_count), 0.5)
        ridge_lam = 1e-2 * float(np.mean(svd.D**2))
        delta = np.column_stack([update_delta(svd_ridge(svd, ridge_lam, data.V[:, t]))
                                 for t in range(t_count)])
        ref = objective_mxn(data, lam_bar, delta, 1.0, 1.0)
        assert sol.objective_trace[0] == pytest.approx(np.sum(ref), rel=1e-10)


    def test_learned_noise(self):
        # N close to S: at S >> N the learned variance sits at its 1e-12 floor
        from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom

        ph = make_phantom(S=48, N=40, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        sol = solve_mxn(ProblemData(K=ph.K, V=V), SolverConfig(beta_mode="learned"))
        beta = sol.hyper_trace["beta"][-1]
        assert sol.converged
        assert np.all((beta > 1e-3) & (beta < 1.0))
        assert sol.extras["beta_floor_columns"] == []


@pytest.mark.parametrize("size", [(200, 31, 64), (96, 16, 16)], ids=["200-31-64", "96-16-16"])
@pytest.mark.parametrize("solve", [solve_enet, solve_mxn], ids=["enet", "mxn"])
def test_learned_noise_is_finite_and_positive(solve, size):
    # the default phantom and the sweep benchmark's size: the noise update
    # divides by the residual degrees of freedom of the posterior whose mean
    # it reads, which are positive, so it cannot fail as the update that
    # mixed two states did (enet at sweep 1 on the default phantom); the
    # columns that end at the 1e-12 floor are listed, and only they
    from rvmix.phantom import NoiseSpec, add_noise, make_phantom

    s, n, t = size
    ph = make_phantom(S=s, N=n, T=t)
    data = ProblemData(K=ph.K, V=add_noise(ph.V_clean, NoiseSpec(42.0, 0))[0])
    sol = solve(data, SolverConfig(beta_mode="learned"))
    beta = sol.hyper_trace["beta"][-1]
    assert np.all(np.isfinite(beta) & (beta >= 1e-12))
    assert sol.extras["beta_floor_columns"] == np.flatnonzero(beta == 1e-12).tolist()
    assert all(np.all(np.isfinite(x)) for x in (sol.mu, sol.sigma_diag, sol.lambda_bar))


@pytest.mark.parametrize("solve", [solve_enet, solve_mxn], ids=["enet", "mxn"])
def test_fixed_noise_reports_no_floor(solve):
    # beta_floor_columns is a learned-noise field: a fixed_one solve, and so
    # its manifest, does not carry it
    data, _ = small_ring()
    assert "beta_floor_columns" not in solve(data, SolverConfig(max_iter=3)).extras


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("solve", [solve_enet, solve_mxn], ids=["enet", "mxn"])
def test_source_permutation_permutes_the_solution(solve, seed):
    # the SVD of the permuted K, and the sums over sources in K diag(lam) K',
    # differ in their last bits, so not bit for bit
    data, _ = small_ring(t=8, seed=seed)
    perm = np.random.default_rng(seed).permutation(data.n_sources)
    sol = solve(data)
    permuted = solve(ProblemData(K=data.K[:, perm], V=data.V))
    for key in ("mu", "sigma_diag", "lambda_bar"):
        want = getattr(sol, key)[perm]
        rel = np.max(np.abs(getattr(permuted, key) - want)) / np.max(np.abs(want))
        assert rel <= 1e-10, key
    assert permuted.iterations == sol.iterations
    if solve is solve_enet:
        np.testing.assert_array_equal(permuted.extras["column_iterations"],
                                      sol.extras["column_iterations"])


class TestHierarchicalConsistency:
    """Quadrature checks of the pairwise-field factorization at S = 2."""

    def conditional_direct(self, j1, j2, alpha):
        # conditional of exp(-alpha*(|J1|+|J2|)^2), normalized over j1
        def unnorm(x):
            return np.exp(-alpha * (abs(x) + abs(j2)) ** 2)

        z, _ = integrate.quad(unnorm, -np.inf, np.inf)
        return unnorm(j1) / z

    def conditional_hierarchical(self, j1, j2, alpha):
        # (1/Z1) exp(-alpha j1^2 - 2 alpha delta1 |j1|), delta1 = |j2|
        d = abs(j2)

        def unnorm(x):
            return np.exp(-alpha * x * x - 2 * alpha * d * abs(x))

        z, _ = integrate.quad(unnorm, -np.inf, np.inf)
        return unnorm(j1) / z

    def test_conditional_form(self):
        for alpha in (0.5, 1.0, 2.0):
            for j2 in (0.0, 0.4, 1.3):
                for j1 in np.linspace(-2.5, 2.5, 11):
                    a = self.conditional_direct(j1, j2, alpha)
                    b = self.conditional_hierarchical(j1, j2, alpha)
                    assert abs(a - b) <= 1e-6

    def marginal_direct(self, grid, alpha):
        def unnorm(j1):
            val, _ = integrate.quad(
                lambda j2: np.exp(-alpha * (abs(j1) + abs(j2)) ** 2), -np.inf, np.inf
            )
            return val

        vals = np.array([unnorm(x) for x in grid])
        z = np.trapezoid(vals, grid)
        return vals / z

    def marginal_hierarchical(self, grid, alpha):
        # marginalize the hierarchical joint over (J2, delta1, delta2); the
        # J2 integral cancels its own normalizer, leaving a 2-D quadrature
        # over the couplings
        def z1(d1):
            val, _ = integrate.quad(
                lambda x: np.exp(-alpha * x * x - 2 * alpha * d1 * abs(x)),
                -np.inf, np.inf,
            )
            return val

        def unnorm(j1):
            def outer(d1):
                inner, _ = integrate.quad(
                    lambda d2: np.exp(-alpha * (d1 + d2) ** 2), 0.0, np.inf
                )
                return (
                    np.exp(-alpha * j1 * j1 - 2 * alpha * d1 * abs(j1)) / z1(d1) * inner
                )

            val, _ = integrate.quad(outer, 0.0, np.inf, limit=100)
            return val

        vals = np.array([unnorm(x) for x in grid])
        z = np.trapezoid(vals, grid)
        return vals / z

    def test_marginal_consistency(self):
        grid = np.linspace(-3.0, 3.0, 61)
        for alpha in (0.5, 1.0, 2.0):
            direct = self.marginal_direct(grid, alpha)
            hier = self.marginal_hierarchical(grid, alpha)
            assert np.max(np.abs(direct - hier)) <= 1e-4
