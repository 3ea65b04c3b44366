"""Classical baselines: ridge closed forms, majorization descent, GCV."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import ring_first_difference
from rvmix import baselines, posterior
from rvmix.baselines import (
    PENALTY_KINDS,
    PenaltySpec,
    _df_columns,
    _mm_step,
    _mm_system,
    _penalty_weights,
    _ring_difference,
    gcv_select,
    mm_objective,
    mm_solve,
    ridge_solve,
    ring_laplacian,
)
from rvmix.errors import DomainError, NumericError, SelectionError
from rvmix.phantom import NoiseSpec, add_noise, make_phantom
from rvmix.posterior import ProblemData, svd_decompose


def oracle_mm_step(KtK, KtV, K, J, alpha1, alpha2, L, eps):
    """The majorization step as first written: a (T, N, S) temporary for the
    diagonal penalty, and a per-column dense L'diag(w)L build for fusion."""
    s, t_count = J.shape
    if L is None:
        d = alpha1 + 0.5 * alpha2 / (np.abs(J) + eps)  # (S, T)
        KD = K[None, :, :] / d.T[:, None, :]  # (T, N, S) = K D^{-1}
        M = KD @ K.T  # (T, N, N)
        M[:, np.arange(K.shape[0]), np.arange(K.shape[0])] += 1.0
        KtV_d = KtV.T[:, :, None] / d.T[:, :, None]  # (T, S, 1) = D^{-1}K'V
        inner = np.linalg.solve(M, K[None, :, :] @ KtV_d)  # (T, N, 1)
        out = KtV_d - np.transpose(KD, (0, 2, 1)) @ inner
        return out[:, :, 0].T
    w = 1.0 / (np.abs(L @ J) + eps)  # (rows(L), T)
    A = np.empty((t_count, s, s))
    for t in range(t_count):
        A[t] = KtK + 0.5 * alpha2 * (L.T * w[:, t]) @ L
    return np.linalg.solve(A, KtV.T[:, :, None])[:, :, 0].T


def brute_df(data, spec, J, eps):
    """Per-column trace(K A_t^{-1} K') with A_t the dense majorized normal
    matrix K'K + diag(alpha1 + alpha2/2 / (|J_t| + eps)), or K'K +
    alpha2/2 L'diag(1/(|L J_t| + eps))L for fusion, L the dense ring
    difference."""
    K = data.K
    L = ring_first_difference(K.shape[1])
    df = []
    for t in range(J.shape[1]):
        if spec.kind == "lasso_fusion":
            w = 1.0 / (np.abs(L @ J[:, t]) + eps)
            A = K.T @ K + 0.5 * spec.lam * L.T @ np.diag(w) @ L
        else:
            a1 = spec.lam * spec.mu_mix if spec.kind == "enet" else 0.0
            a2 = spec.lam - a1
            A = K.T @ K + np.diag(a1 + 0.5 * a2 / (np.abs(J[:, t]) + eps))
        df.append(np.trace(K @ np.linalg.inv(A) @ K.T))
    return np.array(df)


STEP_CASES = {
    "lasso": lambda s: PenaltySpec(kind="lasso", lam=0.7),
    "enet": lambda s: PenaltySpec(kind="enet", lam=0.7, mu_mix=0.3),
    "fusion_ring": lambda s: PenaltySpec(kind="lasso_fusion", lam=0.7),
}


def soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def make_data(seed=0, n=8, s=20, t=3, noise=0.05):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, s))
    J = np.zeros((s, t))
    J[3] = 1.0
    J[11] = -0.8
    V = K @ J + noise * rng.standard_normal((n, t))
    return ProblemData(K=K, V=V)


class TestRidge:
    def test_huge_lambda_shrinks_to_zero(self):
        data = make_data()
        J = ridge_solve(data, 1e12)
        assert np.max(np.abs(J)) < 1e-6

    def test_identity_shrinkage(self):
        V = np.array([[2.0], [4.0]])
        data = ProblemData(K=np.eye(2), V=V)
        lam = 3.0
        np.testing.assert_allclose(ridge_solve(data, lam), V / (1 + lam), rtol=1e-12)

    def test_matches_dense_oracle(self):
        data = make_data(seed=5)
        lam = 0.7
        J = ridge_solve(data, lam)
        oracle = np.linalg.solve(data.K.T @ data.K + lam * np.eye(20), data.K.T @ data.V)
        np.testing.assert_allclose(J, oracle, atol=1e-9)

    def test_laplacian_operator_arm(self):
        data = make_data(seed=6)
        L = ring_laplacian(20)
        J = ridge_solve(data, 0.5, L)
        oracle = np.linalg.solve(data.K.T @ data.K + 0.5 * L.T @ L, data.K.T @ data.V)
        np.testing.assert_allclose(J, oracle, atol=1e-9)

    def test_zero_lambda_rejected(self):
        with pytest.raises(DomainError, match="lam must be positive"):
            ridge_solve(make_data(), 0.0)

    def test_overflowing_lead_field_raises(self):
        # no all-zero map with df = 0: the lead field's norm is inf
        data = ProblemData(K=np.full((2, 2), 1e308), V=np.ones((2, 1)))
        with pytest.raises(NumericError, match="its norm overflows the float range"):
            ridge_solve(data, 1.0)


class TestRingOperators:
    def test_laplacian_annihilates_constants(self):
        L = ring_laplacian(9)
        np.testing.assert_allclose(L @ np.ones(9), 0.0, atol=1e-14)
        np.testing.assert_allclose(L, L.T)

    def test_first_difference_periodic(self):
        D = ring_first_difference(5)
        x = np.arange(5.0)
        want = x - np.roll(x, -1)
        np.testing.assert_allclose(D @ x, want)
        # the fusion arm's difference is the dense product to the bit: each
        # entry of D J has two nonzero +-1 terms.  It comes back C-ordered
        # whatever the map's order, since np.sum adds in memory order
        for order in "CF":
            J = np.asarray(np.random.default_rng(5).standard_normal((5, 4)), order=order)
            got = _ring_difference(J)
            assert got.flags.c_contiguous
            assert np.array_equal(got, D @ J)


class TestMMSolve:
    def test_huge_lambda_exact_zero(self):
        data = make_data()
        J = mm_solve(data, PenaltySpec(kind="lasso", lam=1e9))
        assert np.all(J == 0.0)

    def test_quadratic_penalty_rejected(self):
        # ridge has a closed form (ridge_solve); it carries no L1 term to majorize
        with pytest.raises(DomainError, match="ridge is not a majorization penalty"):
            mm_solve(make_data(), PenaltySpec(kind="ridge", lam=1.0))

    def test_one_dimensional_soft_threshold(self):
        # argmin (v - j)^2 + lam|j| = soft(v, lam/2); LQA approaches it as
        # eps_lqa -> 0
        v, lam = 1.3, 0.8
        data = ProblemData(K=np.array([[1.0]]), V=np.array([[v]]))
        want = soft_threshold(v, lam / 2)
        errs = []
        for eps in (1e-4, 1e-6, 1e-8):
            J = mm_solve(data, PenaltySpec(kind="lasso", lam=lam), eps_lqa=eps,
                         max_iter=4000, tol=1e-14)
            errs.append(abs(float(J[0, 0]) - want))
        assert errs[-1] <= 1e-4
        assert errs[0] >= errs[-1]

    @pytest.mark.parametrize("kind,kwargs", [
        ("lasso", {}),
        ("enet", {"mu_mix": 0.3}),
        ("lasso_fusion", {}),
    ])
    def test_monotone_descent(self, kind, kwargs):
        data = make_data(seed=2)
        spec = PenaltySpec(kind=kind, lam=0.9, **kwargs)
        J, trace = mm_solve(data, spec, return_trace=True)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10 * np.abs(trace[:-1]))
        # the plain-L1 objective of the generating problem descends too
        # (evaluated on the same iterates through a rerun)

    def test_plain_objective_descent(self):
        data = make_data(seed=9)
        spec = PenaltySpec(kind="lasso", lam=1.5)
        system = _mm_system(data, spec, 1e-8)
        J = np.zeros((20, 3))
        prev = mm_objective(data, J, spec, 0.0)
        for _ in range(60):
            J = _mm_step(system, J)[0]
            cur = mm_objective(data, J, spec, 0.0)
            assert cur <= prev + 1e-10 * max(abs(prev), 1.0)
            prev = cur

    @pytest.mark.parametrize("case", sorted(STEP_CASES))
    def test_step_matches_per_column_oracle(self, case):
        data = make_data(seed=13, n=9, s=24, t=5)
        spec = STEP_CASES[case](24)
        rng = np.random.default_rng(14)
        J = rng.standard_normal((24, 5))
        alpha1, alpha2, fusion = _penalty_weights(spec, 24)
        L = ring_first_difference(24) if fusion else None
        if not fusion:
            # exact zeros too; for fusion they would put 1/eps weights on
            # L'diag(w)L and leave a condition number near 1e8
            J[rng.random((24, 5)) < 0.4] = 0.0
        K = data.K
        want = oracle_mm_step(K.T @ K, K.T @ data.V, K, J, alpha1, alpha2, L, 1e-8)
        got, resid = _mm_step(_mm_system(data, spec, 1e-8), J)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # lasso and enet hand back the step's residual, fusion leaves it to mm_objective
        assert (resid is None) == (L is not None)
        if resid is not None:
            want_resid = data.V - K @ got
            assert np.max(np.abs(resid - want_resid)) <= 1e-12 * np.max(np.abs(data.V))

    def test_weighted_grams_are_symmetric_products(self):
        # the half table stores each K[a]*K[b] once, so M[a, b] and M[b, a]
        # are one number
        rng = np.random.default_rng(21)
        K = rng.standard_normal((9, 24))
        w = rng.uniform(1e-3, 1e3, (24, 5))
        M = baselines._weighted_grams(baselines._product_table(K), w, 9)
        assert np.array_equal(M, M.transpose(0, 2, 1))
        want = np.stack([(K * w[:, t]) @ K.T for t in range(5)])
        assert np.max(np.abs(M - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("call", ["step", "df"])
    def test_failed_cholesky_names_the_column(self, monkeypatch, call):
        # LAPACK reports a non-SPD matrix for the third system of the stack:
        # the step's dposv, or the dpotrf of the posterior that gives df
        calls = []
        if call == "step":
            dposv = baselines.lapack.dposv

            def failing(a, b, **kwargs):
                calls.append(a)
                c, x, info = dposv(a, b, **kwargs)
                return c, x, 3 if len(calls) == 3 else info

            monkeypatch.setattr(baselines.lapack, "dposv", failing)
            message = r"column 2 is not numerically SPD \(LAPACK dposv info 3\)"
        else:
            dpotrf = posterior.lapack.dpotrf

            def failing(a, **kwargs):
                calls.append(a)
                c, info = dpotrf(a, **kwargs)
                return c, 3 if len(calls) == 3 else info

            monkeypatch.setattr(posterior.lapack, "dpotrf", failing)
            message = r"not numerically SPD \(LAPACK dpotrf info 3\)"
        data = make_data(seed=13, n=9, s=24, t=5)
        spec = PenaltySpec(kind="lasso", lam=0.7)
        J = np.random.default_rng(14).standard_normal((24, 5))
        with pytest.raises(NumericError, match=message) as info:
            if call == "step":
                _mm_step(_mm_system(data, spec, 1e-8), J)
            else:
                _df_columns(data, spec, 1e-8, J)
        assert info.value.column == 2
        assert len(calls) == 3

    def test_fusion_blocks_match_one_stack(self, monkeypatch):
        # blocks of 3 columns over T=11: the step and df match, to the bit,
        # one (T, S, S) stack of K'K + alpha2/2 L'diag(w_t)L built from the
        # dense ring difference and solved in one call; each entry of the
        # dense L'diag(w_t)L has at most two nonzero terms, so it rounds as
        # the blocks' two-term sums do
        s, t_count = 24, 11
        monkeypatch.setattr(baselines, "BLOCK_BYTES", 8 * s * s * 3)
        data = make_data(seed=13, n=9, s=s, t=t_count)
        spec = STEP_CASES["fusion_ring"](s)
        system = _mm_system(data, spec, 1e-8)
        J = np.random.default_rng(14).standard_normal((s, t_count))
        L = ring_first_difference(s)
        w = 1.0 / (np.abs(L @ J) + 1e-8)
        A = np.stack([system.KtK + (0.5 * system.alpha2) * ((L.T * w[:, t]) @ L)
                      for t in range(t_count)])
        want_step = np.linalg.solve(A, system.KtV.T[:, :, None])[:, :, 0].T
        X = np.linalg.solve(A, np.broadcast_to(data.K.T, (t_count,) + data.K.T.shape))
        want_df = np.sum(data.K.T * X, axis=(1, 2))
        step, resid = _mm_step(system, J)
        assert resid is None
        assert np.array_equal(step, want_step)
        assert np.array_equal(_df_columns(data, spec, 1e-8, J), want_df)

    def test_fusion_working_memory_does_not_grow_with_t(self):
        # a fusion step or df holds one block of (S, S) systems at a time:
        # from T=4 to T=48 its traced peak grows by at most one block of
        # BLOCK_BYTES plus a few (S, T)-sized arrays, where one (T, S, S)
        # stack would grow by 44 * S*S * 8 bytes = 5 MB
        s = 120
        rng = np.random.default_rng(3)
        K = rng.standard_normal((16, s))
        peaks = {}
        for t_count in (4, 48):
            data = ProblemData(K=K, V=rng.standard_normal((16, t_count)))
            spec = PenaltySpec(kind="lasso_fusion", lam=1.0)
            system = _mm_system(data, spec, 1e-8)
            J = rng.standard_normal((s, t_count))
            for name, call in (("step", lambda: _mm_step(system, J)),
                               ("df", lambda: _df_columns(data, spec, 1e-8, J))):
                tracemalloc.start()
                try:
                    call()
                    peaks[name, t_count] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        allowance = baselines.BLOCK_BYTES + 8 * (8 * s * 48)
        for name in ("step", "df"):
            assert peaks[name, 48] - peaks[name, 4] < allowance, peaks

    def test_final_step_reported(self):
        data = make_data(seed=2)
        spec = PenaltySpec(kind="lasso", lam=0.9)
        _, done = mm_solve(data, spec, tol=1e-6, return_info=True)
        assert done.converged and 0.0 <= done.final_step <= 1e-6
        _, capped = mm_solve(data, spec, max_iter=3, tol=1e-6, return_info=True)
        assert not capped.converged and capped.final_step > 1e-6
        _, none = mm_solve(data, spec, max_iter=0, return_info=True)
        assert none.iterations == 0 and none.final_step is None

    def test_negative_max_iter_rejected(self):
        # max_iter = 0 (above) is valid; a negative cap would silently
        # return the all-zero start as a result
        with pytest.raises(DomainError, match="max_iter"):
            mm_solve(make_data(seed=2), PenaltySpec(kind="lasso", lam=0.9), max_iter=-3)

    @pytest.mark.parametrize("scale, where", [(1e145, "after step 3"), (1e151, "after step 2"),
                                              (1e160, "at the start")])
    def test_non_finite_objective_raises(self, scale, where):
        # fusion at lam = 1e100: at V x 1e151 the start objective is finite
        # (~2.9e306) and the second step's is nan, at V x 1e145 the third
        # step's; at V x 1e160 ||V||^2 overflows at the start
        ph = make_phantom(S=96, N=16, T=8)
        V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
        data = ProblemData(K=ph.K, V=V * scale)
        with pytest.raises(NumericError, match=f"not finite {where}"):
            mm_solve(data, PenaltySpec(kind="lasso_fusion", lam=1e100))

    @pytest.mark.parametrize("t_count", [1, 8])
    @pytest.mark.parametrize("spec", [PenaltySpec(kind="lasso", lam=0.7),
                                      PenaltySpec(kind="enet", lam=0.7, mu_mix=0.3)],
                             ids=["lasso", "enet"])
    def test_data_left_unchanged(self, spec, t_count):
        # _spd_solve overwrites the step's right-hand side with the solution,
        # and that right-hand side is V's columns: only a copy keeps V intact
        data = make_data(seed=5, t=t_count)
        V = data.V.copy()
        mm_solve(data, spec, max_iter=5)
        assert np.array_equal(data.V, V)

    def test_enet_limits_match_neighbors(self):
        # mu_mix -> 1 approaches ridge, mu_mix -> 0 approaches lasso
        data = make_data(seed=3)
        lam = 0.8
        near_ridge = mm_solve(data, PenaltySpec(kind="enet", lam=lam, mu_mix=1 - 1e-4))
        ridge = ridge_solve(data, lam)
        assert np.max(np.abs(near_ridge - ridge)) < 1e-2 * max(1.0, np.max(np.abs(ridge)))
        near_lasso = mm_solve(data, PenaltySpec(kind="enet", lam=lam, mu_mix=1e-4))
        lasso = mm_solve(data, PenaltySpec(kind="lasso", lam=lam))
        assert np.max(np.abs(near_lasso - lasso)) < 1e-2 * max(1.0, np.max(np.abs(lasso)))

    def test_fusion_prefers_piecewise_constant(self):
        rng = np.random.default_rng(4)
        s, n = 24, 16
        K = rng.standard_normal((n, s))
        J_true = np.zeros((s, 1))
        J_true[5:12] = 1.0
        data = ProblemData(K=K, V=K @ J_true + 0.01 * rng.standard_normal((n, 1)))
        J = mm_solve(data, PenaltySpec(kind="lasso_fusion", lam=0.5))
        diffs = ring_first_difference(s) @ J
        # most first differences collapse toward zero
        assert np.mean(np.abs(diffs) < 1e-3) > 0.5

    def test_penalty_spec_validation(self):
        with pytest.raises(DomainError):
            PenaltySpec(kind="enet", lam=1.0)
        with pytest.raises(DomainError):
            PenaltySpec(kind="nonsense", lam=1.0)
        with pytest.raises(DomainError):
            PenaltySpec(kind="lasso", lam=0.0)

    def test_laplacian_ridge_needs_an_operator(self):
        with pytest.raises(DomainError, match="L_operator"):
            PenaltySpec(kind="laplacian_ridge", lam=1.0)

    @pytest.mark.parametrize("kind", [k for k in PENALTY_KINDS if k != "laplacian_ridge"])
    def test_only_laplacian_ridge_takes_an_operator(self, kind):
        # lasso and enet would ignore the operator, ridge with one would be
        # laplacian_ridge again, and fusion is the ring's first difference
        L = ring_laplacian(20)
        mu_mix = 0.3 if kind == "enet" else None
        with pytest.raises(DomainError, match=f"{kind} takes no L_operator"):
            PenaltySpec(kind=kind, lam=1.0, mu_mix=mu_mix, L_operator=L)

    @pytest.mark.parametrize("s", [1, 2])
    def test_fusion_needs_a_ring_of_three(self, s):
        # on one source the ring difference would be -J, a plain L1 penalty;
        # on two, both rows difference the same pair
        data = ProblemData(K=np.ones((3, s)), V=np.ones((3, 2)))
        spec = PenaltySpec(kind="lasso_fusion", lam=1.0)
        for call in (lambda: mm_solve(data, spec), lambda: gcv_select(data, spec, [1.0]),
                     lambda: mm_objective(data, np.zeros((s, 2)), spec)):
            with pytest.raises(DomainError, match="ring, which needs at least 3 sources"):
                call()


class TestGCV:
    def test_single_element_grid(self):
        data = make_data()
        lam, curve, _, _ = gcv_select(data, PenaltySpec(kind="ridge", lam=1.0), [0.37])
        assert lam == 0.37
        assert curve.shape == (1, 2)

    def test_full_df_scores_inf_and_a_grid_of_them_raises(self):
        # at lam = 1e-300 every D**2 / (D**2 + lam) rounds to 1, so df = N
        # for a K of full row rank: that point scores inf, and a grid of
        # only such points leaves nothing to select
        data = make_data()
        family = PenaltySpec(kind="ridge", lam=1.0)
        lam, curve, _, _ = gcv_select(data, family, [1e-300, 1.0])
        assert lam == 1.0
        assert curve[0, 1] == np.inf and np.isfinite(curve[1, 1])
        with pytest.raises(SelectionError, match="whole grid"):
            gcv_select(data, family, [1e-300])

    def test_pure_noise_prefers_heavy_shrinkage(self):
        rng = np.random.default_rng(7)
        data = ProblemData(K=rng.standard_normal((10, 30)),
                           V=rng.standard_normal((10, 4)))
        grid = np.logspace(-4, 4, 9)
        lam, _, _, _ = gcv_select(data, PenaltySpec(kind="ridge", lam=1.0), grid)
        assert lam >= grid[-3]

    def test_ridge_matches_brute_force(self):
        # oracle: dense hat matrix and residuals computed from scratch
        data = make_data(seed=8, n=14, s=12, t=2, noise=0.3)
        grid = np.logspace(-3, 3, 13)
        lam, curve, _, _ = gcv_select(data, PenaltySpec(kind="ridge", lam=1.0), grid)
        n, t = 14, 2

        def brute(lamb):
            A = data.K.T @ data.K + lamb * np.eye(12)
            J = np.linalg.solve(A, data.K.T @ data.V)
            hat = data.K @ np.linalg.inv(A) @ data.K.T
            rss = float(np.sum((data.V - data.K @ J) ** 2))
            return (rss / (n * t)) / (1 - np.trace(hat) / n) ** 2

        brute_vals = [brute(g) for g in grid]
        np.testing.assert_allclose(curve[:, 1], brute_vals, rtol=1e-9)
        assert lam == grid[int(np.argmin(brute_vals))]

    def test_ridge_grid_factors_once(self, monkeypatch):
        # a one-point grid factors K for its own point, so these are the
        # values a grid sharing one SVD must reproduce to the bit
        data = make_data(seed=12, n=16, s=96, t=16)
        family = PenaltySpec(kind="ridge", lam=1.0)
        grid = np.logspace(-2, 3, 6)
        fresh = np.vstack([gcv_select(data, family, [g])[1] for g in grid])
        calls = []

        def counted(K):
            calls.append(K)
            return svd_decompose(K)

        monkeypatch.setattr(baselines, "svd_decompose", counted)
        lam, curve, _, _ = gcv_select(data, family, grid)
        assert len(calls) == 1 and calls[0] is data.K
        np.testing.assert_array_equal(curve, fresh)
        assert lam == grid[int(np.argmin(fresh[:, 1]))]

    @pytest.mark.parametrize("operator", ["ring", "dense"])
    def test_operator_ridge_matches_brute_force(self, operator):
        data = make_data(seed=9, n=14, s=12, t=3, noise=0.3)
        L = (ring_laplacian(12) if operator == "ring"
             else np.random.default_rng(10).standard_normal((15, 12)))
        grid = np.logspace(-3, 3, 7)
        family = PenaltySpec(kind="laplacian_ridge", lam=1.0, L_operator=L)
        _, curve, _, _ = gcv_select(data, family, grid)
        n, t = 14, 3
        for lam, gcv in curve:
            A = data.K.T @ data.K + lam * L.T @ L
            J = np.linalg.solve(A, data.K.T @ data.V)
            np.testing.assert_array_equal(J, ridge_solve(data, lam, L))
            df = np.trace(data.K @ np.linalg.inv(A) @ data.K.T)
            rss = float(np.sum((data.V - data.K @ J) ** 2))
            np.testing.assert_allclose(gcv, (rss / (n * t)) / (1 - df / n) ** 2, rtol=1e-9)

    def test_mm_arm_curve(self):
        data = make_data(seed=11)
        lam, curve, _, _ = gcv_select(data, PenaltySpec(kind="lasso", lam=1.0),
                                      [0.05, 0.5, 5.0], max_iter=100)
        assert lam in (0.05, 0.5, 5.0)
        assert np.all(np.isfinite(curve[:, 1]) | np.isinf(curve[:, 1]))

    @pytest.mark.parametrize("spec", [
        PenaltySpec(kind="lasso", lam=1.0),
        PenaltySpec(kind="enet", lam=1.0, mu_mix=0.4),
        PenaltySpec(kind="lasso_fusion", lam=1.0),
    ], ids=["lasso", "enet", "fusion_ring"])
    def test_mm_df_matches_brute_force(self, spec):
        data = make_data(seed=16, t=4)
        grid = [0.05, 0.5, 5.0]
        _, curve, _, _ = gcv_select(data, spec, grid, max_iter=40)
        n, t = data.n_sensors, data.n_times
        # converged fusion maps put weights near 1/eps on L'diag(w)L, so the
        # dense oracle and the batched solve agree only to that conditioning
        rtol = 1e-7 if spec.kind == "lasso_fusion" else 1e-12
        for lam, gcv in curve:
            lam_spec = replace(spec, lam=lam)
            J = mm_solve(data, lam_spec, max_iter=40)
            df = brute_df(data, lam_spec, J, 1e-8)
            np.testing.assert_allclose(_df_columns(data, lam_spec, 1e-8, J), df, rtol=rtol)
            rss = float(np.sum((data.V - data.K @ J) ** 2))
            want = (rss / (n * t)) / (1 - np.mean(df) / n) ** 2 if np.mean(df) < n else np.inf
            np.testing.assert_allclose(gcv, want, rtol=rtol)

    @pytest.mark.parametrize("spec", [
        PenaltySpec(kind="lasso", lam=1.0),
        PenaltySpec(kind="enet", lam=1.0, mu_mix=0.4),
    ], ids=["lasso", "enet"])
    def test_mm_grid_builds_one_system_per_point(self, monkeypatch, spec):
        # the lasso and enet degrees of freedom read only the majorizer's
        # weights, so the only _MMSystem of a grid point is its solve's
        calls = []

        def counted(*args):
            calls.append(args)
            return _mm_system(*args)

        monkeypatch.setattr(baselines, "_mm_system", counted)
        gcv_select(make_data(seed=16, t=4), spec, [0.05, 0.5, 5.0], max_iter=40)
        assert len(calls) == 3

    @pytest.mark.parametrize("spec", [
        PenaltySpec(kind="ridge", lam=1.0),
        PenaltySpec(kind="lasso", lam=1.0),
        PenaltySpec(kind="lasso_fusion", lam=1.0),
    ], ids=["ridge", "lasso", "fusion"])
    def test_fit_is_the_winners_solve(self, spec):
        # the map (and the MMInfo of a majorization arm) that gcv_select
        # returns with its lambda and curve is a fresh solve's at that lambda
        data = make_data(seed=16, t=4)
        grid = [0.05, 0.5, 5.0]
        lam, curve, J, info = gcv_select(data, spec, grid, max_iter=40)
        assert lam in grid and curve.shape == (3, 2)
        if spec.kind == "ridge":
            np.testing.assert_allclose(J, ridge_solve(data, lam), rtol=1e-12, atol=0)
            assert info is None
        else:
            fresh, fresh_info = mm_solve(data, replace(spec, lam=lam), max_iter=40,
                                         return_info=True)
            assert J.tobytes() == fresh.tobytes()
            assert info == fresh_info

    def test_empty_grid_rejected(self):
        data = make_data()
        with pytest.raises(DomainError):
            gcv_select(data, PenaltySpec(kind="ridge", lam=1.0), [])
