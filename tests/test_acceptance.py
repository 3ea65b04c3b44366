"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavier criteria share cached solver runs through the
module-scoped fixtures below.
"""

import time

import numpy as np
import pytest
from scipy import integrate, optimize

import rvmix
from rvmix import (
    NoiseSpec,
    PenaltySpec,
    ProblemData,
    QuadratureSpec,
    SolverConfig,
    add_noise,
    gcv_select,
    make_phantom,
    mixed_norm,
    mm_solve,
    normal_laplace_log_z,
    posterior_moments,
    roc_auc,
    scale_mixture_density,
    solve_enet,
    solve_mxn,
    sparseness_pct,
    truncation_coefficient,
    update_alpha1,
    update_alpha_mxn,
    update_k,
    update_lambda_bar_enet,
    update_lambda_bar_mxn,
)

from oracles import aux_objective_enet, aux_objective_mxn, posterior_direct


def report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} ({detail})"


@pytest.fixture(scope="module")
def phantom():
    return make_phantom()  # S=200, N=31, T=64 defaults


@pytest.fixture(scope="module")
def seed0_runs(phantom):
    """Learned and fixed solver runs on the seed-0 phantom at 42 dB."""
    V, _ = add_noise(phantom.V_clean, NoiseSpec(42.0, 0))
    data = ProblemData(K=phantom.K, V=V)
    t0 = time.perf_counter()
    enet = solve_enet(data)
    mxn = solve_mxn(data)
    learned_wall = time.perf_counter() - t0
    return {
        "data": data,
        "enet": enet,
        "mxn": mxn,
        "learned_wall": learned_wall,
        "enet_fix": {
            pair: solve_enet(data, SolverConfig(fixed_hyper=pair))
            for pair in ((1.0, 1.0), (1.0, 100.0))
        },
        "mxn_fix": {
            a: solve_mxn(data, SolverConfig(fixed_alpha=a)) for a in (1.0, 10.0)
        },
    }


def test_criterion_01_scale_mixture_identity():
    t0 = time.perf_counter()
    worst = 0.0
    xs = np.linspace(-5.0, 5.0, 41)
    for a1 in (0.1, 1.0, 10.0):
        for a2 in (0.1, 1.0, 10.0):
            k = truncation_coefficient(a1, a2)
            spec = QuadratureSpec(node_count=200, domain_cap=k + 50.0)
            lz = normal_laplace_log_z(a1, a2)
            for x in xs:
                mix = scale_mixture_density(x, a1, k, spec)
                ref = np.exp(-a1 * x * x - a2 * abs(x) - lz)
                worst = max(worst, abs(mix - ref))
    elapsed = time.perf_counter() - t0
    report(1, "scale-mixture identity on the hyperparameter grid",
           worst <= 1e-6 and elapsed < 10.0,
           f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_pairwise_field_hierarchization():
    t0 = time.perf_counter()
    worst_cond = 0.0
    worst_marg = 0.0
    for alpha in (0.5, 1.0, 2.0):
        # conditional: direct conditional of exp(-a(|j1|+|j2|)^2) vs the
        # Normal/Laplace form with coupling delta = |j2|
        for j2 in (0.0, 0.7, 1.6):
            direct_un = lambda x: np.exp(-alpha * (abs(x) + abs(j2)) ** 2)
            hier_un = lambda x: np.exp(-alpha * x * x - 2 * alpha * abs(j2) * abs(x))
            zd, _ = integrate.quad(direct_un, -np.inf, np.inf)
            zh, _ = integrate.quad(hier_un, -np.inf, np.inf)
            for j1 in np.linspace(-2.5, 2.5, 11):
                worst_cond = max(worst_cond, abs(direct_un(j1) / zd - hier_un(j1) / zh))

        # marginal: hierarchical joint marginalized over (J2, couplings)
        grid = np.linspace(-3.0, 3.0, 41)

        def z1(d1):
            val, _ = integrate.quad(
                lambda x: np.exp(-alpha * x * x - 2 * alpha * d1 * abs(x)),
                -np.inf, np.inf)
            return val

        def hier_unnorm(j1):
            def outer(d1):
                inner, _ = integrate.quad(
                    lambda d2: np.exp(-alpha * (d1 + d2) ** 2), 0.0, np.inf)
                return np.exp(-alpha * j1 * j1 - 2 * alpha * d1 * abs(j1)) / z1(d1) * inner
            val, _ = integrate.quad(outer, 0.0, np.inf, limit=100)
            return val

        def direct_unnorm(j1):
            val, _ = integrate.quad(
                lambda j2: np.exp(-alpha * (abs(j1) + abs(j2)) ** 2), -np.inf, np.inf)
            return val

        hier = np.array([hier_unnorm(x) for x in grid])
        direct = np.array([direct_unnorm(x) for x in grid])
        hier /= np.trapezoid(hier, grid)
        direct /= np.trapezoid(direct, grid)
        worst_marg = max(worst_marg, float(np.max(np.abs(hier - direct))))
    elapsed = time.perf_counter() - t0
    report(2, "pairwise-field conditional and marginal consistency at S=2",
           worst_cond <= 1e-4 and worst_marg <= 1e-4 and elapsed < 30.0,
           f"cond {worst_cond:.2e}, marg {worst_marg:.2e}, {elapsed:.1f}s")


def test_criterion_03_posterior_equivalence():
    rng = np.random.default_rng(314)
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
        scale_mu = max(np.max(np.abs(ref.mu)), 1e-30)
        scale_sd = max(np.max(np.abs(ref.sigma_diag)), 1e-30)
        worst = max(worst,
                    np.max(np.abs(fast.mu - ref.mu)) / scale_mu,
                    np.max(np.abs(fast.sigma_diag - ref.sigma_diag)) / scale_sd)
    # pruned coordinates give exact zeros
    K = np.random.default_rng(0).standard_normal((6, 15))
    lam = np.random.default_rng(1).uniform(0.1, 1.0, 15)
    lam[[2, 7, 11]] = 0.0
    post = posterior_moments(K, lam, 1.0, np.ones(6))
    zeros_exact = bool(np.all(post.mu[[2, 7, 11]] == 0.0)
                       and np.all(post.sigma_diag[[2, 7, 11]] == 0.0))
    report(3, "factored posterior equals dense inversion; pruning exact",
           worst <= 1e-7 and zeros_exact, f"max rel dev {worst:.2e}")


def test_criterion_04_update_stationarity():
    rng = np.random.default_rng(2718)
    tol_fail = []

    def refine(f, x_star, lo, hi):
        res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-13})
        base = f(x_star)
        return max(base - res.fun, 0.0) / max(abs(base), 1.0)

    for trial in range(10):
        s = 9
        mu = rng.standard_normal(s)
        sig = rng.uniform(0.01, 0.8, s)
        lb = rng.uniform(0.05, 0.9, s)
        a1 = float(rng.uniform(0.2, 3.0))
        k = float(rng.uniform(0.1, 8.0))
        tau, nu = float(s), 0.01 * s
        i = int(rng.integers(0, s))

        # variance-factor update (elastic net)
        def f_lb(x):
            lb2 = lb.copy()
            lb2[i] = x
            return aux_objective_enet(mu, sig, lb2, a1, k, tau, nu)

        x = update_lambda_bar_enet(mu[i], sig[i], a1, k)
        tol_fail.append(refine(f_lb, x, 1e-9, 1 - 1e-9))

        # variance scale update
        x = update_alpha1(mu, sig, lb)
        tol_fail.append(refine(lambda a: aux_objective_enet(mu, sig, lb, a, k, tau, nu),
                               x, x * 1e-3, x * 1e3))

        # truncation coefficient update
        x = update_k(lb, tau, nu)
        tol_fail.append(refine(lambda kk: aux_objective_enet(mu, sig, lb, a1, kk, tau, nu),
                               x, x * 1e-2, x * 1e2))

        # mixed-norm variance factor and global scale
        t_count = 3
        mu2 = rng.standard_normal((s, t_count))
        sig2 = rng.uniform(0.01, 0.5, (s, t_count))
        lb2 = rng.uniform(0.05, 0.9, (s, t_count))
        dl2 = rng.uniform(0.05, 1.5, (s, t_count))
        alpha = float(rng.uniform(0.2, 3.0))

        def f_lb_mxn(x):
            z = lb2.copy()
            z[i, 0] = x
            return aux_objective_mxn(mu2, sig2, z, dl2, alpha)

        x = update_lambda_bar_mxn(mu2[i, 0], sig2[i, 0], alpha, dl2[i, 0])
        tol_fail.append(refine(f_lb_mxn, x, 1e-9, 1 - 1e-9))

        x = update_alpha_mxn(mu2, sig2, lb2, dl2)
        tol_fail.append(refine(lambda a: aux_objective_mxn(mu2, sig2, lb2, dl2, a),
                               x, x * 1e-2, x * 1e2))

    worst = max(tol_fail)
    report(4, "every closed-form update is stationary under 1-D refinement",
           worst <= 1e-8, f"max relative improvement {worst:.2e}")


def test_criterion_05_convergence_behavior(seed0_runs):
    enet, mxn = seed0_runs["enet"], seed0_runs["mxn"]
    oks = []
    for name, sol in (("enet", enet), ("mxn", mxn)):
        tr = sol.objective_trace
        mono = bool(np.all(np.diff(tr) <= 1e-6 * np.abs(tr[:-1])))
        oks.append(mono and sol.converged and sol.iterations <= 30)
    wall = seed0_runs["learned_wall"]
    report(5, "monotone objective, convergence within 30 sweeps, < 60 s",
           all(oks) and wall < 60.0,
           f"iters enet={enet.iterations} mxn={mxn.iterations}, wall {wall:.1f}s")


def test_criterion_06_learning_beats_fixing(seed0_runs):
    enet_final = seed0_runs["enet"].objective_trace[-1]
    mxn_final = seed0_runs["mxn"].objective_trace[-1]
    enet_ok = all(enet_final <= sol.objective_trace[-1]
                  for sol in seed0_runs["enet_fix"].values())
    mxn_ok = all(mxn_final <= sol.objective_trace[-1]
                 for sol in seed0_runs["mxn_fix"].values())
    detail = (f"enet {enet_final:.0f} vs "
              + "/".join(f"{s.objective_trace[-1]:.0f}" for s in seed0_runs["enet_fix"].values())
              + f"; mxn {mxn_final:.0f} vs "
              + "/".join(f"{s.objective_trace[-1]:.0f}" for s in seed0_runs["mxn_fix"].values()))
    report(6, "learned hyperparameters reach the lowest final objective",
           enet_ok and mxn_ok, detail)


def test_criterion_07_method_ordering(phantom):
    grid = np.logspace(-2, 3, 6)
    truth_sp = 100.0 * np.mean(phantom.J_true == 0.0)
    e_auc, m_auc, lasso_auc, enetmm_auc, e_sp = [], [], [], [], []
    for seed in range(5):
        V, _ = add_noise(phantom.V_clean, NoiseSpec(42.0, seed))
        data = ProblemData(K=phantom.K, V=V)
        e = solve_enet(data)
        m = solve_mxn(data)
        e_auc.append(roc_auc(e.mu, phantom.support_true))
        m_auc.append(roc_auc(m.mu, phantom.support_true))
        e_sp.append(sparseness_pct(e.mu))
        best = -np.inf
        for lam in grid:
            J = mm_solve(data, PenaltySpec(kind="lasso", lam=lam), max_iter=100)
            if np.any(J != 0.0):
                best = max(best, roc_auc(J, phantom.support_true))
        lasso_auc.append(best)
        best = -np.inf
        for mu_mix in (0.1, 0.01, 0.001):
            lam, _, _, _ = gcv_select(data, PenaltySpec(kind="enet", lam=1.0, mu_mix=mu_mix),
                                      grid, max_iter=100)
            J = mm_solve(data, PenaltySpec(kind="enet", lam=lam, mu_mix=mu_mix),
                         max_iter=100)
            best = max(best, roc_auc(J, phantom.support_true))
        enetmm_auc.append(best)
    med = lambda x: float(np.median(x))
    sp_gap = abs(med(e_sp) - truth_sp)
    ok = (med(e_auc) >= med(enetmm_auc)
          and med(m_auc) >= med(lasso_auc)
          and sp_gap <= 3.0)
    report(7, "learned solvers out-rank the majorization grids; sparseness tracks truth",
           ok,
           f"AUC enet {med(e_auc):.1f} vs enet-mm {med(enetmm_auc):.1f}; "
           f"mxn {med(m_auc):.1f} vs lasso {med(lasso_auc):.1f}; "
           f"Sp {med(e_sp):.1f} vs truth {truth_sp:.1f}")


def test_criterion_08_baseline_sanity():
    rng = np.random.default_rng(5)
    K = rng.standard_normal((8, 20))
    J0 = np.zeros((20, 2))
    J0[4] = 1.0
    data = ProblemData(K=K, V=K @ J0 + 0.05 * rng.standard_normal((8, 2)))

    descent_ok = True
    for spec in (PenaltySpec(kind="lasso", lam=0.9),
                 PenaltySpec(kind="enet", lam=0.9, mu_mix=0.2),
                 PenaltySpec(kind="lasso_fusion", lam=0.9)):
        _, trace = mm_solve(data, spec, return_trace=True)
        descent_ok &= bool(np.all(np.diff(trace) <= 1e-10 * np.abs(trace[:-1])))

    v, lam = 1.3, 0.8
    tiny = ProblemData(K=np.array([[1.0]]), V=np.array([[v]]))
    want = np.sign(v) * max(abs(v) - lam / 2, 0.0)
    err = None
    for eps in (1e-4, 1e-6, 1e-8):
        J = mm_solve(tiny, PenaltySpec(kind="lasso", lam=lam), eps_lqa=eps,
                     max_iter=4000, tol=1e-14)
        err = abs(float(J[0, 0]) - want)
    soft_ok = err <= 1e-4

    data2 = ProblemData(K=rng.standard_normal((14, 12)),
                        V=rng.standard_normal((14, 2)))
    grid = np.logspace(-3, 3, 13)
    lam_sel, curve, _, _ = gcv_select(data2, PenaltySpec(kind="ridge", lam=1.0), grid)
    brute = []
    for g in grid:
        A = data2.K.T @ data2.K + g * np.eye(12)
        Jg = np.linalg.solve(A, data2.K.T @ data2.V)
        hat = data2.K @ np.linalg.inv(A) @ data2.K.T
        rss = float(np.sum((data2.V - data2.K @ Jg) ** 2))
        brute.append((rss / (14 * 2)) / (1 - np.trace(hat) / 14) ** 2)
    gcv_ok = lam_sel == grid[int(np.argmin(brute))]

    report(8, "majorization descent, soft-threshold limit, GCV equals brute force",
           descent_ok and soft_ok and gcv_ok,
           f"soft-threshold err {err:.2e}")


def test_criterion_09_metrics_correctness():
    rng = np.random.default_rng(99)
    from test_metrics import auc_threshold_sweep

    sweep_ok = True
    for trial in range(10):
        scores = np.abs(rng.standard_normal(200))
        if trial % 2 == 0:
            scores = np.round(scores, 1)
        truth = rng.uniform(size=200) < 0.3
        if not truth.any() or truth.all():
            continue
        sweep_ok &= abs(roc_auc(scores, truth) - auc_threshold_sweep(scores, truth)) <= 1e-10

    truth = np.zeros(200, dtype=bool)
    truth[:50] = True
    perm_aucs = [roc_auc(rng.standard_normal(200), truth) for _ in range(100)]
    perm_ok = abs(np.mean(perm_aucs) - 50.0) <= 3.0

    decomp_ok = True
    for _ in range(20):
        J = rng.standard_normal((rng.integers(2, 9), rng.integers(1, 7)))
        lhs = mixed_norm(J, 1, 2) ** 2
        rhs = float(np.sum(np.sum(np.abs(J), axis=0) ** 2))
        decomp_ok &= abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0)

    report(9, "AUC rank = threshold sweep; permutation AUC ~ 50; norm decomposition",
           sweep_ok and perm_ok and decomp_ok,
           f"mean permutation AUC {np.mean(perm_aucs):.1f}")


def test_criterion_10_reproducibility(tmp_path):
    from rvmix.cli import main

    cfg = tmp_path / "sim.cfg"
    cfg.write_text("s = 60\nn = 12\nt = 8\nseed = 5\npeak_snr_db = 42\nc_sigma_space = 2.0\n")
    sims = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        sims.append(sim)
    runs = []
    for tag in ("a", "b"):
        run = tmp_path / f"run_{tag}"
        assert main(["solve", "--method", "enet-rvm", "--K", str(sims[0] / "K.mxio"),
                     "--V", str(sims[0] / "V.mxio"), "--out", str(run)]) == 0
        runs.append(run)
    same = True
    for name in ("K.mxio", "V.mxio", "V_clean.mxio", "J_true.mxio",
                 "support_true.mxio", "manifest.json"):
        same &= (sims[0] / name).read_bytes() == (sims[1] / name).read_bytes()
    for name in ("mu.mxio", "sigma_diag.mxio", "objective_trace.csv", "manifest.json"):
        same &= (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    report(10, "identical config and seed reproduce phantom, solution, manifest bit-exactly",
           same)
