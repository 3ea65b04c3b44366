"""Hostile scales: the Bayesian solvers and the majorization arms on a lead
field or data scaled far from unit size return finite output or fail with
the README's exit code."""

import numpy as np
import pytest

from rvmix.baselines import PenaltySpec, mm_solve
from rvmix.cli import NUMERIC, _failure
from rvmix.enet import SolverConfig, solve_enet
from rvmix.errors import RvmixError
from rvmix.mxn import solve_mxn
from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom
from rvmix.posterior import ProblemData

CELLS = [("K", 1e-150), ("K", 1e-100), ("K", 1e-50),
         ("V", 1e-300), ("V", 1e-200), ("V", 1e-150), ("V", 1e10), ("V", 1e15), ("V", 1e20),
         ("V", 1e40), ("V", 1e60), ("V", 1e70), ("V", 1e100), ("V", 1e150), ("V", 1e200)]
#: the cells where a float range is exceeded: K x 1e-100 and below puts
#: the posterior variances (enet) or, for mxn, alpha * delta**2 (1e-150)
#: or the variance factor update (1e-100, test_alpha_search_finds_a_deep_root)
#: out of range, V x 1e100 and above the variances or the truncations;
#: V x 1e-200 and below makes alpha * delta**2 underflow in mxn's global
#: scale search
FAILING = {("K", 1e-150), ("K", 1e-100), ("V", 1e100), ("V", 1e150), ("V", 1e200)}
FAILING_BY_SOLVER = {"enet": FAILING, "mxn": FAILING | {("V", 1e-300), ("V", 1e-200)}}

MM_CELLS = CELLS + [("K", 1e50)]
MM_SPECS = {"lasso": PenaltySpec(kind="lasso", lam=1.0),
            "enet": PenaltySpec(kind="enet", lam=1.0, mu_mix=0.1),
            "fusion": PenaltySpec(kind="lasso_fusion", lam=1.0)}
_AT_START = "majorization objective is not finite at the start"
#: the majorization cells that raise, with the start of their message:
#: V x 1e200 overflows ||V||**2 at the start.  From V x 1e30 on, the
#: lasso objective grows like V (its L1 term) and the rounding of
#: ||V - KJ||**2 like V**2; lasso and enet score a step by the residual
#: their solve already holds, which carries no such rounding, so their
#: descent test holds up to V x 1e152.  Fusion's step rises on V x 1e10
#: and 1e15, as on every V x 10**e for e = 7 ... 19 here: its weights
#: 1/(|LJ| + eps_lqa) take an absolute eps_lqa, so its S x S normal
#: equations grow worse conditioned with the data's scale
_ROSE = "majorization step increased the objective"
MM_FAILING = {name: {("V", 1e200): _AT_START} for name in MM_SPECS}
MM_FAILING["fusion"].update({("V", 1e10): _ROSE, ("V", 1e15): _ROSE})


SOLVERS = {"enet": solve_enet, "mxn": solve_mxn}
#: the solved cells whose objective really rises: on K x 1e-50 the mixed
#: norm goes from -75 573 to -75 479 between sweeps 2 and 3.  It does so
#: from K x 1e-4 down (not at 1e-2), after its first alpha search has
#: jumped from the start, 1, to about 0.12 times the scale of K
RISING = {("mxn", "K", 1e-50)}


@pytest.fixture(scope="module")
def ring():
    ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
    V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
    return ph.K, V


def _scaled(ring, which, scale):
    K, V = ring
    return ProblemData(K=K * scale, V=V) if which == "K" else ProblemData(K=K, V=V * scale)


@pytest.fixture(scope="module")
def solved(ring):
    """solved(name, which, scale): the Solution of a cell, each solved once."""
    cache = {}

    def solve(name, which, scale):
        if (name, which, scale) not in cache:
            cache[name, which, scale] = SOLVERS[name](_scaled(ring, which, scale))
        return cache[name, which, scale]
    return solve


@pytest.mark.parametrize("name", ["enet", "mxn"])
@pytest.mark.parametrize("which, scale", CELLS, ids=[f"{w}x{s:g}" for w, s in CELLS])
def test_finite_output_or_numeric_exit(ring, solved, name, which, scale):
    # tier-1 turns a RuntimeWarning into an error, so neither path may warn
    if (which, scale) in FAILING_BY_SOLVER[name]:
        with pytest.raises(RvmixError) as info:
            SOLVERS[name](_scaled(ring, which, scale))
        assert _failure(info.value)[0] == NUMERIC
        assert "overflow" in str(info.value) or "underflow" in str(info.value)
    else:
        sol = solved(name, which, scale)
        assert all(np.all(np.isfinite(x)) for x in (sol.mu, sol.sigma_diag, sol.lambda_bar))


@pytest.mark.parametrize("name, which, scale", [
    pytest.param(name, which, scale, id=f"{name}-{which}x{scale:g}",
                 marks=[pytest.mark.xfail(strict=True, reason="the mixed norm's objective "
                                          "rises from K x 1e-4 down (alpha starts at 1)")]
                 if (name, which, scale) in RISING else [])
    for name in SOLVERS for which, scale in CELLS
    if (which, scale) not in FAILING_BY_SOLVER[name]])
def test_objective_descends(solved, name, which, scale):
    # the objective is the evidence read off the posterior's factor, a sum
    # with no residual that cancels, so its rounding grows like its value
    # and a rise beyond 1e-6 of it is a real one
    trace = solved(name, which, scale).objective_trace
    assert np.all(np.diff(trace) <= 1e-6 * np.abs(trace[:-1]))


def test_alpha_search_finds_a_deep_root(ring):
    # on K x 1e-100 the first global scale search has its root near
    # 1.2e-101; squaring toward 0 went from 1e-64 to 1e-128, where
    # alpha * delta**2 underflows, and raised.  Now it lands on the root,
    # and the run fails one step later, in the variance factor update,
    # whose (mu**2 + sigma) * alpha * alpha * delta**2 underflows to 0
    data = _scaled(ring, "K", 1e-100)
    alpha = solve_mxn(data, SolverConfig(max_iter=1)).extras["alpha_final"]
    assert 1.1e-101 < alpha < 1.3e-101
    with pytest.raises(RvmixError, match=r"^column \d+: iteration 2, variance factor update: "
                                         r".* underflows to 0") as info:
        solve_mxn(data)
    assert _failure(info.value)[0] == NUMERIC


@pytest.mark.parametrize("name", sorted(MM_SPECS))
@pytest.mark.parametrize("which, scale", MM_CELLS, ids=[f"{w}x{s:g}" for w, s in MM_CELLS])
def test_mm_finite_map_or_numeric_exit(ring, name, which, scale):
    data = _scaled(ring, which, scale)
    message = MM_FAILING[name].get((which, scale))
    if message is not None:
        with pytest.raises(RvmixError, match=f"^{message}") as info:
            mm_solve(data, MM_SPECS[name], max_iter=40)
        assert _failure(info.value)[0] == NUMERIC
    else:
        assert np.all(np.isfinite(mm_solve(data, MM_SPECS[name], max_iter=40)))


#: the largest relative deviation a rotation or a source permutation may
#: cause: rounding, except for fusion, whose (S, S) normal equations are
#: badly conditioned (K'K has rank N < S, and the weights reach 1/eps_lqa)
ROTATION_RTOL = {"enet": 1e-12, "mxn": 1e-12, "lasso": 1e-12, "enet-mm": 1e-12,
                 "fusion": 1e-7}


def _rotation_run(name, data):
    """The map and the counts a rotation or a source permutation must leave
    unchanged."""
    if name in ("enet", "mxn"):
        sol = {"enet": solve_enet, "mxn": solve_mxn}[name](data)
        counts = (sol.iterations, sol.extras["stop_reason"],
                  list(sol.extras.get("column_iterations", [])))
        return sol.mu, counts
    spec = MM_SPECS["enet" if name == "enet-mm" else name]
    J, info = mm_solve(data, spec, max_iter=40, return_info=True)
    return J, (info.iterations, int(np.count_nonzero(J)))


@pytest.mark.parametrize("name", sorted(ROTATION_RTOL))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sensor_rotation_changes_nothing(ring, name, seed):
    # K, V -> QK, QV with Q orthogonal leaves K'K, K'V and ||V - KJ|| and so
    # every solver's problem unchanged; what moves is rounding only
    K, V = ring
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((K.shape[0],) * 2))
    want, want_counts = _rotation_run(name, ProblemData(K=K, V=V))
    got, got_counts = _rotation_run(name, ProblemData(K=Q @ K, V=Q @ V))
    assert got_counts == want_counts
    assert np.max(np.abs(got - want)) <= ROTATION_RTOL[name] * np.max(np.abs(want))


#: the source orders each majorization arm's penalty is blind to: lasso and
#: enet-mm act on every source alike, fusion on the ring's first difference,
#: which a rotation of the ring moves and a reflection negates
PERMUTATIONS = [("lasso", "any"), ("enet-mm", "any"), ("fusion", "rotation"),
                ("fusion", "reflection")]


@pytest.mark.parametrize("name, kind", PERMUTATIONS, ids=[f"{n}-{k}" for n, k in PERMUTATIONS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_source_permutation_permutes_the_mm_maps(ring, name, kind, seed):
    # K -> K[:, perm] leaves each arm's problem unchanged up to the order of
    # the sources, so the map comes back permuted, with the same step count
    # and the same zero pattern
    K, V = ring
    s = K.shape[1]
    rng = np.random.default_rng(seed)
    perm = {"any": lambda: rng.permutation(s),
            "rotation": lambda: np.roll(np.arange(s), int(rng.integers(1, s))),
            "reflection": lambda: np.arange(s)[::-1]}[kind]()
    want, want_counts = _rotation_run(name, ProblemData(K=K, V=V))
    got, got_counts = _rotation_run(name, ProblemData(K=K[:, perm], V=V))
    assert got_counts == want_counts
    assert np.array_equal(got == 0.0, want[perm] == 0.0)
    assert np.max(np.abs(got - want[perm])) <= ROTATION_RTOL[name] * np.max(np.abs(want))
