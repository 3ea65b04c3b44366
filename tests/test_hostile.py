"""Hostile scales: the Bayesian solvers and the majorization arms on a lead
field or data scaled far from unit size return finite output or fail with
the README's exit code."""

import numpy as np
import pytest

from rvmix.baselines import PenaltySpec, mm_solve
from rvmix.cli import NUMERIC, _failure
from rvmix.enet import solve_enet
from rvmix.errors import RvmixError
from rvmix.mxn import solve_mxn
from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom
from rvmix.posterior import ProblemData

CELLS = [("K", 1e-150), ("K", 1e-100), ("K", 1e-50),
         ("V", 1e-300), ("V", 1e-200), ("V", 1e-150), ("V", 1e20), ("V", 1e40), ("V", 1e60),
         ("V", 1e70), ("V", 1e100), ("V", 1e150), ("V", 1e200)]
#: the cells where a float range is exceeded: K x 1e-100 and below puts
#: the posterior variances (enet) or alpha * delta**2 (mxn) out of range,
#: V x 1e100 and above the variances or the truncations; V x 1e-200 and
#: below makes alpha * delta**2 underflow in mxn's global scale search
FAILING = {("K", 1e-150), ("K", 1e-100), ("V", 1e100), ("V", 1e150), ("V", 1e200)}
FAILING_BY_SOLVER = {"enet": FAILING, "mxn": FAILING | {("V", 1e-300), ("V", 1e-200)}}

MM_CELLS = CELLS + [("K", 1e50)]
MM_SPECS = {"lasso": PenaltySpec(kind="lasso", lam=1.0),
            "enet": PenaltySpec(kind="enet", lam=1.0, mu_mix=0.1),
            "fusion": PenaltySpec(kind="lasso_fusion", lam=1.0)}
_INCREASED = "majorization step increased the objective"
_AT_START = "majorization objective is not finite at the start"
#: the majorization cells that raise, with the start of their message. The
#: lasso and enet step forms (K'V - K'(I + M)^-1 M V) / d, M = K D^-1 K',
#: which cancels once M is far above 1: at K x 1e50, and for lasso, whose
#: D^-1 = 2(|J| + eps)/lam has no bound, from V x 1e20 on; enet's ridge
#: part keeps its D^-1 below 1/(lam * mu_mix)
MM_FAILING = {
    "lasso": {("K", 1e50): _INCREASED, ("V", 1e20): _INCREASED, ("V", 1e40): _INCREASED,
              ("V", 1e60): _INCREASED, ("V", 1e70): _INCREASED,
              ("V", 1e100): "majorization objective is not finite after step 2",
              ("V", 1e150): "majorization objective is not finite after step 2",
              ("V", 1e200): _AT_START},
    "enet": {("K", 1e50): _INCREASED, ("V", 1e200): _AT_START},
    "fusion": {("V", 1e200): _AT_START},
}


@pytest.fixture(scope="module")
def ring():
    ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
    V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
    return ph.K, V


def _scaled(ring, which, scale):
    K, V = ring
    return ProblemData(K=K * scale, V=V) if which == "K" else ProblemData(K=K, V=V * scale)


@pytest.mark.parametrize("name", ["enet", "mxn"])
@pytest.mark.parametrize("which, scale", CELLS, ids=[f"{w}x{s:g}" for w, s in CELLS])
def test_finite_output_or_numeric_exit(ring, name, which, scale):
    # tier-1 turns a RuntimeWarning into an error, so neither path may warn
    solver = {"enet": solve_enet, "mxn": solve_mxn}[name]
    data = _scaled(ring, which, scale)
    if (which, scale) in FAILING_BY_SOLVER[name]:
        with pytest.raises(RvmixError) as info:
            solver(data)
        assert _failure(info.value)[0] == NUMERIC
        assert "overflow" in str(info.value) or "underflow" in str(info.value)
    else:
        sol = solver(data)
        assert all(np.all(np.isfinite(x)) for x in (sol.mu, sol.sigma_diag, sol.lambda_bar))


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
