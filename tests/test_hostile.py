"""Hostile scales: both Bayesian solvers on a lead field or data scaled far
from unit size return finite output or fail with the README's exit code."""

import numpy as np
import pytest

from rvmix.cli import NUMERIC, _failure
from rvmix.enet import solve_enet
from rvmix.errors import RvmixError
from rvmix.mxn import solve_mxn
from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom
from rvmix.posterior import ProblemData

CELLS = [("K", 1e-150), ("K", 1e-100), ("K", 1e-50),
         ("V", 1e-150), ("V", 1e20), ("V", 1e40), ("V", 1e60), ("V", 1e70),
         ("V", 1e100), ("V", 1e150), ("V", 1e200)]
#: the cells where a float range is exceeded: K x 1e-100 and below puts
#: the posterior variances (enet) or alpha * delta**2 (mxn) out of range,
#: V x 1e100 and above the variances or the truncations
FAILING = {("K", 1e-150), ("K", 1e-100), ("V", 1e100), ("V", 1e150), ("V", 1e200)}


@pytest.fixture(scope="module")
def ring():
    ph = make_phantom(S=96, N=16, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
    V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, 0))
    return ph.K, V


@pytest.mark.parametrize("solver", [solve_enet, solve_mxn], ids=["enet", "mxn"])
@pytest.mark.parametrize("which, scale", CELLS, ids=[f"{w}x{s:g}" for w, s in CELLS])
def test_finite_output_or_numeric_exit(ring, solver, which, scale):
    # tier-1 turns a RuntimeWarning into an error, so neither path may warn
    K, V = ring
    data = ProblemData(K=K * scale, V=V) if which == "K" else ProblemData(K=K, V=V * scale)
    if (which, scale) in FAILING:
        with pytest.raises(RvmixError) as info:
            solver(data)
        assert _failure(info.value)[0] == NUMERIC
        assert "overflow" in str(info.value) or "underflow" in str(info.value)
    else:
        sol = solver(data)
        assert all(np.all(np.isfinite(x)) for x in (sol.mu, sol.sigma_diag, sol.lambda_bar))
