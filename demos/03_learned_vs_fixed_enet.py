"""Elastic-net Bayesian solver: learned hyperparameters vs fixed ones.

Runs the solver three ways on the same noisy phantom - learning the
variance scale and truncation coefficient, and with the two classical
fixed combinations - then prints the final objectives, the quality
metrics, and how the learned hyperparameters vary across time.
"""

import numpy as np

from rvmix import (
    EvalReport,
    NoiseSpec,
    ProblemData,
    SolverConfig,
    add_noise,
    evaluate,
    make_phantom,
    solve_enet,
)

ph = make_phantom()
V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, seed=0))
data = ProblemData(K=ph.K, V=V)

arms = {
    "learned": SolverConfig(),
    "fixed (1, 1)": SolverConfig(fixed_hyper=(1.0, 1.0)),
    "fixed (1, 100)": SolverConfig(fixed_hyper=(1.0, 100.0)),
}

print("=== elastic-net arms on the 42 dB phantom ===\n")
print(" ".join(h.rjust(10) for h in EvalReport.CSV_HEADER[1:]))
finals = {}
for name, cfg in arms.items():
    sol = solve_enet(data, cfg)
    rep = evaluate(name, sol.mu, ph.J_true, ph.support_true)
    finals[name] = sol.objective_trace[-1]
    row = " ".join(x.rjust(10) for x in rep.as_row()[1:])
    print(f"{row}   {name} ({sol.iterations} sweeps, converged={sol.converged})")

print("\nfinal objective values (lower is better):")
for name, val in finals.items():
    marker = "  <- minimum" if val == min(finals.values()) else ""
    print(f"  {name:16s} {val:14.1f}{marker}")

sol = solve_enet(data)
a1, k = sol.hyper_trace["alpha1"][-1], sol.hyper_trace["k"][-1]
a2 = np.sqrt(4 * a1 * k)  # the equivalent absolute-penalty weight
print("\nlearned per-column hyperparameters (summary over the 64 columns):")
print(f"  variance scale:     median {np.median(a1):.3g}, range [{a1.min():.3g}, {a1.max():.3g}]")
print(f"  truncation:         median {np.median(k):.3g}, range [{k.min():.3g}, {k.max():.3g}]")
print(f"  equiv. L1 weight:   median {np.median(a2):.3g}, range [{a2.min():.3g}, {a2.max():.3g}]")
print("""
The truncation coefficient stays near the mean of its prior; the
per-column adaptation happens through the variance scale, and with it
the equivalent absolute-penalty weight: columns whose true activity is
sparse receive a visibly larger weight (harder shrinkage) than columns
where broad sources are active.
""")
