"""Classical penalized arms: ridge family and majorization solvers.

Runs the quadratic baselines (plain ridge and the Laplacian-weighted
variant) plus the L1-bearing majorization arms with cross-validated
regularization weights, and prints the comparison table next to the
Bayesian solvers.
"""

import numpy as np

from rvmix import (
    EvalReport,
    NoiseSpec,
    PenaltySpec,
    ProblemData,
    add_noise,
    evaluate,
    gcv_select,
    make_phantom,
    ring_laplacian,
    solve_enet,
    solve_mxn,
)

ph = make_phantom()
V, _ = add_noise(ph.V_clean, NoiseSpec(42.0, seed=0))
data = ProblemData(K=ph.K, V=V)
grid = np.logspace(-2, 3, 6)
rows = []

# gcv_select returns the winning lambda, the (lambda, score) curve, and the
# winner's map and MMInfo (None for the closed-form arms)
lam, curve, J, _ = gcv_select(data, PenaltySpec(kind="ridge", lam=1.0), grid)
rows.append(evaluate(f"ridge (gcv lam={lam:g})", J,
                     ph.J_true, ph.support_true, zero_tol_rel=0.0))

L = ring_laplacian(ph.S)
lam, _, J, _ = gcv_select(data, PenaltySpec(kind="laplacian_ridge", lam=1.0, L_operator=L),
                          [0.1, 1.0, 10.0])
rows.append(evaluate(f"laplacian ridge (lam={lam:g})", J,
                     ph.J_true, ph.support_true, zero_tol_rel=0.0))

lam, curve, J, _ = gcv_select(data, PenaltySpec(kind="lasso", lam=1.0), grid, max_iter=100)
rows.append(evaluate(f"lasso-mm (lam={lam:g})", J, ph.J_true, ph.support_true, zero_tol_rel=0.0))
print("lasso GCV curve (lambda, score):")
for row in curve:
    print(f"  {row[0]:10.4g} {row[1]:12.6g}")

for mu_mix in (0.1, 0.01):
    lam, _, J, _ = gcv_select(data, PenaltySpec(kind="enet", lam=1.0, mu_mix=mu_mix),
                              grid, max_iter=100)
    rows.append(evaluate(f"enet-mm mix={mu_mix} (lam={lam:g})", J,
                         ph.J_true, ph.support_true, zero_tol_rel=0.0))

# the fusion arm solves coupled (non-diagonal) systems; demonstrate it on
# the first eight columns to keep the script quick
short = ProblemData(K=ph.K, V=V[:, :8])
lam, _, J_fus, _ = gcv_select(short, PenaltySpec(kind="lasso_fusion", lam=1.0),
                              [0.1, 1.0, 10.0], max_iter=60)
rows.append(evaluate(f"fusion-mm, 8 cols (lam={lam:g})", J_fus,
                     ph.J_true[:, :8], ph.support_true[:, :8], zero_tol_rel=0.0))

rows.append(evaluate("enet-rvm learned", solve_enet(data).mu, ph.J_true, ph.support_true))
rows.append(evaluate("mxn-rvm learned", solve_mxn(data).mu, ph.J_true, ph.support_true))

print("\n" + " | ".join(h.rjust(8) for h in EvalReport.CSV_HEADER[1:]) + " | method")
for rep in rows:
    vals = " | ".join(x.rjust(8) for x in rep.as_row()[1:])
    print(f"{vals} | {rep.method}")
