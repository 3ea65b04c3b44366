"""Batch front-end: simulate, solve, eval, and sweep commands.

Exit codes: 0 success, 2 usage or configuration problems, 3 I/O failures,
4 numeric failures.  Each command writes a JSON manifest holding the
fully resolved configuration, sufficient to reproduce the run bit for
bit; volatile data (wall-clock timings) go to a separate timings file so
manifests stay byte-identical across reruns.
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import PenaltySpec, gcv_select, mm_solve, ridge_solve, ring_laplacian
from .enet import SolverConfig, solve_enet
from .errors import ConfigError, ContainerError, NumericError, RvmixError
from .metrics import MM_ZERO_TOL_REL, RVM_ZERO_TOL_REL, EvalReport, evaluate
from .mxio import coerce, parse_config_file, read_matrix, write_matrix
from .mxn import solve_mxn
from .phantom import NoiseSpec, SourceSpec, add_noise, make_phantom
from .posterior import ProblemData

FORMAT_VERSION = 1
OK, USAGE, IOERR, NUMERIC = 0, 2, 3, 4

RVM_METHODS = ("enet-rvm", "mxn-rvm")
CLASSICAL_METHODS = ("ridge", "loreta", "lasso-mm", "enet-mm", "fusion-mm")
METHOD_PENALTY = {"lasso-mm": "lasso", "enet-mm": "enet", "fusion-mm": "lasso_fusion"}

SIM_KEYS = {
    "s": int, "n": int, "t": int, "seed": int, "peak_snr_db": float,
    "r_generators": float, "r_electrodes": float, "duration": float,
    "a_center": float, "a_amplitude": float, "a_peak_time": float, "a_sigma_time": float,
    "b_center": float, "b_width": int, "b_amplitude": float, "b_freq": float, "b_phase": float,
    "c_center": float, "c_sigma_space": float, "c_amplitude": float, "c_freq": float,
    "c_phase": float, "c_truncate_frac": float,
}

SOLVE_KEYS = {
    "max_iter": int, "tol_mu": float, "tol_objective": float,
    "learn_k": bool, "learn_alpha1": bool, "alpha1": float, "alpha2": float,
    "fixed_alpha": float, "alpha_init": float, "beta_mode": str, "epsilon_prior": float,
    "lam": float, "mu_mix": float, "eps_lqa": float, "lambda_grid": str,
}


def _out_dir(path):
    root = os.environ.get("RVMIX_OUT_ROOT")
    p = Path(path)
    if root and not p.is_absolute():
        p = Path(root) / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(out, name, payload):
    payload = dict(payload, format_version=FORMAT_VERSION)
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_timings(out, timings):
    with open(out / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(timings, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _typed_config(raw, schema, source):
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{source}: unknown key {key!r}")
        try:
            out[key] = coerce(value, schema[key])
        except ConfigError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
    return out


def cmd_simulate(args):
    cfg = _typed_config(parse_config_file(args.config), SIM_KEYS, args.config) if args.config else {}
    out = _out_dir(args.out)
    sim = {
        "s": cfg.get("s", 200), "n": cfg.get("n", 31), "t": cfg.get("t", 64),
        "seed": cfg.get("seed", 0), "peak_snr_db": cfg.get("peak_snr_db", 42.0),
        "r_generators": cfg.get("r_generators", 0.65),
        "r_electrodes": cfg.get("r_electrodes", 1.0),
        "duration": cfg.get("duration", 1.0),
    }
    source_kwargs = {k: v for k, v in cfg.items() if k not in sim}
    spec = SourceSpec(**source_kwargs)
    t0 = time.perf_counter()
    ph = make_phantom(S=sim["s"], N=sim["n"], T=sim["t"], source_spec=spec,
                      r_generators=sim["r_generators"], r_electrodes=sim["r_electrodes"],
                      duration=sim["duration"])
    V_clean = ph.V_clean
    if np.all(V_clean == 0.0):
        raise ConfigError("all source amplitudes are zero; nothing to observe")
    V, sigma = add_noise(V_clean, NoiseSpec(sim["peak_snr_db"], sim["seed"]))
    write_matrix(out / "K.mxio", ph.K)
    write_matrix(out / "V.mxio", V)
    write_matrix(out / "V_clean.mxio", V_clean)
    write_matrix(out / "J_true.mxio", ph.J_true)
    write_matrix(out / "support_true.mxio", ph.support_true.astype(float))
    _write_manifest(out, "manifest.json", {
        "command": "simulate",
        "config": dict(sim, **{k: getattr(spec, k) for k in SourceSpec.__dataclass_fields__}),
        "noise_sigma": sigma,
        "truth_sparseness_pct": float(100.0 * np.mean(ph.J_true == 0.0)),
        "lead_field_condition": float(np.linalg.cond(ph.K)),
    })
    _write_timings(out, {"simulate_s": time.perf_counter() - t0})
    return OK


def _solver_config(cfg):
    kwargs = {}
    for key in ("max_iter", "tol_mu", "tol_objective", "learn_k", "learn_alpha1",
                "beta_mode", "epsilon_prior", "alpha_init", "fixed_alpha"):
        if key in cfg:
            kwargs[key] = cfg[key]
    if "alpha1" in cfg or "alpha2" in cfg:
        if not ("alpha1" in cfg and "alpha2" in cfg):
            raise ConfigError("fixed hyperparameters need both alpha1 and alpha2")
        kwargs["fixed_hyper"] = (cfg["alpha1"], cfg["alpha2"])
    return SolverConfig(**kwargs)


def _grid(cfg, flag_grid):
    text = flag_grid or cfg.get("lambda_grid")
    if text is None:
        return None
    try:
        vals = [float(x) for x in str(text).split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad lambda_grid: {exc}") from exc
    if not vals:
        raise ConfigError("lambda_grid is empty")
    return vals


def _at_grid_edge(lam, grid):
    """True when GCV picked the smallest or largest lambda of its grid: the
    optimum may lie outside it."""
    return lam in (min(grid), max(grid))


def _solve_payload(method, data, cfg, flag_grid):
    """Run one solver; returns (J, files, manifest_extras)."""
    extras = {}
    files = {}
    if method in RVM_METHODS:
        config = _solver_config(cfg)
        sol = solve_enet(data, config) if method == "enet-rvm" else solve_mxn(data, config)
        files["mu.mxio"] = sol.mu
        files["sigma_diag.mxio"] = sol.sigma_diag
        files["lambda_bar.mxio"] = sol.lambda_bar
        files["objective_trace.csv"] = np.column_stack(
            [np.arange(1, sol.iterations + 1), sol.objective_trace]
        )
        if method == "enet-rvm":
            hyper = np.column_stack([
                np.arange(1, sol.iterations + 1),
                sol.hyper_trace["alpha1"],
                sol.hyper_trace["k"],
                sol.hyper_trace["beta"],
            ])
        else:
            hyper = np.column_stack([
                np.arange(1, sol.iterations + 1),
                sol.hyper_trace["alpha"],
                sol.hyper_trace["beta"],
                sol.hyper_trace["delta_l1"],
            ])
            extras["alpha_final"] = float(sol.extras["alpha_final"])
        files["hyper_trace.csv"] = hyper
        extras.update(converged=bool(sol.converged), iterations=int(sol.iterations),
                      objective_trace=[float(x) for x in sol.objective_trace])
        return sol.mu, files, extras

    grid = _grid(cfg, flag_grid)
    lam = cfg.get("lam")
    if method in ("ridge", "loreta"):
        L = ring_laplacian(data.n_sources) if method == "loreta" else None
        family = PenaltySpec(kind="laplacian_ridge" if method == "loreta" else "ridge",
                             lam=lam or 1.0, L_operator=L)
        if lam is None:
            if grid is None:
                raise ConfigError(f"{method} needs lam or lambda_grid")
            lam, curve = gcv_select(data, family, grid)
            files["gcv_curve.csv"] = curve
            extras["selected_at_grid_edge"] = _at_grid_edge(lam, grid)
        J = ridge_solve(data, lam, L)
        converged = True
    else:
        kind = METHOD_PENALTY[method]
        mu_mix = cfg.get("mu_mix")
        if kind == "enet" and mu_mix is None:
            raise ConfigError("enet-mm needs mu_mix")
        family = PenaltySpec(kind=kind, lam=lam or 1.0, mu_mix=mu_mix)
        eps = cfg.get("eps_lqa", 1e-8)
        if lam is None:
            if grid is None:
                raise ConfigError(f"{method} needs lam or lambda_grid")
            lam, curve = gcv_select(data, family, grid, eps_lqa=eps,
                                    max_iter=cfg.get("max_iter", 200))
            files["gcv_curve.csv"] = curve
            extras["selected_at_grid_edge"] = _at_grid_edge(lam, grid)
        from dataclasses import replace

        J, info = mm_solve(data, replace(family, lam=lam), eps_lqa=eps,
                           max_iter=cfg.get("max_iter", 200), return_info=True)
        converged = info.converged
        extras.update(iterations=info.iterations, final_step=info.final_step)
    files["mu.mxio"] = J
    extras.update(selected_lambda=float(lam), converged=converged)
    return J, files, extras


def cmd_solve(args):
    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("command") != "solve":
            raise ConfigError(f"{args.replay} is not a solve manifest")
        args.method = manifest["method"]
        args.K = manifest["inputs"]["K"]
        args.V = manifest["inputs"]["V"]
        cfg = manifest["config"]
    else:
        cfg = _typed_config(parse_config_file(args.config), SOLVE_KEYS, args.config) if args.config else {}
        for key in SOLVE_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                cfg[key] = flag
    if not args.replay and not (args.method and args.K and args.V):
        raise ConfigError("solve needs --method, --K and --V (or --replay)")
    if args.method not in RVM_METHODS + CLASSICAL_METHODS:
        raise ConfigError(f"unknown method {args.method!r}")
    K = read_matrix(args.K)
    V = read_matrix(args.V)
    if K.shape[0] != V.shape[0]:
        raise ConfigError(
            f"dimension mismatch: K has {K.shape[0]} rows, V has {V.shape[0]}"
        )
    data = ProblemData(K=K, V=V)
    out = _out_dir(args.out)
    t0 = time.perf_counter()
    J, files, extras = _solve_payload(args.method, data, cfg, args.lambda_grid)
    for name, payload in files.items():
        if name.endswith(".mxio"):
            write_matrix(out / name, payload)
        else:
            np.savetxt(out / name, payload, delimiter=",", fmt="%.17g")
    _write_manifest(out, "manifest.json", {
        "command": "solve",
        "method": args.method,
        "inputs": {"K": str(args.K), "V": str(args.V)},
        "config": cfg,
        **extras,
    })
    _write_timings(out, {"solve_s": time.perf_counter() - t0})
    return OK


def cmd_eval(args):
    J_est = read_matrix(args.mu)
    J_true = read_matrix(args.truth)
    if J_est.shape != J_true.shape:
        raise ConfigError(f"shape mismatch: estimate {J_est.shape} vs truth {J_true.shape}")
    if args.support is None:
        raise ConfigError("support matrix is required for Sens/Spec/AUC")
    support = read_matrix(args.support).astype(bool)
    if support.shape != J_est.shape:
        raise ConfigError(f"shape mismatch: support {support.shape} vs estimate {J_est.shape}")
    zero_tol = args.zero_tol if args.zero_tol is not None else (
        MM_ZERO_TOL_REL if args.exact_zeros else RVM_ZERO_TOL_REL
    )
    rep = evaluate(args.method, J_est, J_true, support,
                   zero_tol_rel=zero_tol, threshold_frac=args.threshold)
    writer_target = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(EvalReport.CSV_HEADER)
        writer.writerow(rep.as_row())
    finally:
        if args.out:
            writer_target.close()
    return OK


def _parse_sweep(path):
    parse_config_file(path)  # syntax validation with line numbers
    arms = []
    globals_cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body or "=" not in body:
                continue
            key, value = (x.strip() for x in body.split("=", 1))
            if key != "arm":
                globals_cfg[key] = value
                continue
            if "|" not in value:
                raise ConfigError(f"{path}:{lineno}: arm needs 'name | key=value ...'")
            name, rest = (x.strip() for x in value.split("|", 1))
            arm = {"name": name}
            for token in rest.split():
                if "=" not in token:
                    raise ConfigError(f"{path}:{lineno}: bad arm token {token!r}")
                k, v = token.split("=", 1)
                arm[k] = v
            if "method" not in arm:
                raise ConfigError(f"{path}:{lineno}: arm {name!r} has no method")
            arms.append(arm)
    if not arms:
        raise ConfigError(f"{path}: sweep defines no arms")
    return globals_cfg, arms


def _run_arm(arm, seed, sim_dir, out_root, truth, support):
    run_dir = out_root / "runs" / f"{arm['name']}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    argv = ["solve", "--method", arm["method"], "--K", str(sim_dir / "K.mxio"),
            "--V", str(sim_dir / "V.mxio"), "--out", str(run_dir)]
    for key, value in arm.items():
        if key in ("name", "method"):
            continue
        argv += [f"--{key.replace('_', '-')}", value]
    code = main(argv)
    if code != OK:
        return {"arm": arm["name"], "seed": seed, "method": arm["method"],
                "error": f"exit {code}"}
    J = read_matrix(run_dir / "mu.mxio")
    zero_tol = MM_ZERO_TOL_REL if arm["method"] in CLASSICAL_METHODS else RVM_ZERO_TOL_REL
    rep = evaluate(arm["name"], J, truth, support, zero_tol_rel=zero_tol)
    with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    row = {"arm": arm["name"], "seed": seed, "method": arm["method"], "error": ""}
    row.update(zip(EvalReport.CSV_HEADER[1:], rep.as_row()[1:]))
    if "selected_lambda" in manifest:
        row["selected_lambda"] = manifest["selected_lambda"]
    row["converged"] = manifest.get("converged", True)
    return row


def cmd_sweep(args):
    globals_cfg, arms = _parse_sweep(args.spec)
    out = _out_dir(args.out)
    seeds = [int(x) for x in str(globals_cfg.pop("seeds", "0")).split(",") if x.strip()]
    rows = []
    jobs = []
    for seed in seeds:
        sim_dir = out / "sim" / f"seed{seed}"
        sim_dir.mkdir(parents=True, exist_ok=True)
        sim_cfg = dict(globals_cfg)
        sim_cfg["seed"] = str(seed)
        cfg_path = sim_dir / "sim.cfg"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            for k, v in sim_cfg.items():
                fh.write(f"{k} = {v}\n")
        code = main(["simulate", "--config", str(cfg_path), "--out", str(sim_dir)])
        if code != OK:
            return code
        truth = read_matrix(sim_dir / "J_true.mxio")
        support = read_matrix(sim_dir / "support_true.mxio").astype(bool)
        for arm in arms:
            jobs.append((arm, seed, sim_dir, truth, support))

    def run(job):
        arm, seed, sim_dir, truth, support = job
        try:
            return _run_arm(arm, seed, sim_dir, out, truth, support)
        except RvmixError as exc:
            return {"arm": arm["name"], "seed": seed, "method": arm["method"],
                    "error": str(exc)}

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(run, jobs))
    else:
        rows = [run(job) for job in jobs]

    fieldnames = ["arm", "seed", "method", *EvalReport.CSV_HEADER[1:],
                  "selected_lambda", "converged", "error"]
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return OK


def _boolean(text):
    """argparse type for the bool solve keys, with the config file's spellings."""
    try:
        return coerce(text, bool)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser():
    parser = argparse.ArgumentParser(prog="rvmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a ring phantom")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="run one solver on stored matrices")
    p.add_argument("--method", help="enet-rvm | mxn-rvm | ridge | loreta | "
                                    "lasso-mm | enet-mm | fusion-mm")
    p.add_argument("--K", help="lead field matrix file")
    p.add_argument("--V", help="observation matrix file")
    p.add_argument("--config", help="key = value solver configuration")
    p.add_argument("--out", required=True)
    p.add_argument("--replay", help="re-run from a solve manifest")
    p.add_argument("--lam", type=float)
    p.add_argument("--lambda-grid", dest="lambda_grid")
    p.add_argument("--mu-mix", dest="mu_mix", type=float)
    p.add_argument("--eps-lqa", dest="eps_lqa", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--fixed-alpha", dest="fixed_alpha", type=float)
    p.add_argument("--epsilon-prior", dest="epsilon_prior", type=float)
    p.add_argument("--tol-mu", dest="tol_mu", type=float)
    p.add_argument("--tol-objective", dest="tol_objective", type=float)
    p.add_argument("--beta-mode", dest="beta_mode", help="fixed_one | learned")
    p.add_argument("--learn-k", dest="learn_k", type=_boolean)
    p.add_argument("--learn-alpha1", dest="learn_alpha1", type=_boolean)
    p.add_argument("--alpha-init", dest="alpha_init", type=float)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="score a solution against the truth")
    p.add_argument("--mu", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--support")
    p.add_argument("--method", default="solution", help="label for the CSV row")
    p.add_argument("--zero-tol", dest="zero_tol", type=float)
    p.add_argument("--exact-zeros", action="store_true",
                   help="count only exact zeros (majorization outputs)")
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a methods x settings x seeds grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"rvmix: configuration error: {exc}", file=sys.stderr)
        return USAGE
    except NumericError as exc:
        print(f"rvmix: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC
    except (OSError, ContainerError) as exc:
        print(f"rvmix: i/o failure: {exc}", file=sys.stderr)
        return IOERR
    except RvmixError as exc:
        print(f"rvmix: error: {exc}", file=sys.stderr)
        return USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
