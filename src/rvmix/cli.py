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
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import PenaltySpec, gcv_select, mm_solve, ridge_solve, ring_laplacian
from .enet import SolverConfig, solve_enet
from .errors import ConfigError, ContainerError, NumericError, RvmixError
from .metrics import MM_ZERO_TOL_REL, RVM_ZERO_TOL_REL, EvalReport, evaluate
from .mxio import coerce, config_entries, parse_config_file, read_matrix, write_matrix
from .mxn import solve_mxn
from .phantom import NoiseSpec, SourceSpec, add_noise, make_phantom
from .posterior import ProblemData

FORMAT_VERSION = 1
OK, USAGE, IOERR, NUMERIC = 0, 2, 3, 4

RVM_METHODS = ("enet-rvm", "mxn-rvm")
CLASSICAL_METHODS = ("ridge", "loreta", "lasso-mm", "enet-mm", "fusion-mm")
METHOD_PENALTY = {"lasso-mm": "lasso", "enet-mm": "enet", "fusion-mm": "lasso_fusion"}


def _seed(text):
    """A noise seed: an integer the noise generator takes, so not negative."""
    value = int(text)
    if value < 0:
        raise ValueError(f"need a nonnegative integer, got {text!r}")
    return value


SIM_KEYS = {
    "s": int, "n": int, "t": int, "seed": _seed, "peak_snr_db": float,
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


def _seed_list(text):
    """A sweep's `seeds` value: a comma list of at least one seed, each
    once, as each names a directory."""
    seeds = [_seed(x) for x in text.split(",") if x.strip()]
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError(f"need distinct nonnegative integer seeds, got {text!r}")
    return seeds


#: the global keys of a sweep spec: the simulation's, plus the seed list
SWEEP_KEYS = dict(SIM_KEYS, seeds=_seed_list)
#: the name of a sweep arm, which is also a directory name under runs/
_ARM_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _out_dir(path):
    root = os.environ.get("RVMIX_OUT_ROOT")
    p = Path(path)
    if root and not p.is_absolute():
        p = Path(root).absolute() / p  # absolute, so a second call keeps it
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


#: the JSON values each schema type accepts; bool is an int to Python
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _typed_json_config(raw, schema, source):
    """A manifest's config checked against schema.  JSON values are typed
    already, so each must have its key's type: a bool only for a bool key,
    an int (not a bool) for an int key, any number for a float key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{source}: unknown key {key!r}")
        kind = schema[key]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ConfigError(f"{source}: key {key!r} must be of type {kind.__name__}, "
                              f"got {value!r}")
        out[key] = float(value) if kind is float else value
    return out


def cmd_simulate(args):
    cfg = _typed_config(parse_config_file(args.config), SIM_KEYS, args.config) if args.config else {}
    _simulate(cfg, _out_dir(args.out))
    return OK


def _simulate(cfg, out):
    """Simulate from a typed SIM_KEYS config into the directory out; returns
    the phantom."""
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
    return ph


def _solver_config(cfg):
    kwargs = {k: v for k, v in cfg.items() if k in SolverConfig.__dataclass_fields__}
    if "alpha1" in cfg or "alpha2" in cfg:
        if not ("alpha1" in cfg and "alpha2" in cfg):
            raise ConfigError("fixed hyperparameters need both alpha1 and alpha2")
        kwargs["fixed_hyper"] = (cfg["alpha1"], cfg["alpha2"])
    return SolverConfig(**kwargs)


def _grid(cfg):
    text = cfg.get("lambda_grid")
    if text is None:
        return None
    try:
        vals = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad lambda_grid: {exc}") from exc
    if not vals:
        raise ConfigError("lambda_grid is empty")
    return vals


def _at_grid_edge(lam, grid):
    """True when GCV picked the smallest or largest lambda of its grid: the
    optimum may lie outside it."""
    return lam in (min(grid), max(grid))


def _solve_payload(method, data, cfg):
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
        if method == "enet-rvm":
            extras["column_iterations"] = [int(n) for n in sol.extras["column_iterations"]]
        extras["stop_reason"] = sol.extras["stop_reason"]
        files["hyper_trace.csv"] = hyper
        extras.update(converged=bool(sol.converged), iterations=int(sol.iterations),
                      objective_trace=[float(x) for x in sol.objective_trace])
        return sol.mu, files, extras

    grid = _grid(cfg)
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
        if not isinstance(manifest, dict) or manifest.get("command") != "solve":
            raise ConfigError(f"{args.replay} is not a solve manifest")
        try:
            args.method = manifest["method"]
            args.K = manifest["inputs"]["K"]
            args.V = manifest["inputs"]["V"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{args.replay}: method or inputs missing ({exc!r})") from exc
        cfg = _typed_json_config(manifest.get("config", {}), SOLVE_KEYS, args.replay)
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
    J, files, extras = _solve_payload(args.method, data, cfg)
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
    """A sweep spec's typed globals and its arms.  Every key and value is
    checked here, so a bad one stops the sweep before anything runs."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    globals_cfg, arms = {}, []
    for lineno, key, value in config_entries(text, path):
        where = f"{path}:{lineno}"
        if key != "arm":
            globals_cfg.update(_typed_config({key: value}, SWEEP_KEYS, where))
            continue
        name, bar, rest = (x.strip() for x in value.partition("|"))
        if not bar:
            raise ConfigError(f"{where}: arm needs 'name | key=value ...'")
        if not _ARM_NAME.fullmatch(name):
            raise ConfigError(f"{where}: arm name {name!r} must be letters, digits, "
                              "'.', '_' and '-', starting with a letter or digit")
        if any(arm["name"] == name for arm in arms):
            raise ConfigError(f"{where}: arm name {name!r} is used twice")
        tokens = {}
        for token in rest.split():
            k, eq, v = token.partition("=")
            if not eq:
                raise ConfigError(f"{where}: bad arm token {token!r}")
            tokens[k] = v
        method = tokens.pop("method", None)
        if method not in RVM_METHODS + CLASSICAL_METHODS:
            raise ConfigError(f"{where}: arm {name!r} needs a known method, got {method!r}")
        arms.append({"name": name, "method": method,
                     "cfg": _typed_config(tokens, SOLVE_KEYS, where)})
    if not arms:
        raise ConfigError(f"{path}: sweep defines no arms")
    return globals_cfg, arms


def _run_arm(arm, seed, sim_dir, out_root, truth, support):
    """Solve and score one arm on one seed's simulation; returns the
    sweep.csv row, whose error holds the message of a failed run."""
    row = {"arm": arm["name"], "seed": seed, "method": arm["method"], "error": ""}
    run_dir = out_root / "runs" / f"{arm['name']}-seed{seed}"
    args = argparse.Namespace(method=arm["method"], K=str(sim_dir / "K.mxio"),
                              V=str(sim_dir / "V.mxio"), config=None, replay=None,
                              out=str(run_dir), **{k: arm["cfg"].get(k) for k in SOLVE_KEYS})
    try:
        cmd_solve(args)
        J = read_matrix(run_dir / "mu.mxio")
        zero_tol = MM_ZERO_TOL_REL if arm["method"] in CLASSICAL_METHODS else RVM_ZERO_TOL_REL
        rep = evaluate(arm["name"], J, truth, support, zero_tol_rel=zero_tol)
        with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (RvmixError, OSError) as exc:
        row["error"] = _failure(exc)[1]
        return row
    row.update(zip(EvalReport.CSV_HEADER[1:], rep.as_row()[1:]))
    if "selected_lambda" in manifest:
        row["selected_lambda"] = manifest["selected_lambda"]
    row["converged"] = manifest.get("converged", True)
    return row


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    globals_cfg, arms = _parse_sweep(args.spec)
    seeds = globals_cfg.pop("seeds", [0])
    out = _out_dir(args.out)
    jobs = []
    for seed in seeds:
        sim_dir = out / "sim" / f"seed{seed}"
        sim_dir.mkdir(parents=True, exist_ok=True)
        ph = _simulate(dict(globals_cfg, seed=seed), sim_dir)
        support = ph.support_true.astype(bool)
        jobs += [(arm, seed, sim_dir, out, ph.J_true, support) for arm in arms]

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(lambda job: _run_arm(*job), jobs))
    else:
        rows = [_run_arm(*job) for job in jobs]

    fieldnames = ["arm", "seed", "method", *EvalReport.CSV_HEADER[1:],
                  "selected_lambda", "converged", "error"]
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return OK


def _flag_type(kind):
    """argparse type for a solve key: flag text converts as config text does."""
    def convert(text):
        return coerce(text, kind)
    convert.__name__ = kind.__name__
    return convert


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
    for key, kind in SOLVE_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_flag_type(kind),
                       help="fixed_one | learned" if key == "beta_mode" else None)
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


def _failure(exc):
    """The exit code and the message of a command that raised exc."""
    if isinstance(exc, ConfigError):
        return USAGE, f"configuration error: {exc}"
    if isinstance(exc, NumericError):
        return NUMERIC, f"numeric failure: {exc}"
    if isinstance(exc, (OSError, ContainerError)):
        return IOERR, f"i/o failure: {exc}"
    return USAGE, f"error: {exc}"


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (RvmixError, OSError) as exc:
        code, message = _failure(exc)
        print(f"rvmix: {message}", file=sys.stderr)
        return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
