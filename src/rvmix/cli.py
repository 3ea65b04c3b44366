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
from dataclasses import asdict, fields, replace
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
#: the BLAS thread settings a solve's timings.json records (null when unset)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RVM_METHODS = ("enet-rvm", "mxn-rvm")
#: each classical method and the PenaltySpec kind it solves
CLASSICAL_METHODS = {"ridge": "ridge", "loreta": "laplacian_ridge", "lasso-mm": "lasso",
                     "enet-mm": "enet", "fusion-mm": "lasso_fusion"}


def _seed(text):
    """A noise seed: an integer the noise generator takes, so not negative."""
    value = int(text)
    if value < 0:
        raise ValueError(f"need a nonnegative integer, got {text!r}")
    return value


SIM_KEYS = {
    "s": int, "n": int, "t": int, "seed": _seed, "peak_snr_db": float,
    "r_generators": float, "r_electrodes": float, "duration": float,
    **{f.name: f.type for f in fields(SourceSpec)},
}


class LambdaGrid(str):
    """A lambda_grid value: a nonempty comma list of positive numbers.  It
    stays text, so a manifest records the grid as given."""

    def __new__(cls, text):
        grid = super().__new__(cls, text)
        lams = grid.values()
        if not lams or not all(0.0 < lam < np.inf for lam in lams):
            raise ValueError(f"need a nonempty comma list of positive numbers, got {text!r}")
        return grid

    def values(self):
        return [float(x) for x in self.split(",") if x.strip()]


SOLVE_KEYS = {
    "max_iter": int, "tol_mu": float, "tol_objective": float,
    "learn_k": bool, "learn_alpha1": bool, "alpha1": float, "alpha2": float,
    "fixed_alpha": float, "alpha_init": float, "beta_mode": str, "epsilon_prior": float,
    "lam": float, "mu_mix": float, "eps_lqa": float, "lambda_grid": LambdaGrid,
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


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_manifest(out, payload):
    _write_json(out / "manifest.json", dict(payload, format_version=FORMAT_VERSION))


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
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), LambdaGrid: (str,)}


def _typed_json_config(raw, schema, source):
    """A manifest's config checked against schema.  JSON values are typed
    already, so each must have its key's type: a bool only for a bool key,
    an int (not a bool) for an int key, any number for a float key, text
    for a text key, which then converts as config text does."""
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
        if isinstance(value, str):
            out.update(_typed_config({key: value}, schema, source))
        else:
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
    _write_manifest(out, {
        "command": "simulate",
        "config": dict(sim, **asdict(spec)),
        "noise_sigma": sigma,
        "truth_sparseness_pct": float(100.0 * np.mean(ph.J_true == 0.0)),
        "lead_field_condition": float(np.linalg.cond(ph.K)),
    })
    _write_json(out / "timings.json", {"simulate_s": time.perf_counter() - t0})
    return ph


def _solver_config(cfg):
    kwargs = {k: v for k, v in cfg.items() if k in SolverConfig.__dataclass_fields__}
    if "alpha1" in cfg or "alpha2" in cfg:
        if not ("alpha1" in cfg and "alpha2" in cfg):
            raise ConfigError("fixed hyperparameters need both alpha1 and alpha2")
        kwargs["fixed_hyper"] = (cfg["alpha1"], cfg["alpha2"])
    return SolverConfig(**kwargs)


def _at_grid_edge(lam, grid):
    """True when GCV picked the smallest or largest lambda of its grid: the
    optimum may lie outside it."""
    return lam in (min(grid), max(grid))


def _solve_payload(method, data, cfg):
    """Run one solver; returns (J, files, manifest_extras)."""
    if method in RVM_METHODS:
        sol = (solve_enet if method == "enet-rvm" else solve_mxn)(data, _solver_config(cfg))
        steps = np.arange(1, sol.iterations + 1)
        files = {"mu.mxio": sol.mu, "sigma_diag.mxio": sol.sigma_diag,
                 "lambda_bar.mxio": sol.lambda_bar,
                 "objective_trace.csv": np.column_stack([steps, sol.objective_trace]),
                 # alpha1, k, beta (enet) or alpha, beta, delta_l1 (mxn), in trace order
                 "hyper_trace.csv": np.column_stack([steps, *sol.hyper_trace.values()])}
        extras = {"stop_reason": sol.extras["stop_reason"], "converged": bool(sol.converged),
                  "iterations": int(sol.iterations),
                  "objective_trace": [float(x) for x in sol.objective_trace]}
        if method == "enet-rvm":
            extras["column_iterations"] = [int(n) for n in sol.extras["column_iterations"]]
        else:
            extras["alpha_final"] = float(sol.extras["alpha_final"])
        return sol.mu, files, extras

    kind = CLASSICAL_METHODS[method]
    lam = cfg.get("lam")
    mm_kwargs = {key: cfg[key] for key in ("eps_lqa", "max_iter") if key in cfg}
    L = ring_laplacian(data.n_sources) if kind == "laplacian_ridge" else None
    family = PenaltySpec(kind=kind, lam=lam or 1.0, mu_mix=cfg.get("mu_mix"), L_operator=L)
    files, extras = {}, {}
    if lam is None:
        if "lambda_grid" not in cfg:
            raise ConfigError(f"{method} needs lam or lambda_grid")
        grid = cfg["lambda_grid"].values()
        # the ridge kinds ignore eps_lqa and max_iter
        lam, files["gcv_curve.csv"] = gcv_select(data, family, grid, **mm_kwargs)
        extras["selected_at_grid_edge"] = _at_grid_edge(lam, grid)
    if kind in ("ridge", "laplacian_ridge"):
        J, converged = ridge_solve(data, lam, L), True
    else:
        J, info = mm_solve(data, replace(family, lam=lam), return_info=True, **mm_kwargs)
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
    if args.method not in (*RVM_METHODS, *CLASSICAL_METHODS):
        raise ConfigError(f"unknown method {args.method!r}")
    t0 = time.perf_counter()
    data = ProblemData(K=read_matrix(args.K), V=read_matrix(args.V))
    out = _out_dir(args.out)
    t1 = time.perf_counter()
    J, files, extras = _solve_payload(args.method, data, cfg)
    t2 = time.perf_counter()
    for name, payload in files.items():
        if name.endswith(".mxio"):
            write_matrix(out / name, payload)
        else:
            np.savetxt(out / name, payload, delimiter=",", fmt="%.17g")
    _write_manifest(out, {
        "command": "solve",
        "method": args.method,
        "inputs": {"K": str(args.K), "V": str(args.V)},
        "config": cfg,
        **extras,
    })
    _write_json(out / "timings.json", {
        "read_s": t1 - t0, "solve_s": t2 - t1, "write_s": time.perf_counter() - t2,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV}})
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
    rep = evaluate(args.method, J_est, J_true, support,
                   zero_tol_rel=args.zero_tol, threshold_frac=args.threshold)
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
        if method not in (*RVM_METHODS, *CLASSICAL_METHODS):
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
    p.add_argument("--zero-tol", dest="zero_tol", type=float, default=RVM_ZERO_TOL_REL,
                   help="relative zero threshold; 0 counts only exact zeros "
                        "(majorization outputs)")
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
