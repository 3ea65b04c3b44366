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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import (PenaltySpec, check_mm_settings, gcv_select, mm_solve, ridge_solve,
                        ring_laplacian)
from .enet import SolverConfig, solve_enet
from .errors import ConfigError, ContainerError, DomainError, NumericError, RvmixError
from .metrics import MM_ZERO_TOL_REL, RVM_ZERO_TOL_REL, EvalReport, evaluate
from .mxio import (config_entries, container_sha256, parse_config_file, read_config_text,
                   read_matrix, write_matrix)
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
    "max_iter": int, "tol_mu": float, "tol_objective": float, "alpha1": float, "alpha2": float,
    "fixed_alpha": float, "beta_mode": str, "epsilon_prior": float,
    "lam": float, "mu_mix": float, "eps_lqa": float, "lambda_grid": LambdaGrid,
}
#: the solve keys each method reads; a method takes no other
METHOD_KEYS = {
    "enet-rvm": ("max_iter", "tol_mu", "tol_objective", "alpha1", "alpha2", "beta_mode",
                 "epsilon_prior"),
    "mxn-rvm": ("max_iter", "tol_mu", "tol_objective", "fixed_alpha", "beta_mode"),
    "ridge": ("lam", "lambda_grid"),
    "loreta": ("lam", "lambda_grid"),
    "lasso-mm": ("lam", "lambda_grid", "eps_lqa", "max_iter"),
    "enet-mm": ("lam", "lambda_grid", "eps_lqa", "max_iter", "mu_mix"),
    "fusion-mm": ("lam", "lambda_grid", "eps_lqa", "max_iter"),
}


#: the JSON values each solve key's type accepts in a replayed manifest; a
#: bool, which is an int to Python, is none of them
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), LambdaGrid: (str,)}


def _typed_config(raw, schema, source, json=False):
    """raw's values typed by schema, whose types turn text into a value or
    raise ValueError (OverflowError for an integer beyond the float range);
    a ConfigError names source and the key.  With json, each value must
    first be of its type's JSON kind (_JSON_TYPES)."""
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{source}: unknown key {key!r}")
        kind = schema[key]
        if json and (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind])):
            raise ConfigError(f"{source}: key {key!r} must be of type {kind.__name__}, "
                              f"got {value!r}")
        try:
            out[key] = kind(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
    return out


def solve_config(method, raw, source, json=False):
    """The typed settings of one solve, checked before anything is read or
    written; a ConfigError names source.  The method is known, it reads each
    key, and a classical method has exactly one of lam and lambda_grid.  raw
    holds text (config lines, flags, arm tokens) or, with json, a manifest's
    values; _typed_config types both.  The values are then checked by the
    objects that own the rules: SolverConfig and the alpha1/alpha2 pair rule
    for a Bayesian method, PenaltySpec (whose rules do not depend on the
    number of sources) and check_mm_settings for a classical one."""
    if method not in METHOD_KEYS:
        raise ConfigError(f"{source}: unknown method {method!r}")
    for key in raw:
        if key not in METHOD_KEYS[method]:
            raise ConfigError(f"{source}: method {method!r} does not read key {key!r}")
    if method in CLASSICAL_METHODS and ("lam" in raw) == ("lambda_grid" in raw):
        raise ConfigError(f"{source}: method {method!r} needs exactly one of 'lam' "
                          "and 'lambda_grid'")
    cfg = _typed_config(raw, SOLVE_KEYS, source, json)
    try:
        if method in RVM_METHODS:
            _solver_config(cfg)
        else:
            _penalty_spec(method, cfg, 2)
            check_mm_settings(cfg.get("eps_lqa"), cfg.get("max_iter"))
    except (ConfigError, DomainError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return cfg


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


def cmd_simulate(args):
    cfg = _typed_config(parse_config_file(args.config), SIM_KEYS, args.config) if args.config else {}
    sim = _build_simulation(cfg)
    _write_simulation(sim, _out_dir(args.out))


#: the arguments of make_phantom that a simulation config sets, as lowercase keys
_PHANTOM_ARGS = ("S", "N", "T", "r_generators", "r_electrodes", "duration")


def _build_simulation(cfg):
    """Build a simulation from a typed SIM_KEYS config; every value is
    checked here, and nothing is written.  Returns (phantom, noisy V,
    manifest payload, seconds taken)."""
    # make_phantom and NoiseSpec own the defaults of the keys they take, and
    # the phantom records the values it was built with
    noise = NoiseSpec(**{f.name: cfg[f.name] for f in fields(NoiseSpec) if f.name in cfg})
    spec = SourceSpec(**{f.name: cfg[f.name] for f in fields(SourceSpec) if f.name in cfg})
    t0 = time.perf_counter()
    ph = make_phantom(source_spec=spec, **{arg: cfg[arg.lower()] for arg in _PHANTOM_ARGS
                                           if arg.lower() in cfg})
    sim = dict({arg.lower(): getattr(ph, arg) for arg in _PHANTOM_ARGS}, **asdict(noise))
    if np.all(ph.V_clean == 0.0):
        raise ConfigError("all source amplitudes are zero; nothing to observe")
    V, sigma = add_noise(ph.V_clean, noise)
    manifest = {
        "command": "simulate",
        "config": dict(sim, **asdict(spec)),
        "noise_sigma": sigma,
        "truth_sparseness_pct": float(100.0 * np.mean(ph.J_true == 0.0)),
        "lead_field_condition": float(np.linalg.cond(ph.K)),
    }
    return ph, V, manifest, time.perf_counter() - t0


def _write_simulation(sim, out):
    """Write a _build_simulation result's matrices, manifest and timings
    into out."""
    t0 = time.perf_counter()
    ph, V, manifest, build_s = sim
    write_matrix(out / "K.mxio", ph.K)
    write_matrix(out / "V.mxio", V)
    write_matrix(out / "V_clean.mxio", ph.V_clean)
    write_matrix(out / "J_true.mxio", ph.J_true)
    write_matrix(out / "support_true.mxio", ph.support_true.astype(float))
    _write_manifest(out, manifest)
    _write_json(out / "timings.json", {"simulate_s": build_s + time.perf_counter() - t0})


def _solver_config(cfg):
    kwargs = {k: v for k, v in cfg.items() if k in SolverConfig.__dataclass_fields__}
    if "alpha1" in cfg or "alpha2" in cfg:
        if not ("alpha1" in cfg and "alpha2" in cfg):
            raise ConfigError("fixed hyperparameters need both alpha1 and alpha2")
        kwargs["fixed_hyper"] = (cfg["alpha1"], cfg["alpha2"])
    return SolverConfig(**kwargs)


def _penalty_spec(method, cfg, n_sources):
    """The PenaltySpec of a classical method on a ring of n_sources; lam is
    a placeholder 1 when a grid selects it."""
    kind = CLASSICAL_METHODS[method]
    L = ring_laplacian(n_sources) if kind == "laplacian_ridge" else None
    return PenaltySpec(kind=kind, lam=cfg.get("lam", 1.0), mu_mix=cfg.get("mu_mix"), L_operator=L)


def _at_grid_edge(lam, grid):
    """True when GCV picked the smallest or largest lambda of its grid: the
    optimum may lie outside it."""
    return lam in (min(grid), max(grid))


#: every file _solve_payload can write; a solve removes them, the manifest and
#: the timings before it runs, so no earlier solve outlives a failed one there
SOLVE_FILES = ("mu.mxio", "sigma_diag.mxio", "lambda_bar.mxio", "objective_trace.csv",
               "hyper_trace.csv", "gcv_curve.csv")


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
        if "beta_floor_columns" in sol.extras:  # learned noise only
            extras["beta_floor_columns"] = sol.extras["beta_floor_columns"]
        return sol.mu, files, extras

    family = _penalty_spec(method, cfg, data.n_sources)
    lam = cfg.get("lam")
    mm_kwargs = {key: cfg[key] for key in ("eps_lqa", "max_iter") if key in cfg}
    files, extras = {}, {}
    info = None
    if lam is None:
        grid = cfg["lambda_grid"].values()
        # the selection solves every grid lambda, so its winning fit is the map
        lam, files["gcv_curve.csv"], J, info = gcv_select(data, family, grid, **mm_kwargs)
        extras["selected_at_grid_edge"] = _at_grid_edge(lam, grid)
    if family.kind in ("ridge", "laplacian_ridge"):
        # a closed form, solved again at the winner: the benchmark's cli-sweep
        # workload times ridge_solve here (ROADMAP item 7, which waits on item 2)
        J, converged = ridge_solve(data, lam, family.L_operator), True
    else:
        if info is None:
            J, info = mm_solve(data, replace(family, lam=lam), return_info=True, **mm_kwargs)
        converged = info.converged
        extras.update(iterations=info.iterations, final_step=info.final_step)
    files["mu.mxio"] = J
    extras.update(selected_lambda=float(lam), converged=converged)
    return J, files, extras


@dataclass(frozen=True)
class SolveRequest:
    """One solve whose settings solve_config has checked: the method, its
    typed cfg, the K and V paths, the output directory, and for a replay the
    manifest's path and its recorded inputs, whose hashes the data must
    match."""

    method: str
    cfg: dict
    K: str
    V: str
    out: str
    replay: str | None = None
    recorded: dict = field(default_factory=dict)


def _solve_request(args):
    """The SolveRequest of a solve command line: from the --replay manifest
    alone, or from --method, --K, --V and the key flags over the --config
    text (flags win).  Nothing is read but the manifest or config file."""
    if not args.replay:
        if not (args.method and args.K and args.V):
            raise ConfigError("solve needs --method, --K and --V (or --replay)")
        text = parse_config_file(args.config) if args.config else {}
        flags = {key: getattr(args, key) for key in SOLVE_KEYS if getattr(args, key) is not None}
        source = f"solve flags and {args.config}" if args.config else "solve flags"
        return SolveRequest(args.method, solve_config(args.method, {**text, **flags}, source),
                            args.K, args.V, args.out)
    given = [f"--{name.replace('_', '-')}" for name in ("method", "K", "V", "config", *SOLVE_KEYS)
             if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"--replay takes no other solve input, got {' '.join(given)}")
    with open(args.replay, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{args.replay} is not JSON ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("command") != "solve":
        raise ConfigError(f"{args.replay} is not a solve manifest")
    method, recorded = manifest.get("method"), manifest.get("inputs")
    if not (isinstance(method, str) and isinstance(recorded, dict)
            and all(isinstance(recorded.get(name), str) for name in ("K", "V"))):
        raise ConfigError(f"{args.replay}: method or inputs missing: need a text method "
                          "and the paths inputs.K and inputs.V")
    raw = manifest.get("config", {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.replay}: config must be a JSON object")
    return SolveRequest(method, solve_config(method, raw, args.replay, json=True),
                        recorded["K"], recorded["V"], args.out, args.replay, recorded)


def cmd_solve(request, data=None):
    """Run one SolveRequest and write its outputs into request.out; returns
    the map J and the manifest written.  data, when given, is the
    ProblemData already read from request.K and request.V (a sweep reads
    each seed's once for all its arms); the manifest still records the
    paths."""
    t0 = time.perf_counter()
    if data is None:
        data = ProblemData(K=read_matrix(request.K), V=read_matrix(request.V))
    inputs = {"K": str(request.K), "V": str(request.V),
              "K_sha256": container_sha256(data.K), "V_sha256": container_sha256(data.V)}
    for name in ("K", "V"):
        key = f"{name}_sha256"
        if key in request.recorded and request.recorded[key] != inputs[key]:
            raise ConfigError(f"{request.replay}: {name} file {inputs[name]} does not match "
                              f"its recorded sha256")
    out = _out_dir(request.out)
    for name in ("manifest.json", "timings.json", *SOLVE_FILES):
        (out / name).unlink(missing_ok=True)
    t1 = time.perf_counter()
    J, files, extras = _solve_payload(request.method, data, request.cfg)
    t2 = time.perf_counter()
    for name, payload in files.items():
        if name.endswith(".mxio"):
            write_matrix(out / name, payload)
        else:
            np.savetxt(out / name, payload, delimiter=",", fmt="%.17g")
    manifest = {"command": "solve", "method": request.method, "inputs": inputs,
                "config": request.cfg, **extras}
    _write_manifest(out, manifest)
    _write_json(out / "timings.json", {
        "read_s": t1 - t0, "solve_s": t2 - t1, "write_s": time.perf_counter() - t2,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV}})
    return J, manifest


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
    rep = evaluate(args.method, J_est, J_true, support, zero_tol_rel=args.zero_tol)
    writer_target = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(EvalReport.CSV_HEADER)
        writer.writerow(rep.as_row())
    finally:
        if args.out:
            writer_target.close()


def _parse_sweep(path):
    """A sweep spec's typed globals and its arms.  Every key and value is
    checked here, so a bad one stops the sweep before anything runs."""
    globals_cfg, arms = {}, []
    for lineno, key, value in config_entries(read_config_text(path), path):
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
        arms.append({"name": name, "method": method,
                     "cfg": solve_config(method, tokens, f"{where}: arm {name!r}")})
    if not arms:
        raise ConfigError(f"{path}: sweep defines no arms")
    return globals_cfg, arms


def _run_arm(arm, seed, sim_dir, out_root, truth, support, data):
    """Solve and score one arm on one seed's simulation, whose ProblemData
    is data; returns the sweep.csv row, whose error holds the message of a
    failed run."""
    row = {"arm": arm["name"], "seed": seed, "method": arm["method"], "error": ""}
    request = SolveRequest(arm["method"], arm["cfg"], str(sim_dir / "K.mxio"),
                           str(sim_dir / "V.mxio"),
                           str(out_root / "runs" / f"{arm['name']}-seed{seed}"))
    try:
        J, manifest = cmd_solve(request, data)
        zero_tol = MM_ZERO_TOL_REL if arm["method"] in CLASSICAL_METHODS else RVM_ZERO_TOL_REL
        rep = evaluate(arm["name"], J, truth, support, zero_tol_rel=zero_tol)
    except (RvmixError, OSError) as exc:
        row["error"] = _failure(exc)[1]
        return row
    row.update(zip(EvalReport.CSV_HEADER[1:], rep.as_row()[1:]))
    if "selected_lambda" in manifest:
        row["selected_lambda"] = manifest["selected_lambda"]
    row["converged"] = manifest["converged"]
    return row


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    globals_cfg, arms = _parse_sweep(args.spec)
    seeds = globals_cfg.pop("seeds", [0])
    # every seed's simulation is built, and so checked, before anything is written
    sims = [(seed, _build_simulation(dict(globals_cfg, seed=seed))) for seed in seeds]
    out = _out_dir(args.out)
    jobs = []
    for seed, sim in sims:
        sim_dir = out / "sim" / f"seed{seed}"
        sim_dir.mkdir(parents=True, exist_ok=True)
        _write_simulation(sim, sim_dir)
        # one read of K and V per seed, shared by all its arms
        data = ProblemData(K=read_matrix(sim_dir / "K.mxio"), V=read_matrix(sim_dir / "V.mxio"))
        ph = sim[0]
        support = ph.support_true.astype(bool)
        jobs += [(arm, seed, sim_dir, out, ph.J_true, support, data) for arm in arms]

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


def build_parser():
    parser = argparse.ArgumentParser(prog="rvmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a ring phantom")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="run one solver on stored matrices")
    p.add_argument("--method", help=" | ".join(METHOD_KEYS))
    p.add_argument("--K", help="lead field matrix file")
    p.add_argument("--V", help="observation matrix file")
    p.add_argument("--config", help="key = value solver configuration")
    p.add_argument("--out", required=True)
    p.add_argument("--replay", help="re-run from a solve manifest")
    for key in SOLVE_KEYS:  # text, which solve_config converts as config text
        p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                       help="fixed_one | learned" if key == "beta_mode" else None)
    p.set_defaults(func=lambda args: cmd_solve(_solve_request(args)))

    p = sub.add_parser("eval", help="score a solution against the truth")
    p.add_argument("--mu", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--support")
    p.add_argument("--method", default="solution", help="label for the CSV row")
    p.add_argument("--zero-tol", dest="zero_tol", type=float, default=RVM_ZERO_TOL_REL,
                   help="relative zero threshold in [0, 1); 0 counts only exact zeros "
                        "(majorization outputs)")
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
        args.func(args)
    except (RvmixError, OSError) as exc:
        code, message = _failure(exc)
        print(f"rvmix: {message}", file=sys.stderr)
        return code
    return OK


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
