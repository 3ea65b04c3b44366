"""rvmix benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload bayes-default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny size, seconds
    python3 perfbench/run.py --write-reference  # refresh perfbench/reference/*.npz

Run it from the root of a checkout.  This process only orchestrates: it
pins BLAS to one thread in the environment, starts set-up probes and the
workload process (``worker.py``) one after another, and waits for each.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Exit status 0 means every
operation passed the correctness gate; 1 means one did not (the result
line still says so); 2 means the benchmark could not run at all.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bayes-default", "bayes-large", "classical-grid", "cli-sweep")
SETUP_PROBES = 2  # set-up-only processes; the workload process is the third sample
# time a run may take beyond --seconds: the set-up processes and the last pass,
# which may run past the deadline when the machine slows down
RUN_MARGIN_S = 140.0
GROUP_LABELS = {"enet": "enet_solve", "mxn": "mxn_solve"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _child_env():
    env = dict(os.environ)
    env.update((key, "1") for key in BLAS_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
    env.pop("RVMIX_OUT_ROOT", None)  # the sweep must write inside the checkout
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, out_dir, name, deadline):
    """Run worker.py once, to end by ``deadline``; return its parsed result."""
    result_path = out_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out_dir),
           "--result", str(result_path)]
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{name} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{name} exited with status {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _remove(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        out_dir.parent.rmdir()


def run_workload(workload, seed, seconds, trace, smoke=False, reference="",
                 write_reference="", setup_probes=SETUP_PROBES):
    """Run one workload in fresh processes; return the raw figures."""
    out_dir = HERE / "out" / f"{workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + seconds + RUN_MARGIN_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)] + (["--smoke"] if smoke else [])
    try:
        setups = []
        for i in range(setup_probes):
            res = _worker(common + ["--setup-only"], out_dir, f"setup{i}", deadline)
            setups.append(res["setup_s"])
        extra = ["--reference", reference] if reference else []
        extra += ["--write-reference", write_reference] if write_reference else []
        res = _worker(common + extra, out_dir, "workload", deadline)
        setups.append(res["setup_s"])
    finally:
        _remove(out_dir)
    res["setup_samples"] = setups
    return res


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(res, trace):
    """End-to-end (trace 0) or per-layer (trace 1) metrics, plus the
    per-operation table printed above the result line."""
    passes = [p for p in res["passes"] if not p["traced"]]
    ops = [op for p in res["passes"] for op in p["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    table = {"fail_frac": (failed / attempted, "ratio", f"{failed} of {attempted}")}

    def per_pass(fn):
        return _median([fn(p["ops"]) for p in passes])

    groups = {}
    for p in passes:
        for group in {op["group"] for op in p["ops"]}:
            groups.setdefault(group, []).append(
                sum(op["seconds"] for op in p["ops"] if op["group"] == group))
    for group, vals in sorted(groups.items()):
        if group != "sweep_row":  # rows run concurrently; pass_s is the sweep's time
            label = GROUP_LABELS.get(group, group)
            table[f"{label}_s"] = (_median(vals), "s", f"median of {len(vals)} passes")
    for group in ("enet", "mxn"):
        if group in groups:
            mine = [op for op in passes[0]["ops"] if op["group"] == group]
            table[f"{group}_iters"] = (mine[0]["iters"], "count", "first pass")
            table[f"{group}_auc_pct"] = (mine[0]["auc"], "pct", "first pass")
    scored = [op["auc"] for op in passes[0]["ops"] if op["auc"] is not None] if passes else []
    if "lasso_path" in groups and scored:
        table["mm_best_auc_pct"] = (max(scored), "pct", "first pass")

    if trace:
        metrics = dict(res["layer"])
    else:
        metrics = {
            "setup_s": _median(res["setup_samples"]),
            "pass_cal": _median([p["wall"] / p["cal_rep_s"] for p in passes]),
            "peak_rss_mb": res["peak_rss_mb"],
            "auc_pct": per_pass(lambda o: statistics.fmean(
                [op["auc"] for op in o if op["auc"] is not None] or [float("nan")])),
            "iters": per_pass(lambda o: sum(op["iters"] or 0 for op in o)),
        }
        table["setup_s"] = (metrics["setup_s"], "s",
                            f"median of {len(res['setup_samples'])} processes")
        table["pass_s"] = (_median([p["wall"] for p in passes]), "s",
                           f"median of {len(passes)} passes")
        table["cal_rep_s"] = (_median([p["cal_rep_s"] for p in passes]), "s",
                              "calibration loop, around those passes")
        table["pass_cal"] = (metrics["pass_cal"], "cal", "median of pass_s / cal_rep_s")
        table["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB", "workload process")
    return attempted, failed, metrics, table


def emit(workload, seed, trace, res, bench):
    """Print the report and the result line; return the exit status."""
    attempted, failed, values, table = summarize(res, trace)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in specs:
        value = float(values.get(spec["name"], 0.0))
        if not math.isfinite(value):
            if not failed:
                raise BenchError(f"metric {spec['name']} is not finite")
            value = 0.0  # no operation left a value; the result says incorrect anyway
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    facts = res["facts"]
    print(f"# workload {workload}  seed {seed}  trace {trace}  "
          f"passes {len(res['passes'])}")
    print("# machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print("# pass walls (s) " + " ".join(
        f"{p['wall']:.3f}{'*' if p['traced'] else ''}" for p in res["passes"])
        + ("   (* traced)" if trace else ""))
    print("# pass_cal per pass " + " ".join(
        f"{p['wall'] / p['cal_rep_s']:.1f}" for p in res["passes"] if not p["traced"]))
    for name, (value, unit, note) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"#   {name:<16} {shown:>12} {unit:<6} {note}")
    for op in (op for p in res["passes"] for op in p["ops"] if not op["ok"]):
        print(f"# FAILED {op['group']}: {op['error']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _reference_for(workload, seed):
    if seed != 0:
        return ""
    path = HERE / "reference" / f"{workload}.npz"
    if not path.is_file():
        raise BenchError(f"missing reference {path}")
    return str(path)


def _load_bench():
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rvmix" / "__init__.py").is_file() or not path.is_file():
        raise BenchError(f"{ROOT} is not a checkout of rvmix (no src/rvmix or BENCHMARK.json)")
    return json.loads(path.read_text(encoding="utf-8"))


def _smoke_gate(workload, ref_dir):
    """The gate accepts a fresh reference and rejects two corrupted copies:
    one float entry changed by 1e-8 relative (a hundred times the
    tolerance), and one count off by one."""
    good = ref_dir / f"{workload}.npz"
    run_workload(workload, 0, 0, 0, smoke=True, write_reference=str(good), setup_probes=0)
    res = run_workload(workload, 0, 0, 0, smoke=True, reference=str(good), setup_probes=0)
    if summarize(res, 0)[1]:
        raise BenchError(f"smoke gate {workload}: a fresh reference does not match itself")
    import numpy as np  # only the gate check needs it, after the workers ran

    with np.load(good) as data:
        ref = dict(data)
    counts = sorted(k for k, v in ref.items() if v.dtype.kind in "iu")
    floats = sorted(k for k, v in ref.items() if v.dtype.kind == "f" and np.any(v != 0))
    for key in (floats[0], counts[0]):
        bad_ref = {k: v.copy() for k, v in ref.items()}
        if key in floats:
            bad_ref[key].flat[int(np.argmax(np.abs(bad_ref[key])))] *= 1.0 + 1e-8
        else:
            bad_ref[key].flat[0] += 1
        bad = ref_dir / f"bad-{workload}-{key}.npz"
        np.savez_compressed(bad, **bad_ref)
        res = run_workload(workload, 0, 0, 0, smoke=True, reference=str(bad), setup_probes=0)
        if not summarize(res, 0)[1]:
            raise BenchError(f"smoke gate {workload}: a corrupted {key} was not caught")
        print(f"smoke gate {workload}: corrupted {key} caught")


def smoke(bench):
    """Every workload at a tiny size, every metric name, and the gate.

    An end-to-end metric must come out of every workload; a per-layer one
    out of at least one (an idle layer reads 0 elsewhere)."""
    if not all(s.get("unit") for s in bench["end_to_end"] + bench["per_layer"]):
        raise BenchError("a metric in BENCHMARK.json has no unit")
    layer_names = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, 0, 1, trace, smoke=True, setup_probes=1)
            attempted, failed, values, _table = summarize(res, trace)
            if failed or not attempted:
                raise BenchError(f"smoke {workload}: {failed} of {attempted} operations failed")
            if trace:
                layer_names |= set(values)
                continue
            missing = [s["name"] for s in bench["end_to_end"] if s["name"] not in values]
            if missing:
                raise BenchError(f"smoke {workload}: not emitted: {missing}")
            print(f"smoke {workload}: {attempted} operations, end-to-end metrics emitted")
    missing = [s["name"] for s in bench["per_layer"] if s["name"] not in layer_names]
    if missing:
        raise BenchError(f"smoke: per-layer metrics no workload emits: {missing}")
    print(f"smoke: all {len(bench['per_layer'])} per-layer metrics emitted")
    ref_dir = HERE / "out" / f"smoke-reference-{os.getpid()}"
    ref_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            _smoke_gate(workload, ref_dir)
    finally:
        _remove(ref_dir)
    print("smoke: ok")
    return 0


def write_references():
    for workload in WORKLOADS:
        path = HERE / "reference" / f"{workload}.npz"
        path.parent.mkdir(exist_ok=True)
        res = run_workload(workload, 0, 0, 0, write_reference=str(path), setup_probes=0)
        print(f"wrote {path.relative_to(ROOT)} ({summarize(res, 0)[1]} failed)")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        bench = _load_bench()
        if args.smoke:
            return smoke(bench)
        if args.write_reference:
            return write_references()
        if args.workload is None:
            p.error("--workload is required")
        res = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           reference=_reference_for(args.workload, args.seed),
                           setup_probes=0 if args.trace else SETUP_PROBES)
        return emit(args.workload, args.seed, args.trace, res, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
