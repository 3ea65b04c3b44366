"""One workload process: set-up, timed passes, checks.

Started by ``run.py`` with BLAS already pinned in the environment, so the
pin holds before numpy is imported.  Writes its raw figures as JSON to
``--result``; ``run.py`` turns them into metrics.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before any other import

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The calibration loop (calibrate.py) runs for CAL_CHUNK_S before the first
# pass, after every pass, and after every CAL_EVERY_S of an untraced pass.
# Traced passes are not interrupted, so that the loop stays out of the spans.
CAL_CHUNK_S = 0.25
CAL_EVERY_S = 1.0


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference", default="")
    p.add_argument("--write-reference", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if any(os.environ.get(k) != "1" for k in BLAS_ENV) or "numpy" in sys.modules:
        raise SystemExit("worker: BLAS must be pinned to 1 thread before numpy is imported")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import rvmix

    if Path(rvmix.__file__).resolve().parent != ROOT / "src" / "rvmix":
        raise SystemExit(f"worker: rvmix imported from {rvmix.__file__}, not from the checkout")
    import calibrate
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.smoke)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    state = workload.setup(args.seed, out_dir)
    t_ready = time.perf_counter()
    result = {"setup_s": t_ready - T_START}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    setup_agg = tracer.take()[0] if tracer is not None else None
    reference = None
    if args.reference:
        with np.load(args.reference) as ref:
            reference = dict(ref)

    deadline = t_ready + args.seconds
    min_passes = 2 if tracer is not None else 1
    passes, traced_aggs, traced_counters, traced_roots = [], [], [], []
    cal = calibrate.Calibration()
    cal.measure(CAL_CHUNK_S)
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        first_chunk = len(cal.chunks) - 1  # the chunk just before the pass
        with nullcontext() if traced else cal.interleaved(CAL_EVERY_S, CAL_CHUNK_S):
            t0 = calibrate.clock()
            ops = workload.run_pass(state)
            wall = calibrate.clock() - t0
        if traced:
            agg, records, root_s = tracer.take()
            traced_aggs.append(agg)
            traced_roots.append(root_s)
            traced_counters.append({**spans.record_counters(records),
                                    **workload.pass_counters(records, ops, state)})
        cal.measure(CAL_CHUNK_S)
        cal_rep_s = cal.rep_seconds(first_chunk)
        if args.write_reference and not passes:
            np.savez_compressed(args.write_reference, **workload.reference_arrays(state, ops))
        passes.append({"traced": traced, "wall": wall, "cal_rep_s": cal_rep_s,
                       "ops": workload.check(state, ops, reference)})
        # whole passes only: stop when the next one and its calibration are
        # not expected to end in time
        next_traced = tracer is not None and len(passes) % 2 == 1
        same = [p["wall"] for p in passes if p["traced"] == next_traced] or [wall]
        next_s = statistics.median(same) * (1.0 + CAL_CHUNK_S / CAL_EVERY_S) + CAL_CHUNK_S
        if len(passes) >= min_passes and time.perf_counter() + next_s > deadline:
            break
    if tracer is not None:
        tracer.uninstall()
        result["layer"] = spans.layer_metrics(
            setup_agg, traced_aggs, traced_counters,
            [p["wall"] for p in passes if p["traced"]],
            [p["wall"] for p in passes if not p["traced"]], traced_roots)
    result.update(
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        facts=machine_facts(),
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
