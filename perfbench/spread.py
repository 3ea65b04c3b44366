"""Run one workload on several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload bayes-default --seeds 0-9
    python3 perfbench/spread.py --workload cli-sweep --seeds 0-9 --json out.json

Each run is untraced and lasts ``run_seconds`` of BENCHMARK.json.  For
every end-to-end metric it prints the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  That share is what a metric's ``bound`` in BENCHMARK.json has to
cover.  The runs go one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)  # run.py bounds its own time
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    facts = dict(item.split("=", 1) for line in lines if line.startswith("# machine ")
                 for item in line.split()[2:])
    return json.loads(lines[-1]), facts


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
                     "values": values}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5-7")
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results, facts = [], {}
    for seed in seeds:
        res, facts = run_once(args.workload, seed, seconds)
        if not res["correct"]:
            raise SystemExit(f"seed {seed}: {res['failed']} of {res['attempted']} failed")
        results.append(res)
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}"
                                          for k, v in res["metrics"].items()), flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:<40} median {s['median']:<12.6g} {s['unit']:<10} spread {spread}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": seeds, "seconds": seconds,
             "machine": facts, "metrics": summary}, indent=1) + "\n",
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
