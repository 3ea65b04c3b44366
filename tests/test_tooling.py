"""The benchmark's per-layer metrics name functions that exist, the sweep
calls them as its layer trace expects, and the README's method/key table
matches the CLI."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_per_layer_names_are_functions_of_their_module():
    # a three-part name <module>.<function>.<stat> is a span of the layer
    # trace, so a refactor that deletes or renames the function fails here,
    # not only in perfbench/run.py --smoke; two-part names are counters
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    spans = [name.split(".") for name in names if name.count(".") == 2]
    assert spans
    missing = [".".join(parts) for parts in spans
               if not inspect.isfunction(getattr(importlib.import_module(f"rvmix.{parts[0]}"),
                                                 parts[1], None))]
    assert not missing, f"per_layer names without a function: {missing}"


@pytest.mark.parametrize("kind", ["lasso", "lasso_fusion"])
def test_span_attributes_bind_to_arguments_that_exist(monkeypatch, kind):
    # perfbench/spans.py binds mm_solve's max_iter and tol and gcv_select's
    # lambda_grid by name, reads the selected lambda as gcv_select's first
    # result, and keeps argument 1 of each mm_objective call under mm_solve
    # as that step's map; a refactor of the classical core that renames or
    # moves one of them, for the diagonal penalties or for fusion, fails
    # here, not only in traced benchmark runs
    import numpy as np

    from rvmix import baselines
    from rvmix.posterior import ProblemData

    assert {"max_iter", "tol"} <= set(inspect.signature(baselines.mm_solve).parameters)
    assert "lambda_grid" in inspect.signature(baselines.gcv_select).parameters
    maps, real = [], baselines.mm_objective

    def recording(*args, **kwargs):
        maps.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "mm_objective", recording)
    rng = np.random.default_rng(0)
    data = ProblemData(K=rng.standard_normal((6, 15)), V=rng.standard_normal((6, 3)))
    spec = baselines.PenaltySpec(kind=kind, lam=1.0)
    J, info = baselines.mm_solve(data, spec, max_iter=5, return_info=True)
    assert len(maps) == info.iterations + 1  # the start, then one per step
    assert all(m.shape == J.shape for m in maps)
    np.testing.assert_array_equal(J, np.where(np.abs(maps[-1]) <= 1e-8, 0.0, maps[-1]))
    grid = [0.1, 1.0, 10.0]
    assert baselines.gcv_select(data, spec, lambda_grid=grid, max_iter=5)[0] in grid


#: the spans of the benchmark's layer trace that only its cli-sweep workload
#: emits: each is a function the sweep calls through a name rvmix.cli holds
SWEEP_ONLY_SPANS = ("cli.cmd_solve", "mxio.read_matrix", "mxio.write_matrix",
                    "metrics.evaluate", "baselines.ridge_solve")


def test_sweep_reaches_the_spans_only_cli_sweep_emits(tmp_path, monkeypatch):
    # perfbench/spans.py replaces each public rvmix function that rvmix.cli
    # holds with a wrapper named <defining module>.<function>; a sweep that
    # stops calling one through cli then fails here, not only in
    # perfbench/run.py --smoke
    from rvmix import cli

    per_layer = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    for span in SWEEP_ONLY_SPANS:
        assert any(name.startswith(span + ".") for name in per_layer), span
    reached = set()

    def wrap(fn, span):
        def traced(*args, **kwargs):
            reached.add(span)
            return fn(*args, **kwargs)
        return traced

    for attr, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__.startswith("rvmix.") and not attr.startswith("_"):
            monkeypatch.setattr(cli, attr, wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"))
    spec = tmp_path / "sweep.cfg"
    spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0\n"
                    "arm = ridge | method=ridge lambda_grid=0.1,1,10\n")
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    missing = [span for span in SWEEP_ONLY_SPANS if span not in reached]
    assert not missing, f"spans the sweep no longer reaches: {missing}"


#: the span prefixes of the benchmark's layer trace that the Bayesian
#: solvers emit: the functions rvmix.enet and rvmix.mxn call through the
#: names they hold, and the posterior of every sweep
BAYES_SPAN_PREFIXES = ("enet.", "mxn.", "special.", "rootfind.", "objective.",
                       "posterior.posterior_moments.")


def test_bayes_solves_reach_their_spans(monkeypatch):
    # perfbench/spans.py replaces each public rvmix function that rvmix.enet
    # or rvmix.mxn holds with a wrapper named <defining module>.<function>,
    # except that mxn's imports from enet are named mxn.<function>; a solver
    # that stops calling one through those names then fails here, not only
    # in perfbench/run.py --smoke
    from rvmix import enet, mxn
    from rvmix.phantom import NoiseSpec, SourceSpec, add_noise, make_phantom
    from rvmix.posterior import ProblemData

    per_layer = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    wanted = {name.rsplit(".", 1)[0] for name in per_layer
              if name.count(".") == 2 and name.startswith(BAYES_SPAN_PREFIXES)}
    reached = set()

    def wrap(fn, span):
        def traced(*args, **kwargs):
            reached.add(span)
            return fn(*args, **kwargs)
        return traced

    for module in (enet, mxn):
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in list(vars(module).items()):
            if not (inspect.isfunction(fn) and fn.__module__.startswith("rvmix.")) \
                    or attr.startswith("_"):
                continue
            defining = fn.__module__.rsplit(".", 1)[-1]
            span = f"mxn.{attr}" if (short, defining) == ("mxn", "enet") else f"{defining}.{attr}"
            monkeypatch.setattr(module, attr, wrap(fn, span))
    ph = make_phantom(S=48, N=12, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
    data = ProblemData(K=ph.K, V=add_noise(ph.V_clean, NoiseSpec(42.0, 0))[0])
    enet.solve_enet(data)
    mxn.solve_mxn(data)
    missing = sorted(wanted - reached)
    assert wanted and not missing, f"spans the Bayesian solves no longer reach: {missing}"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cmd_solve_runs_once_per_arm_into_its_run_directory(tmp_path, monkeypatch, jobs):
    # perfbench/spans.py records str(args[0].out) of each cli.cmd_solve call,
    # and perfbench/workloads.py sweep_counters matches those runs to
    # sweep.csv rows by out/runs/<arm>-seed<seed>
    from rvmix import cli

    outs = []
    real = cli.cmd_solve

    def recording(*args, **kwargs):
        outs.append(str(args[0].out))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "cmd_solve", recording)
    spec = tmp_path / "sweep.cfg"
    spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0\n"
                    "arm = ridge | method=ridge lambda_grid=0.1,1,10\n"
                    "arm = lasso | method=lasso-mm lam=1 max_iter=5\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out), "--jobs", jobs]) == 0
    assert sorted(outs) == [str(out / "runs" / f"{arm}-seed0") for arm in ("lasso", "ridge")]


def test_readme_method_table_matches_method_keys():
    # the table under "`solve` methods and the keys each one reads" lists
    # cli.METHOD_KEYS method by method and in order; a key added to or
    # dropped from a method fails here before the README drifts
    from rvmix.cli import METHOD_KEYS

    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("`solve` methods and the keys each one reads"))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("| `"):
            method, keys = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            rows.append((method.split("`")[0], tuple(key.strip() for key in keys.split(","))))
        elif rows:
            break
    assert rows == list(METHOD_KEYS.items())
