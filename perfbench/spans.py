"""Layer trace taken from outside the program.

The tracer replaces module attributes with timing wrappers; it edits no
file of the package.  Python resolves a module-level name at call time,
so wrapping ``rvmix.enet.update_k`` also catches the calls that
``solve_enet`` makes to it.  What gets wrapped is every public function
of the ``rvmix`` package that ``rvmix.enet``, ``rvmix.mxn``,
``rvmix.baselines`` or ``rvmix.cli`` holds (its own and the ones it
imports), plus the public functions of ``rvmix.phantom`` and
``rvmix.metrics`` that the benchmark calls itself, plus
``rvmix.cli._run_arm``, the unit of work of the sweep pool.

A span is named ``<module>.<function>`` after the module that defines the
function.  The one exception is the elastic-net rules that ``rvmix.mxn``
imports from ``rvmix.enet``: their spans are named ``mxn.<function>`` so
that the mixed-norm solver's 371k calls per solve stay apart from the
elastic-net solver's own.

Spans are aggregated per (name, parent name) into a call count, a total
and a self time (the span minus its child spans), per thread, and merged
when read.  The few coarse spans the derived counters need (``RECORDED``)
are also kept one by one with start, end, parent and a few attributes.
Everything stays in memory until the run ends.
"""

import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("enet", "mxn", "baselines", "cli", "phantom", "metrics")
EXTRA_PRIVATE = {("cli", "_run_arm")}
RECORDED = {
    "baselines.mm_solve", "baselines.gcv_select", "cli.cmd_solve", "cli.cmd_sweep",
    "cli._run_arm", "mxio.read_matrix", "mxio.write_matrix",
}
# (parent span, child span) -> position of the child's argument that the
# parent's attributes need: such calls are counted in the parent's frame,
# and the argument of the last two is kept there
KEEP_ARG = {("baselines.mm_solve", "baselines.mm_objective"): 1}


def _span_name(module_short, attr, fn):
    defining = fn.__module__.rsplit(".", 1)[-1]
    if module_short == "mxn" and defining == "enet":
        return f"mxn.{attr}"
    return f"{defining}.{attr}"


def _mm_solve_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result, frame):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        max_iter, tol = bound.arguments["max_iter"], bound.arguments["tol"]
        iters = frame[2] - 1  # one mm_objective call per step, plus the start
        # mm_objective sees each step's map: replay mm_solve's own stopping
        # test on the last two, so that a solve that converged on its
        # max_iter-th step does not count as capped
        stopped = False
        if len(frame[4]) == 2:
            before, last = frame[4]
            scale = float(np.max(np.abs(last)))
            stopped = scale == 0.0 or float(np.max(np.abs(last - before))) <= tol * scale
        return {"iters": iters, "max_iter": max_iter,
                "capped": iters >= max_iter and not stopped}
    return attrs


def _gcv_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result, frame):
        grid = [float(g) for g in np.atleast_1d(sig.bind(*args, **kwargs).arguments["lambda_grid"])]
        return {"edge": result[0] in (min(grid), max(grid))}
    return attrs


def _cmd_solve_attrs(fn):
    def attrs(args, kwargs, result, frame):
        return {"out": str(args[0].out)}
    return attrs


def _read_attrs(fn):
    def attrs(args, kwargs, result, frame):
        return {"bytes": int(result.nbytes)}
    return attrs


def _write_attrs(fn):
    def attrs(args, kwargs, result, frame):
        return {"bytes": int(np.asarray(args[1]).size * 8)}
    return attrs


ATTRS = {
    "baselines.mm_solve": _mm_solve_attrs,
    "baselines.gcv_select": _gcv_attrs,
    "cli.cmd_solve": _cmd_solve_attrs,
    "mxio.read_matrix": _read_attrs,
    "mxio.write_matrix": _write_attrs,
}


class Tracer:
    """Installs span wrappers into the rvmix modules and collects spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggs = []  # one dict per thread: (name, parent) -> [calls, total, self]
        self._main_agg = None
        self.records = []
        self._saved = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            agg = defaultdict(lambda: [0, 0.0, 0.0])
            state = self._local.state = ([], agg)
            with self._lock:
                self._aggs.append(agg)
                if threading.current_thread() is threading.main_thread():
                    self._main_agg = agg
        return state

    def _wrap(self, fn, name):
        perf = time.perf_counter
        record = name in RECORDED
        attrs_fn = ATTRS[name](fn) if name in ATTRS else None
        keep_under = {parent: pos for (parent, child), pos in KEEP_ARG.items() if child == name}

        def traced(*args, **kwargs):
            stack, agg = self._thread_state()
            parent = stack[-1] if stack else None
            # frame: name, child time, kept calls, nearest recorded span id, kept args
            frame = [name, 0.0, 0, None, []]
            if record:
                rec = {"name": name, "parent": parent[0] if parent else None,
                       "ancestor": parent[3] if parent else None}
                with self._lock:
                    frame[3] = len(self.records)
                    self.records.append(rec)
            elif parent is not None:
                frame[3] = parent[3]
            if keep_under and parent is not None and parent[0] in keep_under:
                parent[2] += 1
                parent[4] = [*parent[4][-1:], args[keep_under[parent[0]]]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                cell = agg[(name, parent[0] if parent else None)]
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[1]
                if record:
                    rec.update(start=t0, end=t1)
            if attrs_fn is not None:
                rec.update(attrs_fn(args, kwargs, result, frame))
            return result

        return traced

    def install(self):
        if self._saved:
            return
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"rvmix.{short}")
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith("rvmix."):
                    continue
                if attr.startswith("_") and (short, attr) not in EXTRA_PRIVATE:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, _span_name(short, attr, fn)))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def take(self):
        """Return (aggregate, records, main-thread root span seconds) and
        start afresh.  Call it while no traced call is running."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            main = self._main_agg or {}
            main_root_s = sum(c[1] for (_name, parent), c in main.items() if parent is None)
            for agg in self._aggs:
                for key, (calls, total, self_s) in agg.items():
                    cell = merged[key]
                    cell[0] += calls
                    cell[1] += total
                    cell[2] += self_s
                agg.clear()
            records, self.records = self.records, []
        return dict(merged), records, main_root_s


def per_name(agg):
    """Collapse (name, parent) cells to name -> [calls, total, self]."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _parent), (calls, total, self_s) in agg.items():
        cell = out[name]
        cell[0] += calls
        cell[1] += total
        cell[2] += self_s
    return out


def record_counters(records):
    """Counters taken from the recorded spans of one pass."""
    out = {"baselines.mm_capped": 0, "baselines.gcv_edge": 0,
           "mxio.read_matrix.bytes": 0, "mxio.write_matrix.bytes": 0}
    for r in records:
        if r["name"] == "baselines.mm_solve" and r.get("capped"):
            out["baselines.mm_capped"] += 1
        elif r["name"] == "baselines.gcv_select" and r.get("edge"):
            out["baselines.gcv_edge"] += 1
        elif r["name"] in ("mxio.read_matrix", "mxio.write_matrix"):
            out[f"{r['name']}.bytes"] += r.get("bytes", 0)
    return out


def layer_metrics(setup_agg, pass_aggs, pass_counters, traced_walls, untraced_walls,
                  main_root_s):
    """Per-layer figures for one set-up plus one average traced pass."""
    n = len(pass_aggs)
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    for key, cell in setup_agg.items():
        agg[key] = list(cell)
    for pass_agg in pass_aggs:
        for key, (calls, total, self_s) in pass_agg.items():
            cell = agg[key]
            cell[0] += calls / n
            cell[1] += total / n
            cell[2] += self_s / n
    out = {}
    for name, (calls, total, self_s) in per_name(agg).items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    roots = out.get("rootfind.bracketed_root.calls", 0.0)
    evals = sum(c[0] for (name, parent), c in agg.items() if parent == "rootfind.bracketed_root")
    out["rootfind.evals_per_root"] = evals / roots if roots else 0.0
    mm_objective = sum(c[0] for (name, parent), c in agg.items()
                       if name == "baselines.mm_objective" and parent == "baselines.mm_solve")
    out["baselines.mm_iters"] = mm_objective - out.get("baselines.mm_solve.calls", 0.0)
    for counters in pass_counters:
        for key, value in counters.items():
            out[key] = out.get(key, 0.0) + value / n
    out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    out["trace.coverage_frac"] = statistics.median(
        root / wall for root, wall in zip(main_root_s, traced_walls))
    return out
