"""The benchmark's per-layer metrics name functions that exist."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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
