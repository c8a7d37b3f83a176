"""The functions that the benchmark's per-layer metrics name exist where its tracer looks.

``perfbench/spans.py`` times a public module-level function of a layer module
only if it is defined in that module, and ``cli.<command>`` spans open per
subcommand.  A metric named in ``BENCHMARK.json`` whose function has moved,
been renamed or gone private would read nothing, and a traced run fails.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

from vmbsim import cli

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
LAYERS = ("synth", "pipeline", "apparatus", "limits")


def per_layer_spans():
    """The span names of the per-layer metrics: each metric name less its last component."""
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    spans = {m["name"].rpartition(".")[0] for m in metrics}
    return sorted(s for s in spans if not s.startswith("trace"))


@pytest.mark.parametrize("span", per_layer_spans())
def test_per_layer_metric_names_a_traced_function(span):
    layer, _, name = span.partition(".")
    if layer == "cli":
        assert name in cli._COMMANDS
        return
    assert layer in LAYERS
    assert not name.startswith("_")
    module = importlib.import_module(f"vmbsim.{layer}")
    fn = getattr(module, name, None)
    assert isinstance(fn, types.FunctionType), f"vmbsim.{layer} has no function {name}"
    assert fn.__module__ == module.__name__, f"{span} is defined in {fn.__module__}"
