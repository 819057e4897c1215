"""The benchmark's tracer (perfbench/tracing.py) finds every lipext binding it
wraps, counts the sweep solvers' and the oracle's work, and puts every
binding back."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_graph, random_graph
from lipext import kpoint, scalar, vector
from lipext.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _bound(bindings):
    return {(mod, attr): getattr(importlib.import_module(f"lipext.{mod}"), attr)
            for mod, attr, _ in bindings}


def test_tracer_install_and_remove(tracing, tmp_path):
    before = _bound(tracing.BINDINGS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bound(tracing.BINDINGS)
        assert all(during[key] is not fn for key, fn in before.items())
        scalar.gauss_seidel_scalar(grid_graph(5, boundary_fn=lambda x, y: x * x - y))
        vector.iterate_tight(random_graph(np.random.default_rng(3), max_vertices=12, m=2))
        graph_file = tmp_path / "g.json"
        assert main(["gen", "grid", "--size", "4", "--output", str(graph_file)]) == 0
        assert main(["solve", "--input", str(graph_file), "--method", "iterate",
                     "--output", str(tmp_path / "r.json")]) == 0
        # two oracle calls that reach the polish, and constant data that
        # returns before it
        points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        for values in ([[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]], [[0.0], [1.0], [3.0]],
                       [[2.0], [2.0], [2.0]]):
            kpoint.kpoint_oracle(kpoint.LabeledPointSet(points, values), [0.4, 0.3])
        metrics = tracing.layer_metrics(*tracer.collect())
    finally:
        tracer.remove()
    assert _bound(tracing.BINDINGS) == before
    assert metrics["vector.sweeps"] > 0
    assert metrics["kpoint.kernel_calls"] > 0
    assert metrics["scalar.gs_s"] > 0.0
    assert metrics["graph.validate_calls"] == 3
    assert metrics["kpoint.oracle_polish_calls"] == 2
