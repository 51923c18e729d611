"""Bit-for-bit pin of engine and analysis results on generated models.

Each digest hashes the ``float.hex`` of every number ``run``,
``fixed_point_precisions`` and ``precision_bounds`` return, in canonical
edge and variable order, plus the raw bytes of the mean-update system.
The expected values were recorded before the engine moved from per-edge
dict walks to the compiled edge tables; any change to the arithmetic or
its order shows up here as a different digest.
"""
import hashlib

import pytest

from gbpkit import (
    build_factor_graph,
    build_mean_system,
    fixed_point_precisions,
    generate_model,
    precision_bounds,
    run,
)
from gbpkit.generate import KINDS


def _digest(kind: str, seed: int) -> str:
    model = generate_model(kind, 200, seed)
    graph = build_factor_graph(model)
    h = hashlib.sha256()

    def floats(values):
        for value in values:
            h.update(float.hex(value).encode())
            h.update(b",")
        h.update(b";")

    result = run(graph, model)
    floats(result.state.precisions[e] for e in graph.fv_edges)
    floats(result.state.means[e] for e in graph.fv_edges)
    floats(result.beliefs.variances[v] for v in graph.variable_ids)
    floats(result.beliefs.means[v] for v in graph.variable_ids)
    h.update(f"{result.state.iteration}/{result.beliefs.iteration}/{result.status};".encode())

    fixed = fixed_point_precisions(graph, model)
    floats(fixed.factor_to_variable[e] for e in graph.fv_edges)
    floats(fixed.variable_to_factor[e] for e in graph.vf_edges)
    h.update(f"{fixed.iterations};".encode())

    bounds = precision_bounds(graph, model)
    floats(bounds.lower[e] for e in graph.fv_edges)
    floats(bounds.upper[e] for e in graph.fv_edges)

    system = build_mean_system(graph, model, fixed)
    h.update(system.matrix.tobytes())
    h.update(system.offset.tobytes())
    return h.hexdigest()


EXPECTED = {
    ("tree", 1): "cc98f07c3ab4ce16b125d9c2ce4917558e3c3b2230b9d5ca635a2d8791876e2c",
    ("tree", 2): "103fcca8b0d039029f0440550beff37b7b9bd4567ed2a18a6fa34b4040935771",
    ("tree", 3): "8f5c6fd59995bf842515ef2acdf2dd6f8cad847ea50849a3602f1950465902cd",
    ("single-loop-plus-forest", 1): "f18c9a9af34e5e68578d3121de3de13bf3267f4014658b09557e8451a1a307c7",
    ("single-loop-plus-forest", 2): "f71a377280215ca5c279ba777e1a6408c4ebf249cb4f23e63afb50644a49c229",
    ("single-loop-plus-forest", 3): "5445d8e2bcd20afcabef4926303cefabb4e2323e5ed2700c4372064ff85e6ed7",
    ("random-loopy", 1): "d1cf046a25944b1fcd00a5a4a001ce36bc3d6959a2f82490473cdb67fa350278",
    ("random-loopy", 2): "91748fd1d7d7cde436d9cfd985a6482461da9632a9186cdac9322412becda429",
    ("random-loopy", 3): "4ab10cd6f54f2378c51c74ae0610fe511376c96e9d18484228299b3c94e3c725",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_results_match_recorded_digest(kind, seed):
    assert _digest(kind, seed) == EXPECTED[(kind, seed)]
