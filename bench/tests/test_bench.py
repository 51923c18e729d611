"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from gbpkit import build_factor_graph, certify, dense_posterior, engine, generate_model, network  # noqa: E402

TINY = 30
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _solved(kind: str, seed: int = 7):
    model = generate_model(kind, TINY, seed)
    result = engine.run(build_factor_graph(model), model)
    return model, result


def _perturbed(beliefs: engine.BeliefSet, field: str, change) -> engine.BeliefSet:
    """Copy of ``beliefs`` with ``change`` applied to the first variable's value."""
    values = dict(getattr(beliefs, field))
    first = next(iter(values))
    values[first] = change(values[first])
    return replace(beliefs, **{field: values})


def test_pool_is_deterministic_for_a_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for workload in harness.WORKLOADS.values():
        first = harness.write_pool(workload, 11, tmp_path / "a", TINY)
        second = harness.write_pool(workload, 11, tmp_path / "b", TINY)
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]


def test_pool_starts_at_the_seed_and_shares_no_model_with_the_next_seed():
    seeds = harness.pool_seeds(7)
    assert seeds[0] == 7
    assert len(set(seeds)) == harness.POOL_SIZE
    assert not set(seeds) & set(harness.pool_seeds(8))


def test_gate_counts_a_perturbed_belief_mean():
    workload = harness.WORKLOADS["loopy"]
    model, result = _solved(workload.kind)
    posterior = dense_posterior(model)
    ledger = harness.Ledger()
    ledger.record("solve", harness.check_solve(result, harness.oracle_deviation(result.beliefs, posterior), workload))
    bad = replace(result, beliefs=_perturbed(result.beliefs, "means", lambda v: v + 1e-6))
    ledger.record("solve", harness.check_solve(bad, harness.oracle_deviation(bad.beliefs, posterior), workload))
    assert ledger.attempted == 2
    assert len(ledger.failures) == 1
    assert "oracle mean" in ledger.failures[0]


def test_gate_checks_variances_only_on_forests():
    tree = harness.WORKLOADS["tree"]
    model, result = _solved(tree.kind)
    posterior = dense_posterior(model)
    bad = replace(result, beliefs=_perturbed(result.beliefs, "variances", lambda v: v + 1e-6))
    deviation = harness.oracle_deviation(bad.beliefs, posterior)
    assert harness.check_solve(bad, deviation, tree)
    assert not harness.check_solve(bad, deviation, replace(tree, exact_variances=False))


def test_gate_requires_simulate_to_match_solve_bit_for_bit():
    model, result = _solved(harness.WORKLOADS["single-loop"].kind)
    sim = network.simulate(model, network.Schedule.synchronous())
    assert harness.check_simulate(sim, result) == []
    one_ulp_off = _perturbed(sim.beliefs, "means", lambda v: math.nextafter(v, math.inf))
    assert harness.check_simulate(replace(sim, beliefs=one_ulp_off), result)


def test_gate_requires_topology_basis_where_the_workload_demands_it():
    workload = harness.WORKLOADS["single-loop"]
    model, result = _solved(workload.kind)
    cert = certify(build_factor_graph(model), model)
    assert harness.check_analyze(cert, result.status, workload) == []
    assert harness.check_analyze(replace(cert, basis=None), result.status, workload)
    assert harness.check_analyze(cert, engine.STATUS_MAX_ITERS, workload)


def test_self_time_excludes_children():
    tracer = traced.Tracer()
    with tracer.span("outer", "r"):
        with tracer.span("inner", "r"):
            pass
    (outer, outer_self), (inner, inner_self) = tracer.self_times()
    assert inner_self == inner.end - inner.start
    assert math.isclose(outer_self, (outer.end - outer.start) - (inner.end - inner.start))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == harness.END_TO_END
    assert per_layer == traced.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for name in [*end_to_end, *per_layer, *harness.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_tiny_run_of_every_workload_passes_its_gate(tmp_path):
    for name in harness.WORKLOADS:
        for trace, units in ((0, harness.END_TO_END), (1, traced.PER_LAYER)):
            result, report = run.run_workload(name, 3, 0.05, trace, tmp_path, {}, size=TINY)
            assert report["failures"] == []
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            assert set(result["metrics"]) == set(units)
            for metric in result["metrics"].values():
                assert math.isfinite(metric["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
