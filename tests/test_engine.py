"""Message recursions, init strategies, sweeps, beliefs, and the run loop.

Hand-derived checks along the way:
  pair_model (obs 3, unit parameters): the outgoing precision of a leaf
  variable is 1/prior = 1; the factor's reply is 1^2/(1 + 1^2/1) = 1/2
  with mean (3 - 0)/1 = 3; beliefs are variance 1/(1 + 1/2) = 2/3 and
  mean (2/3)*(1/2)*3 = 1, matching the dense solve of [[2,1],[1,2]].
"""
import copy
import dataclasses
import functools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from gbpkit import (
    Factor,
    InitStrategy,
    LinearGaussianModel,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    Schedule,
    TOPOLOGY_MULTI_LOOP,
    Variable,
    build_factor_graph,
    certify,
    classify_topology,
    compute_beliefs,
    dense_posterior,
    factor_to_variable,
    fixed_point_precisions,
    generate_model,
    generate_random_loopy,
    init_messages,
    precision_bounds,
    rate_trace,
    run,
    simulate,
    sweep,
    variable_to_factor,
    with_observations,
)
from gbpkit import engine
from gbpkit.generate import KINDS
from gbpkit.model import EdgeTables

import helpers


class TestInitStrategies:
    def test_zero_init(self, loop_graph, loop_model):
        state = init_messages(loop_graph, loop_model, InitStrategy.zero())
        assert set(state.precisions) == set(loop_graph.fv_edges)
        assert all(v == 0.0 for v in state.precisions.values())
        assert all(v == 0.0 for v in state.means.values())
        assert state.iteration == 0

    def test_lower_upper_init_values(self, loop_graph, loop_model):
        # f2 couples x1 (coeff 1/sqrt6) and x2 (coeff 1/sqrt3, prior 3):
        # upper = (1/6)/1, lower = (1/6)/(1 + (1/3)*3) = 1/12.
        lower = init_messages(loop_graph, loop_model, InitStrategy.lower_bound())
        upper = init_messages(loop_graph, loop_model, InitStrategy.upper_bound())
        assert lower.precisions[("f2", "x1")] == pytest.approx(1 / 12, abs=1e-15)
        assert upper.precisions[("f2", "x1")] == pytest.approx(1 / 6, abs=1e-15)
        assert all(
            lower.precisions[e] <= upper.precisions[e] for e in loop_graph.fv_edges
        )

    def test_unary_upper_bound(self):
        model = LinearGaussianModel(
            (Variable("x1", 2.0),), (Factor("f1", {"x1": 1.0}, 1.0, 2.0),)
        )
        graph = build_factor_graph(model)
        state = init_messages(graph, model, InitStrategy.upper_bound())
        assert state.precisions[("f1", "x1")] == 1.0

    def test_explicit_init(self, loop_graph, loop_model):
        strategy = InitStrategy.explicit({("f2", "x1"): 0.25}, {("f2", "x1"): -1.0})
        state = init_messages(loop_graph, loop_model, strategy)
        assert state.precisions[("f2", "x1")] == 0.25
        assert state.means[("f2", "x1")] == -1.0
        assert state.precisions[("f1", "x1")] == 0.0

    def test_explicit_negative_precision_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="negative"):
            init_messages(loop_graph, loop_model, InitStrategy.explicit({("f2", "x1"): -0.1}))

    def test_explicit_unknown_edge_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="unknown edges"):
            init_messages(loop_graph, loop_model, InitStrategy.explicit({("f9", "x1"): 1.0}))

    def test_unknown_strategy_kind_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="unknown init strategy kind 'middle'"):
            init_messages(loop_graph, loop_model, InitStrategy("middle"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0", None, 10**400])
    def test_explicit_non_finite_rejected(self, loop_graph, loop_model, value):
        edge = ("f2", "x1")
        with pytest.raises(ValueError, match="invalid precisions"):
            init_messages(loop_graph, loop_model, InitStrategy.explicit({edge: value}))
        with pytest.raises(ValueError, match="invalid means"):
            init_messages(loop_graph, loop_model, InitStrategy.explicit({edge: 1.0}, {edge: value}))


class TestSingleEdgeMessages:
    def test_leaf_variable_message(self):
        model = helpers.pair_model()
        graph = build_factor_graph(model)
        state = init_messages(graph, model, InitStrategy.zero())
        precision, mean = variable_to_factor(graph, model, state, ("x1", "f1"))
        assert precision == 1.0
        assert mean == 0.0

    def test_variable_message_combines_other_factors(self):
        model = helpers.chain_model(3)
        graph = build_factor_graph(model)
        state = init_messages(
            graph, model, InitStrategy.explicit({("f1", "x2"): 1.0}, {("f1", "x2"): 2.0})
        )
        precision, mean = variable_to_factor(graph, model, state, ("x2", "f2"))
        assert precision == 2.0  # prior 1 plus incoming 1
        assert mean == 1.0  # (1*2)/2

    def test_factor_reply(self):
        model = helpers.pair_model(obs=3.0)
        graph = build_factor_graph(model)
        state = init_messages(graph, model, InitStrategy.zero())
        precision, mean = factor_to_variable(graph, model, state, ("f1", "x2"))
        assert precision == 0.5
        assert mean == 3.0

    def test_sweep_equals_composed_map_bitwise(self, loop_model):
        # The generated models reach higher degrees, so the sweep's jagged
        # columns, each shorter than the last, are compared with the
        # single-edge path, which walks one row's reads in order.
        models = [loop_model] + [generate_model(kind, 200, seed=5) for kind in KINDS]
        for model in models:
            graph = build_factor_graph(model)
            state = init_messages(graph, model, InitStrategy.zero())
            for _ in range(3):
                new = sweep(graph, model, state)
                for edge in graph.fv_edges:
                    assert factor_to_variable(graph, model, state, edge) == (
                        new.precisions[edge],
                        new.means[edge],
                    )
                state = new

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_subsets_match_full_pass_bitwise(self, kind):
        # A subset of pass positions is computed over a jagged view of its
        # own, and each row adds exactly its own reads in order, so each
        # row's message is the same whichever rows are computed with it.
        model = generate_model(kind, 120, seed=6)
        graph = build_factor_graph(model)
        compiled = engine.compile_model(graph, model)
        rank = compiled.tables.fv_pass.rank  # canonical = pass-order[rank]
        rng = np.random.default_rng(6)
        fv = rng.uniform(0.1, 2.0, len(graph.fv_edges)), rng.normal(size=len(graph.fv_edges))
        vf = engine.vf_messages(compiled, *fv)
        full_fv = engine.fv_messages(compiled, *vf)
        swept = sweep(graph, model, engine._state(graph, fv[0][rank], fv[1][rank], 0))
        assert all(np.array_equal(a.array, b[rank]) for a, b in zip(
            (swept.precisions, swept.means), full_fv))
        # Means of None skip the mean terms; the precisions keep their bits,
        # so run, the fixed point and rate_trace follow one trajectory.
        _, _, _, *sweep_only = next(engine.sweeps(compiled, fv[0], None, lambda *_: None, 1))
        for only, whole in ((engine.vf_messages(compiled, fv[0], None), vf[0]),
                            (engine.fv_messages(compiled, vf[0], None), full_fv[0]),
                            (sweep_only, full_fv[0])):
            assert only[0].tobytes() == whole.tobytes() and only[1] is None
        for size in (0, 1, 7, len(graph.fv_edges)):
            rows = rng.permutation(len(graph.fv_edges))[:size]
            for part, whole in zip(engine.vf_messages(compiled, *fv, rows), vf):
                assert np.array_equal(part, whole[rows])
            for part, whole in zip(engine.fv_messages(compiled, *vf, rows), full_fv):
                assert np.array_equal(part, whole[rows])


class TestSweepProperties:
    def test_precisions_increase_from_zero(self, loop_graph, loop_model):
        state = init_messages(loop_graph, loop_model, InitStrategy.zero())
        first = sweep(loop_graph, loop_model, state)
        second = sweep(loop_graph, loop_model, first)
        for edge in loop_graph.fv_edges:
            assert first.precisions[edge] > 0.0
            assert second.precisions[edge] > first.precisions[edge]

    def test_precision_trajectory_ignores_observations(self, loop_graph, loop_model):
        other = with_observations(loop_model, [5.0, -2.0, 0.25])
        state_a = init_messages(loop_graph, loop_model, InitStrategy.zero())
        state_b = init_messages(loop_graph, other, InitStrategy.zero())
        for _ in range(5):
            state_a = sweep(loop_graph, loop_model, state_a)
            state_b = sweep(loop_graph, other, state_b)
            assert state_a.precisions == state_b.precisions
            assert state_a.means != state_b.means

    def test_iteration_counter_advances(self, loop_graph, loop_model):
        state = init_messages(loop_graph, loop_model, InitStrategy.zero())
        assert sweep(loop_graph, loop_model, state).iteration == 1


class TestBeliefs:
    def test_pair_model_closed_form(self):
        model = helpers.pair_model(obs=3.0)
        graph = build_factor_graph(model)
        result = run(graph, model)
        for vid in ("x1", "x2"):
            assert result.beliefs.variances[vid] == pytest.approx(2 / 3, abs=1e-12)
            assert result.beliefs.means[vid] == pytest.approx(1.0, abs=1e-12)

    def test_isolated_variable_keeps_prior(self):
        model = LinearGaussianModel((Variable("x1", 4.0),), ())
        graph = build_factor_graph(model)
        beliefs = compute_beliefs(graph, model, init_messages(graph, model, InitStrategy.zero()))
        assert beliefs.variances["x1"] == 4.0
        assert beliefs.means["x1"] == 0.0


class TestRun:
    def test_chain_matches_oracle(self):
        model = helpers.chain_model(6)
        graph = build_factor_graph(model)
        result = run(graph, model)
        posterior = dense_posterior(model)
        assert result.status == STATUS_CONVERGED
        for vid in graph.variable_ids:
            assert result.beliefs.means[vid] == pytest.approx(posterior.mean_of(vid), abs=1e-10)
            assert result.beliefs.variances[vid] == pytest.approx(
                posterior.variance_of(vid), abs=1e-10
            )

    def test_factorless_model_converges_immediately(self):
        model = LinearGaussianModel((Variable("x1", 4.0),), ())
        graph = build_factor_graph(model)
        result = run(graph, model)
        assert result.status == STATUS_CONVERGED
        assert result.state.iteration == 1
        assert result.beliefs.variances["x1"] == 4.0

    def test_unary_model_settles_in_two_sweeps(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0),), (Factor("f1", {"x1": 1.0}, 1.0, 2.0),)
        )
        graph = build_factor_graph(model)
        result = run(graph, model)
        assert result.status == STATUS_CONVERGED
        assert result.state.iteration == 2
        assert result.beliefs.variances["x1"] == pytest.approx(0.5, abs=1e-15)
        assert result.beliefs.means["x1"] == pytest.approx(1.0, abs=1e-15)

    def test_budget_exhaustion_reported(self, loop_graph, loop_model):
        result = run(loop_graph, loop_model, max_iters=1)
        assert result.status == STATUS_MAX_ITERS
        assert result.state.iteration == 1

    def test_divergence_guard_trips(self):
        # Wide couplings push the mean recursion's spectral radius past 1.
        model = generate_random_loopy(6, seed=113, coeff_range=(-6.0, 6.0))
        graph = build_factor_graph(model)
        result = run(graph, model, max_iters=2000)
        assert result.status == STATUS_DIVERGED
        assert any(abs(m) > 1e12 or not math.isfinite(m) for m in result.state.means.values())

    def test_overflowing_precision_is_divergence(self):
        # The NaN of inf - inf is skipped by the deltas; the guard must not be.
        model = helpers.overflow_model()
        result = run(build_factor_graph(model), model)
        assert result.status == STATUS_DIVERGED
        assert result.state.iteration == 1
        assert math.isinf(result.state.precisions[("f1", "x1")])

    def test_bad_arguments(self, loop_graph, loop_model):
        with pytest.raises(ValueError):
            run(loop_graph, loop_model, tolerance=0.0)
        with pytest.raises(ValueError):
            run(loop_graph, loop_model, max_iters=0)

    def test_nan_tolerance_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="tolerance"):
            run(loop_graph, loop_model, tolerance=math.nan)

    def test_loop_means_match_oracle(self, loop_graph, loop_model):
        result = run(loop_graph, loop_model)
        posterior = dense_posterior(loop_model)
        assert result.status == STATUS_CONVERGED
        for vid in loop_graph.variable_ids:
            assert result.beliefs.means[vid] == pytest.approx(posterior.mean_of(vid), abs=1e-8)

    def test_deterministic_across_runs(self, loop_graph, loop_model):
        first = run(loop_graph, loop_model)
        second = run(loop_graph, loop_model)
        assert first.state == second.state
        assert first.beliefs == second.beliefs

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_and_certify_build_no_id_keyed_edges(self, kind):
        model = generate_model(kind, 40, seed=2)
        graph = build_factor_graph(model)
        run(graph, model)
        cert = certify(graph, model)
        assert "fv_edges" not in vars(graph) and "vf_edges" not in vars(graph)
        assert len(cert.mean_system.edges) == len(graph.edge_var)
        assert cert.mean_system.edges == graph.vf_edges

    def test_sizing_a_state_builds_no_id_keyed_edges(self):
        model = generate_model("tree", 50, seed=2)
        graph = build_factor_graph(model)
        result = run(graph, model)
        cert = certify(graph, model)
        assert len(result.state.precisions) == len(graph.edge_var)
        assert bool(cert.bounds.lower)
        assert "fv_edges" not in vars(graph) and "vf_edges" not in vars(graph)


def _run_bits(result) -> tuple:
    """Every array behind a run result, as bytes, plus its counters."""
    return (
        result.state.precisions.array.tobytes(), result.state.means.array.tobytes(),
        result.beliefs.variances.array.tobytes(), result.beliefs.means.array.tobytes(),
        result.state.iteration, result.status,
    )


class TestCompileOnce:
    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every CompiledModel built while the test runs."""
        made = []
        real = engine.CompiledModel

        def counting(**fields):
            made.append(real(**fields))
            return made[-1]

        monkeypatch.setattr(engine, "CompiledModel", counting)
        return made

    @staticmethod
    def _composed(graph, model):
        state = init_messages(graph, model, InitStrategy.upper_bound())
        for _ in range(4):
            new = sweep(graph, model, state)
            engine.step_status(state, new, engine.DEFAULT_TOLERANCE)
            compute_beliefs(graph, model, new)
            state = new

    @pytest.mark.parametrize("caller", [
        lambda graph, model: certify(graph, model),
        lambda graph, model: run(graph, model, InitStrategy.lower_bound()),
        lambda graph, model: run(graph, model, InitStrategy.upper_bound()),
        lambda graph, model: rate_trace(graph, model, InitStrategy.lower_bound()),
        _composed,
    ], ids=["certify", "run-L", "run-U", "rate_trace", "composed-sweeps"])
    def test_each_caller_compiles_once(self, caller, compiled):
        model = generate_model("random-loopy", 40, 3)
        caller(build_factor_graph(model), model)
        assert len(compiled) == 1

    def test_one_compile_across_a_pipeline(self, compiled):
        model = generate_model("random-loopy", 40, 3)
        graph = build_factor_graph(model)
        certify(graph, model)
        run(graph, model, InitStrategy.lower_bound())
        rate_trace(graph, model)
        self._composed(graph, model)
        assert len(compiled) == 1

    def test_another_model_on_the_same_graph_recompiles(self, compiled):
        model = generate_model("random-loopy", 40, 3)
        graph = build_factor_graph(model)
        first = run(graph, model)
        # Compared by identity: an equal copy of the model compiles afresh.
        assert _run_bits(run(graph, dataclasses.replace(model))) == _run_bits(first)
        assert len(compiled) == 2
        other = with_observations(model, [f.obs + 1.0 for f in model.factors])
        moved = run(graph, other)
        assert len(compiled) == 3
        assert _run_bits(moved) == _run_bits(run(build_factor_graph(other), other))
        assert _run_bits(moved) != _run_bits(first)


class TestOneReadForm:
    """The tables and the compiled model hold one read form, the pass order,
    so a second, canonical copy cannot come back unnoticed."""

    def test_edge_tables_hold_the_pass_forms_only(self):
        assert [f.name for f in dataclasses.fields(EdgeTables)] == [
            "fv_position", "vf_position", "vf_pass", "fv_pass", "belief_reads"]
        assert not _cached_properties(EdgeTables)

    def test_compiled_model_holds_the_pass_arrays_only(self):
        assert [f.name for f in dataclasses.fields(engine.CompiledModel)] == [
            "graph", "columns", "pass_prior_var", "pass_vf_coeff", "pass_coeff",
            "pass_noise_obs"]
        assert not _cached_properties(engine.CompiledModel)


# E-sized float64 arrays that one sweep may allocate and hold at once: the
# complex term and accumulator of the factor pass (two each), one column's
# gathered terms (two), and the variable pass's output (two).
SWEEP_PEAK_ARRAYS = 8.5


@pytest.mark.parametrize("kind, size", [("tree", 2000), ("random-loopy", 1000)])
def test_one_sweep_allocates_at_most_a_fixed_number_of_edge_arrays(kind, size):
    # tracemalloc counts what a sweep of engine.sweeps allocates after the
    # first, the previous sweep's messages already in hand: a deterministic
    # guard on the temporaries per pass.
    model = generate_model(kind, size, seed=7)
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    count = len(graph.edge_var)
    steps = engine.sweeps(compiled, np.zeros(count), np.zeros(count),
                          functools.partial(engine._status, tolerance=1e-10), 2)
    next(steps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert next(steps)[-1] is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= SWEEP_PEAK_ARRAYS * 8 * count


# A precision-only sweep, as the fixed point runs it, keeps to float64: the
# variable pass's output, the factor pass's term and accumulator, and one
# column's gathered terms.
PRECISION_SWEEP_PEAK_ARRAYS = 4.5


@pytest.mark.parametrize("kind, size", [("tree", 2000), ("random-loopy", 1000)])
def test_one_precision_only_sweep_allocates_float64_edge_arrays_only(kind, size):
    model = generate_model(kind, size, seed=7)
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    count = len(graph.edge_var)
    steps = engine.sweeps(compiled, np.zeros(count), None, lambda *_: None, 2)
    next(steps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert next(steps)[4] is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= PRECISION_SWEEP_PEAK_ARRAYS * 8 * count


def test_every_synchronous_loop_iterates_sweeps(monkeypatch, loop_graph, loop_model):
    # run, the synchronous simulator, the fixed point (and so certify) and
    # the rate trace all sweep through engine.sweeps, one sweep per step.
    counts = []
    sweeps = engine.sweeps

    def counting(*args):
        counts.append(0)
        for step in sweeps(*args):
            counts[-1] += 1
            yield step

    monkeypatch.setattr(engine, "sweeps", counting)
    loopy = generate_model("random-loopy", 40, 5)
    loopy_graph = build_factor_graph(loopy)
    assert classify_topology(loopy_graph).kind == TOPOLOGY_MULTI_LOOP
    for graph, model in ((loop_graph, loop_model), (loopy_graph, loopy)):
        counts.clear()
        result = run(graph, model)
        sim = simulate(model, Schedule.synchronous())
        point = fixed_point_precisions(graph, model)
        cert = certify(graph, model)
        reference = fixed_point_precisions(graph, model, tolerance=1e-15)
        points = rate_trace(graph, model)
        assert counts == [result.state.iteration, sim.ticks, point.iterations,
                          cert.fixed_point.iterations, reference.iterations,
                          reference.iterations, len(points)]
        assert result.status == sim.status == STATUS_CONVERGED and len(points) > 1


def _cached_properties(cls) -> set[str]:
    return {name for name, value in vars(cls).items()
            if isinstance(value, functools.cached_property)}


def _move_first_coefficient(model):
    """Same ids and sizes; factor 0's first coefficient moves to another variable."""
    first = model.factors[0]
    (var, coeff), *rest = first.coeffs.items()
    spare = next(v.id for v in model.variables if v.id not in first.coeffs)
    moved = dataclasses.replace(first, coeffs={spare: coeff, **dict(rest)})
    return LinearGaussianModel(model.variables, (moved,) + model.factors[1:])


def _rename_first_variable(model):
    old = model.variables[0].id
    factors = tuple(
        dataclasses.replace(f, coeffs={"renamed" if v == old else v: c for v, c in f.coeffs.items()})
        for f in model.factors
    )
    return LinearGaussianModel(
        (dataclasses.replace(model.variables[0], id="renamed"),) + model.variables[1:], factors
    )


class TestModelMustMatchGraph:
    @pytest.mark.parametrize("mismatch", [_move_first_coefficient, _rename_first_variable],
                             ids=["moved-coefficient", "renamed-variable"])
    @pytest.mark.parametrize("caller", [
        lambda graph, model: run(graph, model),
        lambda graph, model: certify(graph, model),
        lambda graph, model: precision_bounds(graph, model),
    ], ids=["run", "certify", "precision_bounds"])
    def test_other_structure_refused(self, mismatch, caller):
        model = generate_model("random-loopy", 40, 3)
        graph = build_factor_graph(model)
        other = mismatch(model)
        assert len(other.variables) == len(model.variables)
        assert sum(map(len, (f.coeffs for f in other.factors))) == len(graph.fv_edges)
        with pytest.raises(ValueError, match="does not match the graph"):
            caller(graph, other)

    def test_new_observations_accepted(self):
        model = generate_model("random-loopy", 40, 3)
        graph = build_factor_graph(model)
        other = with_observations(model, [2.0 * f.obs for f in model.factors])
        assert _run_bits(run(graph, other)) == _run_bits(run(build_factor_graph(other), other))


class TestArrayMapping:
    def test_results_are_read_only_views_in_canonical_order(self, loop_graph, loop_model):
        result = run(loop_graph, loop_model)
        bounds = precision_bounds(loop_graph, loop_model)
        fixed = fixed_point_precisions(loop_graph, loop_model)
        tables = loop_graph.edge_tables
        fv, vf, variables = tables.fv_position, tables.vf_position, loop_graph.variable_order
        views = [
            (result.state.precisions, fv, loop_graph.fv_edges),
            (result.state.means, fv, loop_graph.fv_edges),
            (result.beliefs.variances, variables, loop_graph.variable_ids),
            (result.beliefs.means, variables, loop_graph.variable_ids),
            (bounds.lower, fv, loop_graph.fv_edges),
            (bounds.upper, fv, loop_graph.fv_edges),
            (fixed.factor_to_variable, fv, loop_graph.fv_edges),
            (fixed.variable_to_factor, vf, loop_graph.vf_edges),
        ]
        for view, positions, keys in views:
            assert view.positions is positions
            assert list(view) == list(keys)
            assert len(view) == len(keys)
            key = keys[0]
            with pytest.raises(TypeError):
                view[key] = 1.0
            with pytest.raises(TypeError):
                del view[key]
            assert not view.array.flags.writeable
            with pytest.raises(ValueError):
                view.array[0] = 1.0
            assert all(type(value) is float for value in view.values())
            assert list(view.values()) == view.array.tolist()
            copy = dict(view)
            assert view == copy and copy == view
            copy[key] = math.nextafter(copy[key], math.inf)
            assert view != copy and copy != view
            with pytest.raises(KeyError):
                view[("no-such", "edge")]

    def test_a_borrowed_array_is_copied(self):
        base = np.arange(4.0)
        view = engine.ArrayMapping(base[1:3], {"a": 0, "b": 1})
        base[1] = 9.0
        assert view == {"a": 1.0, "b": 2.0}
        assert base.flags.writeable
        assert repr(view) == "ArrayMapping({'a': 1.0, 'b': 2.0})"
        for copied in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view), copy.copy(view)):
            assert copied == view and not copied.array.flags.writeable

    def test_random_sequential_state_is_not_a_live_buffer(self, loop_model):
        sim = simulate(loop_model, Schedule.random_sequential(3), max_ticks=40)
        graph = build_factor_graph(loop_model)
        for view in (sim.state.precisions, sim.state.means):
            assert view.array.flags.owndata and not view.array.flags.writeable
            assert list(view) == list(graph.fv_edges)
        snapshot = dict(sim.state.precisions)
        simulate(loop_model, Schedule.random_sequential(3), max_ticks=80)
        assert sim.state.precisions == snapshot
