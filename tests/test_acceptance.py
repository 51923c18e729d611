"""End-to-end acceptance gate, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion (add ``-s`` to also see the ACCEPTANCE stamps).  Reference
values come either from closed forms derived in the test body or from
the exact solver in gbpkit.oracle; no expected number is taken from the
engine itself.
"""
import math

import numpy as np
import pytest

from gbpkit import (
    InitStrategy,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    Schedule,
    TOPOLOGY_MULTI_LOOP,
    TOPOLOGY_SINGLE_LOOP,
    VERDICT_CONVERGES,
    build_factor_graph,
    build_mean_system,
    certify,
    classify_topology,
    dense_posterior,
    fixed_point_precisions,
    generate_random_loopy,
    generate_single_loop,
    generate_tree,
    init_messages,
    lingauss_to_gmrf,
    part_metric,
    precision_bounds,
    rate_trace,
    run,
    simulate,
    spectral_radius,
    sweep,
    variable_to_factor,
    walk_summability,
    with_observations,
)

import helpers


def _stamp(number):
    print(f"ACCEPTANCE {number:02d} PASS")


def _loopy_instances(count=50):
    return [generate_random_loopy(4 + seed % 7, seed=seed) for seed in range(count)]


def test_criterion_01_information_matrix_reconstruction(loop_model):
    s2, s3, s6 = helpers.SQRT2, helpers.SQRT3, helpers.SQRT6
    expected = np.array([
        [1.0,          1 / (3 * s2), 1 / s3, s2 / 3],
        [1 / (3 * s2), 1.0,          0.0,    1 / 3.0],
        [1 / s3,       0.0,          1.0,    1 / s6],
        [s2 / 3,       1 / 3.0,      1 / s6, 1.0],
    ])
    gmrf = lingauss_to_gmrf(loop_model)
    assert np.abs(gmrf.information_matrix - expected).max() < 1e-12
    _stamp(1)


def test_criterion_02_walk_summability_number(loop_model):
    walk = walk_summability(lingauss_to_gmrf(loop_model))
    assert walk.radius == pytest.approx(1.0754, abs=1e-3)
    assert not walk.is_walk_summable
    _stamp(2)


def test_criterion_03_single_loop_certified_and_solved(loop_model, loop_graph):
    assert classify_topology(loop_graph).kind == TOPOLOGY_SINGLE_LOOP
    assert certify(loop_graph, loop_model).verdict == VERDICT_CONVERGES

    rng = np.random.default_rng(303)
    observation_sets = [(1.0, 2.0, 3.0)] + [tuple(rng.normal(0.0, 2.0, size=3)) for _ in range(10)]
    for obs in observation_sets:
        model = with_observations(loop_model, obs)
        result = run(loop_graph, model, tolerance=1e-12)
        assert result.status == STATUS_CONVERGED
        posterior = dense_posterior(model)
        for vid in loop_graph.variable_ids:
            assert abs(result.beliefs.means[vid] - posterior.mean_of(vid)) <= 1e-8
    _stamp(3)


def test_criterion_04_fixed_point_unique_across_inits(loop_model):
    rng = np.random.default_rng(404)
    for model in [loop_model] + _loopy_instances():
        graph = build_factor_graph(model)
        random_init = InitStrategy.explicit(
            {edge: float(rng.uniform(0.0, 5.0)) for edge in graph.fv_edges}
        )
        strategies = [
            InitStrategy.zero(),
            InitStrategy.lower_bound(),
            InitStrategy.upper_bound(),
            random_init,
        ]
        results = [
            fixed_point_precisions(graph, model, tolerance=1e-12, init=s).factor_to_variable
            for s in strategies
        ]
        reference = results[0]
        for other in results[1:]:
            for edge in graph.fv_edges:
                assert abs(other[edge] - reference[edge]) <= 1e-9
    _stamp(4)


def test_criterion_05_geometric_rate(loop_model, loop_graph):
    for strategy in (InitStrategy.zero(), InitStrategy.lower_bound(), InitStrategy.upper_bound()):
        points = rate_trace(loop_graph, loop_model, strategy, tolerance=0.0)
        distances = [p.distance for p in points]
        assert distances[-1] < 1e-14
        # ratios d(l+1)/d(l) for l >= 2; the fitted constant is their max
        ratios = [distances[k + 1] / distances[k] for k in range(1, len(distances) - 1)]
        assert ratios
        fitted = max(ratios)
        assert fitted < 1.0
        assert all(r <= fitted for r in ratios)
    _stamp(5)


def test_criterion_06_monotone_sandwich():
    for model in _loopy_instances():
        graph = build_factor_graph(model)
        bounds = precision_bounds(graph, model)
        for strategy, direction in (
            (InitStrategy.zero(), +1),
            (InitStrategy.upper_bound(), -1),
        ):
            state = init_messages(graph, model, strategy)
            previous = None
            for _ in range(50):
                state = sweep(graph, model, state)
                for edge in graph.fv_edges:
                    precision = state.precisions[edge]
                    assert bounds.lower[edge] - 1e-12 <= precision
                    assert precision <= bounds.upper[edge] + 1e-12
                    if previous is not None:
                        if direction > 0:
                            assert precision >= previous[edge] - 1e-12
                        else:
                            assert precision <= previous[edge] + 1e-12
                previous = dict(state.precisions)
    _stamp(6)


def test_criterion_07_init_iteration_ordering():
    for model in _loopy_instances():
        graph = build_factor_graph(model)
        sweeps_zero = len(rate_trace(graph, model, InitStrategy.zero()))
        sweeps_lower = len(rate_trace(graph, model, InitStrategy.lower_bound()))
        sweeps_upper = len(rate_trace(graph, model, InitStrategy.upper_bound()))
        assert sweeps_lower <= sweeps_zero
        upper = precision_bounds(graph, model).upper
        for scale, shift in ((2.0, 0.0), (1.0, 1.0), (10.0, 0.0)):
            above = InitStrategy.explicit(
                {edge: scale * value + shift for edge, value in upper.items()}
            )
            assert sweeps_upper <= len(rate_trace(graph, model, above))
    _stamp(7)


def test_criterion_08_tree_exactness():
    for seed in range(50):
        model = generate_tree(2 + seed % 49, seed=seed)
        graph = build_factor_graph(model)
        budget = helpers.bipartite_diameter(graph)
        result = run(graph, model, tolerance=1e-13, max_iters=budget)
        posterior = dense_posterior(model)
        for vid in graph.variable_ids:
            assert abs(result.beliefs.means[vid] - posterior.mean_of(vid)) <= 1e-10
            assert abs(result.beliefs.variances[vid] - posterior.variance_of(vid)) <= 1e-10
        fp = fixed_point_precisions(graph, model, tolerance=1e-12)
        system = build_mean_system(graph, model, fp)
        assert abs(spectral_radius(system.matrix)) <= 1e-10
    _stamp(8)


def test_criterion_09_mean_system_decides(loop_model):
    # part one: wherever the mean-update radius is below 1, the linear
    # solve and the engine agree, and belief means match the exact solver
    for model in [loop_model] + _loopy_instances():
        graph = build_factor_graph(model)
        fp = fixed_point_precisions(graph, model, tolerance=1e-13)
        system = build_mean_system(graph, model, fp)
        if spectral_radius(system.matrix) >= 1.0:
            continue
        dim = len(system.edges)
        solved = np.linalg.solve(np.eye(dim) + system.matrix, system.offset)
        result = run(graph, model, tolerance=1e-12)
        assert result.status == STATUS_CONVERGED
        posterior = dense_posterior(model)
        for k, edge in enumerate(system.edges):
            _, mean = variable_to_factor(graph, model, result.state, edge)
            assert abs(mean - solved[k]) <= 1e-8
        for vid in graph.variable_ids:
            assert abs(result.beliefs.means[vid] - posterior.mean_of(vid)) <= 1e-8

    # part two: search out an instance with radius above 1, where the
    # means must fail while the precisions still settle
    divergent = None
    for seed in range(200):
        model = generate_random_loopy(6, seed=seed, coeff_range=(-6.0, 6.0))
        graph = build_factor_graph(model)
        if classify_topology(graph).kind != TOPOLOGY_MULTI_LOOP:
            continue
        fp = fixed_point_precisions(graph, model, tolerance=1e-12)
        radius = spectral_radius(build_mean_system(graph, model, fp).matrix)
        if radius > 1.1:
            divergent = (model, graph, fp, radius)
            break
    assert divergent is not None, "no instance with mean-update radius above 1.1 found"
    model, graph, fp, radius = divergent
    result = run(graph, model, max_iters=5000)
    assert result.status in (STATUS_DIVERGED, STATUS_MAX_ITERS)
    for edge in graph.fv_edges:
        assert abs(result.state.precisions[edge] - fp.factor_to_variable[edge]) <= 1e-9
    _stamp(9)


def test_criterion_10_simulator_equivalence(loop_model, loop_graph):
    engine_result = run(loop_graph, loop_model)
    sim = simulate(loop_model, Schedule.synchronous())
    assert sim.state == engine_result.state
    assert sim.beliefs == engine_result.beliefs

    # randomized delivery is not covered by the convergence guarantees
    # above; this is an empirical check on benign instances
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        model = generate_single_loop(4 + seed % 6, seed=1000 + seed)
        graph = build_factor_graph(model)
        if certify(graph, model).verdict != VERDICT_CONVERGES:
            continue
        checked += 1
        engine_run = run(graph, model, tolerance=1e-12)
        sequential = simulate(model, Schedule.random_sequential(seed=seed), tolerance=1e-12)
        assert sequential.status == STATUS_CONVERGED
        for edge in graph.fv_edges:
            assert abs(sequential.state.precisions[edge] - engine_run.state.precisions[edge]) <= 1e-8
            assert abs(sequential.state.means[edge] - engine_run.state.means[edge]) <= 1e-8
    _stamp(10)


def test_criterion_11_part_metric_axioms():
    rng = np.random.default_rng(1111)
    edges = [("f1", "x1"), ("f1", "x3"), ("f2", "x2"), ("f3", "x2"), ("f3", "x4")]

    def scan_oracle(x, y):
        # bisect for the smallest alpha >= 1 with x/alpha <= y <= alpha*x
        def admissible(alpha):
            return all(xv / alpha <= y[e] <= alpha * xv for e, xv in x.items())

        hi = 2.0
        while not admissible(hi):
            hi *= 2.0
        lo = 1.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if admissible(mid):
                hi = mid
            else:
                lo = mid
        return math.log(hi)

    for _ in range(200):
        x, y, z = (
            {e: float(np.exp(rng.uniform(-3.0, 3.0))) for e in edges} for _ in range(3)
        )
        assert part_metric(x, x) == 0.0
        assert abs(part_metric(x, y) - part_metric(y, x)) <= 1e-12
        assert part_metric(x, z) <= part_metric(x, y) + part_metric(y, z) + 1e-12
        assert abs(part_metric(x, y) - scan_oracle(x, y)) <= 1e-9
    _stamp(11)
