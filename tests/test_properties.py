"""Property tests of the paper's three results on generated models.

  * The precision recursion has one fixed point, reached from every
    nonnegative start, and every iterate after the first sweep lies inside
    the closed-form envelope (``precision_bounds``).
  * The means converge exactly when the mean-update spectral radius is
    below one, so a certified verdict predicts what ``run`` does.
  * On a forest plus one loop the means converge whatever the
    coefficients, to the exact posterior means.

Thirteen more properties guard how the package gets there: the certificate's
cheap Collatz-Wielandt bound never undercuts the dense radius, so it
decides as the dense rule would; the walk-summability interval contains
the dense radius of |I - R| and never decides wrong; relabelling or
reordering the variables and factors changes beliefs by a few ulps at
most and the certificate not at all; scaling every observation by a power of two leaves the
certificate as it is and scales the exact means by the same factor; the
passes over the jagged edge tables give the bits of the padded tables
they replaced; the loops that keep messages in pass order (``run``, the
synchronous ``simulate`` and its log, the fixed point, the
random-sequential ticks and theirs) give the bits of the same loops
spelled out over canonical arrays; the stop tests, which skip the
precision delta once the mean delta decides, give the outcome of the
rule that takes both; the sparse oracle agrees with a
dense inverse and solve, and its level-by-level recursion with the
row-by-row loop on narrow rows hanging below wide ones, fill that cancels
exactly included; the radix order of small integer keys is
numpy's stable argsort, byte for byte; values in a table's order go back
to row order by a scatter through the order with the bytes of a gather
through its inverse; sums that start from their first column's gather
give the bytes of sums into a copy of their base; and a model file
parsed by json alone, its repeated keys ruled out by a colon count, gives
the model or the violations that a parse checking every object for
repeated keys gives.

The hypothesis profile in ``conftest.py`` is derandomized with a bounded
example count, so these run the same examples on every run.
"""
import json
import math
import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_array

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from gbpkit import (
    BASIS_SPECTRAL,
    BASIS_TOPOLOGY,
    Factor,
    InitStrategy,
    LinearGaussianModel,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    Schedule,
    TOPOLOGY_FOREST,
    TOPOLOGY_SINGLE_LOOP,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    VERDICT_INCONCLUSIVE,
    Variable,
    build_factor_graph,
    certify,
    dense_posterior,
    engine,
    fixed_point_precisions,
    generate_model,
    init_messages,
    lingauss_to_gmrf,
    part_metric,
    precision_bounds,
    run,
    simulate,
    spectral_radius,
    sweep,
    walk_summability,
    with_observations,
)
from gbpkit import analysis, network, oracle
from gbpkit import model as model_module
from gbpkit.generate import KIND_RANDOM_LOOPY, KIND_SINGLE_LOOP, KIND_TREE, KINDS
from gbpkit.model import (
    InvalidModelError,
    _reject_duplicate_keys,
    dumps_model,
    loads_model,
    model_from_dict,
    model_to_dict,
    sparse_gmrf,
)
from gbpkit.network import build_agents

import helpers

SEEDS = st.integers(0, 2**32 - 1)
COEFF_BOUNDS = st.floats(0.5, 6.0)
# The kernels and the envelope round differently, so an iterate may cross a
# bound by a few units in the last place of its three-term sums.
ENVELOPE_RTOL = 16 * np.finfo(float).eps


@st.composite
def models(draw):
    kind = draw(st.sampled_from(KINDS))
    size = draw(st.integers(1 if kind == KIND_TREE else 2, 40))  # loops need two
    bound = draw(COEFF_BOUNDS)
    return generate_model(kind, size, draw(SEEDS), (-bound, bound))


def random_start(graph, seed):
    """Nonnegative precisions spread over six decades, and random means."""
    rng = np.random.default_rng(seed)
    count = len(graph.fv_edges)
    precisions = rng.exponential(10.0 ** rng.uniform(-3.0, 3.0, count))
    means = rng.normal(0.0, 10.0, count)
    return InitStrategy.explicit(
        dict(zip(graph.fv_edges, precisions.tolist())), dict(zip(graph.fv_edges, means.tolist()))
    )


STARTS = {
    "zero": lambda graph, seed: InitStrategy.zero(),
    "L": lambda graph, seed: InitStrategy.lower_bound(),
    "U": lambda graph, seed: InitStrategy.upper_bound(),
    "random": random_start,
}


@given(model=models(), seed=SEEDS)
def test_every_nonnegative_start_reaches_one_fixed_point(model, seed):
    graph = build_factor_graph(model)
    points = [
        fixed_point_precisions(graph, model, tolerance=1e-14, init=start(graph, seed))
        for start in STARTS.values()
    ]
    for point in points[1:]:
        assert part_metric(point.factor_to_variable, points[0].factor_to_variable) <= 1e-11


@given(model=models(), start=st.sampled_from(sorted(STARTS)), seed=SEEDS)
def test_iterates_after_the_first_sweep_stay_in_the_envelope(model, start, seed):
    graph = build_factor_graph(model)
    bounds = precision_bounds(graph, model)
    lower = bounds.lower.array
    upper = bounds.upper.array
    state = init_messages(graph, model, STARTS[start](graph, seed))
    for _ in range(25):
        state = sweep(graph, model, state)
        prec = state.precisions.array
        assert np.all(prec >= lower * (1.0 - ENVELOPE_RTOL))
        assert np.all(prec <= upper * (1.0 + ENVELOPE_RTOL))


@given(size=st.integers(2, 60), seed=SEEDS, bound=COEFF_BOUNDS)
@example(size=6, seed=113, bound=6.0)  # certified to diverge
def test_certified_verdict_predicts_mean_convergence(size, seed, bound):
    model = generate_model(KIND_RANDOM_LOOPY, size, seed, (-bound, bound))
    graph = build_factor_graph(model)
    verdict = certify(graph, model).verdict
    status = run(graph, model).status
    if verdict == VERDICT_CONVERGES:
        assert status == STATUS_CONVERGED
    if verdict == VERDICT_DIVERGES:
        assert status != STATUS_CONVERGED


@given(size=st.integers(2, 60), seed=SEEDS, bound=COEFF_BOUNDS)
def test_single_loop_means_converge_to_the_exact_means(size, seed, bound):
    model = generate_model(KIND_SINGLE_LOOP, size, seed, (-bound, bound))
    graph = build_factor_graph(model)
    result = run(graph, model)
    assert result.status == STATUS_CONVERGED
    exact = dense_posterior(model)
    for vid in graph.variable_ids:
        assert abs(result.beliefs.means[vid] - exact.mean_of(vid)) <= 1e-8


def dense_rule(topology, rho):
    """The verdict rule with the dense radius as the only spectral path."""
    if topology.kind in (TOPOLOGY_FOREST, TOPOLOGY_SINGLE_LOOP):
        return VERDICT_CONVERGES, BASIS_TOPOLOGY
    if rho < 1.0 - analysis.SPECTRAL_MARGIN:
        return VERDICT_CONVERGES, BASIS_SPECTRAL
    if rho > 1.0 + analysis.SPECTRAL_MARGIN:
        return VERDICT_DIVERGES, None
    return VERDICT_INCONCLUSIVE, None


@given(size=st.integers(2, 60), seed=SEEDS, bound=st.sampled_from([2.0, 6.0]))
@example(size=6, seed=113, bound=6.0)  # certified to diverge: the bound cannot decide
def test_radius_bound_never_undercuts_the_dense_radius(size, seed, bound):
    model = generate_model(KIND_RANDOM_LOOPY, size, seed, (-bound, bound))
    cert = certify(build_factor_graph(model), model)
    rho = spectral_radius(cert.mean_system.sparse)
    if cert.mean_radius_bound is not None:
        # The bound is proven for the computed Q; eigvals itself rounds.
        assert rho <= cert.mean_radius_bound * (1.0 + 1e-12)
    assert (cert.verdict, cert.basis) == dense_rule(cert.topology, rho)


@given(kind=st.sampled_from(KINDS), size=st.integers(2, 60), seed=SEEDS,
       bound=st.sampled_from([2.0, 6.0]))
def test_walk_interval_contains_the_dense_radius_and_never_decides_wrong(kind, size, seed, bound):
    gmrf = sparse_gmrf(generate_model(kind, size, seed, (-bound, bound)))
    rho = helpers.dense_walk_radius(gmrf.information_matrix.toarray())
    walk = walk_summability(gmrf)
    assert walk.lower <= rho <= walk.upper
    assert walk.lower <= walk.radius <= walk.upper
    if walk.is_walk_summable is not None:
        assert walk.is_walk_summable == (rho < 1.0)


@st.composite
def scoped_models(draw):
    """Up to eight variables and eight factors over drawn scopes of up to four
    of them, an empty scope included, so rows of width 0 (isolated variables,
    unary factors, models without factors or variables) and rows tied in
    width come up often."""
    variables = [Variable(f"x{i}", draw(VARIANCES)) for i in range(draw(st.integers(0, 8)))]
    factors = []
    for k in range(draw(st.integers(0, 8))):
        scope = (draw(st.lists(st.sampled_from(variables), unique=True, max_size=4))
                 if variables else [])
        coeffs = {v.id: draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
                  for v in scope}
        factors.append(Factor(f"f{k}", coeffs, draw(VARIANCES), draw(st.floats(-10.0, 10.0))))
    return LinearGaussianModel(tuple(variables), tuple(factors))


def _bits(pair):
    return tuple(None if a is None else a.tobytes() for a in pair)


@given(model=st.one_of(scoped_models(), models()), seed=SEEDS)
@example(model=LinearGaussianModel(), seed=0)
@example(model=LinearGaussianModel((Variable("x1", 1.0), Variable("x2", 2.0))), seed=0)
@example(model=LinearGaussianModel(
    (Variable("x1", 1.0), Variable("x2", 2.0), Variable("x3", 0.5)),
    (Factor("f1", {"x1": 1.0}, 1.0, 0.5), Factor("f2", {"x1": -2.0, "x2": 1.0}, 0.5, 1.0),
     Factor("f3", {}, 1.0, 2.0))), seed=1)
def test_jagged_passes_match_the_padded_reference(model, seed):
    # The passes over the jagged columns, in pass order, give the bits of the
    # padded tables they replaced, in canonical order: full passes,
    # precision-only passes, row subsets given as pass positions, and beliefs.
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
    variable_pass, factor_pass, belief_pass = _padded_passes(graph, compiled)
    rng = np.random.default_rng(seed)
    count = len(graph.edge_var)
    fv = rng.uniform(0.1, 2.0, count), rng.normal(size=count)
    vf = variable_pass(*fv)
    fv_in_pass, vf_in_pass = _in_order(fv, fv_pass), _in_order(vf, vf_pass)
    assert _bits(engine.vf_messages(compiled, *fv_in_pass)) == _bits(vf_in_pass)
    assert _bits(engine.fv_messages(compiled, *vf_in_pass)) == _bits(
        _in_order(factor_pass(*vf), fv_pass))
    beliefs = engine._beliefs(graph, compiled, *fv, 0)
    precision, mean = belief_pass(*fv)
    assert _bits((beliefs.variances.array, beliefs.means.array)) == _bits((1.0 / precision, mean))
    for only, reference, reads in (
        (engine.vf_messages(compiled, fv_in_pass[0], None), variable_pass(fv[0]), vf_pass),
        (engine.fv_messages(compiled, vf_in_pass[0], None), factor_pass(vf[0]), fv_pass),
    ):
        assert only[1] is None and _bits(only) == _bits(_in_order(reference, reads))
    start = int(rng.integers(0, count + 1))
    for rows in (rng.permutation(count)[:rng.integers(0, count + 1)], np.arange(start, count)):
        vf_rows, fv_rows = vf_pass.order[rows], fv_pass.order[rows]  # their canonical positions
        vf_view, fv_view = vf_pass.select(rows), fv_pass.select(rows)
        assert _bits(engine.vf_messages(compiled, *fv_in_pass, view=vf_view)) == _bits(
            variable_pass(*fv, rows=vf_rows))
        assert _bits(engine.fv_messages(compiled, *vf_in_pass, view=fv_view)) == _bits(
            factor_pass(*vf, rows=fv_rows))
        assert _bits(engine.vf_messages(compiled, fv_in_pass[0], None, view=vf_view)) == _bits(
            variable_pass(fv[0], rows=vf_rows))


@given(model=st.one_of(scoped_models(), models()))
@example(model=generate_model(KIND_RANDOM_LOOPY, 30, 7, (-6.0, 6.0)))
@example(model=LinearGaussianModel())
def test_envelope_and_mean_system_match_the_per_read_forms(model):
    # Terms formed once per message and then gathered give the bits of terms
    # formed at every read: the envelope, and Q and b at the fixed point.
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    assert _bits(engine.edge_bounds(graph, compiled)) == _bits(
        helpers.per_read_edge_bounds(graph, compiled))
    point = fixed_point_precisions(graph, model)
    system = analysis.build_mean_system(graph, model, point)
    q, b = helpers.per_read_mean_system(graph, compiled, point.variable_to_factor.array)
    assert _bits((system.sparse.toarray(), system.offset)) == _bits((q, b))


def _in_order(pair, reads):
    """A pair of canonical arrays (or None) in the pass order of ``reads``."""
    return tuple(None if a is None else a[reads.order] for a in pair)


def _padded_passes(graph, compiled):
    """The reference passes over the padded tables, canonical order in and
    out: (variable, factor, belief), the first two over ``rows`` if given."""
    columns = compiled.columns
    _, vf_table, fv_table, belief_table = helpers.padded_reads(graph)
    vf_prior_var = columns.prior_var[graph.edge_var[graph.vf_to_fv]]

    def variable(fv_prec, fv_mean=None, rows=slice(None)):
        return helpers.padded_variable_pass(vf_prior_var[rows], vf_table[rows], fv_prec, fv_mean)

    def factor(vf_prec, vf_mean=None, rows=slice(None)):
        return helpers.padded_factor_pass(graph, compiled, fv_table, rows, vf_prec, vf_mean)

    def belief(fv_prec, fv_mean):
        return helpers.padded_variable_pass(columns.prior_var, belief_table, fv_prec, fv_mean)

    return variable, factor, belief


def _canonical_sweep(passes, prec, mean):
    """A sweep by the padded reference passes: (vf_prec, vf_mean, fv_prec, fv_mean)."""
    variable, factor, _ = passes
    vf = variable(prec, mean)
    return (*vf, *factor(*vf))


def _canonical_run(graph, model, start, max_iters, log_rows=None):
    """``run`` spelled out over canonical arrays: the padded passes and the
    stop test's one rule (``helpers.reference_status``) per sweep.
    ``log_rows`` gets the rows ``simulate`` logs per tick: the variable
    messages, then the factor messages agent by agent."""
    passes = _padded_passes(graph, engine.compile_model(graph, model))
    agents, _, _ = build_agents(graph, model)
    fv_order = np.concatenate([agent.fv_rows for agent in agents] or [np.zeros(0, int)])
    state = init_messages(graph, model, start)
    status = STATUS_MAX_ITERS
    for tick in range(1, max_iters + 1):
        vf_prec, vf_mean, prec, mean = _canonical_sweep(
            passes, state.precisions.array, state.means.array)
        new = engine._state(graph, prec, mean, tick)
        if log_rows is not None:
            for edges, prec, mean in ((graph.vf_edges, vf_prec, vf_mean), (
                    [graph.fv_edges[k] for k in fv_order], new.precisions.array[fv_order],
                    new.means.array[fv_order])):
                log_rows.extend(f"{tick},{sender},{receiver},{p:.17g},{m:.17g}" for (
                    sender, receiver), p, m in zip(edges, prec.tolist(), mean.tolist()))
        outcome = helpers.reference_status(state.precisions.array, state.means.array,
                                           new.precisions.array, new.means.array,
                                           engine.DEFAULT_TOLERANCE)
        state = new
        if outcome is not None:
            status = outcome
            break
    return state, engine.compute_beliefs(graph, model, state), status


def _state_bits(state, beliefs, status):
    return (state.precisions.array.tobytes(), state.means.array.tobytes(), state.iteration,
            beliefs.variances.array.tobytes(), beliefs.means.array.tobytes(), status)


@given(model=st.one_of(scoped_models(), models()), start=st.sampled_from(sorted(STARTS)),
       seed=SEEDS, max_iters=st.sampled_from([1, 2, 500]))
@example(model=LinearGaussianModel(), start="zero", seed=0, max_iters=500)
@example(model=LinearGaussianModel((Variable("x1", 1.0), Variable("x2", 2.0))), start="zero",
         seed=0, max_iters=500)
@example(model=LinearGaussianModel(
    (Variable("x1", 1.0), Variable("x2", 2.0), Variable("x3", 0.5), Variable("x4", 3.0)),
    (Factor("f1", {"x1": 1.0}, 1.0, 0.5),
     Factor("f2", {"x3": -2.0, "x1": 1.0, "x2": 0.5}, 0.5, 1.0),
     Factor("f3", {}, 1.0, 2.0), Factor("f4", {"x2": 1.5, "x3": 1.0}, 2.0, -1.0))),
    start="random", seed=1, max_iters=500)
@example(model=LinearGaussianModel((Variable("x1", 1.0),), (Factor("f1", {"x1": 2.0}, 1.0, 3.0),)),
         start="random", seed=2, max_iters=1)
@example(model=generate_model(KIND_RANDOM_LOOPY, 6, 113, (-6.0, 6.0)), start="zero", seed=0,
         max_iters=500)  # diverges
def test_pass_order_loops_give_the_bits_of_canonical_sweeps(model, start, seed, max_iters):
    # run, the synchronous simulate and the fixed point keep their messages in
    # pass order; each must give the bits of the loop spelled out over
    # canonical arrays with the padded reference passes.
    graph = build_factor_graph(model)
    strategy = STARTS[start](graph, seed)
    result = run(graph, model, strategy, max_iters=max_iters)
    reference = _canonical_run(graph, model, strategy, max_iters)
    assert _state_bits(result.state, result.beliefs, result.status) == _state_bits(*reference)

    log_rows = ["tick,sender,receiver,precision,mean"]
    state, beliefs, status = _canonical_run(graph, model, InitStrategy.zero(), max_iters, log_rows)
    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "traffic.csv"
        for path in (None, log_path):
            sim = simulate(model, Schedule.synchronous(), max_ticks=max_iters, log_path=path)
            assert sim.ticks == state.iteration
            assert sim.messages_sent == 2 * sim.ticks * len(graph.edge_var)
            assert _state_bits(sim.state, sim.beliefs, sim.status) == _state_bits(
                state, beliefs, status)
        assert log_path.read_text().splitlines() == log_rows

    passes = _padded_passes(graph, engine.compile_model(graph, model))
    prec = init_messages(graph, model, strategy).precisions.array
    iterations = 0
    while True:
        _, _, new_prec, _ = _canonical_sweep(passes, prec, None)
        iterations += 1
        delta, prec = engine.max_delta(prec, new_prec), new_prec
        if delta < engine.DEFAULT_TOLERANCE:
            break
    point = fixed_point_precisions(graph, model, init=strategy)
    assert point.iterations == iterations
    assert point.factor_to_variable.array.tobytes() == prec.tobytes()
    assert point.variable_to_factor.array.tobytes() == (
        passes[0](prec)[0].tobytes())


def _canonical_ticks(model, seed, max_ticks, log_rows):
    """The random-sequential schedule spelled out in canonical order: per
    tick, one seeded-random agent's ``build_agents`` rows recomputed by the
    padded reference passes.  Returns (fv_prec, fv_mean, belief precisions,
    belief means, ticks, status, messages sent); ``log_rows`` gets the rows
    ``simulate`` logs."""
    graph = build_factor_graph(model)
    variable, factor, belief = _padded_passes(graph, engine.compile_model(graph, model))
    agents, _, _ = build_agents(graph, model)
    count = len(graph.edge_var)
    fv_prec, fv_mean = np.zeros(count), np.zeros(count)

    def log(tick, edges, prec, mean):
        log_rows.extend(f"{tick},{sender},{receiver},{p:.17g},{m:.17g}" for (
            sender, receiver), p, m in zip(edges, prec.tolist(), mean.tolist()))

    tick, status, sent = 0, STATUS_CONVERGED, 0
    if agents:
        vf_prec, vf_mean = variable(fv_prec, fv_mean)
        sent = count
        log(0, graph.vf_edges, vf_prec, vf_mean)
        rng = random.Random(seed)
        quiet, status = set(), STATUS_MAX_ITERS
        for tick in range(1, max_ticks + 1):
            k = rng.randrange(len(agents))
            vf_rows, fv_rows = agents[k].vf_rows, agents[k].fv_rows
            new_vf = variable(fv_prec, fv_mean, rows=vf_rows)
            moved = max(engine.max_delta(vf_prec[vf_rows], new_vf[0]),
                        engine.max_delta(vf_mean[vf_rows], new_vf[1]))
            vf_prec[vf_rows], vf_mean[vf_rows] = new_vf
            new_fv = factor(vf_prec, vf_mean, rows=fv_rows)
            moved = max(moved, engine.max_delta(fv_prec[fv_rows], new_fv[0]),
                        engine.max_delta(fv_mean[fv_rows], new_fv[1]))
            fv_prec[fv_rows], fv_mean[fv_rows] = new_fv
            sent += len(vf_rows) + len(fv_rows)
            log(tick, [graph.vf_edges[r] for r in vf_rows], *new_vf)
            log(tick, [graph.fv_edges[r] for r in fv_rows], *new_fv)
            quiet = quiet | {k} if moved < engine.DEFAULT_TOLERANCE else set()
            if helpers.reference_diverged(*new_fv):
                status = STATUS_DIVERGED
                break
            if len(quiet) == len(agents):
                status = STATUS_CONVERGED
                break
    return (fv_prec, fv_mean, *belief(fv_prec, fv_mean), tick, status, sent)


@given(model=st.one_of(scoped_models(), models()), seed=SEEDS,
       max_ticks=st.sampled_from([1, 2, 1000]))
@example(model=LinearGaussianModel(), seed=0, max_ticks=1000)
@example(model=LinearGaussianModel((Variable("x1", 1.0), Variable("x2", 2.0))), seed=0,
         max_ticks=1000)
@example(model=LinearGaussianModel(
    (Variable("x1", 1.0), Variable("x2", 2.0), Variable("x3", 0.5), Variable("x4", 3.0)),
    (Factor("f1", {"x1": 1.0}, 1.0, 0.5),
     Factor("f2", {"x3": -2.0, "x1": 1.0, "x2": 0.5}, 0.5, 1.0),
     Factor("f3", {"x4": 1.0, "x2": -1.0}, 1.0, 2.0),
     Factor("f4", {"x2": 1.5, "x3": 1.0}, 2.0, -1.0), Factor("f5", {}, 1.0, 2.0))),
    seed=3, max_ticks=1000)
@example(model=LinearGaussianModel((Variable("x1", 1.0),), (Factor("f1", {"x1": 2.0}, 1.0, 3.0),)),
         seed=2, max_ticks=1)
@example(model=generate_model(KIND_RANDOM_LOOPY, 6, 113, (-6.0, 6.0)), seed=11,
         max_ticks=5000)  # diverges under synchronous sweeps, converges here
@example(model=helpers.overflow_model(), seed=3, max_ticks=1000)  # diverges
def test_random_sequential_ticks_match_a_canonical_tick_loop(model, seed, max_ticks):
    # The ticks keep both message arrays in pass order and recompute an
    # agent's rows as pass positions; they must give the bits of the same
    # schedule spelled out over canonical arrays with the padded passes.
    log_rows = ["tick,sender,receiver,precision,mean"]
    prec, mean, belief_prec, belief_mean, ticks, status, sent = _canonical_ticks(
        model, seed, max_ticks, log_rows)
    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "traffic.csv"
        for path in (None, log_path):
            sim = simulate(model, Schedule.random_sequential(seed), max_ticks=max_ticks,
                           log_path=path)
            assert (sim.ticks, sim.status, sim.messages_sent) == (ticks, status, sent)
            assert _bits((sim.state.precisions.array, sim.state.means.array)) == _bits(
                (prec, mean))
            assert _bits((sim.beliefs.variances.array, sim.beliefs.means.array)) == _bits(
                (1.0 / belief_prec, belief_mean))
            assert sim.state.iteration == sim.beliefs.iteration == ticks
        assert log_path.read_text().splitlines() == log_rows


GUARD = engine.DIVERGENCE_GUARD
# Entries where a stop test that skips work could read differently: signed
# zeros, means at and on either side of the guard, and, in an array drawn
# from the second pool, NaN and the infinities.
FINITE_STOP_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-11, GUARD, -GUARD, math.nextafter(GUARD, 0.0),
                     math.nextafter(GUARD, math.inf), -math.nextafter(GUARD, math.inf)]),
    st.floats(-2 * GUARD, 2 * GUARD))
STOP_ENTRIES = st.one_of(FINITE_STOP_ENTRIES, st.sampled_from([math.nan, math.inf, -math.inf]),
                         st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def stop_arrays(draw):
    """(old_prec, old_mean, new_prec, new_mean) of one length, empty
    included; each new entry is the old one or a fresh draw, so both deltas
    fall below a tolerance often enough to converge."""
    size = draw(st.integers(0, 5))

    def entries():
        pool = draw(st.sampled_from([FINITE_STOP_ENTRIES, STOP_ENTRIES]))
        return np.array(draw(st.lists(pool, min_size=size, max_size=size)), dtype=float)

    old = [entries() for _ in range(2)]
    new = [np.where(draw(st.lists(st.booleans(), min_size=size, max_size=size)), array, entries())
           for array in old]
    return (*old, *new)


@given(arrays=stop_arrays(), tolerance=st.sampled_from([1e-10, 2e-11, 1.0, GUARD]))
@example(arrays=(np.zeros(0),) * 4, tolerance=1e-10)
@example(arrays=(np.zeros(1), np.zeros(1), np.ones(1), np.full(1, math.nan)), tolerance=1e-10)
def test_stop_tests_give_the_outcome_of_the_one_rule(arrays, tolerance):
    # The engine tests the mean delta first and takes the precision delta
    # only when the mean delta is below the tolerance; the random-sequential
    # quiet test skips the same way.  Both must decide as the rule that
    # takes the larger of the two deltas.
    old_prec, old_mean, new_prec, new_mean = arrays
    assert engine._diverged(new_prec, new_mean) == helpers.reference_diverged(new_prec, new_mean)
    assert engine._status(*arrays, tolerance) == helpers.reference_status(*arrays, tolerance)
    prec, mean = old_prec.copy(), old_mean.copy()
    moved = network._replace_rows(prec, mean, np.arange(len(prec)), new_prec, new_mean, tolerance)
    assert moved == (not max(helpers.reference_delta(old_prec, new_prec),
                             helpers.reference_delta(old_mean, new_mean)) < tolerance)
    assert _bits((prec, mean)) == _bits((new_prec, new_mean))


@pytest.mark.parametrize("bound", [1, 2**16 - 1, 2**16, 2**16 + 1, 2**20, 2**32])
@given(values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 2**16), max_size=300))
@example(values=[0], picks=[])
@example(values=[2**32 - 1], picks=[3])
def test_radix_order_is_the_stable_argsort(bound, values, picks):
    # Keys from a few values, so most of them tie: the drawn values, each
    # one digit higher (the same low 16 bits), and the ends of the range.
    pool = np.array(values + [v + 2**16 for v in values] + [0, bound - 1], dtype=np.int64) % bound
    keys = pool[np.array(picks, dtype=np.intp) % len(pool)]
    for dtype in (np.int64, np.int32) if bound <= 2**31 else (np.int64,):
        order = model_module._sorted_by(keys.astype(dtype), bound)
        expected = np.argsort(keys.astype(dtype), kind="stable")
        assert order.dtype == expected.dtype and order.tobytes() == expected.tobytes()


@st.composite
def pass_order_values(draw):
    """Row widths of a jagged table and one float per row, NaN, infinities
    and signed zeros among them."""
    width = draw(st.lists(st.integers(0, 6), max_size=40))
    return width, draw(st.lists(st.floats(), min_size=len(width), max_size=len(width)))


@given(table=pass_order_values())
@example(table=([], []))
@example(table=([2], [-0.0]))
def test_canonical_scatter_is_the_rank_gather(table):
    # Values listed in a table's order go back to row order by one scatter
    # through ``order``; it must give the bytes of the gather through the
    # inverse permutation, here argsort's, not the table's own rank.
    width, values = table
    reads = model_module._jagged(np.array(width, dtype=np.intp), lambda rows, k: rows)
    rank = np.argsort(reads.order)
    for array in (np.array(values, dtype=float), np.array(values, dtype=float) * (1 - 2j),
                  np.arange(len(width))):
        got = model_module._canonical(reads.order, array)
        assert got.dtype == array.dtype and got.tobytes() == array[rank].tobytes()
    assert reads.rank.tobytes() == rank.tobytes()


# A quiet NaN with a payload: a sum of two NaNs keeps one operand's,
# payload and sign included, so the bits show which operand came first.
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
SUM_ENTRIES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, PAYLOAD_NAN, -PAYLOAD_NAN, math.inf,
                     -math.inf, 1.7e308]))


def _sum_values(draw, dtype, size):
    parts = [np.array(draw(st.lists(SUM_ENTRIES, min_size=size, max_size=size)), dtype=float)
             for _ in range(2 if dtype is complex else 1)]
    if dtype is float:
        return parts[0]
    values = np.empty(size, complex)  # parts set one by one keep their bits
    values.real, values.imag = parts
    return values


@st.composite
def summed_reads(draw):
    """(base, term, columns) as the factor pass's sums take them: ``base``
    per row, rows by descending width, and per column k the reads of the
    rows wider than k, index arrays into ``term`` or, as a select view has
    them, slices of it.  Float or complex; a float ``base`` is contiguous
    or the real part of a complex array, as the noise variances are."""
    least = draw(st.sampled_from([0, 1]))  # 1: the first column reads every row
    widths = sorted(draw(st.lists(st.integers(least, 3), min_size=2 * least, max_size=8)),
                    reverse=True)
    counts = [sum(width > k for width in widths) for k in range(max(widths, default=0))]
    dtype = draw(st.sampled_from([float, complex]))
    base = _sum_values(draw, dtype, len(widths))
    if dtype is float and draw(st.booleans()):
        holder = np.zeros(len(widths), complex)
        holder.real = base
        base = holder.real
    term = _sum_values(draw, dtype, draw(st.integers(1 if counts else 0, 6)))
    columns = [np.array(draw(st.lists(st.integers(0, len(term) - 1), min_size=count,
                                      max_size=count)), dtype=np.intp) for count in counts]
    if draw(st.booleans()):
        reads = np.concatenate(columns or [np.zeros(0, np.intp)])
        term, stops = term[reads], np.cumsum([0] + counts)
        columns = list(map(slice, stops, stops[1:]))
    return base, term, tuple(columns)


@given(reads=summed_reads())
@example(reads=(np.zeros(0), np.zeros(0), ()))
@example(reads=(np.array([PAYLOAD_NAN]), np.array([-math.nan]), (np.array([0]),)))
@example(reads=(np.array([PAYLOAD_NAN, 1.0]), np.array([-math.nan]), (np.array([0]),)))
@example(reads=(np.array([PAYLOAD_NAN, -0.0, math.inf]), np.array([-math.nan, 0.0, -math.inf]),
                (np.array([0, 1, 2]), np.array([1, 0]))))
def test_sums_from_the_first_gather_keep_the_bits_of_a_copy(reads):
    # The factor pass's sums start from the first column's gather when it
    # reads every row, base added into it as the left operand; otherwise
    # from a copy of base.  Either way: the bytes of adding every column
    # into a copy of base, and base itself untouched.
    base, term, columns = reads
    before = base.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):  # as the kernels run it
        got = engine._sum_reads(base, term, columns)
        expected = engine._add_reads(base.copy(), term, columns)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert base.tobytes() == before and not np.shares_memory(got, base)


CSR_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1e300, -1e300, 1.7e308, 5e-324]))


@st.composite
def canonical_csr(draw):
    """A square CSR with sorted indices and no duplicates, as Q is, over
    int32 or int64 index arrays: empty rows, stored zeros, NaN and entries
    whose products overflow among them."""
    dim = draw(st.integers(0, 7))
    stored = np.array(draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim)),
                      dtype=bool).reshape(dim, dim)
    data = np.array(draw(st.lists(CSR_ENTRIES, min_size=int(stored.sum()),
                                  max_size=int(stored.sum()))), dtype=float)
    index = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.append(0, np.cumsum(stored.sum(axis=1))).astype(index)
    return csr_array((data, np.nonzero(stored)[1].astype(index), indptr), shape=(dim, dim))


@given(matrix=canonical_csr())
@example(matrix=csr_array((np.zeros(0), np.zeros(0, np.int32), np.zeros(1, np.int32)),
                          shape=(0, 0)))
@example(matrix=csr_array(np.array([[0.0, 1.7e308], [1.7e308, 0.0]])))
def test_radius_bound_keeps_the_bits_of_the_copying_form(matrix):
    # |Q| read through Q's own index arrays gives the bits of abs(Q), and
    # Q's arrays come back unchanged.
    before = [array.copy() for array in (matrix.data, matrix.indices, matrix.indptr)]
    got = analysis._radius_bound(matrix)
    after = (matrix.data, matrix.indices, matrix.indptr)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(before, after))
    expected = helpers.abs_radius_bound(matrix)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_negative_zero_observations_keep_the_bits_of_the_subtracting_reference():
    # The factor pass adds (-c) * mean where the padded reference passes
    # subtract c * mean: x - y is x + (-y) in IEEE 754, signed zeros
    # included.  Observations of -0.0 on a unary and a pairwise factor,
    # negative coefficients among them, give every message mean a zero of
    # either sign; run and both simulate schedules must keep each sign.
    model = LinearGaussianModel(
        (Variable("x1", 1.0), Variable("x2", 2.0)),
        (Factor("f1", {"x1": 2.0}, 1.0, -0.0), Factor("f2", {"x1": 1.0, "x2": -1.5}, 0.5, -0.0)))
    graph = build_factor_graph(model)
    reference = _canonical_run(graph, model, InitStrategy.zero(), engine.DEFAULT_MAX_ITERS)
    signs = np.signbit(reference[0].means.array)
    assert signs.any() and not signs.all()
    result = run(graph, model, InitStrategy.zero())
    sim = simulate(model, Schedule.synchronous())
    for state, beliefs, status in ((result.state, result.beliefs, result.status),
                                   (sim.state, sim.beliefs, sim.status)):
        assert _state_bits(state, beliefs, status) == _state_bits(*reference)
    prec, mean, belief_prec, belief_mean, ticks, status, _ = _canonical_ticks(model, 3, 1000, [])
    assert np.signbit(mean).any()
    sim = simulate(model, Schedule.random_sequential(3), max_ticks=1000)
    assert (sim.ticks, sim.status) == (ticks, status) and status == STATUS_CONVERGED
    assert _bits((sim.state.precisions.array, sim.state.means.array)) == _bits((prec, mean))
    assert _bits((sim.beliefs.variances.array, sim.beliefs.means.array)) == _bits(
        (1.0 / belief_prec, belief_mean))


def relabelled(model, seed):
    """The model with variables and factors renamed, shuffled, and each
    factor's coefficients listed in a shuffled order."""
    rng = np.random.default_rng(seed)
    new_variable = {v.id: f"w{k}" for k, v in zip(rng.permutation(len(model.variables)),
                                                    model.variables)}
    new_factor = {f.id: f"g{k}" for k, f in zip(rng.permutation(len(model.factors)), model.factors)}
    variables = [Variable(new_variable[v.id], v.prior_var) for v in model.variables]
    factors = []
    for f in model.factors:
        items = list(f.coeffs.items())
        coeffs = {new_variable[items[k][0]]: items[k][1] for k in rng.permutation(len(items))}
        factors.append(Factor(new_factor[f.id], coeffs, f.noise_var, f.obs))
    variables = tuple(variables[k] for k in rng.permutation(len(variables)))
    factors = tuple(factors[k] for k in rng.permutation(len(factors)))
    return LinearGaussianModel(variables, factors), new_variable


# A reordered graph sums the same messages in another order; the contracting
# recursion keeps the difference at a few ulps of the largest mean.
RELABEL_ULPS = 16


@given(model=models(), seed=SEEDS)
def test_relabelling_changes_beliefs_by_ulps_and_the_certificate_not_at_all(model, seed):
    other, rename = relabelled(model, seed)
    graph, other_graph = build_factor_graph(model), build_factor_graph(other)
    result, other_result = run(graph, model), run(other_graph, other)
    assert (result.status, result.state.iteration) == (
        other_result.status, other_result.state.iteration)
    if result.status == STATUS_CONVERGED:
        means, variances = result.beliefs.means, result.beliefs.variances
        scale = np.spacing(max(map(abs, means.values())))
        for vid in graph.variable_ids:
            assert abs(other_result.beliefs.means[rename[vid]] - means[vid]) <= RELABEL_ULPS * scale
            assert abs(other_result.beliefs.variances[rename[vid]] - variances[vid]) <= (
                RELABEL_ULPS * np.spacing(variances[vid]))
    cert, other_cert = certify(graph, model), certify(other_graph, other)
    assert (cert.verdict, cert.basis) == (other_cert.verdict, other_cert.basis)


@pytest.mark.parametrize("kind", KINDS)
def test_scaling_the_observations_leaves_the_certificate_and_scales_the_means(kind):
    # A power of two scales every float exactly, so both sides compare exactly.
    model = generate_model(kind, 200, 3)
    cert, posterior = certify(build_factor_graph(model), model), dense_posterior(model)
    for k in (-40, 20, 50):
        scale = 2.0**k
        scaled = with_observations(model, [f.obs * scale for f in model.factors])
        scaled_cert = certify(build_factor_graph(scaled), scaled)
        for attribute in ("verdict", "basis", "mean_radius_bound", "topology",
                          "walk_summability"):
            assert getattr(scaled_cert, attribute) == getattr(cert, attribute)
        assert scaled_cert.fixed_point.iterations == cert.fixed_point.iterations
        scaled_posterior = dense_posterior(scaled)
        assert np.array_equal(scaled_posterior.mean, scale * posterior.mean)
        assert np.array_equal(scaled_posterior.variance, posterior.variance)


VARIANCES = st.floats(0.5, 2.0)


@st.composite
def oracle_models(draw):
    """One or two generated components at +-2 or +-6, plus up to three
    prior-only variables, up to three unary factors and maybe a factor
    with an empty scope, the variables in a drawn order."""
    bound = draw(st.sampled_from([2.0, 6.0]))
    variables, factors = [], []
    for part in ("a", "b")[:draw(st.integers(1, 2))]:
        kind = draw(st.sampled_from(KINDS))
        size = draw(st.integers(1 if kind == KIND_TREE else 2, 60))  # loops need two
        model = generate_model(kind, size, draw(SEEDS), (-bound, bound))
        variables += [Variable(part + v.id, v.prior_var) for v in model.variables]
        factors += [Factor(part + f.id, {part + vid: c for vid, c in f.coeffs.items()},
                           f.noise_var, f.obs) for f in model.factors]
    variables += [Variable(f"p{k}", draw(VARIANCES)) for k in range(draw(st.integers(0, 3)))]
    for k in range(draw(st.integers(0, 3))):
        coeff = draw(st.floats(0.1, bound)) * draw(st.sampled_from([-1.0, 1.0]))
        factors.append(Factor(f"u{k}", {draw(st.sampled_from(variables)).id: coeff},
                              draw(VARIANCES), draw(st.floats(-10.0, 10.0))))
    if draw(st.booleans()):
        factors.append(Factor("e", {}, 1.0, draw(st.floats(-10.0, 10.0))))
    return LinearGaussianModel(tuple(draw(st.permutations(variables))), tuple(factors))


@given(model=oracle_models())
def test_oracle_matches_the_dense_inverse_and_solve(model):
    gmrf = lingauss_to_gmrf(model)
    posterior = dense_posterior(model)
    inverse = np.linalg.inv(gmrf.information_matrix)
    expected = np.linalg.solve(gmrf.information_matrix, gmrf.potential)
    assert posterior.variable_ids == gmrf.variable_ids
    assert np.max(np.abs(posterior.variance - np.diag(inverse))) <= 1e-12 * np.max(np.abs(inverse))
    assert np.max(np.abs(posterior.mean - expected)) <= 1e-12 * np.max(np.abs(expected))


@st.composite
def sparse_precisions(draw):
    """J of one or two generated models side by side (a forest, a forest plus
    one loop or random scopes of 2-3), maybe with isolated variables, its
    rows and columns in a drawn order.  At up to 120 variables the natural
    order fills some random-scope rows past the flat step's width."""
    bound = draw(st.sampled_from([2.0, 6.0]))
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(KINDS))
        size = draw(st.integers(1 if kind == KIND_TREE else 2, 120))  # loops need two
        model = generate_model(kind, size, draw(SEEDS), (-bound, bound))
        blocks.append(sparse_gmrf(model).information_matrix)
    for _ in range(draw(st.integers(0, 3))):
        blocks.append(csr_array([[draw(st.floats(0.1, 10.0))]]))
    matrix = block_diag(blocks, format="csr")
    order = np.array(draw(st.permutations(range(matrix.shape[0]))))
    return matrix[order][:, order]


@given(matrix=sparse_precisions(), order=st.sampled_from(["NATURAL", "MMD_AT_PLUS_A"]))
def test_selected_inverse_matches_the_dense_inverse(matrix, order):
    lu = helpers.superlu_factor(matrix, order)
    variance = oracle._selected_inverse_diagonal(lu.U.tocsr())[lu.perm_c]
    expected = np.diag(np.linalg.inv(matrix.toarray()))
    assert np.all(np.abs(variance - expected) <= 1e-12 * expected)


@st.composite
def hanging_rows(draw):
    """A sparse diagonally dominant J: a clique last, of 10 rows or more
    when the first rows are wider than the level step takes, and up to 40
    rows before it, each joined to a few of the next eight rows, so that paths
    of narrow rows hang below the top at several depths, and maybe to the
    clique.  Maybe row 0 is joined to rows 1 and 2 alone, by 1/2 each, its
    pivot 2 and J[1, 2] 1/8: eliminating row 0 cancels U[1, 2] exactly, so
    U drops a slot that row 0 reads and the closure loop adds it back."""
    clique, before = draw(st.sampled_from([0, 5, 10, 12, 16])), draw(st.integers(0, 40))
    dim = before + clique
    pattern = np.zeros((dim, dim), dtype=bool)
    pattern[before:, before:] = True
    for j in range(before):
        pattern[j, [min(j + step, dim - 1) for step in draw(st.lists(st.integers(1, 8),
                                                                      max_size=3))]] = True
        if clique and draw(st.booleans()):
            pattern[j, before + draw(st.integers(0, clique - 1))] = True
    pattern |= pattern.T
    np.fill_diagonal(pattern, False)
    rng = np.random.default_rng(draw(SEEDS))
    upper = np.triu(np.where(pattern, rng.uniform(-1.0, 1.0, (dim, dim)), 0.0), 1)
    matrix = upper + upper.T
    cancel = dim > 2 and draw(st.booleans())
    if cancel:
        matrix[0], matrix[:, 0] = 0.0, 0.0
        matrix[0, [1, 2]] = matrix[[1, 2], 0] = 0.5
        matrix[1, 2] = matrix[2, 1] = 0.125
    np.fill_diagonal(matrix, np.abs(matrix).sum(axis=1) + rng.uniform(0.1, 2.0, dim))
    if cancel:
        matrix[0, 0] = 2.0
    return matrix


@given(matrix=hanging_rows())
def test_selected_inverse_matches_the_row_loop(matrix):
    upper = helpers.superlu_factor(matrix, "NATURAL").U.tocsr()
    expected = helpers.row_by_row_inverse_diagonal(upper)
    variance = oracle._selected_inverse_diagonal(upper)
    assert np.all(np.abs(variance - expected) <= 1e-14 * expected)


class _Object(list):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


def _as_pairs(node):
    if isinstance(node, dict):
        return _Object((key, _as_pairs(value)) for key, value in node.items())
    if isinstance(node, list):
        return [_as_pairs(value) for value in node]
    return node


def _objects(node):
    """Every object in ``node``, outermost first."""
    if isinstance(node, _Object):
        yield node
        node = [value for _, value in node]
    if isinstance(node, list):
        for value in node:
            yield from _objects(value)


def _written(node, item, key) -> str:
    """``node`` as JSON text, pair by pair, with the given separators."""
    if isinstance(node, _Object):
        return "{" + item.join(json.dumps(k) + key + _written(v, item, key) for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + item.join(_written(value, item, key) for value in node) + "]"
    return json.dumps(node)


# json writes this id character as the escape \u00a7, which model_texts turns into
# \u003a, an escaped colon: a ':' in the parsed id that the text does not show.
ESCAPED = "§"
SPOILED_VALUES = [-1.0, 0, "1", True, None, math.inf, 10**400, [], {}]


@st.composite
def model_texts(draw):
    """Model files as text.  A generated model whose ids may hold ':' or its
    escape \\u003a, either written by ``dumps_model`` or compact, or written
    pair by pair with a key repeated in one drawn object (the top level, a
    record or a ``coeffs``), an item perhaps spoiled, trailing text, or a
    top level that is not an object."""
    model = draw(st.one_of(models(), scoped_models()))
    mark = draw(st.sampled_from(["", ":", ESCAPED]))

    def renamed(name):
        return name[:1] + mark + name[1:]

    data = model_to_dict(model)
    data = {
        "variables": [{**v, "id": renamed(v["id"])} for v in data["variables"]],
        "factors": [{**f, "id": renamed(f["id"]),
                     "coeffs": {renamed(k): c for k, c in f["coeffs"].items()}}
                    for f in data["factors"]],
    }
    if draw(st.booleans()):
        text = draw(st.sampled_from([dumps_model(model_from_dict(data)),
                                     json.dumps(data, separators=(",", ":"))]))
    else:
        top = _as_pairs(data)
        objects = [obj for obj in _objects(top) if obj]
        if draw(st.booleans()):
            obj = draw(st.sampled_from(objects))
            k = draw(st.integers(0, len(obj) - 1))
            key, value = obj[k]
            value = draw(st.sampled_from([value, 1.5, "x1"]))
            obj.insert(draw(st.integers(0, len(obj))), (key, value))
        if draw(st.booleans()):
            obj = draw(st.sampled_from(objects))
            k = draw(st.integers(0, len(obj) - 1))
            if draw(st.booleans()):
                del obj[k]
            else:
                obj[k] = (obj[k][0], draw(st.sampled_from(SPOILED_VALUES)))
        top = draw(st.sampled_from([top, [top], top[0][1]]))
        text = _written(top, *draw(st.sampled_from([(",", ":"), (", ", ": "), (",\n ", ": ")])))
        text += draw(st.sampled_from(["", "\n", " x", "}", ",{}"]))
    return text.replace(json.dumps(ESCAPED)[1:-1], "\\u003a")


def _hook_outcome(text: str):
    """What the loader gives when every object goes through the duplicate-key
    hook: the fields of the model, or the violations."""
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as err:
        return "invalid", [f"parse error at line {err.lineno} column {err.colno}: {err.msg}"]
    except ValueError as err:
        return "invalid", [str(err)]
    return _load_outcome(model_from_dict, data)


def _load_outcome(load, source):
    try:
        fields = load(source).fields
    except InvalidModelError as err:
        return "invalid", err.violations
    return "model", fields, repr(fields)  # repr tells ints from floats and keeps coeffs' order


@given(text=model_texts())
@example(text='{"variables": [], "variables": []} x')
@example(text='{"variables": [], "factors": [], "variables": []}')
@example(text='{"variables": [{"id": "x1", "prior_var": 1.0, "id": "x:1"}], "factors": []}')
@example(text='{"variables": [{"id": "x:1", "prior_var": 1.0}], "factors": []}')
@example(text='{"variables": [{"id": "x1", "prior_var": -1.0}], "factors": [], "factors": []}')
@example(text='[{"a": 1, "a": 2}, [[[')
@example(text=b'{"variables": [{"id": "x1", "prior_var": 1}], "factors": [], "factors": []}')
@example(text='[{"a": 1, "a": 2}, ' + "[" * 100_000)  # too deep for json: a RecursionError
@example(text='{"variables": [], "factors": [], "extra": {"a": [{"b": 1, "b": 2}]}}')
@example(text=b'{"variables": [{"id": "x1"}], "factors": []}')
def test_the_fast_parse_gives_the_outcome_of_the_hook_parse(text):
    assert _load_outcome(loads_model, text) == _hook_outcome(text)
