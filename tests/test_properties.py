"""Property tests of the paper's three results on generated models.

  * The precision recursion has one fixed point, reached from every
    nonnegative start, and every iterate after the first sweep lies inside
    the closed-form envelope (``precision_bounds``).
  * The means converge exactly when the mean-update spectral radius is
    below one, so a certified verdict predicts what ``run`` does.
  * On a forest plus one loop the means converge whatever the
    coefficients, to the exact posterior means.

Eight more properties guard how the package gets there: the certificate's
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
spelled out over canonical arrays; the sparse oracle agrees with a
dense inverse and solve; and a model file parsed by json alone, its
repeated keys ruled out by a colon count, gives the model or the
violations that a parse checking every object for repeated keys gives.

The hypothesis profile in ``conftest.py`` is derandomized with a bounded
example count, so these run the same examples on every run.
"""
import json
import math
import random
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
from gbpkit import analysis, oracle
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
    variable_pass, factor_pass, belief_pass = _padded_passes(compiled)
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
        assert _bits(engine.vf_messages(compiled, *fv_in_pass, rows)) == _bits(
            variable_pass(*fv, rows=vf_rows))
        assert _bits(engine.fv_messages(compiled, *vf_in_pass, rows)) == _bits(
            factor_pass(*vf, rows=fv_rows))
        assert _bits(engine.vf_messages(compiled, fv_in_pass[0], None, rows)) == _bits(
            variable_pass(fv[0], rows=vf_rows))


@given(model=st.one_of(scoped_models(), models()))
@example(model=generate_model(KIND_RANDOM_LOOPY, 30, 7, (-6.0, 6.0)))
@example(model=LinearGaussianModel())
def test_envelope_and_mean_system_match_the_per_read_forms(model):
    # Terms formed once per message and then gathered give the bits of terms
    # formed at every read: the envelope, and Q and b at the fixed point.
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    assert _bits(engine.edge_bounds(compiled)) == _bits(helpers.per_read_edge_bounds(compiled))
    point = fixed_point_precisions(graph, model)
    system = analysis.build_mean_system(graph, model, point)
    q, b = helpers.per_read_mean_system(compiled, point.variable_to_factor.array)
    assert _bits((system.sparse.toarray(), system.offset)) == _bits((q, b))


def _in_order(pair, reads):
    """A pair of canonical arrays (or None) in the pass order of ``reads``."""
    return tuple(None if a is None else a[reads.order] for a in pair)


def _padded_passes(compiled):
    """The reference passes over the padded tables, canonical order in and
    out: (variable, factor, belief), the first two over ``rows`` if given."""
    graph, columns = compiled.graph, compiled.columns
    _, vf_table, fv_table, belief_table = helpers.padded_reads(graph)
    vf_prior_var = columns.prior_var[graph.edge_var[graph.vf_to_fv]]

    def variable(fv_prec, fv_mean=None, rows=slice(None)):
        return helpers.padded_variable_pass(vf_prior_var[rows], vf_table[rows], fv_prec, fv_mean)

    def factor(vf_prec, vf_mean=None, rows=slice(None)):
        return helpers.padded_factor_pass(compiled, fv_table, rows, vf_prec, vf_mean)

    def belief(fv_prec, fv_mean):
        return helpers.padded_variable_pass(columns.prior_var, belief_table, fv_prec, fv_mean)

    return variable, factor, belief


def _canonical_sweep(passes, prec, mean):
    """A sweep by the padded reference passes: (vf_prec, vf_mean, fv_prec, fv_mean)."""
    variable, factor, _ = passes
    vf = variable(prec, mean)
    return (*vf, *factor(*vf))


def _canonical_run(graph, model, start, max_iters, log_rows=None):
    """``run`` spelled out over canonical arrays: the padded passes and
    ``step_status`` per sweep.  ``log_rows`` gets the rows ``simulate`` logs
    per tick: the variable messages, then the factor messages agent by agent."""
    passes = _padded_passes(engine.compile_model(graph, model))
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
        outcome = engine.step_status(state, new, engine.DEFAULT_TOLERANCE)
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

    passes = _padded_passes(engine.compile_model(graph, model))
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
    variable, factor, belief = _padded_passes(engine.compile_model(graph, model))
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
            if not ((np.abs(new_fv[1]) <= engine.DIVERGENCE_GUARD).all()
                    and np.isfinite(new_fv[0]).all()):
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
