"""Property tests of the paper's three results on generated models.

  * The precision recursion has one fixed point, reached from every
    nonnegative start, and every iterate after the first sweep lies inside
    the closed-form envelope (``precision_bounds``).
  * The means converge exactly when the mean-update spectral radius is
    below one, so a certified verdict predicts what ``run`` does.
  * On a forest plus one loop the means converge whatever the
    coefficients, to the exact posterior means.

The hypothesis profile in ``conftest.py`` is derandomized with a bounded
example count, so these run the same examples on every run.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from gbpkit import (
    InitStrategy,
    STATUS_CONVERGED,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    build_factor_graph,
    certify,
    dense_posterior,
    engine,
    fixed_point_precisions,
    generate_model,
    init_messages,
    part_metric,
    precision_bounds,
    run,
)
from gbpkit.generate import KIND_RANDOM_LOOPY, KIND_SINGLE_LOOP, KIND_TREE, KINDS

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
    lower = engine.values(bounds.lower, graph.fv_edges)
    upper = engine.values(bounds.upper, graph.fv_edges)
    compiled = engine.compile_model(graph, model)
    state = init_messages(graph, model, STARTS[start](graph, seed))
    prec, mean = engine.state_arrays(state, graph.fv_edges)
    for _ in range(25):
        prec, mean = engine.sweep_arrays(compiled, prec, mean)
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
