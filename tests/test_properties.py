"""Property tests of the paper's three results on generated models.

  * The precision recursion has one fixed point, reached from every
    nonnegative start, and every iterate after the first sweep lies inside
    the closed-form envelope (``precision_bounds``).
  * The means converge exactly when the mean-update spectral radius is
    below one, so a certified verdict predicts what ``run`` does.
  * On a forest plus one loop the means converge whatever the
    coefficients, to the exact posterior means.

Six more properties guard how the package gets there: the certificate's
cheap Collatz-Wielandt bound never undercuts the dense radius, so it
decides as the dense rule would; the walk-summability interval contains
the dense radius of |I - R| and never decides wrong; relabelling or
reordering the variables and factors changes beliefs by a few ulps at
most and the certificate not at all; scaling every observation by a power of two leaves the
certificate as it is and scales the exact means by the same factor; the
passes over the jagged edge tables give the bits of the padded tables
they replaced; and the sparse oracle agrees with a dense inverse and solve.

The hypothesis profile in ``conftest.py`` is derandomized with a bounded
example count, so these run the same examples on every run.
"""
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
    spectral_radius,
    walk_summability,
    with_observations,
)
from gbpkit import analysis, oracle
from gbpkit.generate import KIND_RANDOM_LOOPY, KIND_SINGLE_LOOP, KIND_TREE, KINDS
from gbpkit.model import sparse_gmrf

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
    compiled = engine.compile_model(graph, model)
    state = init_messages(graph, model, STARTS[start](graph, seed))
    prec, mean = state.precisions.array, state.means.array
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
    # The passes over the jagged columns give the bits of the padded tables
    # they replaced: full passes, precision-only passes and row subsets.
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    _, vf_table, fv_table, belief_table = helpers.padded_reads(graph)
    every = slice(None)
    rng = np.random.default_rng(seed)
    count = len(graph.edge_var)
    fv = rng.uniform(0.1, 2.0, count), rng.normal(size=count)
    vf = engine.vf_messages(compiled, *fv)
    assert _bits(vf) == _bits(helpers.padded_variable_pass(compiled.vf_prior_var, vf_table, *fv))
    assert _bits(engine.fv_messages(compiled, *vf)) == _bits(
        helpers.padded_factor_pass(compiled, fv_table, every, *vf))
    belief_reads = compiled.tables.belief_reads
    beliefs = engine._variable_pass(compiled.prior_var, belief_reads, every, *fv)
    assert _bits(beliefs) == _bits(
        helpers.padded_variable_pass(compiled.prior_var, belief_table, *fv))
    for only, reference in (
        (engine.vf_messages(compiled, fv[0], None),
         helpers.padded_variable_pass(compiled.vf_prior_var, vf_table, fv[0])),
        (engine.fv_messages(compiled, vf[0], None),
         helpers.padded_factor_pass(compiled, fv_table, every, vf[0])),
        (engine._variable_pass(compiled.prior_var, belief_reads, every, fv[0], None),
         helpers.padded_variable_pass(compiled.prior_var, belief_table, fv[0])),
    ):
        assert only[1] is None and _bits(only) == _bits(reference)
    start = int(rng.integers(0, count + 1))
    for rows in (rng.permutation(count)[:rng.integers(0, count + 1)], slice(start, count)):
        assert _bits(engine.vf_messages(compiled, *fv, rows)) == _bits(helpers.padded_variable_pass(
            compiled.vf_prior_var[rows], vf_table[rows], *fv))
        assert _bits(engine.fv_messages(compiled, *vf, rows)) == _bits(
            helpers.padded_factor_pass(compiled, fv_table, rows, *vf))
        assert _bits(engine.vf_messages(compiled, fv[0], None, rows)) == _bits(
            helpers.padded_variable_pass(compiled.vf_prior_var[rows], vf_table[rows], fv[0]))


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
