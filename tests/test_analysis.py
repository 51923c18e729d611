"""Convergence analysis: bounds, fixed points, mean-update systems, metrics,
certificates and which path decides them.

Independent oracles used here:
  * spectral_radius is cross-checked against characteristic-polynomial
    roots obtained by the Faddeev-LeVerrier recurrence plus np.roots,
    a route that shares no code with the QR eigensolve.
  * part_metric is cross-checked against a bisection scan for the
    smallest admissible scaling factor, the metric's defining property.
"""
import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse import csr_array

from gbpkit import (
    Factor,
    GMRFModel,
    InitStrategy,
    LinearGaussianModel,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    TOPOLOGY_SINGLE_LOOP,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    VERDICT_INCONCLUSIVE,
    BASIS_SPECTRAL,
    BASIS_TOPOLOGY,
    ConvergenceCertificate,
    Variable,
    build_factor_graph,
    build_mean_system,
    certify,
    classify_topology,
    dense_posterior,
    fixed_point_precisions,
    generate_model,
    generate_random_loopy,
    init_messages,
    lingauss_to_gmrf,
    part_metric,
    precision_bounds,
    rate_trace,
    run,
    sparse_gmrf,
    spectral_radius,
    sweep,
    trace_to_csv,
    variable_to_factor,
    walk_summability,
    with_observations,
)
from gbpkit import analysis
from gbpkit.generate import KINDS

import helpers


def char_poly_radius(matrix):
    """Largest |root| of det(lambda*I - A) via the Faddeev-LeVerrier recurrence."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ (m + coeffs[-1] * np.eye(n)) if k > 1 else a.copy()
        coeffs.append(-np.trace(m) / k)
    return float(np.max(np.abs(np.roots(coeffs))))


def generated_mean_systems():
    """Q of every generator kind at n=60, seeds 1-3, coefficients +-2 and +-6,
    plus the divergent random-loopy instance criterion 9 searches out."""
    models = [
        generate_model(kind, 60, seed, coeff_range=(-c, c))
        for kind in KINDS
        for seed in (1, 2, 3)
        for c in (2.0, 6.0)
    ]
    models.append(generate_random_loopy(6, seed=113, coeff_range=(-6.0, 6.0)))
    for model in models:
        graph = build_factor_graph(model)
        yield build_mean_system(graph, model, fixed_point_precisions(graph, model))


def alpha_scan(x, y, iters=120):
    """Bisect for the least alpha >= 1 with x/alpha <= y <= alpha*x entrywise."""

    def admissible(alpha):
        return all(xv / alpha <= y[e] <= alpha * xv for e, xv in x.items())

    hi = 2.0
    while not admissible(hi):
        hi *= 2.0
    lo = 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return math.log(hi)


class TestBounds:
    def test_frozen_loop_values(self, loop_graph, loop_model):
        bounds = precision_bounds(loop_graph, loop_model)
        assert bounds.upper[("f2", "x1")] == pytest.approx(1 / 6, abs=1e-15)
        assert bounds.lower[("f2", "x1")] == pytest.approx(1 / 12, abs=1e-15)

    def test_lower_at_most_upper(self, loop_graph, loop_model):
        bounds = precision_bounds(loop_graph, loop_model)
        assert set(bounds.lower) == set(loop_graph.fv_edges)
        for edge in loop_graph.fv_edges:
            assert 0.0 < bounds.lower[edge] <= bounds.upper[edge]

    def test_unary_bounds_coincide(self):
        model = LinearGaussianModel(
            (Variable("x1", 2.0),), (Factor("f1", {"x1": 3.0}, 4.0, 0.0),)
        )
        graph = build_factor_graph(model)
        bounds = precision_bounds(graph, model)
        assert bounds.lower[("f1", "x1")] == bounds.upper[("f1", "x1")] == 9.0 / 4.0


class TestFixedPoint:
    def test_pair_model_closed_form(self):
        model = helpers.pair_model()
        graph = build_factor_graph(model)
        fp = fixed_point_precisions(graph, model)
        # leaf variable sends 1/W = 1; factor replies 1/(1 + 1/1) = 1/2
        assert fp.variable_to_factor[("x1", "f1")] == pytest.approx(1.0, abs=1e-12)
        assert fp.factor_to_variable[("f1", "x2")] == pytest.approx(0.5, abs=1e-12)

    def test_is_stationary_under_one_more_sweep(self, loop_graph, loop_model):
        fp = fixed_point_precisions(loop_graph, loop_model, tolerance=1e-12)
        state = init_messages(
            loop_graph, loop_model, InitStrategy.explicit(dict(fp.factor_to_variable))
        )
        moved = sweep(loop_graph, loop_model, state)
        for edge in loop_graph.fv_edges:
            assert moved.precisions[edge] == pytest.approx(
                fp.factor_to_variable[edge], abs=1e-11
            )

    def test_within_closed_form_envelope(self, loop_graph, loop_model):
        fp = fixed_point_precisions(loop_graph, loop_model)
        bounds = precision_bounds(loop_graph, loop_model)
        for edge in loop_graph.fv_edges:
            assert bounds.lower[edge] - 1e-12 <= fp.factor_to_variable[edge]
            assert fp.factor_to_variable[edge] <= bounds.upper[edge] + 1e-12

    def test_init_independent(self, loop_graph, loop_model):
        by_lower = fixed_point_precisions(loop_graph, loop_model, tolerance=1e-13)
        by_zero = fixed_point_precisions(
            loop_graph, loop_model, tolerance=1e-13, init=InitStrategy.zero()
        )
        by_upper = fixed_point_precisions(
            loop_graph, loop_model, tolerance=1e-13, init=InitStrategy.upper_bound()
        )
        for edge in loop_graph.fv_edges:
            ref = by_lower.factor_to_variable[edge]
            assert by_zero.factor_to_variable[edge] == pytest.approx(ref, abs=1e-11)
            assert by_upper.factor_to_variable[edge] == pytest.approx(ref, abs=1e-11)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_sweeps_bitwise(self, kind):
        # The unoptimised loop: full sweeps, means computed and thrown away.
        for seed in (1, 2):
            model = generate_model(kind, 2000, seed)
            graph = build_factor_graph(model)
            compiled = analysis.engine.compile_model(graph, model)
            state = init_messages(graph, model, InitStrategy.lower_bound())
            while True:
                new = sweep(graph, model, state)
                delta = analysis.engine.max_delta(state.precisions.array, new.precisions.array)
                state = new
                if delta < analysis.engine.DEFAULT_TOLERANCE:
                    break
            prec, iterations = state.precisions.array, state.iteration
            vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
            vf_prec, _ = analysis.engine.vf_messages(compiled, prec[fv_pass.order], None)
            vf_prec = vf_prec[vf_pass.rank]
            fp = fixed_point_precisions(graph, model)
            assert fp.iterations == iterations
            assert fp.factor_to_variable.array.tobytes() == prec.tobytes()
            assert fp.variable_to_factor.array.tobytes() == vf_prec.tobytes()

    def test_budget_error(self, loop_graph, loop_model):
        with pytest.raises(RuntimeError, match="budget"):
            fixed_point_precisions(loop_graph, loop_model, tolerance=1e-12, max_iters=2)
        with pytest.raises(ValueError):
            fixed_point_precisions(loop_graph, loop_model, tolerance=0.0)

    def test_nan_tolerance_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="tolerance"):
            fixed_point_precisions(loop_graph, loop_model, tolerance=math.nan)

    def test_zero_budget_rejected(self, loop_graph, loop_model):
        edgeless = LinearGaussianModel((Variable("x1", 4.0),), ())
        for model in (loop_model, edgeless):
            with pytest.raises(ValueError, match="max_iters must be at least 1"):
                fixed_point_precisions(build_factor_graph(model), model, max_iters=0)

    @pytest.mark.parametrize("model", [
        # f1 -> x1 overflows to inf while f1 -> x2 reads 0: a forest.
        helpers.overflow_model(),
        # Every precision turns NaN, and the NaN-skipping stop test settles.
        LinearGaussianModel(tuple(Variable(f"x{k}", 1.0) for k in (1, 2, 3)), (
            Factor("f1", {"x1": 1e200, "x2": 1e200}, 1.0, 0.0),
            Factor("f2", {"x2": 1.0, "x3": 1.0}, 1.0, 0.0),
            Factor("f3", {"x3": 1.0, "x1": 1.0}, 1.0, 0.0),
            Factor("f4", {"x1": 1.0, "x2": 1.0, "x3": 1.0}, 1.0, 0.0))),
    ], ids=["forest-1e160", "loopy-1e200"])
    def test_overflowed_precisions_are_refused(self, model):
        graph = build_factor_graph(model)
        with pytest.raises(ValueError, match="precision fixed point has non-finite entries"):
            fixed_point_precisions(graph, model)
        with pytest.raises(ValueError, match="precision fixed point has non-finite entries"):
            certify(graph, model)
        assert run(graph, model).status == STATUS_DIVERGED

    def test_underflowed_precisions_are_refused(self):
        # c**2 = 1e-340 rounds to 0, so f1 -> x1 settles at precision 0.0:
        # a recursion that is not the model's.  run's guard still reads the
        # message's mean, near 1e170, as divergence.
        model = helpers.underflow_model()
        graph = build_factor_graph(model)
        for analyse in (fixed_point_precisions, certify):
            with pytest.raises(ValueError, match="^precision fixed point has zero entries$"):
                analyse(graph, model)
        assert run(graph, model).status == STATUS_DIVERGED

    @pytest.mark.parametrize("model", [helpers.loop_model(),
                                       generate_model("random-loopy", 200, 3)],
                             ids=["loop", "random-loopy"])
    def test_budget_boundary(self, model):
        # The budget counts sweeps: the k sweeps that settle fit in k, not k - 1.
        graph = build_factor_graph(model)
        settled = fixed_point_precisions(graph, model)
        k = settled.iterations
        assert k >= 2
        exact = fixed_point_precisions(graph, model, max_iters=k)
        assert exact.iterations == k
        for got, want in ((exact.factor_to_variable, settled.factor_to_variable),
                          (exact.variable_to_factor, settled.variable_to_factor)):
            assert got.array.tobytes() == want.array.tobytes()
        with pytest.raises(RuntimeError, match="budget"):
            fixed_point_precisions(graph, model, max_iters=k - 1)


class TestMeanSystem:
    def test_loop_zero_pattern(self, loop_graph, loop_model):
        fp = fixed_point_precisions(loop_graph, loop_model)
        system = build_mean_system(loop_graph, loop_model, fp)
        assert system.edges == loop_graph.vf_edges
        assert system.matrix.shape == (7, 7)
        # row j->fn couples to z->fk exactly when fk is another factor of j
        # and z another variable of fk; written out by hand for this graph
        expected = {
            ("x1", "f1"): {("x2", "f2")},
            ("x1", "f2"): {("x3", "f1"), ("x4", "f1")},
            ("x2", "f2"): {("x4", "f3")},
            ("x2", "f3"): {("x1", "f2")},
            ("x3", "f1"): set(),
            ("x4", "f1"): {("x2", "f3")},
            ("x4", "f3"): {("x1", "f1"), ("x3", "f1")},
        }
        index = {edge: k for k, edge in enumerate(system.edges)}
        for row_edge, cols in expected.items():
            nonzero = {
                system.edges[c]
                for c in np.flatnonzero(system.matrix[index[row_edge]])
            }
            assert nonzero == cols

    def test_sparse_q_is_canonical_and_its_dense_view_matches(self):
        # The pattern has two couplings; through f1's coefficients of
        # 1e-160 and x2's prior variance of 1e-10 one of them underflows to
        # 0.0, which the CSR must not store.  Every precision stays positive
        # (1e-320 on f1's messages), so the fixed point is not refused.
        tiny = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1e-10), Variable("x3", 1.0)),
            (Factor("f1", {"x1": 1e-160, "x2": 1e-160}, 1.0, 1.0),
             Factor("f2", {"x2": 1.0, "x3": 1.0}, 1.0, 2.0)),
        )
        graph = build_factor_graph(tiny)
        underflow = build_mean_system(graph, tiny, fixed_point_precisions(graph, tiny))
        assert np.count_nonzero(underflow.matrix) == 1
        for system in [underflow, *generated_mean_systems()]:
            assert system.sparse.has_canonical_format
            assert system.matrix.tobytes() == system.sparse.toarray().tobytes()
            assert system.sparse.nnz == np.count_nonzero(system.matrix)

    def test_tree_system_structurally_nilpotent(self):
        model = helpers.chain_model(5)
        graph = build_factor_graph(model)
        fp = fixed_point_precisions(graph, model)
        system = build_mean_system(graph, model, fp)
        dim = system.matrix.shape[0]
        power = np.linalg.matrix_power(system.matrix, dim)
        assert np.all(power == 0.0)
        assert spectral_radius(system.matrix) == 0.0

    def test_fixed_point_solve_matches_engine(self, loop_graph, loop_model):
        fp = fixed_point_precisions(loop_graph, loop_model, tolerance=1e-14)
        system = build_mean_system(loop_graph, loop_model, fp)
        dim = len(system.edges)
        solved = np.linalg.solve(np.eye(dim) + system.matrix, system.offset)
        result = run(loop_graph, loop_model, tolerance=1e-13)
        assert result.status == STATUS_CONVERGED
        for k, edge in enumerate(system.edges):
            _, mean = variable_to_factor(loop_graph, loop_model, result.state, edge)
            assert mean == pytest.approx(solved[k], abs=1e-8)

    def test_affine_iteration_tracks_engine_sweeps(self, loop_graph, loop_model):
        # with precisions pinned at the fixed point the engine's mean
        # update IS the affine map v <- offset - matrix @ v
        fp = fixed_point_precisions(loop_graph, loop_model, tolerance=1e-15)
        system = build_mean_system(loop_graph, loop_model, fp)
        state = init_messages(
            loop_graph, loop_model, InitStrategy.explicit(dict(fp.factor_to_variable))
        )
        w = np.zeros(len(system.edges))
        for _ in range(6):
            state = sweep(loop_graph, loop_model, state)
            w = system.offset - system.matrix @ w
            for k, edge in enumerate(system.edges):
                _, mean = variable_to_factor(loop_graph, loop_model, state, edge)
                assert mean == pytest.approx(w[k], abs=1e-12)


class TestSpectralRadius:
    def test_against_char_poly_roots(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            matrix = rng.uniform(-1.0, 1.0, size=(n, n))
            expected = char_poly_radius(matrix)
            assert spectral_radius(matrix) == pytest.approx(expected, abs=1e-8)

    def test_matches_whole_matrix_eigensolve(self):
        for system in generated_mean_systems():
            dense = system.matrix
            radius = spectral_radius(system.sparse)
            expected = float(np.max(np.abs(np.linalg.eigvals(dense))))
            assert abs(radius - expected) <= 1e-12 * max(1.0, radius)
            assert spectral_radius(dense) == radius  # same blocks, same bits

    def test_exact_cases(self):
        assert spectral_radius(np.diag([3.0, -5.0])) == 5.0
        assert spectral_radius([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)
        assert spectral_radius(np.zeros((0, 0))) == 0.0
        assert spectral_radius([[7.0]]) == 7.0

    def test_nilpotent_pattern_is_exactly_zero(self):
        shift = np.diag(np.full(9, 0.3), k=1)
        assert spectral_radius(shift) == 0.0
        triangular = np.triu(np.ones((6, 6)), k=1)
        assert spectral_radius(triangular) == 0.0

    def test_stored_zeros_add_no_edges(self):
        # A stored 0.0 that would close the cycle 0 -> 1 -> 0 is no edge.
        stored = csr_array(([0.4, 0.0], ([0, 1], [1, 0])), shape=(2, 2))
        assert spectral_radius(stored) == 0.0
        assert stored.nnz == 2  # the caller's matrix is left as it was
        # Stored zeros that would merge two 5-node components into one
        # block leave the blocks, and so the bits, of the dense form.
        rng = np.random.default_rng(14)
        dense = rng.uniform(-1.0, 1.0, size=(10, 10))
        dense[5:, :5] = 0.0
        rows, cols = np.nonzero(dense)
        with_zeros = csr_array(
            (np.r_[dense[rows, cols], np.zeros(5)],
             (np.r_[rows, np.arange(5, 10)], np.r_[cols, np.arange(5)])),
            shape=(10, 10),
        )
        assert spectral_radius(with_zeros) == spectral_radius(dense)

    def test_permuted_strictly_triangular_is_exactly_zero(self):
        rng = np.random.default_rng(11)
        matrix = np.triu(rng.uniform(-1.0, 1.0, size=(300, 300)), k=1)
        order = rng.permutation(300)
        assert spectral_radius(matrix[np.ix_(order, order)]) == 0.0

    def test_self_loops_are_not_nilpotent(self):
        rng = np.random.default_rng(12)
        matrix = np.triu(rng.uniform(-1.0, 1.0, size=(30, 30)))
        expected = np.max(np.abs(np.diag(matrix)))
        assert spectral_radius(matrix) == pytest.approx(expected, rel=1e-12)
        single = np.diag(np.full(8, 0.3), k=1)
        single[5, 5] = -0.7
        assert spectral_radius(single) == pytest.approx(0.7, rel=1e-12)

    def test_one_cyclic_block_decides(self):
        # Strictly upper triangular apart from a 2x2 cyclic diagonal block,
        # whose eigenvalues +-sqrt(a*b) are the only nonzero ones.
        rng = np.random.default_rng(13)
        matrix = np.triu(rng.uniform(-1.0, 1.0, size=(40, 40)), k=1)
        matrix[20, 21], matrix[21, 20] = 0.5, 0.8
        order = rng.permutation(40)
        permuted = matrix[np.ix_(order, order)]
        assert spectral_radius(permuted) == pytest.approx(math.sqrt(0.4), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):  # off the diagonal of a nilpotent pattern
            spectral_radius([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            spectral_radius(np.ones(4))
        with pytest.raises(ValueError):
            spectral_radius(csr_array(np.ones((2, 3))))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                spectral_radius(csr_array(([bad], ([0], [1])), shape=(2, 2)))


class TestWalkSummability:
    def test_loop_model_frozen_radius(self, loop_model):
        walk = walk_summability(lingauss_to_gmrf(loop_model))
        assert walk.radius == pytest.approx(1.0753662600622516, abs=1e-12)
        assert walk.radius == pytest.approx(1.0754, abs=1e-3)
        assert not walk.is_walk_summable

    def test_symmetric_eigensolve_cross_check(self, loop_model):
        gmrf = lingauss_to_gmrf(loop_model)
        info = gmrf.information_matrix
        scale = 1.0 / np.sqrt(np.diag(info))
        normalized = info * scale[:, None] * scale[None, :]
        absolute = np.abs(np.eye(4) - normalized)
        expected = float(np.max(np.abs(np.linalg.eigvalsh(absolute))))
        assert walk_summability(gmrf).radius == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_general_eigensolve(self, kind):
        # The general nonsymmetric solve of |I - R| is the reference.
        for seed in (1, 2, 3):
            info = lingauss_to_gmrf(generate_model(kind, 200, seed)).information_matrix
            scale = 1.0 / np.sqrt(np.diag(info))
            normalized = info * scale[:, None] * scale[None, :]
            absolute = np.abs(np.eye(len(info)) - normalized)
            expected = float(np.max(np.abs(np.linalg.eigvals(absolute))))
            walk = walk_summability(GMRFModel(info, np.zeros(len(info)), ()))
            assert walk.lower <= expected <= walk.upper
            assert walk.lower <= walk.radius <= walk.upper
            assert walk.is_walk_summable == (expected < 1.0)

    def test_chain_is_walk_summable(self):
        gmrf = lingauss_to_gmrf(helpers.chain_model(6))
        walk = walk_summability(gmrf)
        assert walk.is_walk_summable
        assert walk.radius < 1.0

    def test_weak_coupling_exact(self):
        info = np.array([[1.0, 0.25], [0.25, 1.0]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        assert walk_summability(gmrf).radius == pytest.approx(0.25, abs=1e-15)

    def test_nonpositive_diagonal_rejected(self):
        info = np.array([[0.0, 0.1], [0.1, 1.0]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        with pytest.raises(ValueError, match="diagonal"):
            walk_summability(gmrf)

    def test_non_symmetric_rejected(self):
        info = np.array([[1.0, 0.1], [0.2, 1.0]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        with pytest.raises(ValueError, match="symmetric"):
            walk_summability(gmrf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        info = np.array([[1.0, bad], [bad, 1.0]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        with pytest.raises(ValueError, match="non-finite"):
            walk_summability(gmrf)
        info = np.array([[bad, 0.1], [0.1, 1.0]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        with pytest.raises(ValueError, match="non-finite"):
            walk_summability(gmrf)

    # pyproject.toml turns a RuntimeWarning into an error, so these also
    # show that the overflow is refused without one.
    def test_walk_entry_overflow_refused(self):
        # J is finite, but |J_12| / sqrt(J_11 J_22) = 1e310 is not.
        info = np.array([[1e-300, 1e10], [1e10, 1e-300]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        with pytest.raises(ValueError, match="non-finite"):
            walk_summability(gmrf)

    def test_rayleigh_overflow_refused(self):
        # Every entry and A x are finite, but x'Ax = 2e308 is not: the lower bound would be inf.
        info = np.array([[1.0, 1e308], [1e308, 1.0]])
        gmrf = GMRFModel(information_matrix=info, potential=np.zeros(2), variable_ids=("a", "b"))
        with pytest.raises(ValueError, match="Rayleigh product overflows"):
            walk_summability(gmrf)

    def test_empty_model(self):
        gmrf = GMRFModel(
            information_matrix=np.zeros((0, 0)), potential=np.zeros(0), variable_ids=()
        )
        walk = walk_summability(gmrf)
        assert walk.radius == 0.0
        assert walk.is_walk_summable


def walk_of(info):
    return walk_summability(GMRFModel(info, np.zeros(info.shape[0]), ()))


class TestWalkInterval:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("coeff", [2.0, 6.0])
    def test_interval_contains_dense_radius(self, kind, coeff):
        for seed in (1, 2, 3):
            gmrf = sparse_gmrf(generate_model(kind, 200, seed, (-coeff, coeff)))
            expected = helpers.dense_walk_radius(gmrf.information_matrix.toarray())
            walk = walk_summability(gmrf)
            assert walk.lower <= expected <= walk.upper
            assert walk.lower <= walk.radius <= walk.upper
            assert walk.is_walk_summable == (expected < 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_and_sparse_j_agree_bit_for_bit(self, kind):
        for seed in (1, 2, 3):
            model = generate_model(kind, 120, seed, (-6.0, 6.0))
            sparse = walk_summability(sparse_gmrf(model))
            dense = walk_summability(lingauss_to_gmrf(model))
            assert sparse == dense
            assert np.array([sparse.radius, sparse.lower, sparse.upper]).tobytes() == (
                np.array([dense.radius, dense.lower, dense.upper]).tobytes()
            )

    def test_forest_takes_the_larger_component(self):
        # A 3-chain with couplings 0.5 (radius 0.5 * sqrt 2) beside a pair
        # coupled at 0.3 (radius 0.3), listed first.
        info = np.eye(5)
        info[0, 1] = info[1, 0] = 0.3
        for i in (2, 3):
            info[i, i + 1] = info[i + 1, i] = -0.5
        walk = walk_of(info)
        expected = 0.5 * math.sqrt(2.0)
        assert walk.lower <= expected <= walk.upper
        assert walk.radius == pytest.approx(expected, abs=1e-15)
        assert walk.is_walk_summable is True

    def test_radius_exactly_one_is_undecided(self):
        walk = walk_of(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert walk.lower <= 1.0 <= walk.upper
        assert walk.is_walk_summable is None

    @pytest.mark.parametrize("info", [np.eye(1) * 3.0, np.diag([0.5, 2.0, 7.0])])
    def test_no_coupling_is_exactly_zero(self, info, monkeypatch):
        def no_iterates(*args, **kwargs):
            raise AssertionError("no power iteration should run without couplings")

        monkeypatch.setattr(analysis, "_perron_iterates", no_iterates)
        for matrix in (info, csr_array(info)):
            walk = walk_of(matrix)
            assert (walk.radius, walk.lower, walk.upper) == (0.0, 0.0, 0.0)
            assert np.array(walk.radius).tobytes() == np.array(0.0).tobytes()
            assert walk.is_walk_summable is True

    def test_decisions_rest_on_the_bounds(self):
        # Scaling one off-diagonal pair moves the radius across 1.
        for coupling, decided in ((0.999, True), (1.001, False)):
            walk = walk_of(np.array([[1.0, coupling], [coupling, 1.0]]))
            assert walk.is_walk_summable is decided
            if decided:
                assert walk.upper < 1.0
            else:
                assert walk.lower >= 1.0

    def test_certify_never_builds_the_dense_j(self, monkeypatch):
        from gbpkit import model as model_module

        def refuse(model):
            raise AssertionError("certify must not build the dense information matrix")

        monkeypatch.setattr(model_module, "lingauss_to_gmrf", refuse)
        monkeypatch.setattr(analysis, "lingauss_to_gmrf", refuse, raising=False)
        seen = []
        real = analysis.walk_summability

        def spy(gmrf):
            seen.append(type(gmrf.information_matrix))
            return real(gmrf)

        monkeypatch.setattr(analysis, "walk_summability", spy)
        model = generate_model("tree", 300, 4)
        cert = certify(build_factor_graph(model), model)
        cert.walk_summability  # computed on first read
        assert seen == [csr_array]
        assert cert.walk_summability == real(lingauss_to_gmrf(model))


class TestPartMetric:
    def _random_maps(self, rng, count):
        edges = [("f1", "x1"), ("f1", "x3"), ("f2", "x2"), ("f3", "x4")]
        return [
            {e: math.exp(rng.uniform(-3.0, 3.0)) for e in edges} for _ in range(count)
        ]

    def test_metric_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            x, y, z = self._random_maps(rng, 3)
            assert part_metric(x, x) == 0.0
            assert part_metric(x, y) > 0.0
            assert abs(part_metric(x, y) - part_metric(y, x)) <= 1e-12
            assert part_metric(x, z) <= part_metric(x, y) + part_metric(y, z) + 1e-12

    def test_matches_scaling_definition(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            x, y = self._random_maps(rng, 2)
            assert part_metric(x, y) == pytest.approx(alpha_scan(x, y), abs=1e-9)

    def test_frozen_example(self):
        assert part_metric({("f", "v"): 2.0}, {("f", "v"): 1.0}) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_scale_invariance(self):
        x = {("f", "v"): 0.3, ("g", "v"): 1.7}
        y = {("f", "v"): 0.9, ("g", "v"): 0.4}
        scaled_x = {e: 10.0 * v for e, v in x.items()}
        scaled_y = {e: 10.0 * v for e, v in y.items()}
        assert part_metric(scaled_x, scaled_y) == pytest.approx(
            part_metric(x, y), abs=1e-12
        )

    def test_rejects_bad_maps(self):
        with pytest.raises(ValueError, match="edge sets"):
            part_metric({("f", "v"): 1.0}, {("g", "v"): 1.0})
        with pytest.raises(ValueError, match="nonpositive"):
            part_metric({("f", "v"): 0.0}, {("f", "v"): 1.0})
        with pytest.raises(ValueError, match="nonpositive"):
            part_metric({("f", "v"): 1.0}, {("f", "v"): -2.0})


class TestRateTrace:
    def test_distances_decrease_from_upper(self, loop_graph, loop_model):
        points = rate_trace(loop_graph, loop_model, InitStrategy.upper_bound())
        assert len(points) >= 3
        for earlier, later in zip(points, points[1:]):
            assert later.distance < earlier.distance
        assert points[-1].distance < 1e-10

    def test_iterations_start_at_one(self, loop_graph, loop_model):
        points = rate_trace(loop_graph, loop_model)
        assert points[0].iteration == 1
        assert [p.iteration for p in points] == list(range(1, len(points) + 1))

    def test_floor_reached_with_zero_tolerance(self, loop_graph, loop_model):
        points = rate_trace(loop_graph, loop_model, tolerance=0.0)
        assert points[-1].distance < 1e-14
        assert points[-2].distance >= 1e-14

    def test_nan_tolerance_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="tolerance"):
            rate_trace(loop_graph, loop_model, tolerance=math.nan)

    def test_zero_budget_rejected(self, loop_graph, loop_model):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            rate_trace(loop_graph, loop_model, max_iters=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_divergent_means_do_not_end_the_trace(self, kind):
        # Observations 1e12 times larger send every mean past run's guard
        # in one sweep, but the precisions never read them: the trace must
        # give the unscaled model's points, bit for bit.
        model = generate_model(kind, 200, 3)
        graph = build_factor_graph(model)
        scaled = with_observations(model, [factor.obs * 1e12 for factor in model.factors])
        diverged = run(graph, scaled)
        assert (diverged.status, diverged.state.iteration) == (STATUS_DIVERGED, 1)
        points = [[(p.iteration, p.distance.hex()) for p in rate_trace(graph, m)]
                  for m in (model, scaled)]
        assert len(points[0]) > 1
        assert points[1] == points[0]

    def test_lower_start_no_slower_than_zero(self, loop_graph, loop_model):
        from_zero = rate_trace(loop_graph, loop_model, InitStrategy.zero())
        from_lower = rate_trace(loop_graph, loop_model, InitStrategy.lower_bound())
        assert len(from_lower) <= len(from_zero)

    def test_unary_model_single_point(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0),), (Factor("f1", {"x1": 1.0}, 1.0, 2.0),)
        )
        graph = build_factor_graph(model)
        points = rate_trace(graph, model)
        assert len(points) == 1
        assert points[0].distance == 0.0

    def test_csv_round_trip(self, loop_graph, loop_model):
        points = rate_trace(loop_graph, loop_model, InitStrategy.upper_bound())
        text = trace_to_csv(points)
        lines = text.splitlines()
        assert lines[0] == "iter,part_metric_distance,mean_delta"
        assert len(lines) == len(points) + 1
        for point, line in zip(points, lines[1:]):
            it, distance, mean_delta = line.split(",")
            assert int(it) == point.iteration
            assert float(distance) == point.distance
            assert float(mean_delta) == point.mean_delta


class TestCertify:
    def test_loop_model_certificate(self, loop_graph, loop_model):
        cert = certify(loop_graph, loop_model)
        assert cert.topology.kind == TOPOLOGY_SINGLE_LOOP
        assert cert.verdict == VERDICT_CONVERGES
        assert cert.basis == BASIS_TOPOLOGY
        assert cert.describe() == "certified-converges (topology)"
        assert cert.mean_spectral_radius < 1.0
        assert not cert.walk_summability.is_walk_summable

    def test_multi_loop_spectral_basis(self):
        model = generate_random_loopy(6, seed=3)
        graph = build_factor_graph(model)
        cert = certify(graph, model)
        assert classify_topology(graph).kind == "multi-loop"
        assert cert.verdict == VERDICT_CONVERGES
        assert cert.basis == BASIS_SPECTRAL
        assert cert.mean_spectral_radius < 1.0

    def test_divergent_instance(self):
        model = generate_random_loopy(6, seed=113, coeff_range=(-6.0, 6.0))
        graph = build_factor_graph(model)
        cert = certify(graph, model)
        assert cert.verdict == VERDICT_DIVERGES
        assert cert.basis is None
        assert cert.describe() == "certified-diverges"
        assert cert.mean_spectral_radius > 1.1

    def test_certificate_carries_consistent_pieces(self, loop_graph, loop_model):
        cert = certify(loop_graph, loop_model)
        assert set(cert.bounds.lower) == set(loop_graph.fv_edges)
        assert set(cert.fixed_point.factor_to_variable) == set(loop_graph.fv_edges)
        assert cert.mean_system.edges == loop_graph.vf_edges
        assert cert.mean_spectral_radius == spectral_radius(cert.mean_system.matrix)

    def test_certify_never_builds_the_dense_q(self, loop_graph, loop_model):
        cert = certify(loop_graph, loop_model)
        assert "matrix" not in vars(cert.mean_system)

    @pytest.mark.parametrize("rho, verdict, basis", [
        (1.0 - 2e-9, VERDICT_CONVERGES, BASIS_SPECTRAL),
        (1.0 - 1e-9, VERDICT_INCONCLUSIVE, None),
        (1.0 + 1e-9, VERDICT_INCONCLUSIVE, None),
        (1.0 + 2e-9, VERDICT_DIVERGES, None),
    ])
    def test_radius_within_the_margin_of_one_is_inconclusive(self, monkeypatch, rho, verdict,
                                                              basis):
        """README: a radius within 1e-9 of 1 decides nothing."""
        monkeypatch.setattr(analysis, "_radius_bound", lambda matrix: 1.0)
        monkeypatch.setattr(analysis, "spectral_radius", lambda matrix: rho)
        model = generate_random_loopy(6, seed=3)
        cert = certify(build_factor_graph(model), model)
        assert (cert.verdict, cert.basis, cert.mean_spectral_radius) == (verdict, basis, rho)


class TestRadiusBound:
    """``_radius_bound``: a Collatz-Wielandt upper bound on rho(|Q|) >= rho(Q)."""

    @pytest.mark.parametrize("matrix", [
        [[0.0, 1.0], [0.25, 0.0]],  # periodic |Q|: plain power iteration would stall at 1
        [[0.0, 5.0], [0.0, 0.0]],  # nilpotent, with an empty row
        [[0.0, -0.9, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ])
    def test_decides_below_one_and_stays_above_the_radius(self, matrix):
        q = csr_array(np.array(matrix))
        bound = analysis._radius_bound(q)
        assert spectral_radius(q) <= bound < 1.0 - analysis.SPECTRAL_MARGIN

    def test_sign_cancellation_leaves_it_undecided(self):
        # rho(Q) = 0.6 sqrt 2 < 1, but |Q| has radius 1.2: only the dense path decides.
        q = csr_array(np.array([[0.6, 0.6], [-0.6, 0.6]]))
        assert analysis._radius_bound(q) >= 1.2
        assert spectral_radius(q) == pytest.approx(0.6 * math.sqrt(2.0), rel=1e-12)

    def test_edge_cases(self):
        assert analysis._radius_bound(csr_array((0, 0))) == 0.0
        assert analysis._radius_bound(csr_array(np.array([[np.nan, 1.0], [1.0, 0.0]]))) == math.inf
        huge = csr_array(np.array([[0.0, 1e300], [1e300, 0.0]]))
        assert analysis._radius_bound(huge) >= 1e300

    def test_bounds_every_generated_mean_system(self):
        for system in generated_mean_systems():
            assert analysis._radius_bound(system.sparse) >= spectral_radius(system.sparse)

    @pytest.mark.parametrize("size, seed, coeff, frozen", [
        (40, 2, 2.0, "0.9780338587843558"),
        (60, 3, 6.0, "0.9993182426363862"),
        (60, 1, 6.0, "1.0198225602804594"),  # all BOUND_MAX_ITERS steps, undecided
        (6, 113, 6.0, "1.2263177197506812"),  # certified to diverge
    ])
    def test_frozen_bits_on_multi_loop_models(self, size, seed, coeff, frozen):
        model = generate_model("random-loopy", size, seed, (-coeff, coeff))
        assert repr(certify(build_factor_graph(model), model).mean_radius_bound) == frozen


def refuse_eigensolve(matrix):
    raise AssertionError("the dense eigensolve must not run")


def count_eigensolves(monkeypatch):
    """Wrap ``analysis.spectral_radius``; returns the list of matrices it is called on."""
    real = analysis.spectral_radius
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(analysis, "spectral_radius", counting)
    return calls


def loopy_certificate():
    """A ``random-loopy`` certificate that the Collatz-Wielandt bound decides."""
    model = generate_model("random-loopy", 200, 7)
    return certify(build_factor_graph(model), model)


def same_mean_system(a, b):
    """Q and b hold the same bits."""
    return (np.array_equal(a.sparse.indptr, b.sparse.indptr)
            and np.array_equal(a.sparse.indices, b.sparse.indices)
            and a.sparse.data.tobytes() == b.sparse.data.tobytes()
            and a.offset.tobytes() == b.offset.tobytes())


def topology_certificate(kind="tree"):
    """A certificate that topology decides, built with Q refused."""
    model = generate_model(kind, 200, 7)
    graph = build_factor_graph(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "build_mean_system", pytest.fail)
        cert = certify(graph, model)
    assert cert.basis == BASIS_TOPOLOGY
    return cert


class TestIdentityEquality:
    """Records that hold arrays compare and hash by identity, computing nothing."""

    def test_records_compare_and_hash_by_identity(self):
        lazy = ("mean_system", "walk_summability", "mean_spectral_radius")
        for kind in ("tree", "random-loopy"):
            model = generate_model(kind, 200, 7)
            graph = build_factor_graph(model)
            a, b = certify(graph, model), certify(graph, model)
            unset = [name for name in lazy if vars(a)[name] is None]
            assert "walk_summability" in unset and "mean_spectral_radius" in unset
            assert (a == a, a == b, a != b) == (True, False, True)
            assert hash(a) == hash(a) and len({a, b}) == 2
            assert [vars(a)[name] for name in unset] == [None] * len(unset)

        fixed_point = fixed_point_precisions(graph, model)
        for build in (sparse_gmrf, lingauss_to_gmrf, dense_posterior,
                      lambda model: build_mean_system(graph, model, fixed_point)):
            a, b = build(model), build(model)
            assert (a == a, a == b) == (True, False)
            assert hash(a) == hash(a) and len({a, b}) == 2


class TestLazyCertificate:
    """``certify`` runs the dense eigensolve only when nothing cheaper decides."""

    @pytest.mark.parametrize("kind, basis", [
        ("random-loopy", BASIS_SPECTRAL),
        ("tree", BASIS_TOPOLOGY),
        ("single-loop-plus-forest", BASIS_TOPOLOGY),
    ])
    def test_no_eigensolve_when_the_bound_or_topology_decides(self, kind, basis, monkeypatch):
        model = generate_model(kind, 200, 7)
        monkeypatch.setattr(analysis, "spectral_radius", refuse_eigensolve)
        cert = certify(build_factor_graph(model), model)
        assert (cert.verdict, cert.basis) == (VERDICT_CONVERGES, basis)
        assert vars(cert)["mean_spectral_radius"] is None
        if basis == BASIS_SPECTRAL:
            assert cert.mean_radius_bound < 1.0 - analysis.SPECTRAL_MARGIN
        else:
            assert cert.mean_radius_bound is None

    def test_radius_is_computed_once_on_first_read(self, monkeypatch):
        real = analysis.spectral_radius
        calls = count_eigensolves(monkeypatch)
        cert = loopy_certificate()
        assert calls == []
        first = cert.mean_spectral_radius
        assert cert.mean_spectral_radius is first
        assert len(calls) == 1 and calls[0] is cert.mean_system.sparse
        expected = real(cert.mean_system.matrix)
        assert np.float64(first).tobytes() == np.float64(expected).tobytes()
        assert first <= cert.mean_radius_bound

    def test_construction_replace_and_repr_need_no_eigensolve(self, monkeypatch):
        cert = loopy_certificate()
        monkeypatch.setattr(analysis, "spectral_radius", refuse_eigensolve)
        pieces = {f.name: vars(cert)[f.name] for f in dataclasses.fields(cert)}
        assert pieces["mean_spectral_radius"] is None
        assert "mean_spectral_radius=None" in repr(cert)
        assert ConvergenceCertificate.mean_spectral_radius is None  # the field's default
        given = ConvergenceCertificate(**{**pieces, "mean_spectral_radius": 0.25})
        assert given.mean_spectral_radius == 0.25
        assert "mean_spectral_radius=0.25" in repr(given)
        moved = dataclasses.replace(given, verdict=VERDICT_DIVERGES, basis=None)
        assert (moved.mean_spectral_radius, moved.verdict) == (0.25, VERDICT_DIVERGES)
        # Passing the radius keeps replace from reading it, so it stays lazy.
        lazy = dataclasses.replace(cert, basis=None, mean_spectral_radius=None)
        assert vars(lazy)["mean_spectral_radius"] is None
        bare = {k: v for k, v in pieces.items() if k not in ("mean_spectral_radius",
                                                              "mean_radius_bound")}
        assert ConvergenceCertificate(**bare).mean_radius_bound is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.mean_spectral_radius = 0.5

    @pytest.mark.parametrize("kind", KINDS)
    def test_certify_computes_no_walk(self, kind, monkeypatch):
        def refuse(*args):
            raise AssertionError("certify must not compute walk-summability")

        monkeypatch.setattr(analysis, "walk_summability", refuse)
        monkeypatch.setattr(analysis, "sparse_gmrf", refuse)
        model = generate_model(kind, 200, 7)
        cert = certify(build_factor_graph(model), model)
        assert vars(cert)["walk_summability"] is None
        assert "walk_summability=None" in repr(cert)
        assert "model=" not in repr(cert)

    def test_walk_is_computed_once_on_first_read(self, monkeypatch):
        real = analysis.walk_summability
        calls = []

        def counting(gmrf):
            calls.append(gmrf)
            return real(gmrf)

        monkeypatch.setattr(analysis, "walk_summability", counting)
        model = generate_model("tree", 300, 4)
        cert = certify(build_factor_graph(model), model)
        assert calls == []
        first = cert.walk_summability
        assert cert.walk_summability is first
        assert len(calls) == 1
        expected = real(sparse_gmrf(model))
        for name in ("radius", "lower", "upper"):
            assert np.float64(getattr(first, name)).tobytes() == (
                np.float64(getattr(expected, name)).tobytes())
        assert first.is_walk_summable == expected.is_walk_summable
        assert f"walk_summability={first!r}" in repr(cert)

    def test_walk_stays_lazy_through_replace(self, monkeypatch):
        cert = loopy_certificate()
        assert ConvergenceCertificate.walk_summability is None  # the field's default
        monkeypatch.setattr(analysis, "walk_summability", pytest.fail)
        lazy = dataclasses.replace(cert, walk_summability=None, mean_spectral_radius=None,
                                   basis=None)
        assert vars(lazy)["walk_summability"] is None
        assert lazy.model is cert.model
        monkeypatch.undo()
        assert lazy.walk_summability == cert.walk_summability

    def test_walk_without_a_model_is_refused(self):
        cert = dataclasses.replace(loopy_certificate(), walk_summability=None,
                                   mean_spectral_radius=None, model=None)
        with pytest.raises(ValueError, match="no model"):
            cert.walk_summability

    @pytest.mark.parametrize("kind", ["tree", "single-loop-plus-forest"])
    def test_topology_builds_q_on_first_read(self, kind):
        cert = topology_certificate(kind)
        assert vars(cert)["mean_system"] is None
        assert "mean_system=None" in repr(cert) and "graph=" not in repr(cert)
        first = cert.mean_system
        assert cert.mean_system is first
        assert same_mean_system(first, build_mean_system(cert.graph, cert.model,
                                                         cert.fixed_point))
        assert cert.mean_spectral_radius == spectral_radius(first.sparse)

    def test_multi_loop_builds_q_once(self, monkeypatch):
        real = analysis.build_mean_system
        built = []

        def counting(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(analysis, "build_mean_system", counting)
        cert = loopy_certificate()
        assert len(built) == 1 and vars(cert)["mean_system"] is built[0]
        cert.mean_spectral_radius
        assert len(built) == 1

    def test_mean_system_stays_lazy_through_replace(self, monkeypatch):
        cert = topology_certificate()
        monkeypatch.setattr(analysis, "build_mean_system", pytest.fail)
        lazy = dataclasses.replace(cert, mean_system=None, mean_spectral_radius=None,
                                   walk_summability=None, basis=None)
        assert vars(lazy)["mean_system"] is None
        assert lazy.graph is cert.graph and lazy.model is cert.model
        monkeypatch.undo()
        assert same_mean_system(lazy.mean_system, cert.mean_system)

    def test_mean_system_without_a_graph_is_refused(self):
        cert = dataclasses.replace(topology_certificate(), mean_system=None,
                                   mean_spectral_radius=None, walk_summability=None,
                                   graph=None)
        with pytest.raises(ValueError, match="no graph"):
            cert.mean_system

    def test_replace_of_a_lazy_certificate_reads_the_radius(self):
        cert = loopy_certificate()
        moved = dataclasses.replace(cert, verdict=VERDICT_DIVERGES)
        assert vars(moved)["mean_spectral_radius"] == spectral_radius(cert.mean_system.sparse)

    def test_diverging_model_takes_the_dense_path(self, monkeypatch):
        model = generate_random_loopy(6, seed=113, coeff_range=(-6.0, 6.0))
        real = analysis.spectral_radius
        calls = count_eigensolves(monkeypatch)
        cert = certify(build_factor_graph(model), model)
        assert len(calls) == 1
        assert cert.verdict == VERDICT_DIVERGES and cert.basis is None
        radius = vars(cert)["mean_spectral_radius"]
        assert radius == real(cert.mean_system.matrix) > 1.0 + analysis.SPECTRAL_MARGIN
        assert cert.mean_radius_bound >= radius
        assert cert.mean_spectral_radius == radius
        assert len(calls) == 1
