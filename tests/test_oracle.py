"""Reference solver: closed forms, residual invariants, limits, and the
level-by-level Takahashi recursion against a dense inverse and the row loop
(``helpers.row_by_row_inverse_diagonal``).  The hypothesis properties of the
recursion are in ``test_properties.py``."""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from gbpkit import (
    Factor,
    LinearGaussianModel,
    Variable,
    build_factor_graph,
    classify_topology,
    dense_posterior,
    generate_model,
    generate_tree,
    lingauss_to_gmrf,
    oracle,
    run,
)
from gbpkit.generate import KINDS
from gbpkit.model import sparse_gmrf

import helpers


class TestPairClosedForm:
    def test_mean_and_covariance(self):
        # J = [[2,1],[1,2]], h = (3,3): mean = (1,1), marginal var 2/3.
        posterior = dense_posterior(helpers.pair_model(obs=3.0))
        assert posterior.mean_of("x1") == pytest.approx(1.0, abs=1e-14)
        assert posterior.mean_of("x2") == pytest.approx(1.0, abs=1e-14)
        assert posterior.variance_of("x1") == pytest.approx(2 / 3, abs=1e-14)
        assert posterior.variance_of("x2") == pytest.approx(2 / 3, abs=1e-14)

    def test_obs_scales_mean_linearly(self):
        base = dense_posterior(helpers.pair_model(obs=3.0))
        scaled = dense_posterior(helpers.pair_model(obs=6.0))
        assert scaled.mean_of("x1") == pytest.approx(2 * base.mean_of("x1"), abs=1e-12)
        assert scaled.variance_of("x1") == pytest.approx(base.variance_of("x1"), abs=1e-14)


class TestConsistency:
    def test_residual_invariant(self, loop_model):
        gmrf = lingauss_to_gmrf(loop_model)
        posterior = dense_posterior(loop_model)
        residual = gmrf.information_matrix @ posterior.mean - gmrf.potential
        assert np.max(np.abs(residual)) < 1e-12

    def test_covariance_inverts_information_matrix(self, loop_model):
        # The variances are the diagonal of J^-1.
        inverse = np.linalg.inv(lingauss_to_gmrf(loop_model).information_matrix)
        posterior = dense_posterior(loop_model)
        assert np.max(np.abs(posterior.variance - np.diag(inverse))) < 1e-12

    def test_variable_order_preserved(self, loop_model):
        posterior = dense_posterior(loop_model)
        assert posterior.variable_ids == ("x1", "x2", "x3", "x4")
        for k, vid in enumerate(posterior.variable_ids):
            assert posterior.mean_of(vid) == posterior.mean[k]
            assert posterior.variance_of(vid) == posterior.variance[k]


@pytest.mark.parametrize("bound", [2.0, 6.0])
@pytest.mark.parametrize("kind", KINDS)
class TestGeneratedModels:
    """The sparse LU and the Takahashi recursion agree with dense references."""

    @pytest.fixture
    def case(self, kind, bound):
        model = generate_model(kind, 300, seed=5, coeff_range=(-bound, bound))
        return lingauss_to_gmrf(model), dense_posterior(model)

    def test_covariance_matches_the_inverse(self, case):
        # The variances are the diagonal of the covariance J^-1.
        gmrf, posterior = case
        inverse = np.linalg.inv(gmrf.information_matrix)
        error = np.max(np.abs(posterior.variance - np.diag(inverse)))
        assert error <= 1e-12 * np.max(np.abs(inverse))

    def test_variances_are_the_diagonal(self, case):
        _, posterior = case
        variances = [posterior.variance_of(vid) for vid in posterior.variable_ids]
        assert np.array_equal(variances, posterior.variance)

    def test_mean_is_the_cholesky_solve(self, case):
        gmrf, posterior = case
        for expected in (
            cho_solve(cho_factor(gmrf.information_matrix), gmrf.potential),
            np.linalg.solve(gmrf.information_matrix, gmrf.potential),
        ):
            assert np.max(np.abs(posterior.mean - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestLimits:
    def test_empty_model(self):
        posterior = dense_posterior(LinearGaussianModel((), ()))
        assert posterior.mean.shape == (0,)
        assert posterior.variance.shape == (0,)

    def test_prior_only_model(self):
        posterior = dense_posterior(LinearGaussianModel((Variable("x1", 4.0),), ()))
        assert posterior.mean_of("x1") == 0.0
        assert posterior.variance_of("x1") == 4.0

    def test_size_cap(self, monkeypatch):
        # The cap holds for models with more than one loop, whose fill can
        # grow faster than n; they are refused before J is built or factored.
        model = generate_model("random-loopy", 2001, seed=1)
        for stage in ("sparse_gmrf", "splu"):
            monkeypatch.setattr(oracle, stage, lambda *a, **k: pytest.fail("built J"))
        with pytest.raises(ValueError, match="2000"):
            dense_posterior(model)

    def test_size_cap_checked_before_dense_allocation(self):
        model = generate_model("random-loopy", 2500, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2000"):
                dense_posterior(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("arity", [2001, 40])
    def test_size_cap_on_a_forest_of_wide_factors(self, arity, monkeypatch):
        # One factor over every variable (a star) and a chain of 40-variable
        # factors are forests, but each factor is a clique in J: the first
        # makes J dense, the second puts almost every row in T.
        model = helpers.clique_chain_model(2001, arity)
        assert classify_topology(model.columns).kind == "forest"
        for stage in ("sparse_gmrf", "splu"):
            monkeypatch.setattr(oracle, stage, lambda *a, **k: pytest.fail("built J"))
        with pytest.raises(ValueError, match="2000"):
            dense_posterior(model)

    def test_wide_rows_over_the_cap_refused_before_their_block(self):
        # Rows of 33-39 entries cover all 2100 variables: T's block would
        # take 34 MiB.
        upper = helpers.superlu_factor(
            sparse_gmrf(helpers.clique_chain_model(2100, 40)).information_matrix).U.tocsr()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2000"):
                oracle._selected_inverse_diagonal(upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_peak_memory_is_linear_on_a_forest(self):
        # Z lives on the factor's closed structure, about 6,000 slots here,
        # so the peak is O(nnz): 0.8 MiB, where an n x n work array alone
        # would take 30.5 MiB.
        model = generate_tree(2000, 7)
        model.columns
        tracemalloc.start()
        try:
            dense_posterior(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("kind", ["tree", "single-loop-plus-forest"])
    def test_no_cap_on_a_forest_or_a_forest_plus_one_loop(self, kind):
        # Past the old cap of 2000 variables; on a forest GBP is exact.
        model = generate_model(kind, 20_000, seed=7)
        posterior = dense_posterior(model)
        gmrf = sparse_gmrf(model)
        residual = gmrf.information_matrix @ posterior.mean - gmrf.potential
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(gmrf.potential))
        if kind == "tree":
            beliefs = run(build_factor_graph(model), model).beliefs
            variances = np.array([beliefs.variances[vid] for vid in posterior.variable_ids])
            assert np.all(np.abs(variances - posterior.variance) <= 1e-12 * posterior.variance)

    @staticmethod
    def patched_lu(monkeypatch, change):
        """Make ``oracle.splu`` return its factorization with ``change`` applied."""
        factor = oracle.splu

        def patched(*args, **kwargs):
            lu = factor(*args, **kwargs)
            parts = SimpleNamespace(U=lu.U.toarray(), perm_r=lu.perm_r.copy(),
                                    perm_c=lu.perm_c, solve=lu.solve)
            change(parts)
            parts.U = csc_array(parts.U)
            return parts

        monkeypatch.setattr(oracle, "splu", patched)

    def test_inversion_failure_raises(self, loop_model, monkeypatch):
        def negate_last_pivot(parts):
            parts.U[-1, -1] = -parts.U[-1, -1]

        self.patched_lu(monkeypatch, negate_last_pivot)
        with pytest.raises(LinAlgError, match="positive definite"):
            dense_posterior(loop_model)

    def test_row_exchange_raises(self, loop_model, monkeypatch):
        def swap_two_rows(parts):
            parts.perm_r[[0, 1]] = parts.perm_r[[1, 0]]

        self.patched_lu(monkeypatch, swap_two_rows)
        with pytest.raises(LinAlgError, match="positive definite"):
            dense_posterior(loop_model)

    def test_dpotri_failure_raises(self, monkeypatch):
        # Rows wider than _FLAT_WIDTH put the top of the tree through dpotri.
        monkeypatch.setattr(oracle, "dpotri", lambda factor, **kwargs: (factor, 1))
        with pytest.raises(LinAlgError, match="positive definite"):
            dense_posterior(generate_model("random-loopy", 300, seed=5))

    def test_cancelled_fill_is_restored(self):
        # Eliminating x0 fills (1, 3) with 0.5 - 1 * 1 / 2 = 0 exactly, so U
        # drops the entry, yet row 0 reads Z[1, 3], which is not zero.
        matrix = np.array([[2.0, 1, 0, 1], [1, 3, 1, 0.5], [0, 1, 3, 1], [1, 0.5, 1, 3]])
        lu = splu(csc_array(matrix), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        upper = lu.U.tocsr()
        assert upper.indices[upper.indptr[1]:upper.indptr[2]].tolist() == [1, 2]
        inverse = np.linalg.inv(matrix)
        assert inverse[1, 3] != 0
        variance = oracle._selected_inverse_diagonal(upper)
        assert np.max(np.abs(variance - np.diag(inverse))) <= 1e-14

    def test_unknown_variable_lookup(self, loop_model):
        posterior = dense_posterior(loop_model)
        with pytest.raises(KeyError):
            posterior.mean_of("nope")
        with pytest.raises(KeyError):
            posterior.variance_of("nope")
        assert type(posterior.mean_of("x1")) is float and type(posterior.variance_of("x1")) is float

    def test_invalid_model_rejected(self):
        model = LinearGaussianModel(
            (Variable("x1", -1.0),), (Factor("f1", {"x1": 1.0}, 1.0, 0.0),)
        )
        with pytest.raises(Exception):
            dense_posterior(model)


class TestSelectedInverse:
    """The level-by-level recursion against a dense inverse and the row loop."""

    def test_wide_and_narrow_rows_in_one_level(self):
        # In the natural order rows 0 to m - 1 all have row m as parent, so
        # they make one level of m = 8 rows: row 0 spans the clique on m,
        # m + 1, ... (wider than the level step takes, so it joins T with its
        # ancestors), the others hold column m alone and share level 0.
        rows = 8
        dim = rows + oracle._FLAT_WIDTH + 2
        rng = np.random.default_rng(3)
        pattern = np.zeros((dim, dim), dtype=bool)
        pattern[rows:, rows:] = pattern[0, rows:] = pattern[:rows, rows] = True
        pattern |= pattern.T
        matrix = np.where(pattern, rng.uniform(-0.1, 0.1, (dim, dim)), 0.0)
        matrix = (matrix + matrix.T) / 2
        np.fill_diagonal(matrix, dim)
        upper = helpers.superlu_factor(matrix, "NATURAL").U.tocsr()
        starts, widths = upper.indptr[:rows], np.diff(upper.indptr)[:rows] - 1
        assert upper.indices[starts + 1].tolist() == [rows] * rows
        assert widths[0] > oracle._FLAT_WIDTH and widths[1:].tolist() == [1] * (rows - 1)
        variance = oracle._selected_inverse_diagonal(upper)
        expected = np.diag(np.linalg.inv(matrix))
        assert np.all(np.abs(variance - expected) <= 1e-12 * expected)

    def test_top_closed_upward(self, monkeypatch):
        # In the natural order row 1 spans 2 and the clique C = 4, 5, ..., so
        # it is wide; its parent 2 spans 3 and C, and 3, its own parent, is
        # not in row 1's structure.  The last of C heads a chain of three
        # rows that no wide row's structure holds: only the upward closure
        # puts them in T, which then holds every row but the leaf 0.
        width = oracle._FLAT_WIDTH
        clique = list(range(4, 4 + width))
        chain = list(range(clique[-1] + 1, clique[-1] + 4))
        dim = chain[-1] + 1
        pattern = np.zeros((dim, dim), dtype=bool)
        pattern[1, [2, *clique]] = pattern[2, [3, *clique]] = True
        pattern[np.ix_(clique, clique)] = True
        pattern[[clique[-1], *chain[:-1]], chain] = pattern[0, chain[0]] = True
        pattern |= pattern.T
        rng = np.random.default_rng(5)
        matrix = np.where(pattern, rng.uniform(-0.1, 0.1, (dim, dim)), 0.0)
        matrix = (matrix + matrix.T) / 2
        np.fill_diagonal(matrix, dim)
        upper = helpers.superlu_factor(matrix, "NATURAL").U.tocsr()
        assert upper.indices[upper.indptr[1]:upper.indptr[2]].tolist() == [1, 2, *clique]
        assert upper.indices[upper.indptr[2]:upper.indptr[3]].tolist() == [2, 3, *clique]
        sizes, dpotri = [], oracle.dpotri
        monkeypatch.setattr(oracle, "dpotri", lambda factor, **kwargs: (
            sizes.append(len(factor)), dpotri(factor, **kwargs))[1])
        variance = oracle._selected_inverse_diagonal(upper)
        assert sizes == [dim - 1]
        expected = np.diag(np.linalg.inv(matrix))
        assert np.all(np.abs(variance - expected) <= 1e-12 * expected)

    @pytest.mark.parametrize("model, size, seed", [
        *(pytest.param(kind, 2000, 7, id=kind) for kind in (*KINDS, "chain")),
        *(pytest.param("random-loopy", 1000, seed, id=f"random-loopy-1000-{seed}")
          for seed in (1, 3, 11))])
    def test_matches_the_row_loop(self, model, size, seed):
        # A chain's elimination tree has about n/2 levels of 1-2 rows, one
        # step each; the generated forests' trees have 16-20 levels at
        # n = 2000, and random-loopy's wide rows and their ancestors make T,
        # the dense top (271-290 rows at n = 1000, 522 at n = 2000), with
        # 5-7 levels below it.
        model = helpers.chain_model(size) if model == "chain" else generate_model(model, size, seed)
        upper = helpers.superlu_factor(sparse_gmrf(model).information_matrix).U.tocsr()
        expected = helpers.row_by_row_inverse_diagonal(upper)
        variance = oracle._selected_inverse_diagonal(upper)
        assert np.all(np.abs(variance - expected) <= 1e-14 * expected)
