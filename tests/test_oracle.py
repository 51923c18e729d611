"""Reference solver: closed forms, residual invariants, and limits."""
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
    dense_posterior,
    generate_model,
    generate_tree,
    lingauss_to_gmrf,
    oracle,
)
from gbpkit.generate import KINDS

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

    def test_size_cap(self):
        variables = tuple(Variable(f"x{k}", 1.0) for k in range(2001))
        with pytest.raises(ValueError, match="2000"):
            dense_posterior(LinearGaussianModel(variables, ()))

    def test_size_cap_checked_before_dense_allocation(self):
        model = generate_tree(2500, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2000"):
                dense_posterior(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_is_one_work_array(self):
        # The n x n work array is 30.5 MiB at n = 2000; a dense J or a
        # second n x n array would take the peak past 61 MiB.
        model = generate_tree(2000, 7)
        model.columns
        tracemalloc.start()
        try:
            dense_posterior(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34 * 2**20

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

    def test_invalid_model_rejected(self):
        model = LinearGaussianModel(
            (Variable("x1", -1.0),), (Factor("f1", {"x1": 1.0}, 1.0, 0.0),)
        )
        with pytest.raises(Exception):
            dense_posterior(model)
