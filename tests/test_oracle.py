"""Dense reference solver: closed forms, residual invariants, and limits."""
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

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
        gmrf = lingauss_to_gmrf(loop_model)
        posterior = dense_posterior(loop_model)
        product = gmrf.information_matrix @ posterior.covariance
        assert np.max(np.abs(product - np.eye(4))) < 1e-12

    def test_covariance_symmetric(self, loop_model):
        cov = dense_posterior(loop_model).covariance
        assert np.array_equal(cov, cov.T)

    def test_variable_order_preserved(self, loop_model):
        posterior = dense_posterior(loop_model)
        assert posterior.variable_ids == ("x1", "x2", "x3", "x4")
        for k, vid in enumerate(posterior.variable_ids):
            assert posterior.mean_of(vid) == posterior.mean[k]
            assert posterior.variance_of(vid) == posterior.covariance[k, k]


@pytest.mark.parametrize("bound", [2.0, 6.0])
@pytest.mark.parametrize("kind", KINDS)
class TestGeneratedModels:
    """One Cholesky factor gives the mean by solve and the covariance by potri."""

    @pytest.fixture
    def case(self, kind, bound):
        model = generate_model(kind, 300, seed=5, coeff_range=(-bound, bound))
        return lingauss_to_gmrf(model), dense_posterior(model)

    def test_covariance_matches_the_inverse(self, case):
        gmrf, posterior = case
        inverse = np.linalg.inv(gmrf.information_matrix)
        error = np.max(np.abs(posterior.covariance - inverse))
        assert error <= 1e-12 * np.max(np.abs(inverse))

    def test_covariance_exactly_symmetric(self, case):
        _, posterior = case
        assert np.array_equal(posterior.covariance, posterior.covariance.T)

    def test_variances_are_the_diagonal(self, case):
        _, posterior = case
        variances = [posterior.variance_of(vid) for vid in posterior.variable_ids]
        assert np.array_equal(variances, np.diag(posterior.covariance))

    def test_mean_is_the_cholesky_solve(self, case):
        gmrf, posterior = case
        expected = cho_solve(cho_factor(gmrf.information_matrix), gmrf.potential)
        assert np.array_equal(posterior.mean, expected)


class TestLimits:
    def test_empty_model(self):
        posterior = dense_posterior(LinearGaussianModel((), ()))
        assert posterior.mean.shape == (0,)
        assert posterior.covariance.shape == (0, 0)

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

    def test_inversion_failure_raises(self, loop_model, monkeypatch):
        monkeypatch.setattr(oracle, "dpotri", lambda c, **flags: (c, 1))
        with pytest.raises(LinAlgError):
            dense_posterior(loop_model)

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
