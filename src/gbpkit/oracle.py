"""Exact posterior by dense factorization, the reference the engine is judged against."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import LinearGaussianModel, lingauss_to_gmrf

MAX_VARIABLES = 2000


@dataclass(frozen=True)
class ExactPosterior:
    """Posterior mean vector and covariance matrix in canonical variable order."""

    mean: np.ndarray
    covariance: np.ndarray
    variable_ids: tuple[str, ...]

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {vid: k for k, vid in enumerate(self.variable_ids)}

    def mean_of(self, var_id: str) -> float:
        return float(self.mean[self._positions[var_id]])

    def variance_of(self, var_id: str) -> float:
        k = self._positions[var_id]
        return float(self.covariance[k, k])


def dense_posterior(model: LinearGaussianModel) -> ExactPosterior:
    """Solve the information form directly via Cholesky.

    Cubic in the variable count, hence the hard cap; it exists to check
    message passing, not to replace it.  A factorization failure would
    mean the information matrix lost positive definiteness, impossible
    for a validated model, so the scipy error is allowed to surface.
    """
    gmrf = lingauss_to_gmrf(model)
    dim = gmrf.information_matrix.shape[0]
    if dim > MAX_VARIABLES:
        raise ValueError(f"model has {dim} variables, dense oracle caps at {MAX_VARIABLES}")
    if dim == 0:
        return ExactPosterior(
            mean=np.zeros(0), covariance=np.zeros((0, 0)), variable_ids=()
        )
    factorization = cho_factor(gmrf.information_matrix)
    mean = cho_solve(factorization, gmrf.potential)
    covariance = cho_solve(factorization, np.eye(dim))
    covariance = (covariance + covariance.T) / 2.0
    return ExactPosterior(mean=mean, covariance=covariance, variable_ids=gmrf.variable_ids)
