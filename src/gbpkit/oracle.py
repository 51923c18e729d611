"""Exact posterior by dense factorization, the reference the engine is judged against."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from .model import LinearGaussianModel, lingauss_to_gmrf

MAX_VARIABLES = 2000
MIRROR_BLOCK = 256


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


def _mirror_upper(matrix: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower, in place, so the result is exactly symmetric.

    Block by block: one whole-matrix ``matrix.T`` read strides across
    memory and costs about three times more at n = 2000.
    """
    dim = matrix.shape[0]
    for start in range(0, dim, MIRROR_BLOCK):
        stop = min(start + MIRROR_BLOCK, dim)
        matrix[stop:, start:stop] = matrix[start:stop, stop:].T
        diagonal = matrix[start:stop, start:stop]
        np.copyto(diagonal, diagonal.T, where=np.tri(stop - start, k=-1, dtype=bool))
    return matrix


def dense_posterior(model: LinearGaussianModel) -> ExactPosterior:
    """Solve the information form directly from one Cholesky factorization.

    The variable count is checked against ``MAX_VARIABLES`` before any
    dense array is built.  J = U^T U is then factored once (about n^3/3
    flops); the mean is ``cho_solve`` against h, and the covariance is
    LAPACK ``potri`` on the same factor, in place (about 2n^3/3 flops,
    against 2n^3 for solving against the identity).  ``potri`` fills one
    triangle, which is mirrored onto the other, so the covariance is
    exactly symmetric.  Cubic in the variable count, hence the cap; it
    exists to check message passing, not to replace it.  A factorization
    failure would mean J lost positive definiteness, impossible for a
    validated model, so the scipy error is allowed to surface.
    """
    dim = len(model.variables)
    if dim > MAX_VARIABLES:
        raise ValueError(f"model has {dim} variables, dense oracle caps at {MAX_VARIABLES}")
    gmrf = lingauss_to_gmrf(model)
    if dim == 0:
        return ExactPosterior(
            mean=np.zeros(0), covariance=np.zeros((0, 0)), variable_ids=()
        )
    factorization = cho_factor(gmrf.information_matrix)  # upper: J = U^T U
    mean = cho_solve(factorization, gmrf.potential)
    inverse, info = dpotri(factorization[0], overwrite_c=True)
    if info != 0:
        raise LinAlgError(f"potri failed on the Cholesky factor of J (info {info})")
    covariance = _mirror_upper(inverse)
    return ExactPosterior(mean=mean, covariance=covariance, variable_ids=gmrf.variable_ids)
