"""Exact posterior by sparse factorization, the reference the engine is judged against."""
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .model import LinearGaussianModel, sparse_gmrf

MAX_VARIABLES = 2000


@dataclass(frozen=True)
class ExactPosterior:
    """Posterior means and marginal variances in canonical variable order."""

    mean: np.ndarray
    variance: np.ndarray
    variable_ids: tuple[str, ...]

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {vid: k for k, vid in enumerate(self.variable_ids)}

    def mean_of(self, var_id: str) -> float:
        return float(self.mean[self._positions[var_id]])

    def variance_of(self, var_id: str) -> float:
        return float(self.variance[self._positions[var_id]])


def _selected_inverse_diagonal(upper) -> np.ndarray:
    """diag(B^-1) for symmetric B = L U, by the Takahashi recursion on U = D L^T.

    Last row first, with u = -U[j, S_j] / d_j over row j's structure S_j:
    Z[j, S_j] = u Z[S_j, S_j] and Z[j, j] = 1/d_j + u . Z[j, S_j].  That reads
    Z only on S once each row's columns past its first are in that column's
    row; U drops exact cancellations, so the loop below adds them back.  The
    work is sum |S_j|^2 in an n x n array: O(n) when the order makes no fill.
    """
    dim = upper.shape[0]
    keys = given = np.repeat(np.arange(dim), np.diff(upper.indptr)) * dim + upper.indices
    while True:
        rows, cols = np.divmod(keys, dim)
        diagonal = np.searchsorted(keys, np.arange(dim) * (dim + 1))
        off = cols != rows
        need = cols[np.minimum(diagonal + 1, len(keys) - 1)][rows[off]] * dim + cols[off]
        missing = need[keys[np.searchsorted(keys, need)] != need]
        if not len(missing):
            break
        keys = np.union1d(keys, missing)
    values = np.bincount(np.searchsorted(keys, given), upper.data, len(keys))
    coeffs, bounds = -values / values[diagonal][rows], np.append(diagonal, len(keys)).tolist()
    z = np.zeros((dim, dim))
    for j in reversed(range(dim)):
        s, u = cols[bounds[j] + 1:bounds[j + 1]], coeffs[bounds[j] + 1:bounds[j + 1]]
        row = u @ z[s[:, None], s]
        z[j, s] = z[s, j] = row
        z[j, j] = 1.0 / values[bounds[j]] + u @ row
    return np.diagonal(z).copy()


def dense_posterior(model: LinearGaussianModel) -> ExactPosterior:
    """Exact means and marginal variances from one sparse LU of J, size capped first.

    J (:func:`sparse_gmrf`) is factored in a minimum-degree order with diagonal
    pivots, refused (``LinAlgError``) on a row exchange or a pivot <= 0.  Means
    by the LU solve against h; variances by :func:`_selected_inverse_diagonal`.
    """
    dim = len(model.variables)
    if dim > MAX_VARIABLES:
        raise ValueError(f"model has {dim} variables, dense oracle caps at {MAX_VARIABLES}")
    gmrf = sparse_gmrf(model)
    lu = splu(gmrf.information_matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(lu.U.diagonal() > 0):
        raise np.linalg.LinAlgError("J is not positive definite: row exchange or pivot <= 0")
    return ExactPosterior(mean=lu.solve(gmrf.potential), variable_ids=gmrf.variable_ids,
                          variance=_selected_inverse_diagonal(lu.U.tocsr())[lu.perm_c])
