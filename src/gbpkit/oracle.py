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


# Rows with at most this many entries past the diagonal share one flat step
# per tree level; each wider row keeps its own block gather and BLAS product.
# The flat step's temporaries grow with the square of a row's width, while a
# row of its own pays one gather, one product and a fixed Python cost.
# Measured on one core (fastest of 21 calls): on 1000-variable random-loopy
# models, whose rows reach 146-164 entries near the roots, caps from 8 to 64
# take the same time, 96 up to 2x longer and no cap 1.4-2.1x; trees and
# forests plus one loop (rows of 1-2 entries) gain the same at any cap.
_FLAT_WIDTH = 32

# A level with fewer rows than this goes one row at a time: the flat step
# costs some twenty array operations whatever its size, about what six rows
# of 1-2 entries cost one by one.  Measured on one core (median of 15) on
# 2000-variable "spiders", k paths joined at one end, whose minimum-degree
# elimination trees have about 2000/k levels of k rows: the two schedules
# take the same time at k = 6, the flat step 1.3x longer at k = 4 and 0.78x
# at k = 8.  A chain, whose tree has n/2 levels of 1-2 rows, took about 3x
# the row-by-row time with every level flat.
_FLAT_ROWS = 8


def _ranges(starts, counts):
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, end to end."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _selected_inverse_diagonal(upper) -> np.ndarray:
    """diag(B^-1) for symmetric B = L U, by the Takahashi recursion on U = D L^T.

    With u = -U[j, S_j] / d_j over row j's structure S_j:
    Z[j, S_j] = u Z[S_j, S_j] and Z[j, j] = 1/d_j + u . Z[j, S_j].  That reads
    Z only on S once each row's columns past its first are in that column's
    row; U drops exact cancellations, so the closure loop adds them back.
    Then S_j holds only ancestors of j in the elimination tree, whose parent
    links run from each row to its first column past the diagonal.  So the
    rows go one tree level per step, from the roots down, with each row's
    depth found by pointer jumping in log2(depth) array steps.  In a level of
    at least _FLAT_ROWS rows the narrow ones go as flat (row, a, b) products
    summed by bincount; wide rows, and every row of a smaller level, go one
    at a time (see _FLAT_WIDTH and _FLAT_ROWS).  The work is sum |S_j|^2 in an
    n x n array: O(n) when the order makes no fill.  A shallow tree takes a
    few flat steps; a deep, thin one (a chain has n/2 levels) takes the
    row-by-row loop's Python iterations, one per row.
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
    coeffs, inverse_pivot = -values / values[diagonal][rows], 1.0 / values[diagonal]
    first, bounds = diagonal + 1, np.append(diagonal, len(keys)).tolist()
    width = np.append(diagonal[1:], len(keys)) - first
    # Depths in the elimination tree by pointer jumping; row dim stands above the roots.
    up = np.append(np.where(width > 0, cols[np.minimum(first, len(keys) - 1)], dim), dim)
    depth = (up != dim).astype(np.intp)
    while np.any(up != dim):
        depth += depth[up]
        up = up[up]
    order = np.argsort(depth[:dim], kind="stable")
    z = np.zeros((dim, dim))
    flat = z.reshape(-1)
    start, rows_in_order = 0, order.tolist()
    for stop in np.cumsum(np.bincount(depth[:dim])).tolist():
        if stop - start < _FLAT_ROWS:
            one, narrow = rows_in_order[start:stop], order[:0]
        else:
            level = order[start:stop]
            wide = width[level] > _FLAT_WIDTH
            one, narrow = level[wide].tolist(), level[~wide]
        start = stop
        for j in one:
            s, u = cols[bounds[j] + 1:bounds[j + 1]], coeffs[bounds[j] + 1:bounds[j + 1]]
            # Two index arrays gather a few entries faster, flat offsets many.
            row = u @ (z[s[:, None], s] if len(s) <= _FLAT_WIDTH else flat[s[:, None] * dim + s])
            z[j, s] = z[s, j] = row
            z[j, j] = inverse_pivot[j] + u @ row
        if len(narrow):
            # Slot k of a row pairs with each slot i of that row, i in order.
            w = width[narrow]
            slots = _ranges(first[narrow], w)
            s, u, j = cols[slots], coeffs[slots], rows[slots]
            pairs = np.repeat(w, w)
            k = np.repeat(np.arange(len(slots)), pairs)
            i = _ranges(np.repeat(np.cumsum(w) - w, w), pairs)
            row = np.bincount(k, u[i] * flat[s[i] * dim + s[k]], len(slots))
            flat[j * dim + s] = flat[s * dim + j] = row
            flat[narrow * (dim + 1)] = inverse_pivot[narrow] + np.bincount(
                np.repeat(np.arange(len(narrow)), w), u * row, len(narrow))
    return np.diagonal(z).copy()


def dense_posterior(model: LinearGaussianModel) -> ExactPosterior:
    """Exact means and marginal variances from one sparse LU of J, size capped first.

    J (:func:`sparse_gmrf`) is factored in a minimum-degree order with diagonal
    pivots, refused (``LinAlgError``) on a row exchange or a pivot <= 0.  Means
    by the LU solve against h; variances by :func:`_selected_inverse_diagonal`.
    """
    dim = len(model.fields.variable_ids)
    if dim > MAX_VARIABLES:
        raise ValueError(f"model has {dim} variables, dense oracle caps at {MAX_VARIABLES}")
    gmrf = sparse_gmrf(model)
    lu = splu(gmrf.information_matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(lu.U.diagonal() > 0):
        raise np.linalg.LinAlgError("J is not positive definite: row exchange or pivot <= 0")
    return ExactPosterior(mean=lu.solve(gmrf.potential), variable_ids=gmrf.variable_ids,
                          variance=_selected_inverse_diagonal(lu.U.tocsr())[lu.perm_c])
