"""Exact posterior by sparse factorization, the reference the engine is judged against."""
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotri
from scipy.sparse.linalg import splu

from .model import (TOPOLOGY_MULTI_LOOP, LinearGaussianModel, _ranges, _sorted_by,
                    classify_topology, sparse_gmrf)

MAX_VARIABLES = 2000


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class ExactPosterior:
    """Posterior means and marginal variances in canonical variable order.
    ``mean_of`` and ``variance_of`` read dicts of Python floats, each built
    on its first lookup."""

    mean: np.ndarray
    variance: np.ndarray
    variable_ids: tuple[str, ...]

    @cached_property
    def _means(self) -> dict[str, float]:
        return dict(zip(self.variable_ids, self.mean.tolist()))

    @cached_property
    def _variances(self) -> dict[str, float]:
        return dict(zip(self.variable_ids, self.variance.tolist()))

    def mean_of(self, var_id: str) -> float:
        return self._means[var_id]

    def variance_of(self, var_id: str) -> float:
        return self._variances[var_id]


# Rows with more than this many entries past the diagonal and every ancestor
# of those make T, the top of the elimination tree that one dpotri inverts
# (see _selected_inverse_diagonal); the rest share one flat step per tree
# level, which pays for every pair of a row's entries.  Fastest of 15 calls
# of the recursion in ms, the caps alternated call by call, three sweeps, on
# one core on 1000-variable random-loopy models:
#     seed   cap 8        cap 16       cap 32
#     7      3.61-3.80    3.95-4.15    4.67-4.86
#     1      4.40-4.56    4.45-4.50    5.11-5.29
#     3      4.29-4.66    4.46-4.63    5.00-5.20
# At n = 2000 (seeds 7 and 1) 8 and 16 were within 4%, 32 took 1.1-1.15x.
# T holds 254-290 rows at n = 1000 with cap 8; on a tree it is empty.
_FLAT_WIDTH = 8

# A level with fewer rows than this goes one row at a time: the flat step
# costs some twenty array operations whatever its size, about what six rows
# of 1-2 entries cost one by one.  Measured on one core (median of 15) on
# 2000-variable "spiders", k paths joined at one end, whose minimum-degree
# elimination trees have about 2000/k levels of k rows: the two schedules
# take the same time at k = 6, the flat step 1.3x longer at k = 4 and 0.78x
# at k = 8.  A chain, whose tree has n/2 levels of 1-2 rows, took about 3x
# the row-by-row time with every level flat.
_FLAT_ROWS = 8


def _selected_inverse_diagonal(upper) -> np.ndarray:
    """diag(B^-1) for symmetric B = L U, by the Takahashi recursion on U = D L^T.

    With u = -U[j, S_j] / d_j over row j's structure S_j:
    Z[j, S_j] = u Z[S_j, S_j] and Z[j, j] = 1/d_j + u . Z[j, S_j].  Once each
    row's columns past its first are in that column's row (the closure loop
    adds back the entries U drops as exact cancellations), any a < b in S_j
    has b in S_a.  So Z is read and written only on the closed structure: z
    keeps Z[a, b], a <= b, at the slot of key a * dim + b.  S_j holds only
    ancestors of j in the elimination tree (parent: the first column past the
    diagonal).  T, the rows wider than _FLAT_WIDTH and all their ancestors,
    holds the structure of each of its rows, so U[T, not T] = 0 and Z[T, T]
    is the inverse of U_TT^T D_T^-1 U_TT: one dpotri on D_T^-1/2 U_TT, once
    a T of more than MAX_VARIABLES has been refused.  The rows outside T go
    one tree level per step, from the roots down: a level of at least
    _FLAT_ROWS of them as flat (row, a, b) products summed by bincount, a
    smaller one a row at a time, each pair searched in z.  Work |T|^3 plus
    sum |S_j|^2 outside T, memory O(nnz + |T|^2); no T on pairwise forests.
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
    # T starts as the wide rows; jumps of 1, 2, 4, ... add their ancestors, structures included.
    up = np.append(np.where(width > 0, cols[np.minimum(first, len(keys) - 1)], dim), dim)
    depth, in_t = (up != dim).astype(np.intp), np.append(width > _FLAT_WIDTH, False)
    while np.any(up != dim):
        depth += depth[up]
        in_t[up[in_t]] = True
        up = up[up]
    tops, z = np.flatnonzero(in_t[:dim]), np.zeros(len(keys))
    if len(tops) > MAX_VARIABLES:
        raise ValueError(f"the wide rows and their ancestors span over {MAX_VARIABLES} variables")
    if len(tops):
        # U[T, not T] = 0, so Z[T, T] inverts U_TT^T D_T^-1 U_TT: one dpotri on its factor.
        slots, at = _ranges(diagonal[tops], width[tops] + 1), np.cumsum(in_t) - 1
        r, c = at[rows[slots]], at[cols[slots]]
        factor = np.zeros((len(tops),) * 2, order="F")
        factor[r, c] = values[slots] * np.sqrt(inverse_pivot[rows[slots]])
        inverse, info = dpotri(factor, overwrite_c=True)
        if info:
            raise np.linalg.LinAlgError(f"J is not positive definite: dpotri info {info}")
        z[slots] = inverse[r, c]
    outside = np.flatnonzero(~in_t[:dim])
    order = outside[_sorted_by(depth[outside], len(depth))]  # a depth is below the row count
    start, rows_in_order = 0, order.tolist()
    for stop in np.cumsum(np.bincount(depth[order])).tolist():
        if stop - start < _FLAT_ROWS:
            one, narrow = rows_in_order[start:stop], order[:0]
        else:
            one, narrow = (), order[start:stop]
        start = stop
        for j in one:
            s, u = cols[bounds[j] + 1:bounds[j + 1]], coeffs[bounds[j] + 1:bounds[j + 1]]
            if len(s) <= 1:
                row = u * z[diagonal[s]]
            else:
                grid = s[:, None] * dim + s
                row = u @ z[np.searchsorted(keys, np.minimum(grid, grid.T))]
            z[bounds[j] + 1:bounds[j + 1]] = row
            z[bounds[j]] = inverse_pivot[j] + u @ row
        if len(narrow):
            # Slot k of a row pairs with each slot i of that row, i in order.
            w = width[narrow]
            slots = _ranges(first[narrow], w)
            s, u = cols[slots], coeffs[slots]
            pairs = np.repeat(w, w)
            k = np.repeat(np.arange(len(slots)), pairs)
            i = _ranges(np.repeat(np.cumsum(w) - w, w), pairs)
            a, b = s[i], s[k]
            found = z[np.searchsorted(keys, np.minimum(a * dim + b, b * dim + a))]
            row = np.bincount(k, u[i] * found, len(slots))
            z[slots] = row
            z[diagonal[narrow]] = inverse_pivot[narrow] + np.bincount(
                np.repeat(np.arange(len(narrow)), w), u * row, len(narrow))
    return z[diagonal]


def dense_posterior(model: LinearGaussianModel) -> ExactPosterior:
    """Exact means and marginal variances from one sparse LU of J.

    Above MAX_VARIABLES variables, refused (``ValueError``) before J is built
    unless every factor has at most two variables and the model is a forest
    or a forest plus one loop: then the fill under a minimum-degree order is
    linear in n and no row of U has more than two entries.  J is factored in
    that order with diagonal pivots, refused (``LinAlgError``) on a row
    exchange, a pivot <= 0 or a failed dpotri on the top of its elimination
    tree.  Means by the LU solve against h; variances by
    :func:`_selected_inverse_diagonal` (0.2-0.3 s, 40 MiB at n = 10^5: README).
    """
    dim = len(model.fields.variable_ids)
    if dim > MAX_VARIABLES and (np.bincount(model.columns.edge_factor).max(initial=0) > 2 or
                                classify_topology(model.columns).kind == TOPOLOGY_MULTI_LOOP):
        raise ValueError(f"model has {dim} variables and more than one loop or a factor over "
                         f"more than two of them; the oracle caps such models at {MAX_VARIABLES}")
    gmrf = sparse_gmrf(model)
    lu = splu(gmrf.information_matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(lu.U.diagonal() > 0):
        raise np.linalg.LinAlgError("J is not positive definite: row exchange or pivot <= 0")
    return ExactPosterior(mean=lu.solve(gmrf.potential), variable_ids=gmrf.variable_ids,
                          variance=_selected_inverse_diagonal(lu.U.tocsr())[lu.perm_c])
