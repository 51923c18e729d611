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
# (see _selected_inverse_diagonal); the rest go level by level, which pays
# for every pair of a row's entries.  Fastest of 15 calls of the recursion
# in ms, one cap per process, four processes per cap in alternating cap
# order, on one core on random-loopy models (min-max over the processes):
#     n     seed   cap 4       cap 8       cap 12      cap 16      cap 32
#     1000  7      2.21-2.26   1.38-1.40   1.36-1.40   1.42-1.43   1.67-2.03
#     1000  1      2.47-2.66   1.52-1.83   1.51-1.52   1.55-1.61   2.10-2.14
#     1000  3      2.38-2.62   1.54-1.57   1.52-1.53   1.54-1.63   1.76-2.09
#     2000  7      8.39-9.51   5.76-6.22   5.61-6.03   5.63-6.20   5.97-6.68
#     2000  1      9.02-10.49  6.24-6.46   6.08-6.88   5.69-6.38   6.26-6.85
# 8 stays: 12 and 16 save a few percent at most, and with 12 none of the
# 50 models the oracle's property draws has a T (4 have one with 8).
_FLAT_WIDTH = 8


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
    a T of more than MAX_VARIABLES has been refused.  A row outside T is at
    level L when L of its ancestors are outside T: a path up the tree that
    enters T stays in it, so a level reads only T and lower levels.  The
    slots of every row outside T and of each Z[a, b] it reads are laid out
    once; a level is then a gather, two products summed by bincount and two
    scatters.  Work |T|^3 plus sum |S_j|^2 outside T, memory O(nnz + |T|^2);
    no T on pairwise forests, 254-290 rows on 1000-variable random-loopy ones.
    """
    dim = upper.shape[0]
    keys = np.repeat(np.arange(dim), np.diff(upper.indptr)) * dim + upper.indices
    values = upper.data  # U's values ride with their keys; an added key holds 0.0
    while True:
        rows, cols = np.divmod(keys, dim)
        diagonal = np.searchsorted(keys, np.arange(dim) * (dim + 1))
        off = cols != rows
        need = cols[np.minimum(diagonal + 1, len(keys) - 1)][rows[off]] * dim + cols[off]
        missing = np.unique(need[keys[np.searchsorted(keys, need)] != need])
        if not len(missing):
            break
        at = np.searchsorted(keys, missing)
        keys, values = np.insert(keys, at, missing), np.insert(values, at, 0.0)
    coeffs, inverse_pivot = -values / values[diagonal][rows], 1.0 / values[diagonal]
    first = diagonal + 1
    width = np.append(diagonal[1:], len(keys)) - first
    # Row dim stands above the roots.  T starts as the wide rows; jumps of
    # 1, 2, 4, ... up the tree add their ancestors, structures included.
    parent = np.append(np.where(width > 0, cols[np.minimum(first, len(keys) - 1)], dim), dim)
    up, in_t = parent, np.append(width > _FLAT_WIDTH, False)
    while np.any(up[in_t] != dim):
        in_t[up[in_t]] = True
        up = up[up]
    # Levels by the same jumps on the parents cut where they enter T.
    up = np.where(in_t[parent], dim, parent)
    level = (up != dim).astype(np.intp)
    while np.any(up != dim):
        level += level[up]
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
    del rows, values, parent, up  # freed before the layout below
    order = np.flatnonzero(~in_t[:dim])
    order = order[_sorted_by(level[order], dim + 1)]  # a level is below the row count
    level, w = level[order], width[order]
    counts, slot_end, pair_end = np.bincount(level), np.cumsum(w), np.cumsum(w * w)
    stops = np.cumsum(counts)
    # The layout: each row's slots end to end, level after level, then the
    # pairs (k, i) of each row's slots, k major, i in order.  Z[s_i, s_i] is
    # on the diagonal; Z[s_i, s_k] = Z[s_k, s_i], i < k, is searched once.
    starts, slots = slot_end - w, _ranges(first[order], w)
    s, u, span, head = cols[slots], coeffs[slots], np.repeat(w, w), np.repeat(starts, w)
    place = np.arange(len(slots)) - head
    grid = np.repeat(pair_end - w * w, w) + place * span  # where slot k's pairs start
    found = np.repeat(diagonal[s], span)  # Z[s_k, s_k], kept where i = k
    i, k = _ranges(head, place), np.repeat(np.arange(len(slots)), place)
    found[grid[k] + place[i]] = found[grid[i] + place[k]] = np.searchsorted(keys, s[i] * dim + s[k])
    weight = u[_ranges(head, span)]
    del s, head, place, grid, i, k  # freed before the numbering below
    # Slots and rows are numbered from the start of their level.
    begin = stops - counts  # each level's first row
    into = np.repeat(_ranges(starts - starts[begin][level], w), span)
    row_of = np.repeat(np.arange(len(order)) - begin[level], w)
    at, pivot = diagonal[order], inverse_pivot[order]
    r0 = s0 = p0 = 0
    for r1, s1, p1 in np.stack([stops, slot_end[stops - 1], pair_end[stops - 1]], 1).tolist():
        z[slots[s0:s1]] = row = np.bincount(into[p0:p1], weight[p0:p1] * z[found[p0:p1]], s1 - s0)
        z[at[r0:r1]] = pivot[r0:r1] + np.bincount(row_of[s0:s1], u[s0:s1] * row, r1 - r0)
        r0, s0, p0 = r1, s1, p1
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
    :func:`_selected_inverse_diagonal` (82-102 ms, 38 MiB at n = 10^5: README).
    """
    dim = len(model.fields.variable_ids)
    if dim > MAX_VARIABLES and (np.bincount(model.columns.edge_factor).max(initial=0) > 2 or
                                classify_topology(model.columns).kind == TOPOLOGY_MULTI_LOOP):
        raise ValueError(f"model has {dim} variables and more than one loop or a factor over "
                         f"more than two of them; the oracle caps such models at {MAX_VARIABLES}")
    gmrf = sparse_gmrf(model)
    # J is exactly symmetric, so its CSR arrays are its CSC: J.T, no copy.
    lu = splu(gmrf.information_matrix.T, permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(lu.U.diagonal() > 0):
        raise np.linalg.LinAlgError("J is not positive definite: row exchange or pivot <= 0")
    return ExactPosterior(mean=lu.solve(gmrf.potential), variable_ids=gmrf.variable_ids,
                          variance=_selected_inverse_diagonal(lu.U.tocsr())[lu.perm_c])
