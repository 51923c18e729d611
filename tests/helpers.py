"""Shared builders for the test suite."""
from __future__ import annotations

import gc
import math
import numbers
import tracemalloc
import weakref
from collections import deque

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from gbpkit import (STATUS_CONVERGED, STATUS_DIVERGED, Factor, FactorGraph, InvalidModelError,
                    LinearGaussianModel, Variable, analysis, engine)
from gbpkit.engine import DIVERGENCE_GUARD
from gbpkit.model import ModelColumns

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def traced_peak(call):
    """``call()``'s result and the peak, in bytes, of what it allocated and
    held at once, as ``tracemalloc`` counts from the call's start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def edge_arrays(peak: int, count: int) -> float:
    """A ``traced_peak`` byte count as a number of E-sized float64 arrays,
    E = ``count``: the unit the memory guards bound, so a failing guard
    prints the count it measured."""
    return peak / (8 * count)


def freed_without_gc(build) -> bool:
    """Whether the graph that ``build()`` returns is freed once dropped, with
    the cyclic garbage collector off: reference counts alone free it only
    if nothing it holds refers back to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        graph = build()
        dropped = weakref.ref(graph)
        del graph
        return dropped() is None
    finally:
        if enabled:
            gc.enable()


def loop_model(observations=(1.0, 2.0, 3.0)) -> LinearGaussianModel:
    """Four variables, three factors, a six-node loop with x3 hanging off f1.

    The canonical loopy-but-convergent instance used throughout the suite.
    Priors 6, 3, 2, 3; unit noise; coefficient rows
    (2/sqrt6, 0, 1/sqrt2, 1/sqrt3), (1/sqrt6, 1/sqrt3, 0, 0),
    (0, 1/sqrt3, 0, 1/sqrt3).  Its information matrix has unit diagonal,
    which makes the walk-summability numbers easy to pin down.
    """
    variables = (
        Variable("x1", 6.0),
        Variable("x2", 3.0),
        Variable("x3", 2.0),
        Variable("x4", 3.0),
    )
    factors = (
        Factor("f1", {"x1": 2 / SQRT6, "x3": 1 / SQRT2, "x4": 1 / SQRT3}, 1.0, observations[0]),
        Factor("f2", {"x1": 1 / SQRT6, "x2": 1 / SQRT3}, 1.0, observations[1]),
        Factor("f3", {"x2": 1 / SQRT3, "x4": 1 / SQRT3}, 1.0, observations[2]),
    )
    return LinearGaussianModel(variables, factors)


def pair_model(obs: float = 3.0) -> LinearGaussianModel:
    """obs = x1 + x2 + noise with unit priors and unit noise.

    Closed forms: information matrix [[2, 1], [1, 2]], posterior mean
    (obs/3, obs/3), marginal variances 2/3, and message precisions 1/2 in
    both directions at the fixed point.
    """
    return LinearGaussianModel(
        (Variable("x1", 1.0), Variable("x2", 1.0)),
        (Factor("f1", {"x1": 1.0, "x2": 1.0}, 1.0, obs),),
    )


def chain_model(length: int = 3) -> LinearGaussianModel:
    """Unit-parameter chain x1 - f1 - x2 - f2 - x3 ..."""
    variables = tuple(Variable(f"x{k + 1}", 1.0) for k in range(length))
    factors = tuple(
        Factor(f"f{k + 1}", {f"x{k + 1}": 1.0, f"x{k + 2}": 1.0}, 1.0, float(k + 1))
        for k in range(length - 1)
    )
    return LinearGaussianModel(variables, factors)


def clique_chain_model(size: int, arity: int) -> LinearGaussianModel:
    """A forest of unit factors over ``arity`` consecutive variables, each
    sharing its last variable with the next one's first; one factor over
    every variable when ``arity >= size``."""
    variables = tuple(Variable(f"x{k + 1}", 1.0) for k in range(size))
    factors = tuple(
        Factor(f"f{n + 1}", {f"x{k + 1}": 1.0 for k in range(start, min(start + arity, size))},
               1.0, 1.0)
        for n, start in enumerate(range(0, max(size - 1, 1), arity - 1)))
    return LinearGaussianModel(variables, factors)


def overflow_model() -> LinearGaussianModel:
    """A valid model whose coefficient squared overflows: the message precision
    f1 -> x1 is inf while every message mean stays finite."""
    return LinearGaussianModel((Variable("x1", 1.0), Variable("x2", 1.0)),
                               (Factor("f1", {"x1": 1e160, "x2": 1.0}, 1.0, 1.0),))


def underflow_model() -> LinearGaussianModel:
    """A valid loopy model whose coefficient squared underflows: the fixed-point
    precision f1 -> x1 is 0.0, and ``run`` ends ``diverged`` after one sweep."""
    return LinearGaussianModel(tuple(Variable(f"x{k}", 1.0) for k in (1, 2, 3)), (
        Factor("f1", {"x1": 1e-170, "x2": 1.0}, 1.0, 1.0),
        Factor("f2", {"x2": 1.0, "x3": 1.0}, 1.0, 0.0),
        Factor("f3", {"x3": 1.0, "x1": 1.0}, 1.0, 0.0),
        Factor("f4", {"x1": 1.0, "x2": 1.0, "x3": 1.0}, 1.0, 0.0)))


def bipartite_diameter(graph: FactorGraph) -> int:
    """Longest shortest path over the bipartite node set, in edges."""
    nodes = [("v", vid) for vid in graph.variable_ids]
    nodes += [("f", fid) for fid in graph.factor_ids]
    adjacency = {node: [] for node in nodes}
    for fid, vid in graph.fv_edges:
        adjacency[("f", fid)].append(("v", vid))
        adjacency[("v", vid)].append(("f", fid))
    diameter = 0
    for start in nodes:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for peer in adjacency[node]:
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    queue.append(peer)
        if dist:
            diameter = max(diameter, max(dist.values()))
    return diameter


def dense_walk_radius(info) -> float:
    """max |eigvalsh| of the dense |I - R|, its diagonal exactly zero: the
    symmetric solve a walk-summability interval must contain."""
    scale = 1.0 / np.sqrt(np.diag(info))
    absolute = np.abs(np.eye(len(info)) - info * scale[:, None] * scale[None, :])
    np.fill_diagonal(absolute, 0.0)
    return float(np.max(np.abs(np.linalg.eigvalsh(absolute))))


def abs_radius_bound(matrix) -> float:
    """``analysis._radius_bound`` by its first form: |Q| as ``abs(matrix)``,
    which copies Q's ``indices`` and ``indptr`` with its data, the widening
    formed from the integer counts, and each Collatz-Wielandt ratio as
    ``y / x * widening``.  The reference for the bits of the shared form."""
    walk = abs(matrix)
    widening = 1.0 + analysis.UNIT_ROUNDOFF * (2 * np.diff(walk.indptr) + 16)
    best = math.inf
    for x, y in analysis._perron_iterates(walk):
        with np.errstate(over="ignore"):
            best = min(best, float(np.max(y / x * widening, initial=0.0)))
        if best < 1.0 - analysis.SPECTRAL_MARGIN:
            break
    return best


def intp_gmrf(gmrf):
    """``gmrf`` with J's CSR index arrays widened to intp, the same entries."""
    from dataclasses import replace
    from scipy.sparse import csr_array
    info = gmrf.information_matrix
    return replace(gmrf, information_matrix=csr_array(
        (info.data, info.indices.astype(np.intp), info.indptr.astype(np.intp)), shape=info.shape))


def intp_mean_system(graph: FactorGraph, model: LinearGaussianModel, fixed_point):
    """``analysis.build_mean_system``'s (Q, b) with A and B widened to intp
    index arrays, so the product is formed over 64-bit indices."""
    from scipy.sparse import csr_array
    compiled = engine.compile_model(graph, model)

    def wide(matrix):
        return csr_array((matrix.data, matrix.indices.astype(np.intp),
                          matrix.indptr.astype(np.intp)), shape=matrix.shape)

    scale = wide(analysis._scale_matrix(compiled, fixed_point))
    sparse = scale @ wide(analysis._coupling_matrix(compiled))
    sparse.eliminate_zeros()
    sparse.sort_indices()
    return sparse, scale @ compiled.pass_noise_obs.imag


def superlu_factor(matrix, order="MMD_AT_PLUS_A"):
    """SuperLU factor of a symmetric matrix as ``dense_posterior`` takes it."""
    lu = splu(csc_array(matrix), permc_spec=order, diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return lu


def row_by_row_inverse_diagonal(upper) -> np.ndarray:
    """The Takahashi recursion one row at a time, last row first: the
    unoptimised reference for ``oracle._selected_inverse_diagonal``."""
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


# --- the item-by-item loader, kept as the reference for the columnar one -----
#
# ``reference_model_from_dict`` and ``reference_find_violations`` build and
# check one Variable or Factor at a time, as the loader did before it read
# whole fields.  The one change: a number check refuses an int beyond the
# float range instead of raising OverflowError.


def _reference_is_number(x) -> bool:
    """A real number other than a bool whose float is finite."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def reference_find_violations(model: LinearGaussianModel) -> list[str]:
    problems: list[str] = []
    seen_vars: set[str] = set()
    for v in model.variables:
        if not isinstance(v.id, str) or not v.id:
            problems.append(f"variable id {v.id!r}: must be a non-empty string")
            continue
        if v.id in seen_vars:
            problems.append(f"variable {v.id!r}: duplicate id")
        seen_vars.add(v.id)
        if not _reference_is_number(v.prior_var) or v.prior_var <= 0:
            problems.append(f"variable {v.id!r}: prior_var must be a positive finite number")

    seen_factors: set[str] = set()
    for f in model.factors:
        if not isinstance(f.id, str) or not f.id:
            problems.append(f"factor id {f.id!r}: must be a non-empty string")
            continue
        if f.id in seen_factors:
            problems.append(f"factor {f.id!r}: duplicate id")
        seen_factors.add(f.id)
        if not _reference_is_number(f.noise_var) or f.noise_var <= 0:
            problems.append(f"factor {f.id!r}: noise_var must be a positive finite number")
        if not _reference_is_number(f.obs):
            problems.append(f"factor {f.id!r}: obs must be a finite number")
        for var_id, coeff in f.coeffs.items():
            if var_id not in seen_vars:
                problems.append(f"factor {f.id!r}: references unknown variable {var_id!r}")
            if not _reference_is_number(coeff):
                problems.append(f"factor {f.id!r}: coefficient for {var_id!r} must be a finite number")
            elif coeff == 0:
                problems.append(f"factor {f.id!r}: stored zero coefficient for {var_id!r}")
    return problems


def reference_model_from_dict(data) -> LinearGaussianModel:
    problems: list[str] = []
    if not isinstance(data, dict):
        raise InvalidModelError(["top level must be an object"])
    extra = set(data) - {"variables", "factors"}
    if extra:
        problems.append(f"unknown top-level keys: {sorted(extra)}")

    variables: list[Variable] = []
    raw_vars = data.get("variables")
    if not isinstance(raw_vars, list):
        problems.append("'variables' must be an array")
        raw_vars = []
    for k, item in enumerate(raw_vars):
        if not isinstance(item, dict) or set(item) != {"id", "prior_var"}:
            problems.append(f"variables[{k}]: expected keys id, prior_var")
            continue
        variables.append(Variable(**item))

    factors: list[Factor] = []
    raw_factors = data.get("factors")
    if not isinstance(raw_factors, list):
        problems.append("'factors' must be an array")
        raw_factors = []
    for k, item in enumerate(raw_factors):
        if not isinstance(item, dict) or set(item) != {"id", "coeffs", "noise_var", "obs"}:
            problems.append(f"factors[{k}]: expected keys id, coeffs, noise_var, obs")
            continue
        if not isinstance(item["coeffs"], dict):
            problems.append(f"factors[{k}]: 'coeffs' must be an object")
            continue
        factors.append(Factor(**item))
    if problems:
        raise InvalidModelError(problems)
    model = LinearGaussianModel(tuple(variables), tuple(factors))
    problems = reference_find_violations(model)
    if problems:
        raise InvalidModelError(problems)
    return model


def reference_columns(model: LinearGaussianModel) -> ModelColumns:
    """The arrays of a valid model, gathered item by item."""
    order = {v.id: k for k, v in enumerate(model.variables)}
    sizes = np.fromiter((len(f.coeffs) for f in model.factors), np.intp, len(model.factors))
    count = int(sizes.sum())
    edge_factor = np.repeat(np.arange(len(model.factors)), sizes)
    edge_var = np.fromiter((order[v] for f in model.factors for v in f.coeffs), np.intp, count)
    edge_coeff = np.fromiter((c for f in model.factors for c in f.coeffs.values()), float, count)
    fv = np.lexsort((edge_var, edge_factor))
    return ModelColumns(
        variable_ids=tuple(v.id for v in model.variables),
        factor_ids=tuple(f.id for f in model.factors),
        prior_var=np.array([v.prior_var for v in model.variables], dtype=float),
        noise_var=np.array([f.noise_var for f in model.factors], dtype=float),
        obs=np.array([f.obs for f in model.factors], dtype=float),
        edge_factor=edge_factor,
        edge_var=edge_var[fv],
        edge_coeff=edge_coeff[fv],
    )


# --- the padded read tables, kept as the reference for the jagged ones -------
#
# ``padded_reads`` builds the tables that ``FactorGraph.edge_tables`` held
# before its jagged form: each row in canonical neighbour order, padded on the
# right to the widest row with ``pad``, one past the last edge.  The passes
# below run the kernels' formulas over every column of such a table, as the
# engine did, filling the pad slot with values that add exact zeros.


def padded_reads(graph: FactorGraph):
    """(pad, vf_reads, fv_reads, belief_reads) of ``graph`` as padded tables."""
    pad = len(graph.edge_var)
    vf_to_fv = graph.vf_to_fv

    def reads(group, members, count):
        """Each sorted group's members padded, and per member the others."""
        sizes = np.bincount(group, minlength=count)
        slot = np.arange(pad) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        table = np.full((count, sizes.max(initial=0)), pad, dtype=np.intp)
        table[group, slot] = members
        cols = np.arange(max(table.shape[1] - 1, 0))
        return table, table[group[:, None], cols + (cols >= slot[:, None])]

    belief_reads, vf_reads = reads(graph.edge_var[vf_to_fv], vf_to_fv, len(graph.variable_ids))
    _, fv_reads = reads(graph.edge_factor, np.argsort(vf_to_fv), len(graph.factor_ids))
    return pad, vf_reads, fv_reads, belief_reads


def padded_variable_pass(prior_var, table, fv_prec, fv_mean=None):
    """(precisions, means or None) of every row of ``table``; pads read 0.0 and 0.0."""
    prec = np.append(fv_prec, 0.0)
    mean = None if fv_mean is None else np.append(fv_mean, 0.0)
    precision, weighted = 1.0 / prior_var, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in table.T:
            precision = precision + prec[k]
            if mean is not None:
                weighted = weighted + prec[k] * mean[k]
        return precision, None if mean is None else weighted / precision


def padded_factor_pass(graph, compiled, table, rows, vf_prec, vf_mean=None):
    """(precisions, means or None) of the ``fv_edges`` positions ``rows`` over
    the padded ``table``; pads read a 0.0 coefficient, 1.0 and 0.0.  The
    parameters come from the model's own columns, in canonical order."""
    columns = compiled.columns
    coeff = np.append(columns.edge_coeff[graph.vf_to_fv], 0.0)
    prec = np.append(vf_prec, 1.0)
    mean = None if vf_mean is None else np.append(vf_mean, 0.0)
    total_var = columns.noise_var[graph.edge_factor[rows]]
    residual = None if mean is None else columns.obs[graph.edge_factor[rows]]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in table[rows].T:
            total_var = total_var + coeff[k] * coeff[k] / prec[k]
            if residual is not None:
                residual = residual - coeff[k] * mean[k]
        target = columns.edge_coeff[rows]
        return target * target / total_var, None if residual is None else residual / target


# --- the envelope and the mean system, one read at a time -------------------
#
# Each read forms its own term from the coefficient and the precision (or
# prior variance) it reads, in canonical neighbour order.  The engine and the
# analysis form each term once per message instead; these are the reference.


def per_read_edge_bounds(graph, compiled):
    """(lower, upper) of :func:`gbpkit.engine.edge_bounds` per ``fv_edges``
    position; pads read a 0.0 coefficient and a prior variance of 1.0."""
    columns = compiled.columns
    _, _, fv_reads, _ = padded_reads(graph)
    coeff = np.append(columns.edge_coeff[graph.vf_to_fv], 0.0)
    prior = np.append(columns.prior_var[graph.edge_var[graph.vf_to_fv]], 1.0)
    noise = columns.noise_var[graph.edge_factor]
    denom = noise
    with np.errstate(over="ignore", invalid="ignore"):
        for k in fv_reads.T:
            denom = denom + coeff[k] * coeff[k] * prior[k]
        target = columns.edge_coeff * columns.edge_coeff
        return target / denom, target / noise


def per_read_mean_system(graph, compiled, star):
    """Q, dense, and b of :func:`gbpkit.analysis.build_mean_system`, entry by
    entry, from the variable-to-factor precisions ``star`` in canonical order."""
    columns = compiled.columns
    pad, vf_reads, fv_reads, _ = padded_reads(graph)
    dim = len(graph.edge_var)
    coeff = columns.edge_coeff
    vf_coeff = coeff[graph.vf_to_fv]
    obs = columns.obs[graph.edge_factor]

    def reads(table, row):
        return [k for k in table[row].tolist() if k != pad]

    m = columns.noise_var[graph.edge_factor]  # M_{k,j} per factor-to-variable edge f_k -> j
    for e in range(dim):
        for z in reads(fv_reads, e):
            m[e] = m[e] + vf_coeff[z] * vf_coeff[z] / star[z]
    q, b = np.zeros((dim, dim)), np.zeros(dim)
    for row in range(dim):
        for e in reads(vf_reads, row):
            a = 1.0 / star[row] * coeff[e] / m[e]
            b[row] = b[row] + a * obs[e]
            for z in reads(fv_reads, e):
                q[row, z] = a * vf_coeff[z]
    return q, b


# --- the stop test as one rule -----------------------------------------------
#
# The engine tests the mean delta first and the precision delta only when the
# mean delta is below the tolerance, and reads the guard off the largest mean.
# These are the rule it replaced: every element compared, both deltas taken.


def reference_diverged(precisions, means) -> bool:
    """A mean past the guard, or any non-finite precision or mean."""
    return not ((np.abs(means) <= DIVERGENCE_GUARD).all() and np.isfinite(precisions).all())


def reference_delta(old, new) -> float:
    """Largest |new - old| entry, NaN entries skipped, 0.0 when empty."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.fmax.reduce(np.abs(new - old), initial=0.0))


def reference_status(old_prec, old_mean, new_prec, new_mean, tolerance):
    """Diverged, converged when the larger delta is below ``tolerance``, or None."""
    if reference_diverged(new_prec, new_mean):
        return STATUS_DIVERGED
    if max(reference_delta(old_prec, new_prec), reference_delta(old_mean, new_mean)) < tolerance:
        return STATUS_CONVERGED
    return None


# --- the belief table, one variable at a time --------------------------------


def reference_print_beliefs(beliefs, posterior=None) -> None:
    """``cli._print_beliefs`` as it was: one ``print`` and four lookups per
    variable, the worst deviations folded with Python's ``max``."""
    def fmt(value):
        return format(value, ".12g")

    oracle = "" if posterior is None else f" {'oracle_mean':>20} {'oracle_var':>20}"
    print(f"{'variable':<12} {'mean':>20} {'variance':>20}{oracle}")
    worst_mean = 0.0
    worst_var = 0.0
    for vid in beliefs.means:
        mean, variance = beliefs.means[vid], beliefs.variances[vid]
        if posterior is not None:
            exact_mean, exact_var = posterior.mean_of(vid), posterior.variance_of(vid)
            worst_mean = max(worst_mean, abs(mean - exact_mean))
            worst_var = max(worst_var, abs(variance - exact_var))
            oracle = f" {fmt(exact_mean):>20} {fmt(exact_var):>20}"
        print(f"{vid:<12} {fmt(mean):>20} {fmt(variance):>20}{oracle}")
    if posterior is not None:
        print(f"max |mean - oracle_mean|: {fmt(worst_mean)}")
        print(f"max |variance - oracle_var|: {fmt(worst_var)}")


# --- the edge tables, rebuilt with numpy's comparison sort -------------------


def reference_edge_tables(graph: FactorGraph):
    """(vf_to_fv, {name: (order, rank, columns)}) of ``graph``'s edge tables,
    derived row by row from the edge arrays with ``np.argsort(kind="stable")``
    where the package orders small integer keys by radix."""
    vf_to_fv = np.argsort(graph.edge_var, kind="stable")
    own_fv, own_vf = vf_to_fv.tolist(), np.argsort(vf_to_fv, kind="stable").tolist()
    var_of, factor_of = graph.edge_var.tolist(), graph.edge_factor.tolist()
    into = [[] for _ in graph.variable_ids]  # fv_edges positions, in canonical factor order
    for p in own_fv:
        into[var_of[p]].append(p)
    scope = [[] for _ in graph.factor_ids]  # vf_edges positions, in canonical variable order
    for p, f in enumerate(factor_of):
        scope[f].append(own_vf[p])
    # Row k of vf_pass is vf_edges[k]; row p of fv_pass is fv_edges[p].
    vf_rows = [[q for q in into[var_of[p]] if q != p] for p in own_fv]
    fv_rows = [[q for q in scope[f] if q != own_vf[p]] for p, f in enumerate(factor_of)]

    def ranked(rows):
        order = np.argsort(-np.array([len(row) for row in rows], dtype=np.intp), kind="stable")
        return order, np.argsort(order, kind="stable")

    def table(rows, order, rank):
        width = max(map(len, rows), default=0)
        columns = tuple(np.array([rows[r][k] for r in order.tolist() if len(rows[r]) > k],
                                 dtype=np.intp) for k in range(width))
        return order, rank, columns

    (vf_order, vf_rank), (fv_order, fv_rank) = ranked(vf_rows), ranked(fv_rows)
    # A pass reads the other pass's output, so its reads are ranks in that pass.
    vf_ranks, fv_ranks = vf_rank.tolist(), fv_rank.tolist()
    return vf_to_fv, {
        "vf_pass": table([[fv_ranks[q] for q in row] for row in vf_rows], vf_order, vf_rank),
        "fv_pass": table([[vf_ranks[q] for q in row] for row in fv_rows], fv_order, fv_rank),
        "belief_reads": table(into, *ranked(into)),
    }
