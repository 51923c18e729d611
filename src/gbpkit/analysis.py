"""Convergence analysis for the message-passing engine.

The precision recursion is a monotone, sub-homogeneous map with a
closed-form envelope, so it has a unique fixed point reachable from any
nonnegative start.  Mean convergence is a separate linear question: with
precisions pinned at the fixed point, the stacked variable-to-factor means
evolve as v <- -Q v + b, so the means settle if and only if the spectral
radius of Q is below one.  ``certify`` packages both facts and does the
least work that decides: topology on forests and single-loop graphs, else
a Collatz-Wielandt upper bound on rho(|Q|) >= rho(Q), and only when that
bound cannot decide, a dense eigensolve.  Three fields of the certificate
are computed on first read instead: Q itself (``mean_system``) where
topology decided, a radius the verdict did not need
(``mean_spectral_radius``), and the GMRF's walk-summability
(``walk_summability``), a comparison with the other factorization that
no verdict reads.  The bound and walk-summability run the same Perron
power loop (:func:`_perron_iterates`).  Only the functions that build a
sparse matrix import scipy: the fixed point and the trace run on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import engine
from .model import (
    FactorGraph,
    GMRFModel,
    LinearGaussianModel,
    TOPOLOGY_FOREST,
    TOPOLOGY_SINGLE_LOOP,
    TopologyReport,
    classify_topology,
    sparse_gmrf,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

Edge = tuple[str, str]

VERDICT_CONVERGES = "certified-converges"
VERDICT_DIVERGES = "certified-diverges"
VERDICT_INCONCLUSIVE = "inconclusive"

BASIS_TOPOLOGY = "topology"
BASIS_SPECTRAL = "spectral"

FIXED_POINT_MAX_ITERS = 100000
SPECTRAL_MARGIN = 1e-9
UNIT_ROUNDOFF = np.finfo(float).eps / 2
TRACE_FLOOR = 1e-14
# Power iterations of the Perron loop: the mean-update bound may take
# this many before the dense eigensolve decides instead, and
# walk-summability takes them all.
BOUND_MAX_ITERS = 200


@dataclass(frozen=True)
class Bounds:
    """Closed-form per-edge envelope of factor-to-variable precisions, as
    :class:`~gbpkit.engine.ArrayMapping` views keyed by ``fv_edges``."""

    lower: engine.ArrayMapping
    upper: engine.ArrayMapping


@dataclass(frozen=True)
class FixedPoint:
    """Converged message precisions: :class:`~gbpkit.engine.ArrayMapping` views
    keyed by ``fv_edges`` and ``vf_edges`` (:func:`build_mean_system` reads the arrays)."""

    factor_to_variable: engine.ArrayMapping
    variable_to_factor: engine.ArrayMapping
    iterations: int


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class MeanUpdateSystem:
    """Linear system v <- -Q @ v + offset over variable-to-factor means.

    Q is held as ``sparse``, a CSR array with sorted indices and no
    stored zeros; ``matrix`` is its dense view, built on first read.
    Row/column order is ``edges``, the canonical variable-to-factor edge
    list, read from ``graph`` when asked for.  The fixed point solves
    (I + Q) v = offset.
    """

    sparse: csr_array
    offset: np.ndarray
    graph: FactorGraph = field(repr=False)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.vf_edges

    @cached_property
    def matrix(self) -> np.ndarray:
        """Q as a dense E x E array (8 E^2 bytes, kept once built)."""
        return self.sparse.toarray()


@dataclass(frozen=True)
class WalkSummability:
    """Radius of |I - R|: a proven interval [lower, upper] and an estimate inside it.

    ``is_walk_summable`` is None when the interval contains 1.
    """

    radius: float
    lower: float
    upper: float
    is_walk_summable: bool | None


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    distance: float
    mean_delta: float


class _LazyField:
    """Field descriptor: the value as given, else ``compute(instance)`` once, on first read.

    The value lives in the instance ``__dict__`` under the field's name,
    None until computed.  Read on the class, it gives the field's default,
    None.
    """

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return None
        value = instance.__dict__[self.name]
        if value is None:
            value = instance.__dict__[self.name] = self.compute(instance)
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.name] = value


def _model_walk(cert: "ConvergenceCertificate") -> WalkSummability:
    if cert.model is None:
        raise ValueError("walk_summability was not given and the certificate holds no model")
    return walk_summability(sparse_gmrf(cert.model))


def _graph_mean_system(cert: "ConvergenceCertificate") -> MeanUpdateSystem:
    if cert.graph is None or cert.model is None:
        raise ValueError("mean_system was not given and the certificate holds no graph "
                         "or no model")
    return build_mean_system(cert.graph, cert.model, cert.fixed_point)


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class ConvergenceCertificate:
    """What ``certify`` found, and which path decided the verdict.

    ``mean_radius_bound`` is the Collatz-Wielandt upper bound on rho(Q)
    when one was computed (multi-loop graphs only).
    Three fields are given at construction or computed on first read:
    ``mean_system``, Q and b, from ``graph``, ``model`` and
    ``fixed_point`` (``certify`` gives it only on multi-loop graphs, where
    the verdict reads it); ``mean_spectral_radius``, rho(Q) (``certify``
    gives it only when the dense path decided); and ``walk_summability``,
    from ``model`` (``certify`` never gives it; no verdict reads it).
    ``dataclasses.replace`` reads each unless it is passed, as None to
    keep the copy lazy.  ``==`` and ``hash`` go by identity: they compute nothing.
    """

    topology: TopologyReport
    bounds: Bounds
    fixed_point: FixedPoint
    verdict: str
    basis: str | None
    mean_system: MeanUpdateSystem = _LazyField(_graph_mean_system)
    walk_summability: WalkSummability = _LazyField(_model_walk)
    mean_spectral_radius: float = _LazyField(lambda cert: spectral_radius(cert.mean_system.sparse))
    mean_radius_bound: float | None = None
    model: LinearGaussianModel | None = field(default=None, repr=False)
    graph: FactorGraph | None = field(default=None, repr=False)

    def __repr__(self) -> str:
        # The generated repr would read, and so compute, the lazy fields;
        # this one shows each field as stored (an uncomputed one as None).
        shown = ", ".join(f"{f.name}={vars(self)[f.name]!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({shown})"

    def describe(self) -> str:
        if self.basis is None:
            return self.verdict
        return f"{self.verdict} ({self.basis})"


def precision_bounds(graph: FactorGraph, model: LinearGaussianModel) -> Bounds:
    lower, upper = engine.edge_bounds(engine.compile_model(graph, model))
    positions = graph.edge_tables.fv_position
    return Bounds(engine.ArrayMapping(lower, positions), engine.ArrayMapping(upper, positions))


def fixed_point_precisions(
    graph: FactorGraph,
    model: LinearGaussianModel,
    tolerance: float = engine.DEFAULT_TOLERANCE,
    init: engine.InitStrategy | None = None,
    max_iters: int = FIXED_POINT_MAX_ITERS,
) -> FixedPoint:
    """Iterate the precision recursion to its unique fixed point.

    The recursion never reads the means, so ``engine.sweeps`` sweeps the
    precisions alone until their largest change is below ``tolerance``,
    from the lower envelope by default, the fastest of the
    monotone-from-below starts.  The budget is generous because the
    recursion contracts geometrically; hitting it indicates a bug, not a
    hard instance, hence the RuntimeError.  The stop test skips NaN, so
    overflowed precisions can settle: ValueError refuses a fixed point
    with a non-finite precision, or a zero factor-to-variable one, which
    only underflow or overflow give.
    """
    engine.check_limits(tolerance, max_iters)
    compiled = engine.compile_model(graph, model)
    tables = compiled.tables
    prec, _ = engine._in_pass_order(compiled, engine.init_messages(
        graph, model, init or engine.InitStrategy.lower_bound()))
    for iterations, _, _, prec, _, outcome in engine.sweeps(
            compiled, prec, None,
            lambda old, _, new, __: engine.max_delta(old, new) < tolerance or None, max_iters):
        pass  # the unpacking drops the variable messages before the next sweep
    if outcome is None:
        raise RuntimeError("precision fixed point did not settle within the budget")
    vf_prec, _ = engine.vf_messages(compiled, prec, None)
    if not (np.isfinite(prec).all() and np.isfinite(vf_prec).all()):
        raise ValueError("precision fixed point has non-finite entries")
    if not prec.all():
        raise ValueError("precision fixed point has zero entries")
    return FixedPoint(
        factor_to_variable=engine.ArrayMapping(prec[tables.fv_pass.rank], tables.fv_position),
        variable_to_factor=engine.ArrayMapping(vf_prec[tables.vf_pass.rank], tables.vf_position),
        iterations=iterations,
    )


def _flat(arrays, dtype=np.intp) -> np.ndarray:
    """The arrays end to end; an empty ``dtype`` array when there are none."""
    return np.concatenate(arrays or (np.zeros(0, dtype),))


def _by_row(rows: np.ndarray, columns) -> tuple[np.ndarray, np.ndarray]:
    """For row ``rows[p]`` reading ``columns[k][p]``, per column k longer than
    p: CSR row pointers over ``len(rows)`` rows, and the order that sorts the
    reads, flattened column after column, by row (each row's in column order)."""
    row_of = _flat([rows[:len(col)] for col in columns])
    return (np.append(0, np.cumsum(np.bincount(row_of, minlength=len(rows)))),
            np.argsort(row_of, kind="stable"))


def _scale_values(compiled: engine.CompiledModel, fixed_point: FixedPoint) -> np.ndarray:
    """A's entries c_{k,j} / (J*_{j->f_n} M_{k,j}), flattened column after
    column of vf_pass."""
    vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
    star = fixed_point.variable_to_factor.array[vf_pass.order]
    # M_{k,j} on every factor-to-variable edge f_k -> j, in fv_pass order.
    with np.errstate(over="ignore", invalid="ignore"):
        m_kj, _ = engine._factor_sums(fv_pass.columns, compiled.pass_vf_coeff, star, None,
                                      compiled.pass_noise_obs)
    inv_out = 1.0 / star
    return _flat([inv_out[:len(k)] * compiled.pass_coeff[k] / m_kj[k] for k in vf_pass.columns],
                 float)


def _scale_matrix(compiled: engine.CompiledModel, fixed_point: FixedPoint) -> csr_array:
    """A[row, k] = c_{k,j} / (J*_{j->f_n} M_{k,j}) over the row's other factors k."""
    from scipy.sparse import csr_array  # scipy loads only on the paths that need it
    vf_pass = compiled.tables.vf_pass
    values = _scale_values(compiled, fixed_point)  # its temporaries freed before the layout's
    indptr, by_row = _by_row(vf_pass.order, vf_pass.columns)
    dim = len(vf_pass.order)
    return csr_array((values[by_row], _flat(vf_pass.columns)[by_row], indptr), shape=(dim, dim))


def _coupling_matrix(compiled: engine.CompiledModel) -> csr_array:
    """B[k, z] = c_{k,z} over f_k's other variables z: the coefficients laid
    out per variable-to-factor message z -> f_k, gathered once through the reads."""
    from scipy.sparse import csr_array
    vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
    dim = len(vf_pass.order)
    indptr, by_row = _by_row(np.arange(dim), fv_pass.columns)
    reads = _flat(fv_pass.columns)[by_row]
    return csr_array((compiled.pass_vf_coeff[reads], vf_pass.order[reads], indptr),
                     shape=(dim, dim))


def build_mean_system(
    graph: FactorGraph, model: LinearGaussianModel, fixed_point: FixedPoint
) -> MeanUpdateSystem:
    """Assemble Q, as CSR, and b for the mean recursion at the precision fixed point.

    Entry (row j->f_n, column z->f_k) is nonzero when f_k is another
    factor of j and z another variable of f_k; each such (k, z) pair
    occurs once per row, so each entry of the product below is one term:

        Q[row, col] = c_{k,j} * c_{k,z} / (J*_{j->f_n} * M_{k,j})
        M_{k,j}     = noise_var_k + sum over z of c_{k,z}^2 / J*_{z->f_k}
        b[row]      = sum over those f_k of c_{k,j} * obs_k / (J*_{j->f_n} * M_{k,j})
    """
    compiled = engine.compile_model(graph, model)
    # Q = A @ B (see _scale_matrix and _coupling_matrix).  Rows and columns
    # of Q are vf_edges positions; the inner index runs in fv_pass order,
    # and each entry of Q is one term, whatever that order.
    scale = _scale_matrix(compiled, fixed_point)
    sparse = scale @ _coupling_matrix(compiled)
    sparse.eliminate_zeros()
    sparse.sort_indices()
    return MeanUpdateSystem(sparse=sparse, offset=scale @ compiled.pass_noise_obs.imag,
                            graph=graph)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue magnitude of a real square matrix, dense or sparse.

    Either form becomes the same sorted CSR with no stored zeros.  Its
    strong components make it block triangular, and the spectrum of a
    block-triangular matrix is the union of its diagonal blocks' spectra.
    So the radius is the largest of |diagonal| over single-node
    components and of a dense eigensolve of each multi-node block, taken
    in ascending index order: a matrix and its CSR give the same bits.
    With no directed cycle and a zero diagonal the radius is exactly 0,
    where a whole-matrix eigensolve of a defective nilpotent matrix can
    return eps**(1/m) for nilpotency index m.
    """
    from scipy.sparse import csgraph, csr_array
    csr = csr_array(matrix, dtype=float, copy=True)  # never edit the caller's arrays
    if csr.ndim != 2 or csr.shape[0] != csr.shape[1]:
        raise ValueError("expected a square matrix")
    csr.sum_duplicates()
    csr.eliminate_zeros()
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("matrix has non-finite entries")
    _, labels = csgraph.connected_components(csr, connection="strong")
    sizes = np.bincount(labels)
    single = sizes[labels] == 1
    radius = float(np.max(np.abs(csr.diagonal()[single]), initial=0.0))
    # A stable sort by label puts each component's nodes in one run, in
    # ascending index order; only the multi-node runs are kept.
    cyclic = sizes > 1
    nodes = np.argsort(labels, kind="stable")
    nodes = nodes[cyclic[labels[nodes]]]
    grouped = csr[nodes][:, nodes]
    stops = np.cumsum(sizes[cyclic])
    for start, stop in zip(stops - sizes[cyclic], stops):
        block = grouped[start:stop, start:stop].toarray()
        radius = max(radius, float(np.max(np.abs(np.linalg.eigvals(block)))))
    return radius


def walk_summability(gmrf: GMRFModel) -> WalkSummability:
    """Spectral radius of A = |I - R|, R being J scaled to unit diagonal.

    J may be dense or CSR: either becomes the same canonical CSR (summed
    duplicates, no stored zeros), so both give the same bits.  Non-finite
    or non-symmetric J and a nonpositive diagonal are refused.  With no
    off-diagonal coupling the radius is exactly 0.

    A is symmetric, nonnegative and has a zero diagonal, so its radius is
    its Perron root, and every power iterate bounds it from both sides
    (see :func:`_perron_interval`).  ``radius`` is the best Rayleigh
    quotient, an estimate inside [lower, upper]; ``is_walk_summable`` is
    True when upper < 1, False when lower >= 1 and None, undecided, in
    between.  A walk matrix with a non-finite entry, or whose Rayleigh
    product overflows, is refused with ``ValueError``.
    """
    from scipy.sparse import csr_array
    info = csr_array(gmrf.information_matrix, dtype=float, copy=True)
    info.sum_duplicates()
    info.eliminate_zeros()
    if not np.all(np.isfinite(info.data)):
        raise ValueError("information matrix has non-finite entries")
    dim = info.shape[0]
    if info.shape[1] != dim or (info != info.T).nnz:
        raise ValueError("information matrix is not symmetric")
    diag = info.diagonal()
    if np.any(diag <= 0):
        raise ValueError("information matrix has a nonpositive diagonal entry")
    rows = np.repeat(np.arange(dim), np.diff(info.indptr))
    off = rows != info.indices
    if not off.any():
        return WalkSummability(radius=0.0, lower=0.0, upper=0.0, is_walk_summable=True)
    rows, cols = rows[off], info.indices[off]
    scale = 1.0 / np.sqrt(diag)
    with np.errstate(over="ignore"):
        entries = np.abs(info.data[off]) * scale[rows] * scale[cols]
    if not np.all(np.isfinite(entries)):
        raise ValueError("walk matrix |I - R| has non-finite entries")
    walk = csr_array((entries, (rows, cols)), shape=(dim, dim))
    lower, radius, upper = _perron_interval(walk)
    decided = True if upper < 1.0 else False if lower >= 1.0 else None
    return WalkSummability(radius=radius, lower=lower, upper=upper, is_walk_summable=decided)


def _perron_iterates(matrix: csr_array):
    """Power iterations of I + ``matrix`` from x = 1, yielding (x, matrix @ x) per step.

    ``matrix`` is nonnegative, so I + ``matrix`` has its Perron vector but
    does not oscillate where it is periodic.  After each step x is scaled
    to a largest entry of 1 and floored at the smallest normal double, so
    it stays strictly positive and finite (rows may be empty).  At most
    BOUND_MAX_ITERS steps; the loop ends before yielding a product that
    overflows.  x is updated in place once the caller asks for the next
    step, so neither array may be kept or changed.
    """
    x = np.ones(matrix.shape[0])
    for _ in range(BOUND_MAX_ITERS):
        y = matrix @ x
        if not np.all(np.isfinite(y)):
            return
        yield x, y
        x += y
        x /= x.max()
        np.maximum(x, np.finfo(float).tiny, out=x)


def _perron_interval(walk: csr_array) -> tuple[float, float, float]:
    """Proven bounds on the Perron root of |I - R|, and an estimate between them.

    ``walk`` is |I - R| as computed: each entry |J_ij| * s_i * s_j, with
    s = 1 / sqrt(diag J), lies within 7 unit roundoffs (relative) of the
    exact one, and the Perron root is monotone in the entries.  For the
    computed matrix A and each iterate x of :func:`_perron_iterates`,
    max_i (Ax)_i / x_i bounds it from above (Collatz-Wielandt) and
    x'Ax / x'x from below (Rayleigh).  Every sum here is of nonnegative
    terms, so a sum of m rounded products is within m unit roundoffs
    (relative) of the exact sum in any order; each bound is widened by
    that, by the entries' error and by its own roundings.  Returns
    (lower, quotient, upper): the largest lower bound, the largest
    quotient capped at the smallest upper bound (so within the interval,
    since lower is the quotient narrowed), and that upper bound.  With
    no iterate (the first product overflows) they are (0, 0, inf).  A
    Rayleigh product x'Ax that overflows raises ``ValueError``: the lower
    bound would be inf.
    """
    terms = np.diff(walk.indptr)
    widening = _widening(terms)
    quotient, upper = 0.0, math.inf
    for x, y in _perron_iterates(walk):
        upper = min(upper, _collatz_wielandt(widening, x, y))
        with np.errstate(over="ignore"):
            rayleigh = float(x @ y)  # two sums of len(x) products
        if not math.isfinite(rayleigh):
            raise ValueError("walk matrix too large: its Rayleigh product overflows")
        quotient = max(quotient, rayleigh / float(x @ x))
    lower = float(quotient * (1.0 - UNIT_ROUNDOFF * (2 * len(terms) + int(terms.max()) + 16)))
    return lower, min(quotient, upper), upper


def _widening(terms: np.ndarray) -> np.ndarray:
    """1 + u (2 terms_i + 16) per row i of a matrix with ``terms[i]`` stored
    entries: the factor that widens its Collatz-Wielandt ratios, computed
    once per matrix (see :func:`_collatz_wielandt`)."""
    return 1.0 + UNIT_ROUNDOFF * (2 * terms + 16)


def _collatz_wielandt(widening: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max_i y_i / x_i, widened by its rounding: bounds the Perron root of a matrix.

    The matrix is nonnegative, x > 0, and y is its product with x as
    computed; row i sums terms_i nonnegative products, so y_i is within
    2 terms_i unit roundoffs (relative) of the exact sum, in any order.
    The slack of 2 terms_i + 16 in ``widening`` (:func:`_widening`) covers
    that, up to 7 roundoffs of error in the entries themselves (see
    :func:`_perron_interval`), and the division and the widening product.
    An empty matrix gives 0; a ratio over an x_i near the floor may be
    inf, still a valid bound.
    """
    with np.errstate(over="ignore"):
        return float(np.max(y / x * widening, initial=0.0))


def _radius_bound(matrix: csr_array) -> float:
    """Proven upper bound on rho(|Q|), hence on rho(Q), by Collatz-Wielandt.

    Any x > 0 gives max_i (|Q| x)_i / x_i >= rho(|Q|) >= rho(Q), and x
    follows :func:`_perron_iterates` of |Q|.  Returns the first bound
    below 1 - SPECTRAL_MARGIN, or the smallest of BOUND_MAX_ITERS bounds;
    inf when |Q| x overflows or Q has a non-finite entry.
    """
    walk = abs(matrix)
    widening = _widening(np.diff(walk.indptr))
    best = math.inf
    for x, y in _perron_iterates(walk):
        best = min(best, _collatz_wielandt(widening, x, y))
        if best < 1.0 - SPECTRAL_MARGIN:
            break
    return best


def part_metric(x: Mapping[Edge, float], y: Mapping[Edge, float]) -> float:
    """Distance max |ln(x_e / y_e)| between strictly positive edge maps.

    This is the order-theoretic distance on the positive cone: the log of
    the smallest alpha >= 1 with x/alpha <= y <= alpha*x entrywise.  The
    precision recursion contracts it, which is what the rate trace
    measures.
    """
    if set(x) != set(y):
        raise ValueError("edge sets differ")
    return _part_distance(x, x.values(), map(y.__getitem__, x))


def _part_distance(edges, xs, ys) -> float:
    # math.log per entry: np.log is not guaranteed to match libm to the
    # last bit, and the trace's stop test compares distances near 1e-14.
    distance = 0.0
    for edge, xv, yv in zip(edges, xs, ys):
        if xv <= 0 or yv <= 0:
            raise ValueError(f"nonpositive entry at {edge}")
        gap = abs(math.log(xv / yv))
        if gap > distance:
            distance = gap
    return distance


def rate_trace(
    graph: FactorGraph,
    model: LinearGaussianModel,
    strategy: engine.InitStrategy | None = None,
    tolerance: float = engine.DEFAULT_TOLERANCE,
    max_iters: int = engine.DEFAULT_MAX_ITERS,
) -> list[TracePoint]:
    """Per-sweep part-metric distance to the precision fixed point.

    Recording starts after the first sweep (where every precision is
    strictly positive whatever the start).  The reference fixed point is
    iterated to a much tighter delta than requested so that distances
    near the 1e-14 floor are still meaningful.  Sweeps of ``engine.sweeps``,
    in pass order, run past the divergence guard until the distance drops
    below the requested tolerance or below the floor, whichever is larger
    (a tolerance of 0 or below means the floor).
    """
    # max() keeps a NaN first argument, so NaN is refused here.
    stop = engine.check_limits(max(tolerance, TRACE_FLOOR), max_iters)
    reference = fixed_point_precisions(graph, model, tolerance=1e-15)
    compiled = engine.compile_model(graph, model)
    order = compiled.tables.fv_pass.order
    target = reference.factor_to_variable.array[order].tolist()
    edges = [graph.fv_edges[k] for k in order.tolist()]
    prec, mean = engine._in_pass_order(compiled, engine.init_messages(
        graph, model, strategy or engine.InitStrategy.zero()))
    points: list[TracePoint] = []
    for iteration, _, _, prec, new_mean, _ in engine.sweeps(compiled, prec, mean,
                                                            lambda *_: None, max_iters):
        distance = _part_distance(edges, prec.tolist(), target)
        points.append(TracePoint(iteration, distance, engine.max_delta(mean, new_mean)))
        mean = new_mean
        if distance < stop:
            break
    return points


def trace_to_csv(points: list[TracePoint]) -> str:
    """CSV with 17 significant digits, enough to round-trip doubles."""
    lines = ["iter,part_metric_distance,mean_delta"]
    for p in points:
        lines.append(f"{p.iteration},{p.distance:.17g},{p.mean_delta:.17g}")
    return "\n".join(lines) + "\n"


def certify(
    graph: FactorGraph,
    model: LinearGaussianModel,
    tolerance: float = engine.DEFAULT_TOLERANCE,
) -> ConvergenceCertificate:
    """Full convergence certificate for a model.

    Precisions always settle (an overflowed fixed point is refused with
    ValueError), so the verdict is about the means, decided by the first
    of three paths that can:

      * forests and single-loop graphs converge by structure alone, and
        neither Q, the bound nor the radius is computed;
      * otherwise a Collatz-Wielandt upper bound on rho(Q) (see
        :func:`_radius_bound`) below 1 - 1e-9 certifies convergence, with
        the spectral basis, and is kept as ``mean_radius_bound``;
      * otherwise the dense ``spectral_radius`` of Q decides, with a 1e-9
        numerical margin around 1 mapped to "inconclusive".

    The bound is never below rho(Q), so the verdict is the one the dense
    radius gives.  The certificate keeps ``graph`` and ``model``, and
    computes what the verdict did not need on first read: Q where
    topology decided (``mean_system``), a radius the verdict did not need
    (``mean_spectral_radius``) and walk-summability, which no verdict
    reads; a caller who never reads them never pays.
    """
    topology = classify_topology(graph)
    bounds = precision_bounds(graph, model)
    fixed_point = fixed_point_precisions(graph, model, tolerance)

    by_topology = topology.kind in (TOPOLOGY_FOREST, TOPOLOGY_SINGLE_LOOP)
    mean_system = None if by_topology else build_mean_system(graph, model, fixed_point)

    rho = bound = None
    if by_topology:
        verdict, basis = VERDICT_CONVERGES, BASIS_TOPOLOGY
    elif (bound := _radius_bound(mean_system.sparse)) < 1.0 - SPECTRAL_MARGIN:
        verdict, basis = VERDICT_CONVERGES, BASIS_SPECTRAL
    elif (rho := spectral_radius(mean_system.sparse)) < 1.0 - SPECTRAL_MARGIN:
        verdict, basis = VERDICT_CONVERGES, BASIS_SPECTRAL
    elif rho > 1.0 + SPECTRAL_MARGIN:
        verdict, basis = VERDICT_DIVERGES, None
    else:
        verdict, basis = VERDICT_INCONCLUSIVE, None

    return ConvergenceCertificate(
        topology=topology,
        bounds=bounds,
        fixed_point=fixed_point,
        mean_system=mean_system,
        verdict=verdict,
        basis=basis,
        mean_spectral_radius=rho,
        mean_radius_bound=bound,
        model=model,
        graph=graph,
    )
