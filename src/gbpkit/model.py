"""Scalar linear Gaussian models and their factor graphs.

A model is a set of scalar variables x_i with zero-mean Gaussian priors
(variance prior_var) and a set of scalar observations, one per factor,

    obs_n = sum_i coeff_{n,i} * x_i + noise_n,    noise_n ~ N(0, noise_var_n).

The posterior over x is Gaussian; :func:`sparse_gmrf` builds its
information form with a CSR precision matrix, :func:`lingauss_to_gmrf`
the same with a dense one, and :func:`build_factor_graph` the bipartite
graph that message passing runs on.

A model holds its values as given, one tuple per field (``ModelFields``);
its :class:`Variable` and :class:`Factor` items are built from those only
when read.  A file is parsed straight into the fields, by json's C parser
alone unless its shape is refused or a colon count leaves a repeated key
possible (:func:`loads_model`): :func:`model_from_dict` checks its shape, and
:func:`find_violations`, shared with models built from items, checks the
values, whole fields first and items one by one only if a check fails.
Every consumer reads a model's parameters and edges from one set of
arrays, ``LinearGaussianModel.columns``, built on first use after that one
validation: once per model object.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter, itemgetter, methodcaller
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_array

TOPOLOGY_FOREST = "forest"
TOPOLOGY_SINGLE_LOOP = "forest-plus-single-loop"
TOPOLOGY_MULTI_LOOP = "multi-loop"


class InvalidModelError(ValueError):
    """Raised when a model violates a structural invariant.

    ``violations`` lists every failed check, one message per offence.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Variable:
    id: str
    prior_var: float


@dataclass(frozen=True)
class Factor:
    id: str
    coeffs: Mapping[str, float]
    noise_var: float
    obs: float


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class ModelColumns:
    """A validated model as arrays: ``prior_var`` per variable, ``noise_var`` and
    ``obs`` per factor, and per edge, in ``fv_edges`` order (by factor, then by
    variable), its canonical indices ``edge_factor``, ``edge_var`` and ``edge_coeff``."""

    variable_ids: tuple[str, ...]
    factor_ids: tuple[str, ...]
    prior_var: np.ndarray
    noise_var: np.ndarray
    obs: np.ndarray
    edge_factor: np.ndarray
    edge_var: np.ndarray
    edge_coeff: np.ndarray


_VARIABLE_KEYS = ("id", "prior_var")
_FACTOR_KEYS = ("id", "coeffs", "noise_var", "obs")


@dataclass(frozen=True)
class ModelFields:
    """A model's values as given, one tuple per field in canonical order: per
    variable its id and ``prior_var``; per factor its id, ``coeffs`` (variable
    id to coefficient, in the order given), ``noise_var`` and ``obs``."""

    variable_ids: tuple
    prior_var: tuple
    factor_ids: tuple
    coeffs: tuple
    noise_var: tuple
    obs: tuple

    @cached_property
    def coeff_values(self) -> tuple:
        """Every factor's coefficients, factor after factor."""
        return tuple(chain.from_iterable(map(methodcaller("values"), self.coeffs)))

    @cached_property
    def numbers(self) -> tuple[np.ndarray, ...]:
        """``prior_var``, ``noise_var``, ``obs`` and ``coeff_values`` as float
        arrays.  Read only once the values are known to be numbers (a string
        would be parsed); an int beyond the float range raises OverflowError."""
        return tuple(np.array(values, dtype=float)
                     for values in (self.prior_var, self.noise_var, self.obs, self.coeff_values))

    @cached_property
    def coeff_var(self) -> np.ndarray | None:
        """Per coefficient in ``coeff_values`` order, the position of its variable
        in ``variable_ids``; None if an id is empty or repeated, or a key names no
        variable.  Read once the ids are known to be strings: one walk over the
        keys both checks the references and maps them."""
        order = dict(zip(self.variable_ids, range(len(self.variable_ids))))
        if "" in order or len(order) < len(self.variable_ids):
            return None
        try:
            return np.fromiter(map(order.__getitem__, chain.from_iterable(self.coeffs)), np.intp,
                               len(self.coeff_values))
        except KeyError:
            return None


@dataclass(frozen=True, init=False)
class LinearGaussianModel:
    """Variables with Gaussian priors and the linear observations of them.

    Built from tuples of :class:`Variable` and :class:`Factor`, which it keeps,
    or from ``fields`` alone, in which case ``variables`` and ``factors`` are
    built on first read.  Models are equal when their ``fields`` are.
    """

    fields: ModelFields

    def __init__(self, variables: Iterable[Variable] = (), factors: Iterable[Factor] = (),
                 *, fields: ModelFields | None = None):
        if fields is None:
            variables, factors = tuple(variables), tuple(factors)
            fields = ModelFields(*_columns(variables, _VARIABLE_KEYS, attrgetter),
                                 *_columns(factors, _FACTOR_KEYS, attrgetter))
            vars(self).update(variables=variables, factors=factors)
        object.__setattr__(self, "fields", fields)

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(map(Variable, self.fields.variable_ids, self.fields.prior_var))

    @cached_property
    def factors(self) -> tuple[Factor, ...]:
        f = self.fields
        return tuple(map(Factor, f.factor_ids, f.coeffs, f.noise_var, f.obs))

    @cached_property
    def columns(self) -> ModelColumns:
        """The model's arrays, built once per model object after validation; an
        invalid model raises InvalidModelError on every use, as nothing is cached."""
        problems = find_violations(self)
        if problems:
            raise InvalidModelError(problems)
        f = self.fields
        sizes = np.fromiter(map(len, f.coeffs), np.intp, len(f.coeffs))
        edge_factor = np.repeat(np.arange(len(f.coeffs)), sizes)
        edge_var = f.coeff_var  # mapped by the validation's reference check
        prior_var, noise_var, obs, edge_coeff = f.numbers  # converted by the validation, if whole
        # coeffs may list a scope in any order; a stable sort of nearly sorted keys is fast
        fv = np.argsort(edge_factor * len(f.variable_ids) + edge_var, kind="stable")
        return ModelColumns(
            variable_ids=f.variable_ids,
            factor_ids=f.factor_ids,
            prior_var=prior_var,
            noise_var=noise_var,
            obs=obs,
            edge_factor=edge_factor,
            edge_var=edge_var[fv],
            edge_coeff=edge_coeff[fv],
        )


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class Reads:
    """Rows of edge positions of varying width, stored by jagged diagonals.

    ``order`` lists the rows by descending width, ties in row order, and
    ``rank``, built on first read, inverts it (row r is ``order[rank[r]]``).
    Column k holds the k-th read of each of the first ``len(columns[k])``
    rows of ``order``, the rows wider than k, so the columns shrink and hold
    no padding (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd
    ed., 3.4).  Row r reads ``columns[k][rank[r]]`` for each column k that
    long, and :meth:`select` views any rows, a single one included, on
    their own.  Values computed in ``order`` go back to row order through
    ``order`` itself (:func:`_canonical`), which needs no ``rank``.
    """

    order: np.ndarray
    columns: tuple[np.ndarray, ...]

    @cached_property
    def rank(self) -> np.ndarray:
        return _canonical(self.order, np.arange(len(self.order)))

    def select(self, rows):
        """The rows at the positions ``rows`` (an index array) as a jagged
        view of their own: (position, place, reads, columns).  ``position``
        is the positions sorted, so by descending width; ``place`` puts
        values computed in that order back in ``rows`` order
        (``values[place]``); ``reads`` is the rows' reads, column after
        column, and ``columns`` are slices of ``reads``, so the read values
        are gathered once, by ``reads``."""
        by_position = rows.argsort(kind="stable")
        position = rows[by_position]
        # Per column k, the rows wider than k: a prefix of the positions.
        counts = [count for count in position.searchsorted(
            [len(column) for column in self.columns]).tolist() if count]
        cut = [column[position[:count]] for column, count in zip(self.columns, counts)]
        stops = list(accumulate(counts, initial=0))
        return (position, by_position.argsort(), np.concatenate(cut or [position[:0]]),
                list(map(slice, stops, stops[1:])))


def _sorted_by(keys: np.ndarray, bound: int) -> np.ndarray:
    """The stable order of ``keys``, integers in [0, ``bound``), ``bound``
    at most 2**32, in O(len(keys)).  numpy's stable sort of 16-bit keys is a
    radix sort (Cormen et al., *Introduction to Algorithms*, 8.3): one pass
    for ``bound`` up to 2**16, else two passes, least significant digit
    first, on the low 16 bits and then the high 16 bits."""
    order = keys.astype(np.uint16).argsort(kind="stable")  # the cast keeps the low 16 bits
    if bound > 1 << 16:
        order = order[(keys[order] >> 16).astype(np.uint16).argsort(kind="stable")]
    return order


def _canonical(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values``, listed in ``order``, back in row order: one scatter,
    ``out[order] = values``, the same values as ``values[rank]``."""
    out = np.empty_like(values)
    out[order] = values
    return out


def _by_width(width: np.ndarray) -> np.ndarray:
    """Rows by descending width, ties in row order."""
    top = int(width.max(initial=0))
    return _sorted_by(top - width, top + 1)


def _jagged(width: np.ndarray, read, order=None) -> Reads:
    """Rows of the given widths; ``read(rows, k)`` is the k-th read of each of ``rows``.
    ``order`` is ``_by_width(width)`` when the caller has it already."""
    order = _by_width(width) if order is None else order
    heights = len(width) - np.cumsum(np.bincount(width, minlength=1))[:-1]
    return Reads(order, tuple(read(order[:h], k) for k, h in enumerate(heights.tolist())))


@dataclass(frozen=True)
class EdgeTables:
    """Which messages each message reads, as :class:`Reads` of edge positions.

    A full pass computes its rows in its table's ``order`` and keeps them so:
    entry p of its output is row ``order[p]``'s message (its pass order).
    Row k of ``vf_pass`` is ``vf_edges[k]``, and reads its variable's other
    factors; row k of ``fv_pass`` is ``fv_edges[k]``, and reads its factor's
    other variables.  Each column holds positions in the other pass's order,
    so a sweep reads the other pass's output as it was computed.  Every row
    lists its reads in canonical neighbour order.  The tables hold what a
    sweep reads, arrays only; the beliefs' reads and the id-keyed maps are
    the graph's (:class:`FactorGraph`).
    """

    vf_pass: Reads
    fv_pass: Reads


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class FactorGraph:
    """Bipartite variable/factor graph with frozen canonical orderings.

    Canonical index order is position in the model's variables/factors
    arrays.  ``edge_factor`` and ``edge_var`` index each edge of ``fv_edges``,
    ascending first on the factor then on the variable; ``vf_to_fv`` lists
    those positions in ``vf_edges`` order, first on the variable then on the
    factor.  Every iteration in the engine and the simulator walks these
    orderings, which is what makes runs reproducible bit for bit.  The
    id-keyed attributes (the edge lists, the neighbour tuples and the
    read-only maps ``variable_order``, ``fv_position`` and ``vf_position``
    of each key to its position) are built from the arrays on first read.
    What the graph caches holds ids, ints and arrays, never the graph, so
    a dropped graph is freed at once, with its tables.
    """

    variable_ids: tuple[str, ...]
    factor_ids: tuple[str, ...]
    edge_factor: np.ndarray
    edge_var: np.ndarray
    vf_to_fv: np.ndarray

    def __reduce__(self):  # the fields alone: a mappingproxy does not pickle, and caches rebuild
        return type(self), (self.variable_ids, self.factor_ids, self.edge_factor,
                            self.edge_var, self.vf_to_fv)

    @cached_property
    def variable_order(self) -> Mapping[str, int]:
        return _positions(self.variable_ids)

    @cached_property
    def fv_position(self) -> Mapping[tuple[str, str], int]:
        return _positions(self.fv_edges)

    @cached_property
    def vf_position(self) -> Mapping[tuple[str, str], int]:
        return _positions(self.vf_edges)

    @cached_property
    def fv_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(_ids(self.factor_ids, self.edge_factor),
                         _ids(self.variable_ids, self.edge_var)))

    @cached_property
    def vf_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(_ids(self.variable_ids, self.edge_var[self.vf_to_fv]),
                         _ids(self.factor_ids, self.edge_factor[self.vf_to_fv])))

    @cached_property
    def factor_neighbors(self) -> dict[str, tuple[str, ...]]:
        return _neighbors(self.factor_ids, self.edge_factor, self.variable_ids, self.edge_var)

    @cached_property
    def variable_neighbors(self) -> dict[str, tuple[str, ...]]:
        return _neighbors(self.variable_ids, self.edge_var[self.vf_to_fv],
                          self.factor_ids, self.edge_factor[self.vf_to_fv])

    @cached_property
    def edge_tables(self) -> EdgeTables:
        """Integer form of the graph, built on first use from the edge arrays."""
        vf_to_fv = self.vf_to_fv
        var_of = self.edge_var[vf_to_fv]
        degree = np.bincount(var_of, minlength=len(self.variable_ids))
        scope = np.bincount(self.edge_factor, minlength=len(self.factor_ids))
        vf_order = _by_width(degree[var_of] - 1)
        fv_order = _by_width(scope[self.edge_factor] - 1)

        def others(group, members, sizes, order):
            """Per member of each sorted group, the group's other members."""
            start = (np.cumsum(sizes) - sizes)[group]
            slot = np.arange(len(group)) - start
            return _jagged(sizes[group] - 1,
                           lambda rows, k: members[start[rows] + k + (k >= slot[rows])], order)

        # A read is the edge's rank in the other pass: its position in that
        # output.  Both ranks are scattered here, in O(E), and kept by neither table.
        positions = np.arange(len(vf_to_fv))
        fv_rank = _canonical(fv_order, positions)
        vf_rank_by_fv = _canonical(vf_to_fv[vf_order], positions)  # indexed by fv_edges position
        return EdgeTables(
            vf_pass=others(var_of, fv_rank[vf_to_fv], degree, vf_order),
            fv_pass=others(self.edge_factor, vf_rank_by_fv, scope, fv_order),
        )

    @cached_property
    def belief_reads(self) -> Reads:
        """Row i holds the ``fv_edges`` positions into variable i, in canonical
        factor order: what the beliefs read once a run's sweeps are done,
        built on first read."""
        degree = np.bincount(self.edge_var, minlength=len(self.variable_ids))
        first = np.cumsum(degree) - degree
        return _jagged(degree, lambda rows, k: self.vf_to_fv[first[rows] + k])


def _positions(keys) -> Mapping:
    """Each of ``keys`` mapped to its position there, read-only."""
    return MappingProxyType({key: k for k, key in enumerate(keys)})


def _ids(ids: tuple[str, ...], index: np.ndarray) -> list[str]:
    return list(map(ids.__getitem__, index.tolist()))


def _runs(group: np.ndarray, count: int) -> list[tuple[int, int]]:
    """(start, stop) of each of the groups 0 .. count-1 in ``group`` sorted stably."""
    stops = np.cumsum(np.bincount(group, minlength=count)).tolist()
    return list(zip([0] + stops[:-1], stops))


def _neighbors(ids, group, member_ids, members) -> dict[str, tuple[str, ...]]:
    """Per id, the ids of its members as a tuple; ``group`` is sorted."""
    names = _ids(member_ids, members)
    return {key: tuple(names[start:stop]) for key, (start, stop) in zip(ids, _runs(group, len(ids)))}


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class GMRFModel:
    """Information form of the posterior: precision matrix J and potential h.

    ``information_matrix`` is J, a dense array (:func:`lingauss_to_gmrf`)
    or a canonical CSR array with no stored zeros (:func:`sparse_gmrf`);
    both hold the same bits.  J is symmetric positive definite for any
    valid model (the oracle's LU checks it: every pivot positive, no row
    exchange).  Row/column order is the canonical variable order.
    """

    information_matrix: np.ndarray | csr_array
    potential: np.ndarray
    variable_ids: tuple[str, ...]


@dataclass(frozen=True)
class TopologyReport:
    """Graph class plus the cyclomatic number of each connected component."""

    kind: str
    component_cycles: tuple[int, ...]

    @property
    def total_cycles(self) -> int:
        return sum(self.component_cycles)


def _is_number(x) -> bool:
    return math.isfinite(_to_float(x, math.nan))


def _to_float(x, otherwise):
    """``float(x)`` for a real number other than a bool; ``otherwise`` for
    anything else, and for an int beyond the float range."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    return otherwise


def _fields_pass(f: ModelFields) -> bool:
    """Whether each field passes as a whole: a type set, then a float array
    (``ModelFields.numbers``), and the references, checked by mapping them
    (``ModelFields.coeff_var``).  False means that some item needs a look,
    not that one is invalid."""
    if not (set(map(type, chain(f.variable_ids, f.factor_ids))) <= {str}
            and set(map(type, chain(f.prior_var, f.noise_var, f.obs, f.coeff_values)))
            <= {int, float}):  # bool is not int here
        return False
    try:
        prior, noise, obs, coeff = f.numbers
    except OverflowError:  # an int beyond the float range
        return False
    factors = set(f.factor_ids)
    return ("" not in factors and len(factors) == len(f.factor_ids) and f.coeff_var is not None
            and all(np.isfinite(array).all() for array in (prior, noise, obs, coeff))
            and (prior > 0).all() and (noise > 0).all() and coeff.all())


def find_violations(model: LinearGaussianModel) -> list[str]:
    """Collect every structural violation; empty list means valid.

    A valid model passes checks of whole fields; only when one fails are
    the items checked one by one, for the messages in item order.
    """
    f = model.fields
    if _fields_pass(f):
        return []
    problems: list[str] = []
    seen_vars: set[str] = set()
    for vid, prior_var in zip(f.variable_ids, f.prior_var):
        if not isinstance(vid, str) or not vid:
            problems.append(f"variable id {vid!r}: must be a non-empty string")
            continue
        if vid in seen_vars:
            problems.append(f"variable {vid!r}: duplicate id")
        seen_vars.add(vid)
        if not _is_number(prior_var) or prior_var <= 0:
            problems.append(f"variable {vid!r}: prior_var must be a positive finite number")

    seen_factors: set[str] = set()
    for fid, coeffs, noise_var, obs in zip(f.factor_ids, f.coeffs, f.noise_var, f.obs):
        if not isinstance(fid, str) or not fid:
            problems.append(f"factor id {fid!r}: must be a non-empty string")
            continue
        if fid in seen_factors:
            problems.append(f"factor {fid!r}: duplicate id")
        seen_factors.add(fid)
        if not _is_number(noise_var) or noise_var <= 0:
            problems.append(f"factor {fid!r}: noise_var must be a positive finite number")
        if not _is_number(obs):
            problems.append(f"factor {fid!r}: obs must be a finite number")
        for var_id, coeff in coeffs.items():
            if var_id not in seen_vars:
                problems.append(f"factor {fid!r}: references unknown variable {var_id!r}")
            if not _is_number(coeff):
                problems.append(f"factor {fid!r}: coefficient for {var_id!r} must be a finite number")
            elif coeff == 0:
                problems.append(f"factor {fid!r}: stored zero coefficient for {var_id!r}")
    return problems


def validate_model(model: LinearGaussianModel) -> LinearGaussianModel:
    """Return the model unchanged, or raise InvalidModelError listing all violations."""
    model.columns
    return model


def build_factor_graph(model: LinearGaussianModel) -> FactorGraph:
    """Build the bipartite graph with canonical edge orderings.

    The graph shares ``model.columns``' edge arrays, so an invalid model is
    refused here; isolated variables are kept as nodes with no edges, and
    the graph may be disconnected.  No id-keyed object is built until read.
    """
    columns = model.columns
    # A stable sort by variable keeps each variable's factors in canonical order.
    vf_to_fv = _sorted_by(columns.edge_var, len(columns.variable_ids))
    return FactorGraph(columns.variable_ids, columns.factor_ids, columns.edge_factor,
                       columns.edge_var, vf_to_fv)


def _ranges(starts, counts):
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, end to end."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def sparse_gmrf(model: LinearGaussianModel) -> GMRFModel:
    """Information form of the posterior, J as a canonical CSR array.

    J = C^T diag(1/noise_var) C + diag(1/prior_var) and
    h = C^T diag(1/noise_var) obs, C stacking the factor coefficient rows.
    Factors add (c_i * c_j) / noise_var over their scope to J, and
    c_i * (obs / noise_var) to h, in canonical order, so J[i, j] and
    J[j, i] sum the same terms in the same order: J is exactly symmetric.
    J holds one slot per cell some factor or prior touches, sorted by row
    then column; slots whose terms cancel to 0.0 are dropped.  A valid
    model whose terms overflow (a coefficient near 1e160, say) is refused
    with ``ValueError`` rather than given a non-finite J or h.
    """
    from scipy.sparse import csr_array  # scipy loads only on the paths that need it

    columns = model.columns
    n_vars = len(columns.variable_ids)
    factor, var, coeff = columns.edge_factor, columns.edge_var, columns.edge_coeff

    # Every edge pairs with each edge of its factor, itself included, in
    # factor order: one term per factor and cell, so add.at below sums a
    # cell's terms factor by factor.
    size = np.bincount(factor, minlength=len(columns.factor_ids))
    pairs = size[factor]
    first = np.repeat(np.arange(len(factor)), pairs)
    second = _ranges((np.cumsum(size) - size)[factor], pairs)
    cells = var[first] * n_vars + var[second]

    # Every diagonal cell gets a slot, for its prior.  add.at is unbuffered:
    # a slot sums its terms in array order, then the prior is added.
    diagonal = np.arange(n_vars, dtype=np.int64) * (n_vars + 1)
    keys, slot = np.unique(np.concatenate([diagonal, cells]), return_inverse=True)
    data = np.zeros(len(keys))
    potential = np.zeros(n_vars)
    # Overflow (and inf - inf) is refused below as a non-finite J or h.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(data, slot[n_vars:],
                  (coeff[first] * coeff[second]) / columns.noise_var[factor[first]])
        data[slot[:n_vars]] += 1.0 / columns.prior_var
        np.add.at(potential, var, coeff * (columns.obs / columns.noise_var)[factor])
    if not np.all(np.isfinite(data)):
        raise ValueError("information matrix has non-finite entries")
    if not np.all(np.isfinite(potential)):
        raise ValueError("potential has non-finite entries")
    row, col = np.divmod(keys, n_vars)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_vars))])
    info = csr_array((data, col, indptr), shape=(n_vars, n_vars))
    info.eliminate_zeros()
    return GMRFModel(
        information_matrix=info,
        potential=potential,
        variable_ids=columns.variable_ids,
    )


def lingauss_to_gmrf(model: LinearGaussianModel) -> GMRFModel:
    """Information form of the posterior with J dense (n x n, 8 n^2 bytes).

    J is the dense view of :func:`sparse_gmrf`'s CSR, entry for entry the
    same bits; h is the same array.
    """
    gmrf = sparse_gmrf(model)
    return replace(gmrf, information_matrix=gmrf.information_matrix.toarray())


def classify_topology(graph: FactorGraph) -> TopologyReport:
    """Classify by per-component cyclomatic number c = E - V + 1.

    All components at c = 0 is a forest; a single extra independent cycle
    across the whole graph (total c = 1) leaves every other component a
    tree; anything beyond that is multi-loop.  Components are listed by
    their lowest node, variables numbered before factors.
    """
    from scipy.sparse import csr_matrix  # int32 indices when they fit, as csgraph uses
    from scipy.sparse.csgraph import connected_components

    n_vars, var = len(graph.variable_ids), graph.edge_var
    n_nodes = n_vars + len(graph.factor_ids)
    # Factor rows list their scopes, as the edges are sorted by factor;
    # variable rows are empty, and components ignore direction.
    scope = np.bincount(graph.edge_factor, minlength=len(graph.factor_ids))
    indptr = np.concatenate([np.zeros(n_vars + 1, np.intp), np.cumsum(scope)])
    adjacency = csr_matrix((np.ones(len(var)), var, indptr), shape=(n_nodes, n_nodes))
    count, labels = connected_components(adjacency, directed=False)
    edges, nodes = np.bincount(labels[var], minlength=count), np.bincount(labels, minlength=count)
    first_node = np.unique(labels, return_index=True)[1]
    cycles = (edges - nodes + 1)[np.argsort(first_node)].tolist()

    total = sum(cycles)
    if total == 0:
        kind = TOPOLOGY_FOREST
    elif total == 1:
        kind = TOPOLOGY_SINGLE_LOOP
    else:
        kind = TOPOLOGY_MULTI_LOOP
    return TopologyReport(kind=kind, component_cycles=tuple(cycles))


def with_observations(
    model: LinearGaussianModel, observations: Sequence[float] | Mapping[str, float]
) -> LinearGaussianModel:
    """Copy of the model with factor observations replaced.

    Accepts either a sequence in canonical factor order or a mapping from
    factor id; a mapping may be partial.  Real numbers become floats; any
    other value, and an int beyond the float range, is kept for
    :func:`find_violations` to refuse.
    """
    fields = model.fields
    if isinstance(observations, Mapping):
        unknown = set(observations) - set(fields.factor_ids)
        if unknown:
            raise KeyError(f"unknown factor ids: {sorted(unknown)}")
        observations = map(observations.get, fields.factor_ids, fields.obs)
    elif len(observations) != len(fields.obs):
        raise ValueError(f"expected {len(fields.obs)} observations, got {len(observations)}")
    obs = tuple(_to_float(x, x) for x in observations)
    return LinearGaussianModel(fields=replace(fields, obs=obs))


# --- file format ------------------------------------------------------------
#
# {"variables": [{"id": "x1", "prior_var": 2.0}, ...],
#  "factors":   [{"id": "f1", "coeffs": {"x1": 0.5, ...},
#                 "noise_var": 1.0, "obs": 0.25}, ...]}
#
# Array order defines the canonical index order.  Values round-trip as IEEE
# doubles (json emits repr, which parses back to the identical bits).


def model_to_dict(model: LinearGaussianModel) -> dict:
    f = model.fields
    return {
        "variables": [dict(zip(_VARIABLE_KEYS, row)) for row in zip(f.variable_ids, f.prior_var)],
        "factors": [dict(zip(_FACTOR_KEYS, row))
                    for row in zip(f.factor_ids, map(dict, f.coeffs), f.noise_var, f.obs)],
    }


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"duplicate key {key!r} in object")
    return out


def _columns(items, keys: tuple[str, ...], getter) -> list[tuple]:
    """Per key, ``getter(key)`` of each item: one pass per field."""
    return [tuple(map(getter(key), items)) for key in keys]


def _records(raw, name: str, keys: tuple[str, ...], problems: list[str]) -> list[tuple]:
    """:func:`_columns` of ``raw``, an array of objects with exactly ``keys``
    (and "coeffs" objects).  Only if a whole-array check fails are the objects
    checked one by one, each offence added to ``problems``."""
    if not isinstance(raw, list):
        problems.append(f"'{name}' must be an array")
        return [()] * len(keys)
    if not (set(map(type, raw)) <= {dict} and set(map(tuple, raw)) <= {keys} and (
            "coeffs" not in keys or set(map(type, map(itemgetter("coeffs"), raw))) <= {dict})):
        found = len(problems)
        for k, item in enumerate(raw):
            if not isinstance(item, dict) or set(item) != set(keys):
                problems.append(f"{name}[{k}]: expected keys {', '.join(keys)}")
            elif not isinstance(item.get("coeffs", {}), dict):
                problems.append(f"{name}[{k}]: 'coeffs' must be an object")
        if len(problems) > found:
            return [()] * len(keys)
    return _columns(raw, keys, itemgetter)


def _fields_from_dict(data: dict) -> ModelFields:
    """The fields of a parsed file; raises InvalidModelError on any shape problem."""
    if not isinstance(data, dict):
        raise InvalidModelError(["top level must be an object"])
    problems: list[str] = []
    extra = set(data) - {"variables", "factors"}
    if extra:
        problems.append(f"unknown top-level keys: {sorted(extra)}")
    variables = _records(data.get("variables"), "variables", _VARIABLE_KEYS, problems)
    factors = _records(data.get("factors"), "factors", _FACTOR_KEYS, problems)
    if problems:
        raise InvalidModelError(problems)
    return ModelFields(*variables, *factors)


def model_from_dict(data: dict) -> LinearGaussianModel:
    """Parse and validate; raises InvalidModelError on any shape problem."""
    return validate_model(LinearGaussianModel(fields=_fields_from_dict(data)))


def loads_model(text: str) -> LinearGaussianModel:
    """Parse and validate a model file; raises InvalidModelError on any
    problem, a repeated key in any object included.

    The text is parsed without a hook, in C.  Outside strings JSON writes
    ':' only after a key, and a repeated key leaves one entry, so the
    entries of the parsed objects are at most the keys of the text, and
    those at most its colons.  When the entries of the objects that the
    shape check reads equal the colons, no key repeats, and the fields are
    validated.  Otherwise, or if the parse or the shape check fails, the
    text is parsed again with a duplicate-key hook, whose outcome is the
    result: a repeated key is reported ahead of any later fault.
    """
    try:
        f = _fields_from_dict(json.loads(text))
        # The top level holds 2 entries, a variable 2, a factor 4 plus its coeffs.
        entries = 2 + 2 * len(f.variable_ids) + 4 * len(f.factor_ids) + len(f.coeff_values)
        unrepeated = entries == text.count(":")
    # InvalidModelError, a shape refusal, is a ValueError; TypeError: bytes count no ':'.
    except (ValueError, RecursionError, TypeError):
        unrepeated = False
    if unrepeated:
        return validate_model(LinearGaussianModel(fields=f))
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as err:
        raise InvalidModelError(
            [f"parse error at line {err.lineno} column {err.colno}: {err.msg}"]
        ) from err
    except ValueError as err:
        raise InvalidModelError([str(err)]) from err
    return model_from_dict(data)


def dumps_model(model: LinearGaussianModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, default=float) + "\n"


def load_model(path) -> LinearGaussianModel:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def save_model(model: LinearGaussianModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))
