"""Scalar linear Gaussian models and their factor graphs.

A model is a set of scalar variables x_i with zero-mean Gaussian priors
(variance prior_var) and a set of scalar observations, one per factor,

    obs_n = sum_i coeff_{n,i} * x_i + noise_n,    noise_n ~ N(0, noise_var_n).

The posterior over x is Gaussian; :func:`sparse_gmrf` builds its
information form with a CSR precision matrix, :func:`lingauss_to_gmrf`
the same with a dense one, and :func:`build_factor_graph` the bipartite
graph that message passing runs on.

Every consumer reads a model's parameters and edges from one set of
arrays, ``LinearGaussianModel.columns``, built on first use.  Building it
is the only validation a model object gets: once per pipeline.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array, csr_matrix
from scipy.sparse.csgraph import connected_components

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


@dataclass(frozen=True)
class LinearGaussianModel:
    variables: tuple[Variable, ...]
    factors: tuple[Factor, ...]

    @cached_property
    def columns(self) -> ModelColumns:
        """The model's arrays, built once per model object after validation; an
        invalid model raises InvalidModelError on every use, as nothing is cached."""
        problems = find_violations(self)
        if problems:
            raise InvalidModelError(problems)
        order = {v.id: k for k, v in enumerate(self.variables)}
        sizes = np.fromiter((len(f.coeffs) for f in self.factors), np.intp, len(self.factors))
        count = int(sizes.sum())
        edge_factor = np.repeat(np.arange(len(self.factors)), sizes)
        edge_var = np.fromiter((order[v] for f in self.factors for v in f.coeffs), np.intp, count)
        edge_coeff = np.fromiter((c for f in self.factors for c in f.coeffs.values()), float, count)
        fv = np.lexsort((edge_var, edge_factor))  # coeffs may list a scope in any order
        return ModelColumns(
            variable_ids=tuple(v.id for v in self.variables),
            factor_ids=tuple(f.id for f in self.factors),
            prior_var=np.array([v.prior_var for v in self.variables], dtype=float),
            noise_var=np.array([f.noise_var for f in self.factors], dtype=float),
            obs=np.array([f.obs for f in self.factors], dtype=float),
            edge_factor=edge_factor,
            edge_var=edge_var[fv],
            edge_coeff=edge_coeff[fv],
        )


@dataclass(frozen=True)
class EdgeTables:
    """Which messages each message reads, as arrays of edge positions.

    Row k of ``vf_reads`` holds the ``fv_edges`` positions read by
    ``vf_edges[k]`` (its variable's other factors), row k of ``fv_reads``
    the ``vf_edges`` positions read by ``fv_edges[k]`` (its factor's other
    variables), row i of ``belief_reads`` the ``fv_edges`` positions into
    variable i.  Rows keep canonical neighbour order and are padded on the
    right with ``pad``, one past the last edge: a slot callers fill with a
    value that contributes nothing.  ``fv_position`` and ``vf_position``
    map each directed edge to its position (:class:`Positions`).
    """

    pad: int
    fv_position: Mapping[tuple[str, str], int]
    vf_position: Mapping[tuple[str, str], int]
    vf_reads: np.ndarray
    fv_reads: np.ndarray
    belief_reads: np.ndarray


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class FactorGraph:
    """Bipartite variable/factor graph with frozen canonical orderings.

    Canonical index order is position in the model's variables/factors
    arrays.  ``edge_factor`` and ``edge_var`` index each edge of ``fv_edges``,
    ascending first on the factor then on the variable; ``vf_to_fv`` lists
    those positions in ``vf_edges`` order, first on the variable then on the
    factor.  Every iteration in the engine and the simulator walks these
    orderings, which is what makes runs reproducible bit for bit.  The
    id-keyed attributes (the edge lists, ``variable_order`` and the neighbour
    tuples) are built from the arrays on first read.
    """

    variable_ids: tuple[str, ...]
    factor_ids: tuple[str, ...]
    edge_factor: np.ndarray
    edge_var: np.ndarray
    vf_to_fv: np.ndarray

    @cached_property
    def variable_order(self) -> Mapping[str, int]:
        return Positions(self, "variable_ids")

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
        pad = len(self.edge_var)
        vf_to_fv = self.vf_to_fv

        def reads(group, members, count):
            """Each sorted group's members padded, and per member the others."""
            sizes = np.bincount(group, minlength=count)
            slot = np.arange(pad) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            table = np.full((count, sizes.max(initial=0)), pad, dtype=np.intp)
            table[group, slot] = members
            cols = np.arange(max(table.shape[1] - 1, 0))
            return table, table[group[:, None], cols + (cols >= slot[:, None])]

        belief_reads, vf_reads = reads(self.edge_var[vf_to_fv], vf_to_fv, len(self.variable_ids))
        _, fv_reads = reads(self.edge_factor, np.argsort(vf_to_fv), len(self.factor_ids))
        return EdgeTables(
            pad=pad,
            fv_position=Positions(self, "fv_edges"),
            vf_position=Positions(self, "vf_edges"),
            vf_reads=vf_reads,
            fv_reads=fv_reads,
            belief_reads=belief_reads,
        )


class Positions(Mapping):
    """Each key of ``getattr(graph, name)`` mapped to its position there, a
    read-only map that builds nothing id-keyed until it is first read."""

    def __init__(self, graph: FactorGraph, name: str):
        self.graph, self.name = graph, name

    @cached_property
    def _index(self) -> dict:
        return {key: k for k, key in enumerate(self)}

    def __getitem__(self, key) -> int:
        return self._index[key]

    def __iter__(self):
        return iter(getattr(self.graph, self.name))

    def __len__(self) -> int:
        return len(getattr(self.graph, self.name))


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


@dataclass(frozen=True)
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
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def find_violations(model: LinearGaussianModel) -> list[str]:
    """Collect every structural violation; empty list means valid."""
    problems: list[str] = []
    seen_vars: set[str] = set()
    for v in model.variables:
        if not isinstance(v.id, str) or not v.id:
            problems.append(f"variable id {v.id!r}: must be a non-empty string")
            continue
        if v.id in seen_vars:
            problems.append(f"variable {v.id!r}: duplicate id")
        seen_vars.add(v.id)
        if not _is_number(v.prior_var) or v.prior_var <= 0:
            problems.append(f"variable {v.id!r}: prior_var must be a positive finite number")

    seen_factors: set[str] = set()
    for f in model.factors:
        if not isinstance(f.id, str) or not f.id:
            problems.append(f"factor id {f.id!r}: must be a non-empty string")
            continue
        if f.id in seen_factors:
            problems.append(f"factor {f.id!r}: duplicate id")
        seen_factors.add(f.id)
        if not _is_number(f.noise_var) or f.noise_var <= 0:
            problems.append(f"factor {f.id!r}: noise_var must be a positive finite number")
        if not _is_number(f.obs):
            problems.append(f"factor {f.id!r}: obs must be a finite number")
        for var_id, coeff in f.coeffs.items():
            if var_id not in seen_vars:
                problems.append(f"factor {f.id!r}: references unknown variable {var_id!r}")
            if not _is_number(coeff):
                problems.append(f"factor {f.id!r}: coefficient for {var_id!r} must be a finite number")
            elif coeff == 0:
                problems.append(f"factor {f.id!r}: stored zero coefficient for {var_id!r}")
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
    vf_to_fv = np.argsort(columns.edge_var, kind="stable")
    return FactorGraph(columns.variable_ids, columns.factor_ids, columns.edge_factor,
                       columns.edge_var, vf_to_fv)


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
    columns = model.columns
    n_vars = len(columns.variable_ids)
    factor, var, coeff = columns.edge_factor, columns.edge_var, columns.edge_coeff

    # Every edge pairs with each edge of its factor, itself included, in
    # factor order: one term per factor and cell, so add.at below sums a
    # cell's terms factor by factor.
    size = np.bincount(factor, minlength=len(columns.factor_ids))
    pairs = size[factor]
    first = np.repeat(np.arange(len(factor)), pairs)
    offset = (np.cumsum(size) - size)[factor] - (np.cumsum(pairs) - pairs)
    second = np.repeat(offset, pairs) + np.arange(len(first))
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
    n_vars, n_edges = len(graph.variable_ids), len(graph.edge_var)
    n_nodes = n_vars + len(graph.factor_ids)
    var, fac = graph.edge_var, graph.edge_factor
    adjacency = csr_matrix((np.ones(n_edges), (var, n_vars + fac)), shape=(n_nodes, n_nodes))
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
    factor id; a mapping may be partial.
    """
    if isinstance(observations, Mapping):
        unknown = set(observations) - {f.id for f in model.factors}
        if unknown:
            raise KeyError(f"unknown factor ids: {sorted(unknown)}")
        observations = [observations.get(f.id, f.obs) for f in model.factors]
    elif len(observations) != len(model.factors):
        raise ValueError(f"expected {len(model.factors)} observations, got {len(observations)}")
    new_factors = tuple(replace(f, obs=float(y)) for f, y in zip(model.factors, observations))
    return replace(model, factors=new_factors)


# --- file format ------------------------------------------------------------
#
# {"variables": [{"id": "x1", "prior_var": 2.0}, ...],
#  "factors":   [{"id": "f1", "coeffs": {"x1": 0.5, ...},
#                 "noise_var": 1.0, "obs": 0.25}, ...]}
#
# Array order defines the canonical index order.  Values round-trip as IEEE
# doubles (json emits repr, which parses back to the identical bits).


def model_to_dict(model: LinearGaussianModel) -> dict:
    return {
        "variables": [{"id": v.id, "prior_var": v.prior_var} for v in model.variables],
        "factors": [
            {
                "id": f.id,
                "coeffs": dict(f.coeffs),
                "noise_var": f.noise_var,
                "obs": f.obs,
            }
            for f in model.factors
        ],
    }


def _reject_duplicate_keys(pairs: Iterable[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r} in object")
        out[key] = value
    return out


def model_from_dict(data: dict) -> LinearGaussianModel:
    """Parse and validate; raises InvalidModelError on any shape problem."""
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
    return validate_model(LinearGaussianModel(tuple(variables), tuple(factors)))


def loads_model(text: str) -> LinearGaussianModel:
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
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def load_model(path) -> LinearGaussianModel:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def save_model(model: LinearGaussianModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))
