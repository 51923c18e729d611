"""Scalar linear Gaussian models and their factor graphs.

A model is a set of scalar variables x_i with zero-mean Gaussian priors
(variance prior_var) and a set of scalar observations, one per factor,

    obs_n = sum_i coeff_{n,i} * x_i + noise_n,    noise_n ~ N(0, noise_var_n).

The posterior over x is Gaussian; :func:`sparse_gmrf` builds its
information form with a CSR precision matrix, :func:`lingauss_to_gmrf`
the same with a dense one, and :func:`build_factor_graph` the bipartite
graph that message passing runs on.
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


@dataclass(frozen=True)
class LinearGaussianModel:
    variables: tuple[Variable, ...]
    factors: tuple[Factor, ...]

    @cached_property
    def variables_by_id(self) -> dict[str, Variable]:
        return {v.id: v for v in self.variables}

    @cached_property
    def factors_by_id(self) -> dict[str, Factor]:
        return {f.id: f for f in self.factors}

    def prior_var(self, var_id: str) -> float:
        return self.variables_by_id[var_id].prior_var


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
    map each directed edge to its position.
    """

    pad: int
    fv_position: Mapping[tuple[str, str], int]
    vf_position: Mapping[tuple[str, str], int]
    vf_reads: np.ndarray
    fv_reads: np.ndarray
    belief_reads: np.ndarray


@dataclass(frozen=True)
class FactorGraph:
    """Bipartite variable/factor graph with frozen canonical orderings.

    Canonical index order is position in the model's variables/factors
    arrays.  Neighbor tuples and the two directed edge lists are sorted by
    those indices: ``fv_edges`` ascending first on the factor then on the
    variable, ``vf_edges`` ascending first on the variable then on the
    factor.  Every iteration in the engine and the simulator walks these
    orderings, which is what makes runs reproducible bit for bit.
    """

    variable_ids: tuple[str, ...]
    factor_ids: tuple[str, ...]
    variable_order: Mapping[str, int]
    factor_order: Mapping[str, int]
    variable_neighbors: Mapping[str, tuple[str, ...]]
    factor_neighbors: Mapping[str, tuple[str, ...]]
    fv_edges: tuple[tuple[str, str], ...]
    vf_edges: tuple[tuple[str, str], ...]

    @cached_property
    def edge_tables(self) -> EdgeTables:
        """Integer form of the graph, built on first use without per-edge objects."""
        pad = len(self.fv_edges)
        fv_f = np.fromiter((self.factor_order[f] for f, _ in self.fv_edges), np.intp, pad)
        fv_v = np.fromiter((self.variable_order[v] for _, v in self.fv_edges), np.intp, pad)
        vf_to_fv = np.lexsort((fv_f, fv_v))  # vf_edges order: variable, then factor

        def reads(group, members, count):
            """Each sorted group's members padded, and per member the others."""
            sizes = np.bincount(group, minlength=count)
            slot = np.arange(pad) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            table = np.full((count, sizes.max(initial=0)), pad, dtype=np.intp)
            table[group, slot] = members
            cols = np.arange(max(table.shape[1] - 1, 0))
            return table, table[group[:, None], cols + (cols >= slot[:, None])]

        belief_reads, vf_reads = reads(fv_v[vf_to_fv], vf_to_fv, len(self.variable_ids))
        _, fv_reads = reads(fv_f, np.argsort(vf_to_fv), len(self.factor_ids))
        return EdgeTables(
            pad=pad,
            fv_position={edge: k for k, edge in enumerate(self.fv_edges)},
            vf_position={edge: k for k, edge in enumerate(self.vf_edges)},
            vf_reads=vf_reads,
            fv_reads=fv_reads,
            belief_reads=belief_reads,
        )


@dataclass(frozen=True)
class GMRFModel:
    """Information form of the posterior: precision matrix J and potential h.

    ``information_matrix`` is J, a dense array (:func:`lingauss_to_gmrf`)
    or a canonical CSR array with no stored zeros (:func:`sparse_gmrf`);
    both hold the same bits.  J is symmetric positive definite for any
    valid model (positive definiteness is exercised by the dense oracle's
    Cholesky factorization).  Row/column order is the canonical variable
    order.
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
    problems = find_violations(model)
    if problems:
        raise InvalidModelError(problems)
    return model


def build_factor_graph(model: LinearGaussianModel) -> FactorGraph:
    """Build the bipartite graph with canonical edge orderings.

    The model is validated first; isolated variables are kept as nodes
    with no edges, and the graph may be disconnected.
    """
    validate_model(model)
    variable_ids = tuple(v.id for v in model.variables)
    factor_ids = tuple(f.id for f in model.factors)
    variable_order = {vid: k for k, vid in enumerate(variable_ids)}
    factor_order = {fid: k for k, fid in enumerate(factor_ids)}

    factor_neighbors = {
        f.id: tuple(sorted(f.coeffs, key=variable_order.__getitem__)) for f in model.factors
    }
    fv_edges = tuple((fid, vid) for fid in factor_ids for vid in factor_neighbors[fid])

    # A stable sort of fv_edges by variable keeps each variable's factors in
    # canonical order; no per-variable list outlives a statement.
    edge_var = np.fromiter((variable_order[v] for _, v in fv_edges), np.intp, len(fv_edges))
    by_var = np.argsort(edge_var, kind="stable").tolist()
    vf_edges = tuple((fv_edges[k][1], fv_edges[k][0]) for k in by_var)
    factors_by_var = [fv_edges[k][0] for k in by_var]
    stops = np.cumsum(np.bincount(edge_var, minlength=len(variable_ids))).tolist()
    variable_neighbors = {
        vid: tuple(factors_by_var[start:stop])
        for vid, start, stop in zip(variable_ids, [0] + stops[:-1], stops)
    }
    return FactorGraph(
        variable_ids=variable_ids,
        factor_ids=factor_ids,
        variable_order=variable_order,
        factor_order=factor_order,
        variable_neighbors=variable_neighbors,
        factor_neighbors=factor_neighbors,
        fv_edges=fv_edges,
        vf_edges=vf_edges,
    )


def sparse_gmrf(model: LinearGaussianModel) -> GMRFModel:
    """Information form of the posterior, J as a canonical CSR array.

    J = C^T diag(1/noise_var) C + diag(1/prior_var) and
    h = C^T diag(1/noise_var) obs, C stacking the factor coefficient rows.
    Factors add (c_i * c_j) / noise_var over their scope to J, and
    c_i * (obs / noise_var) to h, in canonical order, so J[i, j] and
    J[j, i] sum the same terms in the same order: J is exactly symmetric.
    J holds one slot per cell some factor or prior touches, sorted by row
    then column; slots whose terms cancel to 0.0 are dropped.
    """
    validate_model(model)
    n_vars = len(model.variables)
    variable_order = {v.id: k for k, v in enumerate(model.variables)}

    cells, terms, rows, shares = [], [], [], []
    for f in model.factors:
        scope = [(variable_order[vid], c) for vid, c in f.coeffs.items()]
        for i, ci in scope:
            rows.append(i)
            shares.append(ci * (f.obs / f.noise_var))
            for j, cj in scope:
                cells.append(i * n_vars + j)
                terms.append((ci * cj) / f.noise_var)

    # Every diagonal cell gets a slot, for its prior.  add.at is unbuffered:
    # a slot sums its terms in list order, then the prior is added.
    diagonal = np.arange(n_vars, dtype=np.int64) * (n_vars + 1)
    keys, slot = np.unique(
        np.concatenate([diagonal, np.asarray(cells, dtype=np.int64)]), return_inverse=True
    )
    data = np.zeros(len(keys))
    np.add.at(data, slot[n_vars:], terms)
    data[slot[:n_vars]] += [1.0 / v.prior_var for v in model.variables]
    row, col = np.divmod(keys, n_vars)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_vars))])
    info = csr_array((data, col, indptr), shape=(n_vars, n_vars))
    info.eliminate_zeros()
    potential = np.zeros(n_vars)
    np.add.at(potential, rows, shares)
    return GMRFModel(
        information_matrix=info,
        potential=potential,
        variable_ids=tuple(v.id for v in model.variables),
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
    n_vars, n_edges = len(graph.variable_ids), len(graph.fv_edges)
    n_nodes = n_vars + len(graph.factor_ids)
    var = np.fromiter((graph.variable_order[v] for _, v in graph.fv_edges), np.intp, n_edges)
    fac = np.fromiter((graph.factor_order[f] for f, _ in graph.fv_edges), np.intp, n_edges)
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
        new_factors = tuple(
            replace(f, obs=float(observations.get(f.id, f.obs))) for f in model.factors
        )
    else:
        if len(observations) != len(model.factors):
            raise ValueError(
                f"expected {len(model.factors)} observations, got {len(observations)}"
            )
        new_factors = tuple(
            replace(f, obs=float(y)) for f, y in zip(model.factors, observations)
        )
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
        variables.append(Variable(id=item["id"], prior_var=item["prior_var"]))

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
        factors.append(
            Factor(
                id=item["id"],
                coeffs=item["coeffs"],
                noise_var=item["noise_var"],
                obs=item["obs"],
            )
        )
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
