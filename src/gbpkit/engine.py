"""Synchronous Gaussian belief propagation over a factor graph.

Messages are scalar Gaussians in information form.  A factor-to-variable
message carries a precision and a mean; the variable-to-factor parameters
are derived from the stored factor-to-variable state each sweep:

    variable j -> factor f:   prec = 1/prior_var_j + sum of incoming factor
                              precisions except f's; mean = the matching
                              precision-weighted average.
    factor f -> variable i:   prec = c_i^2 / (noise_var + sum over the other
                              scope variables of c_j^2 / prec_{j->f});
                              mean = (obs - sum c_j * mean_{j->f}) / c_i.

The two kernels below are the only place these formulas live.  They take
Python floats (the per-edge functions) or float64 arrays: the engine, the
analysis and the simulator feed them one column of the graph's edge
tables at a time, so every message still adds its terms one at a time in
canonical neighbour order, and padded slots add exact zeros.  Array and
float evaluation therefore agree bit for bit, and two runs over the same
model are identical.  Array passes silence numpy's overflow and
invalid-value warnings: Python floats reach the same inf and NaN silently.
A pass given means of None computes the precisions alone, with the same
bits, since the precision recursion never reads a mean.

One generator, :func:`sweeps`, owns the synchronous loop; :func:`run` and
the synchronous simulator both iterate it.  :func:`factor_to_variable`
keeps a per-edge Python-float path, the unpadded reference for tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .model import EdgeTables, FactorGraph, LinearGaussianModel

Edge = tuple[str, str]
ScalarMessage = tuple[float, float]  # (precision, mean)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max-iters"
STATUS_DIVERGED = "diverged"

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERS = 10000
DIVERGENCE_GUARD = 1e12

INIT_ZERO = "zero"
INIT_LOWER = "lower"
INIT_UPPER = "upper"
INIT_EXPLICIT = "explicit"


@dataclass(frozen=True)
class InitStrategy:
    """Initial factor-to-variable message assignment.

    ``lower``/``upper`` start from the closed-form envelope of the
    precision recursion (see :func:`edge_bounds`); ``explicit`` takes
    per-edge values, finite nonnegative precisions and finite means
    required, missing edges defaulting to zero.
    """

    kind: str
    precisions: Mapping[Edge, float] | None = None
    means: Mapping[Edge, float] | None = None

    @classmethod
    def zero(cls) -> "InitStrategy":
        return cls(INIT_ZERO)

    @classmethod
    def lower_bound(cls) -> "InitStrategy":
        return cls(INIT_LOWER)

    @classmethod
    def upper_bound(cls) -> "InitStrategy":
        return cls(INIT_UPPER)

    @classmethod
    def explicit(
        cls,
        precisions: Mapping[Edge, float],
        means: Mapping[Edge, float] | None = None,
    ) -> "InitStrategy":
        return cls(INIT_EXPLICIT, precisions=precisions, means=means)


class ArrayMapping(Mapping):
    """Read-only mapping: ``positions[key]`` indexes a non-writeable float64 array.

    ``positions`` is one of the graph's own maps (``edge_tables.fv_position``,
    ``edge_tables.vf_position`` or ``variable_order``), so keys iterate in
    canonical order; values are Python floats, so a view equals the dict of
    its items.  ``array`` is copied first unless it owns its data.
    """

    __slots__ = ("array", "positions")

    def __init__(self, array, positions: Mapping):
        self.array = np.require(array, dtype=float, requirements="O")
        self.array.flags.writeable = False
        self.positions = positions

    def __getitem__(self, key) -> float:
        return self.array.item(self.positions[key])

    def __iter__(self) -> Iterator:
        return iter(self.positions)

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"

    def __reduce__(self):  # copies and unpickled views are read-only too
        return type(self), (self.array, self.positions)


@dataclass
class MessageState:
    """Factor-to-variable messages after ``iteration`` sweeps, as
    :class:`ArrayMapping` views keyed by ``fv_edges`` (the engine reads their arrays)."""

    precisions: ArrayMapping
    means: ArrayMapping
    iteration: int = 0


@dataclass(frozen=True)
class BeliefSet:
    """Per-variable marginal estimates at some sweep: :class:`ArrayMapping` views
    keyed by ``variable_ids`` from the engine, though any such mapping is accepted."""

    variances: Mapping[str, float]
    means: Mapping[str, float]
    iteration: int


@dataclass(frozen=True)
class RunResult:
    beliefs: BeliefSet
    state: MessageState
    status: str


def check_limits(tolerance: float, budget: int, budget_name: str = "max_iters") -> float:
    """Return ``tolerance``, or raise unless it is positive (NaN is not) and
    the budget allows at least one sweep or tick."""
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if budget < 1:
        raise ValueError(f"{budget_name} must be at least 1")
    return tolerance


def _variable_message(
    prior_var, incoming: Iterable[ScalarMessage], means: bool = True
) -> ScalarMessage:
    """Prior combined with the incoming (precision, mean) pairs.

    Over a variable's other factors this is its message to the remaining
    one; over all of them, the belief's precision and mean.  With
    ``means=False`` the incoming means are not read and the mean is None.
    """
    precision = 1.0 / prior_var
    weighted = 0.0
    for msg_precision, msg_mean in incoming:
        precision += msg_precision
        if means:
            weighted += msg_precision * msg_mean
    return precision, weighted / precision if means else None


def _factor_sums(others: Iterable[tuple[float, ScalarMessage]], noise_var, obs):
    """Observation variance and residual given the other scope variables.

    ``others`` yields (coeff, (precision, mean)) per other variable.  An
    ``obs`` of None leaves the means unread and the residual None.  The
    arguments are never updated in place.
    """
    total_var = noise_var
    residual = obs
    for coeff, (msg_precision, msg_mean) in others:
        total_var = total_var + coeff * coeff / msg_precision
        if residual is not None:
            residual = residual - coeff * msg_mean
    return total_var, residual


def _factor_message(
    target_coeff, others: Iterable[tuple[float, ScalarMessage]], noise_var, obs
) -> ScalarMessage:
    total_var, residual = _factor_sums(others, noise_var, obs)
    mean = None if residual is None else residual / target_coeff
    return target_coeff * target_coeff / total_var, mean


@dataclass(frozen=True)
class CompiledModel:
    """A model's parameters along its graph's edge tables.

    ``prior_var`` is per variable, ``vf_*`` per variable-to-factor edge
    (``vf_coeff`` with a 0.0 pad slot), the rest per factor-to-variable edge.
    """

    tables: EdgeTables
    prior_var: np.ndarray
    vf_prior_var: np.ndarray
    vf_coeff: np.ndarray
    coeff: np.ndarray
    noise_var: np.ndarray
    obs: np.ndarray


def compile_model(graph: FactorGraph, model: LinearGaussianModel) -> CompiledModel:
    """``model``'s parameters in ``graph``'s canonical edge orders.

    Gathered from ``model.columns`` by position: ``ValueError`` unless the
    model has the graph's ids and edges (its parameters may differ, as
    after ``with_observations``).  The graph keeps the last result, returned
    again while the same model object (``is``) is passed, so a pipeline
    compiles once.  Models must not be mutated in place; build a new one.
    """
    cached = vars(graph).get("_compiled")
    if cached is not None and cached[0] is model:
        return cached[1]
    columns = model.columns
    if (columns.variable_ids != graph.variable_ids or columns.factor_ids != graph.factor_ids
            or not np.array_equal(columns.edge_factor, graph.edge_factor)
            or not np.array_equal(columns.edge_var, graph.edge_var)):
        raise ValueError("model does not match the graph: different ids or edges")
    compiled = CompiledModel(
        tables=graph.edge_tables,
        prior_var=columns.prior_var,
        vf_prior_var=columns.prior_var[graph.edge_var[graph.vf_to_fv]],
        vf_coeff=np.append(columns.edge_coeff[graph.vf_to_fv], 0.0),
        coeff=columns.edge_coeff,
        noise_var=columns.noise_var[graph.edge_factor],
        obs=columns.obs[graph.edge_factor],
    )
    vars(graph)["_compiled"] = (model, compiled)
    return compiled


class _NoMeans:
    """Stands in for a mean array that a precision-only pass leaves unread."""

    def __getitem__(self, _):
        return None


_NO_MEANS = _NoMeans()


def _padded_means(means: np.ndarray | None):
    return _NO_MEANS if means is None else np.append(means, 0.0)


def _variable_pass(prior_var, reads: np.ndarray, fv_prec: np.ndarray, fv_mean):
    """The variable-side kernel for every row of ``reads``."""
    prec, mean = np.append(fv_prec, 0.0), _padded_means(fv_mean)
    with np.errstate(over="ignore", invalid="ignore"):
        return _variable_message(prior_var, ((prec[k], mean[k]) for k in reads.T),
                                 means=fv_mean is not None)


def vf_messages(compiled: CompiledModel, fv_prec: np.ndarray, fv_mean: np.ndarray | None,
                rows=slice(None)):
    """Variable-to-factor (precisions, means) of the ``vf_edges`` positions ``rows``.

    A subset of rows keeps the full table's padding, here and in
    :func:`fv_messages`, so a row's bits do not depend on which rows are
    computed with it.  Means of None give the precisions alone, the same
    bits, with means None: the precisions never read the means.
    """
    return _variable_pass(compiled.vf_prior_var[rows], compiled.tables.vf_reads[rows],
                          fv_prec, fv_mean)


def fv_messages(compiled: CompiledModel, vf_prec: np.ndarray, vf_mean: np.ndarray | None,
                rows=slice(None)):
    """Factor-to-variable (precisions, means) of the ``fv_edges`` positions ``rows``."""
    prec, mean = np.append(vf_prec, 1.0), _padded_means(vf_mean)
    others = ((compiled.vf_coeff[k], (prec[k], mean[k])) for k in compiled.tables.fv_reads[rows].T)
    obs = None if vf_mean is None else compiled.obs[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        return _factor_message(compiled.coeff[rows], others, compiled.noise_var[rows], obs)


def sweep_arrays(compiled: CompiledModel, fv_prec: np.ndarray, fv_mean: np.ndarray | None):
    """:func:`sweep` on factor-to-variable (precisions, means) arrays; means
    of None sweep the precisions alone (see :func:`vf_messages`)."""
    return fv_messages(compiled, *vf_messages(compiled, fv_prec, fv_mean))


def max_delta(old: np.ndarray, new: np.ndarray) -> float:
    """Largest |new - old| entry, NaN entries skipped, 0.0 when empty."""
    with np.errstate(invalid="ignore"):
        return float(np.fmax.reduce(np.abs(new - old), initial=0.0))


def _diverged(precisions: np.ndarray, means: np.ndarray) -> bool:
    """A mean past the guard, or any non-finite precision or mean: an overflow
    that the NaN-skipping deltas would otherwise read as convergence."""
    return not ((np.abs(means) <= DIVERGENCE_GUARD).all() and np.isfinite(precisions).all())


def _status(old_prec, old_mean, new_prec, new_mean, tolerance: float) -> str | None:
    if _diverged(new_prec, new_mean):
        return STATUS_DIVERGED
    if max(max_delta(old_prec, new_prec), max_delta(old_mean, new_mean)) < tolerance:
        return STATUS_CONVERGED
    return None


def _state(graph: FactorGraph, prec: np.ndarray, mean: np.ndarray, iteration: int) -> MessageState:
    positions = graph.edge_tables.fv_position
    return MessageState(ArrayMapping(prec, positions), ArrayMapping(mean, positions), iteration)


def _beliefs(graph, compiled: CompiledModel, prec, mean, iteration: int) -> BeliefSet:
    precision, belief_mean = _variable_pass(
        compiled.prior_var, compiled.tables.belief_reads, prec, mean
    )
    return BeliefSet(
        variances=ArrayMapping(1.0 / precision, graph.variable_order),
        means=ArrayMapping(belief_mean, graph.variable_order),
        iteration=iteration,
    )


def edge_bounds(compiled: CompiledModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge envelope (lower, upper) of the factor-to-variable precision recursion.

    Upper: c_i^2 / noise_var, the precision when the other scope variables
    are known exactly.  Lower: c_i^2 divided by the noise variance plus the
    full prior variance of every other scope variable, the precision when
    nothing else has been learned.  Every post-first-sweep iterate lies in
    between regardless of initialization.
    """
    prior_var = np.append(compiled.vf_prior_var, 0.0)
    denom = compiled.noise_var
    with np.errstate(over="ignore", invalid="ignore"):
        for k in compiled.tables.fv_reads.T:
            coeff = compiled.vf_coeff[k]
            denom = denom + coeff * coeff * prior_var[k]
        target = compiled.coeff * compiled.coeff
        return target / denom, target / compiled.noise_var


def _explicit_values(graph: FactorGraph, given: Mapping[Edge, float], name: str, low: float):
    positions = graph.edge_tables.fv_position
    unknown = [edge for edge in given if edge not in positions]
    if unknown:
        raise ValueError(f"explicit init references unknown edges: {sorted(unknown)}")
    bad = sorted(
        edge for edge, value in given.items() if not (math.isfinite(value) and value >= low)
    )
    if bad:
        raise ValueError(f"explicit init has invalid {name} at {bad}: precisions must be "
                         "finite and nonnegative, means finite")
    return np.array([given.get(edge, 0.0) for edge in positions], dtype=float)


def init_messages(
    graph: FactorGraph, model: LinearGaussianModel, strategy: InitStrategy
) -> MessageState:
    """Message state at iteration 0 under the given strategy."""
    if strategy.kind == INIT_ZERO:
        precisions = np.zeros(len(graph.edge_var))
    elif strategy.kind in (INIT_LOWER, INIT_UPPER):
        lower, upper = edge_bounds(compile_model(graph, model))
        precisions = lower if strategy.kind == INIT_LOWER else upper
    elif strategy.kind == INIT_EXPLICIT:
        precisions = _explicit_values(graph, strategy.precisions or {}, "precisions", 0.0)
    else:
        raise ValueError(f"unknown init strategy kind {strategy.kind!r}")

    if strategy.kind == INIT_EXPLICIT and strategy.means is not None:
        means = _explicit_values(graph, strategy.means, "means", -math.inf)
    else:
        means = np.zeros(len(graph.edge_var))
    return _state(graph, precisions, means, 0)


def _vf_message_at(compiled: CompiledModel, state: MessageState, position: int) -> ScalarMessage:
    prec, mean = state.precisions.array, state.means.array
    reads = compiled.tables.vf_reads[position]
    incoming = [(prec.item(k), mean.item(k)) for k in reads if k < len(prec)]
    return _variable_message(compiled.vf_prior_var.item(position), incoming)


def variable_to_factor(
    graph: FactorGraph,
    model: LinearGaussianModel,
    state: MessageState,
    edge: Edge,
) -> ScalarMessage:
    """Message for a directed (variable, factor) edge from the current state."""
    compiled = compile_model(graph, model)
    return _vf_message_at(compiled, state, compiled.tables.vf_position[edge])


def factor_to_variable(
    graph: FactorGraph,
    model: LinearGaussianModel,
    state: MessageState,
    edge: Edge,
) -> ScalarMessage:
    """Next-iteration message for a directed (factor, variable) edge.

    Derives the variable-to-factor parameters of the other scope variables
    from ``state`` first, so a single call evaluates the full composed
    update for this edge.
    """
    compiled = compile_model(graph, model)
    position = compiled.tables.fv_position[edge]
    others = [
        (compiled.vf_coeff.item(k), _vf_message_at(compiled, state, k))
        for k in compiled.tables.fv_reads[position]
        if k < compiled.tables.pad
    ]
    return _factor_message(compiled.coeff.item(position), others,
                           compiled.noise_var.item(position), compiled.obs.item(position))


def sweep(graph: FactorGraph, model: LinearGaussianModel, state: MessageState) -> MessageState:
    """One synchronous round: all variable-to-factor messages from the
    previous state, then all factor-to-variable messages from those."""
    compiled = compile_model(graph, model)
    prec, mean = sweep_arrays(compiled, state.precisions.array, state.means.array)
    return _state(graph, prec, mean, state.iteration + 1)


def compute_beliefs(
    graph: FactorGraph, model: LinearGaussianModel, state: MessageState
) -> BeliefSet:
    """Marginal estimates from the current messages.

    An isolated variable keeps its prior.  Estimates are exact on forests
    once messages have settled; on loopy graphs the means are exact at
    convergence while the variances are approximations.
    """
    return _beliefs(graph, compile_model(graph, model), state.precisions.array,
                    state.means.array, state.iteration)


def step_status(old: MessageState, new: MessageState, tolerance: float) -> str | None:
    """Outcome of one sweep: diverged, converged, or None to continue.

    The test :func:`run` applies between sweeps, on the states' arrays, so
    a caller composing :func:`sweep` itself stops where ``run`` does.
    """
    return _status(old.precisions.array, old.means.array, new.precisions.array,
                   new.means.array, tolerance)


def sweeps(compiled: CompiledModel, prec, mean, tolerance: float, max_iters: int):
    """Sweep from factor-to-variable (precisions, means) until an outcome
    (see :func:`step_status`) or ``max_iters`` sweeps, yielding per sweep
    (iteration, vf_prec, vf_mean, fv_prec, fv_mean, outcome or None)."""
    for iteration in range(1, max_iters + 1):
        vf_prec, vf_mean = vf_messages(compiled, prec, mean)
        new_prec, new_mean = fv_messages(compiled, vf_prec, vf_mean)
        outcome = _status(prec, mean, new_prec, new_mean, tolerance)
        yield iteration, vf_prec, vf_mean, new_prec, new_mean, outcome
        if outcome is not None:
            return
        prec, mean = new_prec, new_mean


def run(
    graph: FactorGraph,
    model: LinearGaussianModel,
    strategy: InitStrategy | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RunResult:
    """Sweep until messages settle, the guard trips, or the budget runs out."""
    check_limits(tolerance, max_iters)
    compiled = compile_model(graph, model)
    init = init_messages(graph, model, strategy or InitStrategy.zero())
    for iteration, _, _, prec, mean, outcome in sweeps(
        compiled, init.precisions.array, init.means.array, tolerance, max_iters
    ):
        pass
    return RunResult(
        beliefs=_beliefs(graph, compiled, prec, mean, iteration),
        state=_state(graph, prec, mean, iteration),
        status=outcome or STATUS_MAX_ITERS,
    )
