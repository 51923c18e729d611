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

The two kernels below are the only place these formulas live.  They
take float64 arrays, one entry per message, with the rows sorted by
descending width.  Each pair of terms a row adds (prec and prec * mean;
c_j^2 / prec and -c_j * mean, with c_j the coefficient of the message
read) depends on the message read alone, so a kernel forms it once per
message of the other pass, as the real and imaginary parts of one
complex128 term, then gathers it one jagged column of the graph's edge
tables (:class:`~gbpkit.model.Reads`) at a time: one gather and one add
serve both halves of a message.  Complex addition adds part by part, and
x - y is x + (-y), so each part gets the sums that float arrays would.
A column k covers only the rows wider than k, so it adds into the
leading entries of the accumulators.  Every message therefore adds its
terms one at a time in canonical neighbour order, and no row adds
anything past its own reads, whichever rows are computed with it.  A row
subset and the per-edge functions gather their reads first and form the
same terms from them, and an elementwise product commutes exactly with a
gather, so every path agrees bit for bit and two runs over the same
model are identical.  That holds for finite values, so for every
converged and max-iters run; a NaN may differ.  numpy adds a one-element
array in place through its reduction loop, which keeps the right operand
of two NaNs where a longer add keeps the left, so a row computed alone
can hold another NaN than in a full pass.  The kernels silence numpy's
overflow and invalid-value warnings.  A pass given means of None sums the precisions
alone over float64 arrays, with the same bits, since the precision
recursion never reads a mean.

Messages stay in the order their pass computes them, its pass order,
and each pass reads the other's output in that order, with parameters
laid out once per compiled model (:class:`CompiledModel`) in the form the
kernels read them, prior precisions and negated read coefficients, so
no loop recomputes what a run never changes.  The one pass pair,
:func:`vf_messages` and :func:`fv_messages`, computes all rows or any
subset, as a random-sequential tick needs, through a jagged view that a
caller may build once and pass again.  One generator, :func:`sweeps`, is
the one synchronous loop, ended by its caller's stop test: :func:`run`,
the simulator, the precision fixed point and the rate trace iterate it,
and put back in canonical order only what they keep.  A run and both
schedules of the simulator put their last messages in canonical order
and drop the pass-order pair before the beliefs are formed.
The factor pass's sums start from its first column's gather where that
column reads every row, not from a copy of the noise and observations.
The stop test of :func:`run` takes the mean delta first and the
precision delta only when the mean delta is below the tolerance: the
precisions settle first, so the mean delta alone keeps a run going in
almost every sweep.
The public :func:`sweep` takes and returns canonical order around the
same passes, and :func:`factor_to_variable` keeps a per-edge path, one
row at a time, for tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping

import numpy as np

from .model import (EdgeTables, FactorGraph, LinearGaussianModel, ModelColumns, _canonical,
                    _to_float)

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


# Each of the graph's key sequences, and the graph's map of its keys to their positions.
_POSITIONS = dict(variable_ids="variable_order", fv_edges="fv_position", vf_edges="vf_position")


class ArrayMapping(Mapping):
    """Read-only mapping: ``positions[key]`` indexes a non-writeable float64 array.

    The keys are ``getattr(graph, name)``, one of the graph's key sequences
    (``fv_edges``, ``vf_edges`` or ``variable_ids``), so they iterate in
    canonical order; ``positions`` is the graph's map of them
    (``fv_position``, ``vf_position`` or ``variable_order``), which every
    view of the graph shares, built on the first lookup of any of them.
    Values are Python floats, so a view equals the dict of its items: a
    lookup indexes a ``memoryview`` of the array, kept beside the map from
    the first lookup on.  ``array`` is copied first unless it owns its data.
    """

    __slots__ = ("array", "graph", "name", "_index", "_values")

    def __init__(self, array, graph: FactorGraph, name: str):
        self.array = np.require(array, dtype=float, requirements="O")
        self.array.flags.writeable = False
        self.graph, self.name = graph, name

    @property
    def positions(self) -> Mapping:
        return getattr(self.graph, _POSITIONS[self.name])

    def __getitem__(self, key) -> float:
        try:
            index, values = self._index, self._values
        except AttributeError:
            index, values = self._index, self._values = self.positions, memoryview(self.array)
        return values[index[key]]

    def __iter__(self) -> Iterator:
        return iter(getattr(self.graph, self.name))

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"

    def __reduce__(self):  # copies and unpickled views are read-only too
        return type(self), (self.array, self.graph, self.name)


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


_QUIET = np.errstate(over="ignore", invalid="ignore")


def _add_reads(acc: np.ndarray, term: np.ndarray, columns) -> np.ndarray:
    """``acc[:n] += term[col]`` for each column ``col`` of n reads, in column
    order: a column covers the leading rows, as many as it reads.  A column
    is an index array or a slice of ``term``.  Returns ``acc``."""
    for col in columns:
        read = term[col]
        head = acc[:len(read)]
        head += read
        del read  # freed before the next column's gather
    return acc


def _sum_reads(base: np.ndarray, term: np.ndarray, columns) -> np.ndarray:
    """A new array with the bytes of ``_add_reads(base.copy(), term, columns)``.

    When the first column is an index array that reads every row, as when
    every factor has two variables or more, its gather is the accumulator:
    ``base`` adds into it in place as the left operand, the same IEEE sums,
    so ``base`` is not copied.  A shorter first column (a row that reads
    nothing) and slice columns (a :meth:`~gbpkit.model.Reads.select` view)
    copy ``base`` first, as does a single row: numpy adds one element in
    place by its reduction loop, which keeps the right operand of two NaNs."""
    if (columns and isinstance(columns[0], np.ndarray)
            and len(columns[0]) == len(base) > 1):
        acc = term[columns[0]]
        np.add(base, acc, out=acc)
        return _add_reads(acc, term, columns[1:])
    return _add_reads(base.copy(), term, columns)


@_QUIET
def _inverse(values: np.ndarray) -> np.ndarray:
    """``1.0 / values``, in place: a subnormal prior variance has an infinite precision."""
    return np.divide(1.0, values, out=values)


@_QUIET
def _variable_message(prior_prec: np.ndarray, columns, prec: np.ndarray,
                      mean: np.ndarray | None):
    """Prior precision ``prior_prec`` (1 / prior_var, per row) combined with
    the incoming (precision, mean) messages that each column reads, per row.

    Over a variable's other factors this is its message to the remaining
    one; over all of them, the belief's precision and mean.  Each incoming
    message's two terms, its precision and ``prec * mean``, are formed once
    as the parts of one complex128 term, so each column gathers and adds
    both at once.  Each part is written on its own: a complex product such
    as ``1j * x`` would not keep signed zeros or infinities.  With means of
    None the incoming means are not read, the precisions are summed alone
    with the same bits, and the mean is None.
    """
    if mean is None:
        return _add_reads(prior_prec.copy(), prec, columns), None
    term = np.empty(len(prec), complex)
    term.real = prec
    np.multiply(prec, mean, out=term.imag)
    acc = np.zeros(len(prior_prec), complex)
    acc.real = prior_prec
    _add_reads(acc, term, columns)
    del term  # freed before the outputs are formed
    precision = acc.real.copy()  # contiguous, for the next pass's gathers
    return precision, acc.imag / precision


def _factor_sums(columns, neg_coeff: np.ndarray, prec: np.ndarray, mean: np.ndarray | None,
                 noise_obs: np.ndarray):
    """Observation variance and residual given the other scope variables:
    ``noise_var + sum coeff**2 / prec`` and ``obs - sum coeff * mean`` per
    row, given ``noise_obs``, the complex ``noise_var + obs * 1j`` per row.

    ``neg_coeff``, ``prec`` and ``mean`` hold each read message's negated
    coefficient -coeff and (precision, mean), and each column reads them
    as :func:`_variable_message`'s do.  Each message's terms,
    ``(-coeff)**2 / prec`` and ``(-coeff) * mean``, are formed once as the
    parts of one complex term: (-c)**2 is c**2 exactly, and adding the
    negated product subtracts, bit for bit, since x - y is x + (-y).  The
    sums come back as the parts of one accumulator that starts from
    ``noise_obs`` (:func:`_sum_reads`).  Means of None sum the variances
    alone, with the same bits, and give a residual of None.  Callers
    silence numpy's warnings.
    """
    if mean is None:
        term = neg_coeff * neg_coeff
        term /= prec
        return _sum_reads(noise_obs.real, term, columns), None
    term = np.empty(len(neg_coeff), complex)
    np.divide(neg_coeff * neg_coeff, prec, out=term.real)
    np.multiply(neg_coeff, mean, out=term.imag)
    acc = _sum_reads(noise_obs, term, columns)
    return acc.real, acc.imag


@_QUIET
def _factor_message(target_coeff, columns, neg_coeff, prec, mean, noise_obs):
    total_var, residual = _factor_sums(columns, neg_coeff, prec, mean, noise_obs)
    mean = None if residual is None else residual / target_coeff
    precision = target_coeff * target_coeff
    precision /= total_var
    return precision, mean


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class CompiledModel:
    """A model's parameters laid out along its graph's edge tables, in the
    form the passes read them, so a run computes none of them again.

    The full passes read parameters laid out in their own row order (see
    :class:`~gbpkit.model.EdgeTables`), so a sweep gathers none:
    ``pass_prior_prec``, the prior precision 1 / prior_var_j, and
    ``pass_neg_vf_coeff``, the negated coefficient -c_{f,j} of each
    variable-to-factor message j -> f, per row of ``tables.vf_pass`` (the
    graph's :class:`~gbpkit.model.EdgeTables`; no field holds the graph);
    ``pass_coeff`` (the target's coefficient) and ``pass_noise_obs``, the
    complex ``noise_var + obs * 1j`` that the factor pass starts its two
    sums from, per row of ``tables.fv_pass``.  A read's coefficient
    belongs to the message read, so the factor pass folds it into that
    message's terms once, before its columns gather them; it squares the
    negated one, which gives c**2 exactly.  The target's square stays per
    pass: two more E-sized arrays cost more peak memory than they save.
    ``columns`` holds the model's own arrays: ``prior_var`` per variable,
    ``edge_coeff`` per ``fv_edges`` position.
    """

    tables: EdgeTables
    columns: ModelColumns
    pass_prior_prec: np.ndarray
    pass_neg_vf_coeff: np.ndarray
    pass_coeff: np.ndarray
    pass_noise_obs: np.ndarray


def compile_model(graph: FactorGraph, model: LinearGaussianModel) -> CompiledModel:
    """``model``'s parameters along ``graph``'s edge tables.

    Read from ``model.columns`` by position: ``ValueError`` unless the
    model has the graph's ids and edges (its parameters may differ, as
    after ``with_observations``).  The graph keeps the last result, returned
    again while the same model object (``is``) is passed, so a pipeline
    compiles, and lays out each array, once.  Models must not be mutated
    in place; build a new one.
    """
    cached = vars(graph).get("_compiled")
    if cached is not None and cached[0] is model:
        return cached[1]
    columns = model.columns
    if (columns.variable_ids != graph.variable_ids or columns.factor_ids != graph.factor_ids
            or not np.array_equal(columns.edge_factor, graph.edge_factor)
            or not np.array_equal(columns.edge_var, graph.edge_var)):
        raise ValueError("model does not match the graph: different ids or edges")
    tables = graph.edge_tables
    # The vf pair reads along each vf_pass row's fv_edges position, the fv
    # pair along each fv_pass row's factor: one gather each.
    edge = graph.vf_to_fv[tables.vf_pass.order]
    factor = graph.edge_factor[tables.fv_pass.order]
    noise_obs = np.empty(len(factor), complex)
    noise_obs.real, noise_obs.imag = columns.noise_var[factor], columns.obs[factor]
    prior_prec = _inverse(columns.prior_var[graph.edge_var[edge]])
    neg_vf_coeff = columns.edge_coeff[edge]
    np.negative(neg_vf_coeff, out=neg_vf_coeff)
    compiled = CompiledModel(
        tables=tables, columns=columns, pass_prior_prec=prior_prec, pass_neg_vf_coeff=neg_vf_coeff,
        pass_coeff=columns.edge_coeff[tables.fv_pass.order],
        pass_noise_obs=noise_obs)
    vars(graph)["_compiled"] = (model, compiled)
    return compiled


def _at(array: np.ndarray | None, index) -> np.ndarray | None:
    """``array[index]``; for all rows (None), ``array`` itself.  An array of
    None (means not read) stays None."""
    if array is None or index is None:
        return array
    return array[index]


def vf_messages(compiled: CompiledModel, fv_prec: np.ndarray, fv_mean: np.ndarray | None,
                view=None):
    """Variable-to-factor (precisions, means) of every ``vf_pass`` row, or
    of the rows of ``view``, from the factor-to-variable ones in ``fv_pass`` order.

    Here and in :func:`fv_messages`, arrays are in pass order (see
    :class:`~gbpkit.model.EdgeTables`).  A whole pass gathers no
    parameter: each read term is formed once per message of the other
    pass and gathered by the columns.  A ``view``, ``Reads.select(rows)``
    of the pass's table for any positions in any order, computes those
    rows alone and gives them back in ``rows`` order: their reads are
    gathered first and the same terms formed from them, so a tick costs
    what its rows read, and a row's finite bits do not depend on which rows
    are computed with it (a NaN's may: see the module docstring).  Means of
    None give the precisions alone, the same bits, and means None.
    """
    position, place, reads, columns = view or (None, None, None, compiled.tables.vf_pass.columns)
    prec, mean = _variable_message(_at(compiled.pass_prior_prec, position), columns,
                                   _at(fv_prec, reads), _at(fv_mean, reads))
    return _at(prec, place), _at(mean, place)


def fv_messages(compiled: CompiledModel, vf_prec: np.ndarray, vf_mean: np.ndarray | None,
                view=None):
    """Factor-to-variable (precisions, means) of every ``fv_pass`` row, or
    of the rows of ``view``, from the variable-to-factor ones in ``vf_pass`` order."""
    position, place, reads, columns = view or (None, None, None, compiled.tables.fv_pass.columns)
    prec, mean = _factor_message(_at(compiled.pass_coeff, position), columns,
                                 _at(compiled.pass_neg_vf_coeff, reads), _at(vf_prec, reads),
                                 _at(vf_mean, reads), _at(compiled.pass_noise_obs, position))
    return _at(prec, place), _at(mean, place)


@_QUIET
def max_delta(old: np.ndarray, new: np.ndarray) -> float:
    """Largest |new - old| entry, NaN entries skipped, 0.0 when empty."""
    delta = np.subtract(new, old)
    return float(np.fmax.reduce(np.abs(delta, out=delta), initial=0.0))


def _diverged(precisions: np.ndarray, means: np.ndarray) -> bool:
    """A mean past the guard, or any non-finite precision or mean: an overflow
    that the NaN-skipping deltas would otherwise read as convergence.  A NaN
    mean makes the maximum NaN, which fails the test."""
    return not (np.abs(means).max(initial=0.0) <= DIVERGENCE_GUARD
                and np.isfinite(precisions).all())


def _moved(old_prec, old_mean, new_prec, new_mean, tolerance: float) -> bool:
    """Whether a delta is ``tolerance`` or more, or NaN; the precision delta
    is taken only when the mean delta is below ``tolerance``."""
    return not (max_delta(old_mean, new_mean) < tolerance
                and max_delta(old_prec, new_prec) < tolerance)


def _status(old_prec, old_mean, new_prec, new_mean, tolerance: float) -> str | None:
    """Diverged, converged once no message has moved (:func:`_moved`), or None."""
    if _diverged(new_prec, new_mean):
        return STATUS_DIVERGED
    return None if _moved(old_prec, old_mean, new_prec, new_mean, tolerance) else STATUS_CONVERGED


def _state(graph: FactorGraph, prec: np.ndarray, mean: np.ndarray, iteration: int) -> MessageState:
    return MessageState(ArrayMapping(prec, graph, "fv_edges"),
                        ArrayMapping(mean, graph, "fv_edges"), iteration)


def _canonical_state(graph, compiled: CompiledModel, prec, mean, iteration: int) -> MessageState:
    """``fv_pass``-order messages as a state, in canonical order.  Every
    run puts its last messages through this and drops their pass-order
    arrays before :func:`_finish` forms the beliefs."""
    order = compiled.tables.fv_pass.order
    return _state(graph, _canonical(order, prec), _canonical(order, mean), iteration)


def _finish(graph, compiled: CompiledModel, state: MessageState) -> tuple[BeliefSet, MessageState]:
    """How every run ends: the beliefs of its last state, already in
    canonical order (:func:`_canonical_state`), and the state."""
    return _beliefs(graph, compiled, state.precisions.array, state.means.array,
                    state.iteration), state


def _beliefs(graph, compiled: CompiledModel, prec, mean, iteration: int) -> BeliefSet:
    reads = graph.belief_reads
    precision, belief_mean = _variable_message(_inverse(compiled.columns.prior_var[reads.order]),
                                               reads.columns, prec, mean)
    return BeliefSet(
        variances=ArrayMapping(_canonical(reads.order, 1.0 / precision), graph, "variable_ids"),
        means=ArrayMapping(_canonical(reads.order, belief_mean), graph, "variable_ids"),
        iteration=iteration,
    )


@_QUIET
def edge_bounds(graph: FactorGraph, compiled: CompiledModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge envelope (lower, upper) of the factor-to-variable precision recursion.

    Upper: c_i^2 / noise_var, the precision when the other scope variables
    are known exactly.  Lower: c_i^2 divided by the noise variance plus the
    full prior variance of every other scope variable, the precision when
    nothing else has been learned.  Every post-first-sweep iterate lies in
    between regardless of initialization.  ``compiled`` is ``graph``'s.
    """
    noise_obs = compiled.pass_noise_obs
    # c**2 * prior_var, per vf_pass row: the prior variance, not its inverse, keeps the bits.
    prior_var = compiled.columns.prior_var[
        graph.edge_var[graph.vf_to_fv[compiled.tables.vf_pass.order]]]
    coeff = compiled.pass_neg_vf_coeff
    denom = _sum_reads(noise_obs.real, coeff * coeff * prior_var, compiled.tables.fv_pass.columns)
    target = compiled.pass_coeff * compiled.pass_coeff
    order = compiled.tables.fv_pass.order
    return _canonical(order, target / denom), _canonical(order, target / noise_obs.real)


def _explicit_values(graph: FactorGraph, given: Mapping[Edge, float], name: str, low: float):
    positions = graph.fv_position
    unknown = [edge for edge in given if edge not in positions]
    if unknown:
        raise ValueError(f"explicit init references unknown edges: {sorted(unknown)}")
    bad = sorted(
        edge for edge, value in given.items()
        if not (math.isfinite(number := _to_float(value, math.nan)) and number >= low)
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
        lower, upper = edge_bounds(graph, compile_model(graph, model))
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


def _vf_message_at(compiled: CompiledModel, state: MessageState,
                   position: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel on ``vf_pass`` row ``position`` alone, through the row's
    own view (:meth:`~gbpkit.model.Reads.select`): its reads one by one, in
    order, as length-1 columns, mapped to canonical positions by the other
    pass's ``order``."""
    tables = compiled.tables
    row, _, reads, columns = tables.vf_pass.select(tables.vf_pass.rank[[position]])
    reads = tables.fv_pass.order[reads]
    return _variable_message(compiled.pass_prior_prec[row], columns,
                             state.precisions.array[reads], state.means.array[reads])


def variable_to_factor(
    graph: FactorGraph,
    model: LinearGaussianModel,
    state: MessageState,
    edge: Edge,
) -> ScalarMessage:
    """Message for a directed (variable, factor) edge from the current state."""
    compiled = compile_model(graph, model)
    precision, mean = _vf_message_at(compiled, state, graph.vf_position[edge])
    return precision.item(), mean.item()


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
    tables = compiled.tables
    position = graph.fv_position[edge]
    row, _, reads, columns = tables.fv_pass.select(tables.fv_pass.rank[[position]])
    others = np.zeros((2, len(reads)))  # their (precisions, means), one row at a time
    for k, read in enumerate(tables.vf_pass.order[reads].tolist()):
        others[:, k:k + 1] = _vf_message_at(compiled, state, read)
    precision, mean = _factor_message(compiled.pass_coeff[row], columns,
                                      compiled.pass_neg_vf_coeff[reads], *others,
                                      compiled.pass_noise_obs[row])
    return precision.item(), mean.item()


def sweep(graph: FactorGraph, model: LinearGaussianModel, state: MessageState) -> MessageState:
    """One synchronous round: all variable-to-factor messages from the
    previous state, then all factor-to-variable messages from those."""
    compiled = compile_model(graph, model)
    prec, mean = fv_messages(compiled, *vf_messages(compiled, *_in_pass_order(compiled, state)))
    return _canonical_state(graph, compiled, prec, mean, state.iteration + 1)


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


def _in_pass_order(compiled: CompiledModel, state: MessageState):
    """``state``'s (precisions, means) in ``fv_pass`` order, as :func:`sweeps` takes them."""
    order = compiled.tables.fv_pass.order
    return state.precisions.array[order], state.means.array[order]


def sweeps(compiled: CompiledModel, prec, mean, stop, max_iters: int):
    """Sweep from factor-to-variable (precisions, means) in ``fv_pass`` order
    until ``stop(old_prec, old_mean, new_prec, new_mean)`` is not None or
    ``max_iters`` sweeps, yielding per sweep (iteration, fv_prec, fv_mean,
    outcome or None); means of None sweep the precisions alone.  The
    variable messages are freed once the factor pass has read them.
    Arrays stay in pass order (:class:`~gbpkit.model.EdgeTables`), which a
    stop test of maxima and alls does not see: callers put back in
    canonical order, through the tables' ``order``, only what they keep."""
    for iteration in range(1, max_iters + 1):
        new_prec, new_mean = fv_messages(compiled, *vf_messages(compiled, prec, mean))
        outcome = stop(prec, mean, new_prec, new_mean)
        yield iteration, new_prec, new_mean, outcome
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
    prec, mean = _in_pass_order(
        compiled, init_messages(graph, model, strategy or InitStrategy.zero()))
    for iteration, prec, mean, outcome in sweeps(
            compiled, prec, mean, partial(_status, tolerance=tolerance), max_iters):
        pass
    state = _canonical_state(graph, compiled, prec, mean, iteration)
    del prec, mean  # the pass-order pair, freed before the belief pass
    return RunResult(*_finish(graph, compiled, state), status=outcome or STATUS_MAX_ITERS)
