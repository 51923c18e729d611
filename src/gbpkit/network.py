"""Agent-based simulation of the engine over the graph's edge tables.

One agent per variable; an agent also hosts the factor sharing its
position in the canonical order, with leftover factors assigned to the
agent of their lowest-indexed scope variable (an empty-scope one to agent
0).  An agent owns the messages its nodes send: one run of ``vf_edges``
positions and one run of ``fv_order``, the ``fv_edges`` positions sorted
stably by host.  Those rows read only edges into the agent's own variable
and factors, so an agent sees nothing but what its graph neighbours sent.
:func:`simulate` reads these index runs; only :func:`build_agents` wraps
them in :class:`Agent` records.

Both schedules keep the messages in pass order (see
:class:`~gbpkit.model.EdgeTables`), write each tick's messages to the
event log in canonical order as they send them, keeping none in memory,
and end as :func:`gbpkit.engine.run` does: a :class:`SimulationResult`
is a :class:`~gbpkit.engine.RunResult` plus the messages sent.  The
synchronous schedule iterates the engine's own sweep loop
(:func:`gbpkit.engine.sweeps`), adding only the log, which computes each
tick's variable messages again from the same inputs, and the message
count, so its results (messages, beliefs, tick count, status) equal an
engine run bit for bit.  The random-sequential schedule recomputes one
seeded-random agent's rows per tick, in place: the pass positions of its
runs (the tables' ``rank``), through a jagged view of those rows alone
(:meth:`gbpkit.model.Reads.select`), so a tick's cost follows the
agent's size, not the graph's.  An agent's rows and views are built on
its first tick and kept for the rest of the run.
"""
from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import engine
from .model import FactorGraph, LinearGaussianModel, _ids, _runs, _sorted_by, build_factor_graph

SCHEDULE_SYNCHRONOUS = "synchronous"
SCHEDULE_RANDOM_SEQUENTIAL = "random-sequential"


@dataclass(frozen=True)
class Schedule:
    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in (SCHEDULE_SYNCHRONOUS, SCHEDULE_RANDOM_SEQUENTIAL):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == SCHEDULE_RANDOM_SEQUENTIAL and self.seed is None:
            raise ValueError("random-sequential schedule requires a seed")

    @classmethod
    def synchronous(cls) -> "Schedule":
        return cls(SCHEDULE_SYNCHRONOUS)

    @classmethod
    def random_sequential(cls, seed: int) -> "Schedule":
        return cls(SCHEDULE_RANDOM_SEQUENTIAL, seed=seed)


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class Agent:
    """One variable, the factors it hosts, and the edge-table rows they send:
    ``vf_rows`` in ``vf_edges``, ``fv_rows`` in ``fv_edges``, canonical order."""

    variable_id: str
    factor_neighbors: tuple[str, ...]
    hosted_factors: tuple[str, ...]
    vf_rows: np.ndarray
    fv_rows: np.ndarray


@dataclass(frozen=True)
class SimulationResult(engine.RunResult):
    """A run plus the messages sent; a tick is an iteration."""

    messages_sent: int

    @property
    def ticks(self) -> int:
        return self.state.iteration


def _hosting(graph: FactorGraph):
    """Each factor's host, ``fv_order``, and per agent its (start, stop) run
    of ``vf_edges`` and of ``fv_order``: both are sorted by sending node,
    stably, so each run keeps canonical order."""
    n_vars = len(graph.variable_ids)
    host = np.zeros(len(graph.factor_ids), dtype=np.intp)
    # fv_edges is sorted by factor, then variable: a factor's run of edges
    # starts at its lowest-indexed scope variable.
    scope = np.bincount(graph.edge_factor, minlength=len(host))
    scoped = scope > 0
    host[scoped] = graph.edge_var[(np.cumsum(scope) - scope)[scoped]]
    host[:n_vars] = np.arange(min(n_vars, len(host)))
    edge_host = host[graph.edge_factor]
    return (host, _sorted_by(edge_host, n_vars),
            _runs(graph.edge_var, n_vars), _runs(edge_host, n_vars))


def build_agents(
    graph: FactorGraph, model: LinearGaussianModel
) -> tuple[list[Agent], dict[str, int], dict[str, int]]:
    """Agents plus the variable->agent and factor->agent assignment.

    Hosting depends on the graph alone; ``model`` is not read.  An
    empty-scope factor past the variable count goes to agent 0; with no
    variables there are no agents, and no factor gets a host entry.
    """
    host, fv_order, vf_runs, fv_runs = _hosting(graph)
    hosted_ids = _ids(graph.factor_ids, _sorted_by(host, max(len(graph.variable_ids), 1)))
    agents = [
        Agent(vid, graph.variable_neighbors[vid], tuple(hosted_ids[f_start:f_stop]),
              np.arange(vf_start, vf_stop), fv_order[fv_start:fv_stop])
        for vid, (f_start, f_stop), (vf_start, vf_stop), (fv_start, fv_stop) in zip(
            graph.variable_ids, _runs(host, len(graph.variable_ids)), vf_runs, fv_runs)
    ]
    factor_host = dict(zip(graph.factor_ids, host.tolist())) if agents else {}
    return agents, dict(graph.variable_order), factor_host


def _log_rows(log, tick, edges, precisions, means) -> None:
    rows = zip(edges, precisions.tolist(), means.tolist())
    log.writelines(f"{tick},{sender},{receiver},{precision:.17g},{mean:.17g}\n"
                   for (sender, receiver), precision, mean in rows)


def simulate(
    model: LinearGaussianModel,
    schedule: Schedule,
    tolerance: float = engine.DEFAULT_TOLERANCE,
    max_ticks: int = engine.DEFAULT_MAX_ITERS,
    log_path=None,
) -> SimulationResult:
    """Run the network until quiet, divergence, or the tick budget.

    Synchronous: a tick is one sweep of the engine's own loop
    (:func:`gbpkit.engine.sweeps`), stopping rule included.
    Random-sequential: a tick recomputes one random agent's outgoing
    messages; the run is converged once every agent has taken a turn
    without moving any message by the tolerance or more.

    ``log_path`` receives every message sent, written as it is sent:
    per tick the variable messages in ``vf_edges`` order, then each
    agent's factor messages in agent order.  The file is opened before
    the first sweep, so an unusable path raises ``OSError`` before any
    work; a run that raises midway leaves the rows written so far.
    """
    engine.check_limits(tolerance, max_ticks, "max_ticks")
    graph = build_factor_graph(model)
    compiled = engine.compile_model(graph, model)
    with nullcontext() if log_path is None else open(log_path, "w", encoding="utf-8") as log:
        if log is not None:
            log.write("tick,sender,receiver,precision,mean\n")
        if schedule.kind == SCHEDULE_SYNCHRONOUS:
            outcome = _run_synchronous(graph, compiled, tolerance, max_ticks, log)
        else:
            outcome = _run_random_sequential(graph, compiled, schedule.seed, tolerance,
                                             max_ticks, log)
    state, status, sent = outcome
    return SimulationResult(*engine._finish(graph, compiled, state), status=status,
                            messages_sent=sent)


def _run_synchronous(graph, compiled, tolerance, max_ticks, log):
    # The sweeps keep messages in pass order; rows are logged in canonical
    # order, the factor messages agent by agent.
    vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
    if log is not None:
        _, fv_order, _, _ = _hosting(graph)
        fv_edges = [graph.fv_edges[k] for k in fv_order]
        fv_logged = fv_pass.rank[fv_order]
    # The log computes a tick's variable messages again, from the previous tick's messages.
    prec = mean = np.zeros(len(graph.edge_var))  # in any order; not held past the first tick
    for tick, new_prec, new_mean, outcome in engine.sweeps(
            compiled, prec, mean, partial(engine._status, tolerance=tolerance), max_ticks):
        if log is not None:
            vf_prec, vf_mean = engine.vf_messages(compiled, prec, mean)
            _log_rows(log, tick, graph.vf_edges, vf_prec[vf_pass.rank], vf_mean[vf_pass.rank])
            _log_rows(log, tick, fv_edges, new_prec[fv_logged], new_mean[fv_logged])
            del vf_prec, vf_mean  # freed before the next sweep's variable pass
        prec, mean = new_prec, new_mean
    return (engine._canonical_state(graph, compiled, prec, mean, tick),
            outcome or engine.STATUS_MAX_ITERS, tick * 2 * len(graph.edge_var))


def _replace_rows(prec, mean, rows, new_prec, new_mean, tolerance: float) -> bool:
    """Write the rows' new messages in place; return whether any moved, by
    the rule of ``engine._status`` (:func:`gbpkit.engine._moved`)."""
    moved = engine._moved(prec[rows], mean[rows], new_prec, new_mean, tolerance)
    prec[rows], mean[rows] = new_prec, new_mean
    return moved


def _run_random_sequential(graph, compiled, seed, tolerance, max_ticks, log):
    vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
    fv_prec, fv_mean = np.zeros(len(graph.edge_var)), np.zeros(len(graph.edge_var))
    if not graph.variable_ids:
        state = engine._canonical_state(graph, compiled, fv_prec, fv_mean, 0)
        return state, engine.STATUS_CONVERGED, 0
    _, fv_order, vf_runs, fv_runs = _hosting(graph)

    # Tick 0 flush so every factor has variable messages to read.
    vf_prec, vf_mean = engine.vf_messages(compiled, fv_prec, fv_mean)
    sent = len(graph.edge_var)
    if log is not None:
        _log_rows(log, 0, graph.vf_edges, vf_prec[vf_pass.rank], vf_mean[vf_pass.rank])

    rng = random.Random(seed)
    quiet: set[int] = set()
    views: list[tuple | None] = [None] * len(vf_runs)  # per agent, built on its first tick
    status = engine.STATUS_MAX_ITERS
    for tick in range(1, max_ticks + 1):
        k = rng.randrange(len(vf_runs))
        vf_run, fv_run = slice(*vf_runs[k]), slice(*fv_runs[k])
        if views[k] is None:
            vf_rows, fv_rows = vf_pass.rank[vf_run], fv_pass.rank[fv_order[fv_run]]
            views[k] = vf_rows, fv_rows, vf_pass.select(vf_rows), fv_pass.select(fv_rows)
        vf_rows, fv_rows, vf_view, fv_view = views[k]
        new_vf = engine.vf_messages(compiled, fv_prec, fv_mean, view=vf_view)
        moved = _replace_rows(vf_prec, vf_mean, vf_rows, *new_vf, tolerance)
        new_fv = engine.fv_messages(compiled, vf_prec, vf_mean, view=fv_view)
        moved |= _replace_rows(fv_prec, fv_mean, fv_rows, *new_fv, tolerance)
        sent += len(vf_rows) + len(fv_rows)
        if log is not None:
            _log_rows(log, tick, graph.vf_edges[vf_run], *new_vf)
            _log_rows(log, tick, [graph.fv_edges[r] for r in fv_order[fv_run]], *new_fv)

        if moved:
            quiet = set()
        else:
            quiet.add(k)
        # Only this agent's factor messages changed; the rest passed before.
        if engine._diverged(*new_fv):
            status = engine.STATUS_DIVERGED
            break
        if len(quiet) == len(vf_runs):
            status = engine.STATUS_CONVERGED
            break
    return engine._canonical_state(graph, compiled, fv_prec, fv_mean, tick), status, sent
