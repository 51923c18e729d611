"""Agent-based simulation of the engine over a message-passing network.

One agent per variable; an agent also hosts the factor sharing its
position in the canonical order, with leftover factors assigned to the
agent of their lowest-indexed scope variable.  Agents see only their own
parameters and inboxes, never the model or each other; the harness routes
every message and checks that its endpoints are graph neighbors.

The synchronous schedule performs the engine's sweep phase by phase with
the engine's own kernels, so its results (messages, beliefs, tick count,
status) equal an engine run bit for bit.  The random-sequential schedule
updates one seeded-random agent per tick from whatever its inboxes hold.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import engine
from .model import FactorGraph, LinearGaussianModel, build_factor_graph

Edge = tuple[str, str]

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


@dataclass(frozen=True)
class HostedFactor:
    """A factor's local parameters as stored on its host agent."""

    id: str
    scope: tuple[str, ...]
    coeffs: tuple[float, ...]
    noise_var: float
    obs: float


@dataclass
class Agent:
    """Holds one variable, zero or more factors, and their inboxes.

    Methods read only local state; everything an agent knows about the
    rest of the network is which neighbors its nodes have and what those
    neighbors last sent.
    """

    variable_id: str
    prior_var: float
    factor_neighbors: tuple[str, ...]
    hosted_factors: tuple[HostedFactor, ...]
    fv_inbox: dict[str, engine.ScalarMessage] = field(default_factory=dict)
    vf_inbox: dict[Edge, engine.ScalarMessage] = field(default_factory=dict)

    def variable_messages(self) -> list[tuple[Edge, engine.ScalarMessage]]:
        out = []
        for target in self.factor_neighbors:
            incoming = [
                self.fv_inbox[other] for other in self.factor_neighbors if other != target
            ]
            message = engine._variable_message(self.prior_var, incoming)
            out.append(((self.variable_id, target), message))
        return out

    def factor_messages(self) -> list[tuple[Edge, engine.ScalarMessage]]:
        out = []
        for factor in self.hosted_factors:
            for k, target in enumerate(factor.scope):
                others = [
                    (coeff, self.vf_inbox[(v, factor.id)])
                    for v, coeff in zip(factor.scope, factor.coeffs)
                    if v != target
                ]
                message = engine._factor_message(
                    factor.coeffs[k], others, factor.noise_var, factor.obs
                )
                out.append(((factor.id, target), message))
        return out

    def belief(self) -> tuple[float, float]:
        incoming = [self.fv_inbox[fid] for fid in self.factor_neighbors]
        precision, mean = engine._variable_message(self.prior_var, incoming)
        return 1.0 / precision, mean


@dataclass(frozen=True)
class SimulationResult:
    beliefs: engine.BeliefSet
    ticks: int
    status: str
    messages_sent: int
    state: engine.MessageState


def build_agents(
    graph: FactorGraph, model: LinearGaussianModel
) -> tuple[list[Agent], dict[str, int], dict[str, int]]:
    """Agents plus the variable->agent and factor->agent assignment."""
    variable_host = {vid: k for k, vid in enumerate(graph.variable_ids)}
    factor_host: dict[str, int] = {}
    hosted: dict[int, list[HostedFactor]] = {}
    for k, (fid, factor) in enumerate(zip(graph.factor_ids, model.factors)):
        # Scopes are in canonical variable order: scope[0] is the lowest.
        scope = graph.factor_neighbors[fid]
        if k < len(graph.variable_ids):
            host = k
        elif scope:
            host = variable_host[scope[0]]
        else:
            host = 0
        factor_host[fid] = host
        hosted.setdefault(host, []).append(
            HostedFactor(
                id=fid,
                scope=scope,
                coeffs=tuple(factor.coeffs[v] for v in scope),
                noise_var=factor.noise_var,
                obs=factor.obs,
            )
        )

    agents = [
        Agent(
            variable_id=vid,
            prior_var=model.prior_var(vid),
            factor_neighbors=graph.variable_neighbors[vid],
            hosted_factors=tuple(hosted.get(k, ())),
            fv_inbox={fid: (0.0, 0.0) for fid in graph.variable_neighbors[vid]},
        )
        for k, vid in enumerate(graph.variable_ids)
    ]
    return agents, variable_host, factor_host


class _Network:
    """Routes messages between agents, enforcing graph adjacency."""

    def __init__(self, graph, agents, variable_host, factor_host, log_rows):
        self.graph = graph
        self.agents = agents
        self.variable_host = variable_host
        self.factor_host = factor_host
        self.log_rows = log_rows
        self.sent = 0
        self.fv_mirror: dict[Edge, engine.ScalarMessage] = {
            edge: (0.0, 0.0) for edge in graph.fv_edges
        }

    def deliver_vf(self, tick: int, edge: Edge, message: engine.ScalarMessage) -> None:
        vid, fid = edge
        if fid not in self.graph.variable_neighbors[vid]:
            raise RuntimeError(f"message between non-neighbors {vid!r} -> {fid!r}")
        self.agents[self.factor_host[fid]].vf_inbox[edge] = message
        self.sent += 1
        if self.log_rows is not None:
            self.log_rows.append((tick, vid, fid, message[0], message[1]))

    def deliver_fv(self, tick: int, edge: Edge, message: engine.ScalarMessage) -> None:
        fid, vid = edge
        if vid not in self.graph.factor_neighbors[fid]:
            raise RuntimeError(f"message between non-neighbors {fid!r} -> {vid!r}")
        self.agents[self.variable_host[vid]].fv_inbox[fid] = message
        self.fv_mirror[edge] = message
        self.sent += 1
        if self.log_rows is not None:
            self.log_rows.append((tick, fid, vid, message[0], message[1]))

    def mirror_state(self, tick: int) -> engine.MessageState:
        return engine.MessageState(
            precisions={edge: msg[0] for edge, msg in self.fv_mirror.items()},
            means={edge: msg[1] for edge, msg in self.fv_mirror.items()},
            iteration=tick,
        )


def _collect_beliefs(agents, tick: int) -> engine.BeliefSet:
    variances: dict[str, float] = {}
    means: dict[str, float] = {}
    for agent in agents:
        variance, mean = agent.belief()
        variances[agent.variable_id] = variance
        means[agent.variable_id] = mean
    return engine.BeliefSet(variances=variances, means=means, iteration=tick)


def _write_log(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,sender,receiver,precision,mean\n")
        for tick, sender, receiver, precision, mean in rows:
            fh.write(f"{tick},{sender},{receiver},{precision:.17g},{mean:.17g}\n")


def simulate(
    model: LinearGaussianModel,
    schedule: Schedule,
    tolerance: float = engine.DEFAULT_TOLERANCE,
    max_ticks: int = engine.DEFAULT_MAX_ITERS,
    log_path=None,
) -> SimulationResult:
    """Run the network until quiet, divergence, or the tick budget.

    Synchronous: a tick is one engine sweep (all variable messages from
    the previous tick's inboxes, then all factor messages), with the
    engine's stopping rule applied to the mirrored traffic.
    Random-sequential: a tick re-emits one random agent's outgoing
    messages; the run is converged once every agent has taken a turn
    without moving any message by the tolerance or more.
    """
    engine.check_tolerance(tolerance)
    if max_ticks < 1:
        raise ValueError("max_ticks must be at least 1")
    graph = build_factor_graph(model)
    log_rows: list | None = [] if log_path is not None else None
    agents, variable_host, factor_host = build_agents(graph, model)
    network = _Network(graph, agents, variable_host, factor_host, log_rows)

    if schedule.kind == SCHEDULE_SYNCHRONOUS:
        result = _run_synchronous(graph, agents, network, tolerance, max_ticks)
    else:
        result = _run_random_sequential(graph, agents, network, schedule, tolerance, max_ticks)

    if log_path is not None:
        _write_log(log_path, log_rows)
    return result


def _run_synchronous(graph, agents, network, tolerance, max_ticks) -> SimulationResult:
    state = network.mirror_state(0)
    status = engine.STATUS_MAX_ITERS
    tick = 0
    for tick in range(1, max_ticks + 1):
        for agent in agents:
            for edge, message in agent.variable_messages():
                network.deliver_vf(tick, edge, message)
        for agent in agents:
            for edge, message in agent.factor_messages():
                network.deliver_fv(tick, edge, message)
        new = network.mirror_state(tick)
        outcome = engine.step_status(state, new, tolerance)
        state = new
        if outcome is not None:
            status = outcome
            break
    return SimulationResult(
        beliefs=_collect_beliefs(agents, tick),
        ticks=tick,
        status=status,
        messages_sent=network.sent,
        state=state,
    )


def _run_random_sequential(graph, agents, network, schedule, tolerance, max_ticks) -> SimulationResult:
    if not agents:
        return SimulationResult(
            beliefs=engine.BeliefSet(variances={}, means={}, iteration=0),
            ticks=0,
            status=engine.STATUS_CONVERGED,
            messages_sent=0,
            state=network.mirror_state(0),
        )

    # Tick 0 flush so every factor has variable messages to read.
    vf_mirror: dict[Edge, engine.ScalarMessage] = {}
    for agent in agents:
        for edge, message in agent.variable_messages():
            network.deliver_vf(0, edge, message)
            vf_mirror[edge] = message

    rng = random.Random(schedule.seed)
    quiet: set[str] = set()
    status = engine.STATUS_MAX_ITERS
    tick = 0
    for tick in range(1, max_ticks + 1):
        agent = agents[rng.randrange(len(agents))]
        moved = 0.0
        for edge, message in agent.variable_messages():
            old = vf_mirror[edge]
            moved = max(moved, abs(message[0] - old[0]), abs(message[1] - old[1]))
            vf_mirror[edge] = message
            network.deliver_vf(tick, edge, message)
        for edge, message in agent.factor_messages():
            old = network.fv_mirror[edge]
            moved = max(moved, abs(message[0] - old[0]), abs(message[1] - old[1]))
            network.deliver_fv(tick, edge, message)

        if moved < tolerance:
            quiet.add(agent.variable_id)
        else:
            quiet = set()
        if engine.state_diverged(network.mirror_state(tick)):
            status = engine.STATUS_DIVERGED
            break
        if len(quiet) == len(agents):
            status = engine.STATUS_CONVERGED
            break
    return SimulationResult(
        beliefs=_collect_beliefs(agents, tick),
        ticks=tick,
        status=status,
        messages_sent=network.sent,
        state=network.mirror_state(tick),
    )
