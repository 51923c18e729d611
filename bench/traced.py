"""The traced pass: each command assembled from its public layer calls.

Spans are recorded here, around the calls into gbpkit; nothing inside the
package is instrumented.  Each composed command is checked bit for bit
against the one-call API it mirrors (``run``, ``certify``, ``simulate``),
so the layer timings describe the same work the timed pass measures.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from gbpkit import analysis, engine, network
from gbpkit.model import (
    TOPOLOGY_FOREST,
    TOPOLOGY_SINGLE_LOOP,
    build_factor_graph,
    classify_topology,
    lingauss_to_gmrf,
    load_model,
)
from gbpkit.oracle import dense_posterior

import harness

# Layer metrics timed by span self time, as the median over commands of
# each command's total.  ``engine.sweep_s`` is instead the median per sweep.
SPAN_METRICS = (
    "model.load_model",
    "model.build_factor_graph",
    "model.classify_topology",
    "model.lingauss_to_gmrf",
    "engine.init_messages",
    "engine.step_status",
    "engine.compute_beliefs",
    "analysis.precision_bounds",
    "analysis.fixed_point_precisions",
    "analysis.build_mean_system",
    "analysis.spectral_radius",
    "analysis.walk_summability",
    "oracle.dense_posterior",
    "network.build_agents",
)

PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "engine.sweep_s": "s",
    "engine.sweep_us_per_edge": "us",
    "engine.sweeps": "count",
    "engine.edges": "count",
    "analysis.fixed_point_iters": "count",
    "analysis.mean_system_bytes": "B",
    "network.ticks": "count",
    "network.messages_sent": "count",
    "network.us_per_message": "us",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), parent, name, request, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [(s, s.end - s.start - child_time[s.id]) for s in self.spans]

    def write(self, path: Path, factors: dict[str, float]) -> None:
        """One JSON line per span; ``factor`` converts its wall seconds to reference seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in self.self_times():
                row = {"id": s.id, "parent": s.parent, "name": s.name, "request": s.request,
                       "start": s.start, "end": s.end, "self": own, "factor": factors.get(s.request)}
                fh.write(json.dumps(row) + "\n")


# --- composed commands -------------------------------------------------------


def traced_solve(tr: Tracer, path: Path, req: str):
    """``load_model`` + ``build_factor_graph`` + the loop of ``engine.run``."""
    with tr.span("command.solve", req) as cmd:
        with tr.span("model.load_model", req):
            model = load_model(path)
        with tr.span("model.build_factor_graph", req):
            graph = build_factor_graph(model)
        with tr.span("engine.init_messages", req):
            state = engine.init_messages(graph, model, engine.InitStrategy.zero())
        status = engine.STATUS_MAX_ITERS
        for _ in range(engine.DEFAULT_MAX_ITERS):
            with tr.span("engine.sweep", req):
                new = engine.sweep(graph, model, state)
            with tr.span("engine.step_status", req):
                outcome = engine.step_status(state, new, engine.DEFAULT_TOLERANCE)
            state = new
            if outcome is not None:
                status = outcome
                break
        with tr.span("engine.compute_beliefs", req):
            beliefs = engine.compute_beliefs(graph, model, state)
    return model, engine.RunResult(beliefs=beliefs, state=state, status=status), cmd


def traced_crosscheck(tr: Tracer, model, beliefs, req: str):
    with tr.span("command.crosscheck", req) as cmd:
        with tr.span("oracle.dense_posterior", req):
            posterior = dense_posterior(model)
        deviation = harness.oracle_deviation(beliefs, posterior)
    return deviation, cmd


def traced_analyze(tr: Tracer, path: Path, req: str):
    """``certify`` spelled out call by call, verdict rule included."""
    with tr.span("command.analyze", req) as cmd:
        with tr.span("model.load_model", req):
            model = load_model(path)
        with tr.span("model.build_factor_graph", req):
            graph = build_factor_graph(model)
        with tr.span("model.classify_topology", req):
            topology = classify_topology(graph)
        with tr.span("analysis.precision_bounds", req):
            bounds = analysis.precision_bounds(graph, model)
        with tr.span("analysis.fixed_point_precisions", req):
            fixed_point = analysis.fixed_point_precisions(graph, model)
        with tr.span("analysis.build_mean_system", req):
            mean_system = analysis.build_mean_system(graph, model, fixed_point)
        with tr.span("analysis.spectral_radius", req):
            rho = analysis.spectral_radius(mean_system.matrix)
        with tr.span("model.lingauss_to_gmrf", req):
            gmrf = lingauss_to_gmrf(model)
        with tr.span("analysis.walk_summability", req):
            walk = analysis.walk_summability(gmrf)
        if topology.kind in (TOPOLOGY_FOREST, TOPOLOGY_SINGLE_LOOP):
            verdict, basis = analysis.VERDICT_CONVERGES, analysis.BASIS_TOPOLOGY
        elif rho < 1.0 - analysis.SPECTRAL_MARGIN:
            verdict, basis = analysis.VERDICT_CONVERGES, analysis.BASIS_SPECTRAL
        elif rho > 1.0 + analysis.SPECTRAL_MARGIN:
            verdict, basis = analysis.VERDICT_DIVERGES, None
        else:
            verdict, basis = analysis.VERDICT_INCONCLUSIVE, None
    cert = analysis.ConvergenceCertificate(
        topology=topology, bounds=bounds, fixed_point=fixed_point, mean_system=mean_system,
        mean_spectral_radius=rho, walk_summability=walk, verdict=verdict, basis=basis,
    )
    return cert, cmd


def traced_simulate(tr: Tracer, path: Path, req: str):
    """The CLI's ``load_model`` + ``simulate``, with the graph and agents
    ``simulate`` builds internally also built once on their own, to time them."""
    with tr.span("command.simulate", req) as cmd:
        with tr.span("model.load_model", req):
            model = load_model(path)
        with tr.span("model.build_factor_graph", req):
            graph = build_factor_graph(model)
        with tr.span("network.build_agents", req):
            network.build_agents(graph, model)
        with tr.span("network.simulate", req):
            sim = network.simulate(model, network.Schedule.synchronous())
    return sim, cmd


# --- bit-for-bit comparisons -------------------------------------------------


def same_certificate(a: analysis.ConvergenceCertificate, b: analysis.ConvergenceCertificate) -> list[str]:
    if (a.mean_spectral_radius, a.verdict, a.basis, a.topology, a.fixed_point.iterations,
            a.walk_summability) != (b.mean_spectral_radius, b.verdict, b.basis, b.topology,
                                    b.fixed_point.iterations, b.walk_summability):
        return ["composed analyze differs from certify()"]
    return []


def same_simulation(a: network.SimulationResult, b: network.SimulationResult) -> list[str]:
    if (a.beliefs.means, a.beliefs.variances, a.ticks, a.status, a.messages_sent) != (
        b.beliefs.means, b.beliefs.variances, b.ticks, b.status, b.messages_sent
    ):
        return ["traced simulate differs from simulate()"]
    return []


# --- the pass ----------------------------------------------------------------


def traced_pass(workload, seeds, paths, seconds: float, ledger: harness.Ledger, tracer: Tracer):
    """Each round runs every command untraced, then traced, on one pool model.

    Returns the per-layer metrics and each traced command's factor.  Layer
    times are in reference seconds, like the end-to-end ones (see
    ``harness.Yardstick``).  The overhead is in wall seconds and compares
    solve, crosscheck and analyze only: traced simulate does extra builds
    on purpose.
    """
    untraced_totals: list[float] = []
    traced_totals: list[float] = []
    yardstick = harness.Yardstick()
    factors: dict[str, float] = {}
    counts: dict = {}
    sweep_us_per_edge: list[float] = []
    us_per_message: list[float] = []

    def one_round(r: int, k: int) -> None:
        path = paths[k]
        req = f"{workload.name}/{seeds[0]}/r{r}/m{k}"
        model, graph, result, setup_s, solve_s = harness.command_solve(path)
        deviation, cross_s = harness.command_crosscheck(model, result.beliefs)
        ledger.record(f"solve[{k}]", harness.check_solve(result, deviation, workload))
        del model, graph
        sim, _ = harness.command_simulate(path)
        ledger.record(f"simulate[{k}]", harness.check_simulate(sim, result))
        cert, analyze_setup_s, analyze_s = harness.command_analyze(path)
        ledger.record(f"analyze[{k}]", harness.check_analyze(cert, result.status, workload))
        untraced_totals.append(setup_s + solve_s + cross_s + analyze_setup_s + analyze_s)

        yardstick.factor()  # a fresh kernel time just before the traced commands
        t_model, t_result, solve_cmd = traced_solve(tracer, path, req + "/solve")
        factors[solve_cmd.request] = solve_factor = yardstick.factor()
        ledger.record(f"traced.solve[{k}]", harness.same_run(t_result, result))
        t_deviation, cross_cmd = traced_crosscheck(tracer, t_model, t_result.beliefs, req + "/crosscheck")
        factors[cross_cmd.request] = yardstick.factor()
        ledger.record(f"traced.crosscheck[{k}]", [] if t_deviation == deviation else ["deviation differs"])
        del t_model
        t_sim, sim_cmd = traced_simulate(tracer, path, req + "/simulate")
        factors[sim_cmd.request] = sim_factor = yardstick.factor()
        ledger.record(f"traced.simulate[{k}]", same_simulation(t_sim, sim))
        t_cert, analyze_cmd = traced_analyze(tracer, path, req + "/analyze")
        factors[analyze_cmd.request] = yardstick.factor()
        ledger.record(f"traced.analyze[{k}]", same_certificate(t_cert, cert))
        traced_totals.append(sum(c.end - c.start for c in (solve_cmd, cross_cmd, analyze_cmd)))

        edges = len(result.state.precisions)
        sweep_us_per_edge.extend(
            (s.end - s.start) * solve_factor / edges * 1e6
            for s in tracer.spans[solve_cmd.id:cross_cmd.id] if s.name == "engine.sweep"
        )
        sim_span = next(s for s in tracer.spans[sim_cmd.id:] if s.name == "network.simulate")
        us_per_message.append((sim_span.end - sim_span.start) * sim_factor / t_sim.messages_sent * 1e6)
        if r == 0:
            dim = len(cert.mean_system.edges)
            counts.update(sweeps=result.state.iteration, edges=edges, ticks=sim.ticks,
                          messages=sim.messages_sent, fixed_point_iters=cert.fixed_point.iterations,
                          mean_system_bytes=8 * dim * (dim + 1))

    harness.run_rounds(seconds, len(paths), one_round)
    metrics = layer_metrics(tracer, factors, counts, sweep_us_per_edge, us_per_message,
                            statistics.median(traced_totals) - statistics.median(untraced_totals))
    return metrics, factors


def layer_metrics(tracer: Tracer, factors, counts, sweep_us_per_edge, us_per_message,
                  overhead_s) -> dict[str, float]:
    """Layer times in reference seconds, each span scaled by its command's factor."""
    per_request: dict[tuple[str, str], float] = {}
    sweeps: list[float] = []
    for s, own in tracer.self_times():
        own *= factors[s.request]
        key = (s.name, s.request)
        per_request[key] = per_request.get(key, 0.0) + own
        if s.name == "engine.sweep":
            sweeps.append(own)
    metrics = {}
    for name in SPAN_METRICS:
        values = [v for (n, _), v in per_request.items() if n == name]
        metrics[f"{name}_s"] = statistics.median(values)
    metrics.update({
        "engine.sweep_s": statistics.median(sweeps),
        "engine.sweep_us_per_edge": statistics.median(sweep_us_per_edge),
        "engine.sweeps": counts["sweeps"],
        "engine.edges": counts["edges"],
        "analysis.fixed_point_iters": counts["fixed_point_iters"],
        "analysis.mean_system_bytes": counts["mean_system_bytes"],
        "network.ticks": counts["ticks"],
        "network.messages_sent": counts["messages"],
        "network.us_per_message": statistics.median(us_per_message),
        "trace.overhead_s": overhead_s,
    })
    return metrics
