"""Workloads, correctness gate, timed pass and memory pass of the gbpkit benchmark.

Each workload is a family of seeded models (see NOTES.md).  A run writes its
models to JSON first, so gbpkit receives only the generated input, then
drives the four user-facing commands as one closed-loop caller would: each
command loads the model file, does its work and returns before the next one
starts.  The untimed memory pass and the traced pass (``traced.py``) run the
same commands under ``tracemalloc`` or with spans around each layer call.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gbpkit import analysis, engine, generate, network
from gbpkit.model import build_factor_graph, load_model, save_model
from gbpkit.oracle import dense_posterior

ORACLE_TOLERANCE = 1e-8
POOL_SIZE = 3
MIB = 2.0**20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    size: int
    exact_variances: bool  # beliefs are exact on forests, variances included
    topology_basis: bool  # topology alone must decide the certificate


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree", generate.KIND_TREE, 2000, True, True),
        Workload("single-loop", generate.KIND_SINGLE_LOOP, 2000, False, True),
        Workload("loopy", generate.KIND_RANDOM_LOOPY, 1000, False, False),
    )
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "analyze_s": "s",
    "simulate_s": "s",
    "crosscheck_s": "s",
    "solve_peak_mib": "MiB",
    "analyze_peak_mib": "MiB",
    "simulate_peak_mib": "MiB",
}


def pool_seeds(seed: int) -> list[int]:
    """The run's own seed first, then seeds drawn from it.

    Drawn rather than consecutive, so runs at neighbouring seeds share no
    model and their spread is the real spread across inputs.
    """
    drawn = np.random.SeedSequence(seed).generate_state(POOL_SIZE - 1)
    return [seed] + [int(s) for s in drawn]


def write_pool(workload: Workload, seed: int, directory: Path, size: int | None = None) -> list[Path]:
    """Generate the pool's models and write each to JSON; ``size`` overrides the workload's."""
    paths = []
    for k, model_seed in enumerate(pool_seeds(seed)):
        model = generate.generate_model(workload.kind, size or workload.size, model_seed)
        path = directory / f"{workload.name}-{k}.json"
        save_model(model, path)
        paths.append(path)
    return paths


# --- correctness gate --------------------------------------------------------
#
# Each checker returns the list of problems it found; an empty list passes.


def check_solve(result: engine.RunResult, deviation: tuple[float, float], workload: Workload) -> list[str]:
    mean_dev, var_dev = deviation
    problems = []
    if result.status != engine.STATUS_CONVERGED:
        problems.append(f"solve status {result.status}")
    if not mean_dev <= ORACLE_TOLERANCE:
        problems.append(f"max |mean - oracle mean| = {mean_dev:.3g}")
    if workload.exact_variances and not var_dev <= ORACLE_TOLERANCE:
        problems.append(f"max |variance - oracle variance| = {var_dev:.3g} on a forest")
    return problems


def check_simulate(sim: network.SimulationResult, solved: engine.RunResult) -> list[str]:
    problems = []
    if sim.beliefs.means != solved.beliefs.means or sim.beliefs.variances != solved.beliefs.variances:
        problems.append("simulate beliefs differ from solve")
    if sim.ticks != solved.state.iteration:
        problems.append(f"simulate ran {sim.ticks} ticks, solve {solved.state.iteration} sweeps")
    if sim.status != solved.status:
        problems.append(f"simulate status {sim.status}, solve {solved.status}")
    return problems


def check_analyze(cert: analysis.ConvergenceCertificate, solve_status: str, workload: Workload) -> list[str]:
    problems = []
    converged = solve_status == engine.STATUS_CONVERGED
    if cert.verdict == analysis.VERDICT_CONVERGES and not converged:
        problems.append(f"certified to converge but solve ended {solve_status}")
    if cert.verdict == analysis.VERDICT_DIVERGES and converged:
        problems.append("certified to diverge but solve converged")
    if workload.topology_basis and cert.basis != analysis.BASIS_TOPOLOGY:
        problems.append(f"basis {cert.basis}, expected topology")
    return problems


def same_run(a: engine.RunResult, b: engine.RunResult) -> list[str]:
    if (a.beliefs.means, a.beliefs.variances, a.status, a.state.iteration) != (
        b.beliefs.means, b.beliefs.variances, b.status, b.state.iteration
    ):
        return ["solve results differ bit for bit"]
    return []


def oracle_deviation(beliefs: engine.BeliefSet, posterior) -> tuple[float, float]:
    """Worst mean and variance deviation, looked up as ``solve --oracle`` does."""
    worst_mean = 0.0
    worst_var = 0.0
    for vid in beliefs.means:
        worst_mean = max(worst_mean, abs(beliefs.means[vid] - posterior.mean_of(vid)))
        worst_var = max(worst_var, abs(beliefs.variances[vid] - posterior.variance_of(vid)))
    return worst_mean, worst_var


class Ledger:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")


# --- the commands, untraced --------------------------------------------------


def command_solve(path: Path):
    t0 = time.perf_counter()
    model = load_model(path)
    graph = build_factor_graph(model)
    t1 = time.perf_counter()
    result = engine.run(graph, model)
    t2 = time.perf_counter()
    return model, graph, result, t1 - t0, t2 - t1


def command_crosscheck(model, beliefs: engine.BeliefSet):
    t0 = time.perf_counter()
    deviation = oracle_deviation(beliefs, dense_posterior(model))
    return deviation, time.perf_counter() - t0


def command_analyze(path: Path):
    t0 = time.perf_counter()
    model = load_model(path)
    graph = build_factor_graph(model)
    t1 = time.perf_counter()
    cert = analysis.certify(graph, model)
    t2 = time.perf_counter()
    return cert, t1 - t0, t2 - t1


def command_simulate(path: Path):
    model = load_model(path)
    t0 = time.perf_counter()
    sim = network.simulate(model, network.Schedule.synchronous())
    return sim, time.perf_counter() - t0


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples above it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


REFERENCE_SECONDS = 0.01


def reference_kernel() -> float:
    """Fixed pure-Python work, tuple-keyed dicts and float arithmetic like
    the engine's, that the benchmark uses to gauge the machine's current speed."""
    table = {}
    for i in range(20000):
        table[(i, i + 1)] = (i * 0.5, 1.0 / (i + 1.0))
    total = 0.0
    for a, b in table.values():
        total += a * b / (1.0 + a)
    return total


class Yardstick:
    """Converts wall time into reference seconds.

    On a shared machine the speed of the same code drifts by tens of
    percent from one minute to the next, and a whole run can fall inside
    one slow spell.  The reference kernel runs before and after every
    command; dividing the command's wall time by the mean of the two
    kernel times, times ``REFERENCE_SECONDS``, gives seconds on a machine
    where the kernel takes exactly ``REFERENCE_SECONDS``.  Neither gbpkit
    nor a change to it can alter the kernel.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        """Median of three kernel runs, so one interrupted run does not skew the factor."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.kernel_s.extend(times)
        return statistics.median(times)

    def factor(self) -> float:
        """Call right after a command; its wall time times this is in reference seconds."""
        new = self._measure()
        factor = REFERENCE_SECONDS / ((self._last + new) / 2)
        self._last = new
        return factor


class Samples:
    """Timing samples keyed by metric: (pool model, wall seconds, reference seconds)."""

    def __init__(self):
        self.by_metric: dict[str, list[tuple[int, float, float]]] = {}

    def add(self, metric: str, model: int, wall: float, factor: float) -> None:
        self.by_metric.setdefault(metric, []).append((model, wall, wall * factor))

    def value(self, metric: str) -> float:
        """Median in reference seconds over every sample of the run.

        Rounds cycle through the pool, so the samples mix its models evenly.
        """
        return statistics.median(reference for _, _, reference in self.by_metric[metric])

    def summary(self) -> dict:
        return {
            m: {"reference_s": tail([x for _, _, x in s]), "wall_s": tail([w for _, w, _ in s]),
                "samples": s}
            for m, s in self.by_metric.items()
        }


def run_rounds(seconds: float, pool_len: int, round_fn) -> int:
    """Call ``round_fn(r, k)`` for rounds r = 0, 1, ... on pool model k = r mod pool size.

    The first round always runs.  Another starts while a round as long as
    the last one would end nearer to ``seconds`` than stopping now does.
    """
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds == 0 or (time.perf_counter() - start) + last / 2 < seconds:
        t0 = time.perf_counter()
        round_fn(rounds, rounds % pool_len)
        last = time.perf_counter() - t0
        rounds += 1
    return rounds


@dataclass
class PoolRecord:
    """Sizes and counts of one pool model, for per-edge comparisons across runs."""

    seed: int
    n: int
    edges: int
    sweeps: int
    ticks: int
    fixed_point_iters: int


def timed_pass(workload: Workload, seeds: list[int], paths: list[Path], seconds: float, ledger: Ledger):
    """Each round runs solve, crosscheck, simulate and analyze on one pool model.

    Returns the samples, the yardstick, a record per model that ran, the
    number of rounds, and the first solve (of the seed's own model), which
    the memory pass checks against.
    """
    samples = Samples()
    yardstick = Yardstick()
    records: dict[int, PoolRecord] = {}
    first: list[engine.RunResult] = []

    def solve_and_simulate(k: int) -> tuple[engine.RunResult, network.SimulationResult]:
        """``solve --oracle`` then ``simulate``, each gated."""
        model, graph, result, setup_s, solve_s = command_solve(paths[k])
        factor = yardstick.factor()
        samples.add("setup_s", k, setup_s, factor)
        samples.add("solve_s", k, solve_s, factor)
        deviation, cross_s = command_crosscheck(model, result.beliefs)
        samples.add("crosscheck_s", k, cross_s, yardstick.factor())
        ledger.record(f"solve[{k}]", check_solve(result, deviation, workload))
        # Drop what a finished command would have freed on exit.
        del model, graph
        sim, sim_s = command_simulate(paths[k])
        samples.add("simulate_s", k, sim_s, yardstick.factor())
        ledger.record(f"simulate[{k}]", check_simulate(sim, result))
        return result, sim

    def one_round(r: int, k: int) -> None:
        # The cheap commands run twice per analyze, for as many samples of
        # them as possible without starving analyze of its own.
        result, sim = solve_and_simulate(k)
        cert, setup_s, analyze_s = command_analyze(paths[k])
        factor = yardstick.factor()
        samples.add("setup_s", k, setup_s, factor)
        samples.add("analyze_s", k, analyze_s, factor)
        ledger.record(f"analyze[{k}]", check_analyze(cert, result.status, workload))
        records.setdefault(k, PoolRecord(
            seed=seeds[k], n=len(result.beliefs.means), edges=len(result.state.precisions),
            sweeps=result.state.iteration, ticks=sim.ticks,
            fixed_point_iters=cert.fixed_point.iterations,
        ))
        if r == 0:
            first.append(result)
        del result, sim, cert
        solve_and_simulate(k)

    rounds = run_rounds(seconds, len(paths), one_round)
    return samples, yardstick, [records[k] for k in sorted(records)], rounds, first[0]


def _peak_mib(fn) -> tuple[object, float]:
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, (tracemalloc.get_traced_memory()[1] - base) / MIB


def memory_pass(workload: Workload, path: Path, reference: engine.RunResult, ledger: Ledger) -> dict[str, float]:
    """Peak traced memory of run, certify and simulate on one model; never timed.

    ``reference`` is the timed pass's solve of the same model, already
    checked against the oracle, so the results here are checked against it.
    """
    model = load_model(path)
    graph = build_factor_graph(model)
    tracemalloc.start()
    try:
        result, solve_mib = _peak_mib(lambda: engine.run(graph, model))
        cert, analyze_mib = _peak_mib(lambda: analysis.certify(graph, model))
        sim, simulate_mib = _peak_mib(lambda: network.simulate(model, network.Schedule.synchronous()))
    finally:
        tracemalloc.stop()
    ledger.record("memory.solve", same_run(result, reference))
    ledger.record("memory.analyze", check_analyze(cert, result.status, workload))
    ledger.record("memory.simulate", check_simulate(sim, result))
    return {
        "solve_peak_mib": solve_mib,
        "analyze_peak_mib": analyze_mib,
        "simulate_peak_mib": simulate_mib,
    }
