"""Agent simulation: assignment, locality, schedules, engine parity, event log."""
import random
import tracemalloc

import numpy as np
import pytest

from gbpkit import (
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    Factor,
    LinearGaussianModel,
    RunResult,
    STATUS_CONVERGED,
    Schedule,
    Variable,
    build_factor_graph,
    dense_posterior,
    generate_model,
    generate_tree,
    run,
    simulate,
)
from gbpkit.engine import compile_model, fv_messages, vf_messages
from gbpkit import network
from gbpkit.generate import KINDS, generate_random_loopy
from gbpkit.model import Reads
from gbpkit.network import build_agents

import helpers


def _with_overflow(model):
    """``model`` plus factors beyond the variable count, so some agents host
    more than one factor."""
    extra = tuple(
        Factor(f"g{k}", {model.variables[k].id: 1.0, model.variables[k - 7].id: -0.5}, 1.0, 0.0)
        for k in range(len(model.variables) - 1, 20, -3)
    )
    return LinearGaussianModel(model.variables, model.factors + extra)


def _hosting_models(loop_model):
    return [loop_model] + [_with_overflow(generate_model(k, 60, seed=4)) for k in KINDS]


class TestAgentAssignment:
    def test_positional_hosting(self, loop_graph, loop_model):
        agents, variable_host, factor_host = build_agents(loop_graph, loop_model)
        assert [a.variable_id for a in agents] == ["x1", "x2", "x3", "x4"]
        assert variable_host == {"x1": 0, "x2": 1, "x3": 2, "x4": 3}
        # three factors, four variables: each factor rides with its position
        assert factor_host == {"f1": 0, "f2": 1, "f3": 2}
        assert agents[0].hosted_factors == ("f1",)
        assert agents[3].hosted_factors == ()

    def test_overflow_factor_lands_on_lowest_scope_variable(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1.0)),
            (
                Factor("f1", {"x1": 1.0}, 1.0, 0.0),
                Factor("f2", {"x2": 1.0}, 1.0, 0.0),
                Factor("f3", {"x1": 1.0, "x2": 1.0}, 1.0, 0.0),
            ),
        )
        graph = build_factor_graph(model)
        _, _, factor_host = build_agents(graph, model)
        assert factor_host == {"f1": 0, "f2": 1, "f3": 0}

    def test_empty_scope_factor_past_the_variables_goes_to_agent_0(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1.0)),
            (
                Factor("f1", {"x2": 1.0}, 1.0, 0.0),
                Factor("f2", {"x1": 1.0}, 1.0, 0.0),
                Factor("f3", {}, 1.0, 0.0),
            ),
        )
        agents, _, factor_host = build_agents(build_factor_graph(model), model)
        assert factor_host == {"f1": 0, "f2": 1, "f3": 0}
        assert agents[0].hosted_factors == ("f1", "f3")

    def test_no_variables_means_no_hosts(self):
        # An empty-scope factor in a variable-less model has no agent to go to.
        model = LinearGaussianModel((), (Factor("f1", {}, 1.0, 0.5),))
        assert build_agents(build_factor_graph(model), model) == ([], {}, {})

    def test_hosted_factor_mirrors_canonical_scope(self, loop_model):
        for model in _hosting_models(loop_model):
            graph = build_factor_graph(model)
            agents, _, _ = build_agents(graph, model)
            for agent in agents:
                expected = [
                    k for fid in agent.hosted_factors
                    for k, edge in enumerate(graph.fv_edges) if edge[0] == fid
                ]
                assert agent.fv_rows.tolist() == expected
                assert agent.vf_rows.tolist() == [
                    k for k, (vid, _) in enumerate(graph.vf_edges) if vid == agent.variable_id
                ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_hosting_matches_per_agent_scan(self, kind):
        # Reference: the host rule applied factor by factor, then every
        # factor scanned for each agent, canonical order kept.
        model = _with_overflow(generate_model(kind, 60, seed=4))
        graph = build_factor_graph(model)
        agents, _, factor_host = build_agents(graph, model)
        for k, fid in enumerate(graph.factor_ids):
            scope = graph.factor_neighbors[fid]
            lowest = min(scope, key=graph.variable_order.__getitem__)
            assert factor_host[fid] == (k if k < len(agents) else graph.variable_order[lowest])
        for k, agent in enumerate(agents):
            expected = [fid for fid in graph.factor_ids if factor_host[fid] == k]
            assert list(agent.hosted_factors) == expected

    def test_agents_know_only_neighbors(self, loop_model):
        # An agent's rows read only edges into its own variable and its own
        # hosted factors, and every row of both tables has exactly one owner.
        # The reads checked are the columns a tick gathers for the agent.
        for model in _hosting_models(loop_model):
            graph = build_factor_graph(model)
            tables = graph.edge_tables
            agents, _, _ = build_agents(graph, model)
            for agent in agents:
                assert agent.factor_neighbors == graph.variable_neighbors[agent.variable_id]
                # A tick's rows are pass positions; so are the reads, in the other pass.
                _, _, reads, _ = tables.vf_pass.select(tables.vf_pass.rank[agent.vf_rows])
                for k in tables.fv_pass.order[reads].tolist():
                    assert graph.fv_edges[k][1] == agent.variable_id
                _, _, reads, _ = tables.fv_pass.select(tables.fv_pass.rank[agent.fv_rows])
                for k in tables.vf_pass.order[reads].tolist():
                    assert graph.vf_edges[k][1] in agent.hosted_factors
            for rows, edges in (("vf_rows", graph.vf_edges), ("fv_rows", graph.fv_edges)):
                owned = sorted(k for agent in agents for k in getattr(agent, rows).tolist())
                assert owned == list(range(len(edges)))


class TestRoutingGuard:
    """A message reaches an agent only along a graph edge into its nodes."""

    @staticmethod
    def _passes(graph, model, agent):
        """The agent's tick: its rows as pass positions, and the passes over
        them from arrays given in canonical order, results in the rows' order."""
        compiled = compile_model(graph, model)
        vf_pass, fv_pass = compiled.tables.vf_pass, compiled.tables.fv_pass
        vf_view = vf_pass.select(vf_pass.rank[agent.vf_rows])
        fv_view = fv_pass.select(fv_pass.rank[agent.fv_rows])
        return (lambda prec, mean: vf_messages(compiled, prec[fv_pass.order],
                                               mean[fv_pass.order], view=vf_view),
                lambda prec, mean: fv_messages(compiled, prec[vf_pass.order],
                                               mean[vf_pass.order], view=fv_view))

    def test_non_neighbor_delivery_rejected(self, loop_graph, loop_model):
        agents, _, _ = build_agents(loop_graph, loop_model)
        x1 = agents[0]  # variable x1, hosting f1
        variable, factor = self._passes(loop_graph, loop_model, x1)
        fv_prec, fv_mean = np.full(len(loop_graph.fv_edges), 0.5), np.ones(len(loop_graph.fv_edges))
        vf_prec, vf_mean = np.full(len(loop_graph.vf_edges), 0.5), np.ones(len(loop_graph.vf_edges))
        before_vf = variable(fv_prec, fv_mean)
        before_fv = factor(vf_prec, vf_mean)
        # x2 is not in f1's scope and no factor message into x1 comes from x2's edges
        for k, (_, receiver) in enumerate(loop_graph.fv_edges):
            if receiver != "x1":
                fv_prec[k], fv_mean[k] = 7.0, -3.0
        for k, (_, receiver) in enumerate(loop_graph.vf_edges):
            if receiver != "f1":
                vf_prec[k], vf_mean[k] = 7.0, -3.0
        after_vf = variable(fv_prec, fv_mean)
        after_fv = factor(vf_prec, vf_mean)
        for before, after in ((before_vf, after_vf), (before_fv, after_fv)):
            assert [a.tolist() for a in after] == [b.tolist() for b in before]

    def test_neighbor_delivery_lands_in_inbox(self, loop_graph, loop_model):
        agents, _, factor_host = build_agents(loop_graph, loop_model)
        variable, _ = self._passes(loop_graph, loop_model, agents[0])
        fv_prec, fv_mean = np.zeros(len(loop_graph.fv_edges)), np.zeros(len(loop_graph.fv_edges))
        edge = loop_graph.fv_edges.index(("f2", "x1"))
        assert edge in agents[factor_host["f2"]].fv_rows.tolist()
        fv_prec[edge], fv_mean[edge] = 0.25, -1.0
        # x1's message to f1 reads f2's message: prior precision 1/6 plus 0.25
        to_f1 = [loop_graph.vf_edges[k] for k in agents[0].vf_rows].index(("x1", "f1"))
        prec, mean = variable(fv_prec, fv_mean)
        assert prec[to_f1] == pytest.approx(1 / 6 + 0.25)
        assert mean[to_f1] == pytest.approx(-0.25 / (1 / 6 + 0.25))


def _no_agents(*args, **kwargs):
    raise AssertionError("simulate built an Agent record")


class TestSynchronousSchedule:
    @pytest.mark.parametrize("case, max_ticks, status", [
        ("loop", 10000, STATUS_CONVERGED),
        ("loop", 3, STATUS_MAX_ITERS),
        ("divergent", 10000, STATUS_DIVERGED),
    ])
    def test_matches_run_on_every_outcome(self, case, max_ticks, status):
        model = (helpers.loop_model() if case == "loop"
                 else generate_random_loopy(6, seed=113, coeff_range=(-6.0, 6.0)))
        graph = build_factor_graph(model)
        engine_result = run(graph, model, max_iters=max_ticks)
        sim = simulate(model, Schedule.synchronous(), max_ticks=max_ticks)
        assert sim.status == engine_result.status == status
        assert sim.ticks == engine_result.state.iteration
        assert sim.state == engine_result.state
        assert sim.beliefs == engine_result.beliefs
        assert sim.messages_sent == sim.ticks * 2 * len(graph.edge_var)
        assert (sim.ticks == max_ticks) == (status == STATUS_MAX_ITERS)

    @pytest.mark.parametrize("schedule", [Schedule.synchronous(), Schedule.random_sequential(5)])
    def test_builds_no_agent_records(self, monkeypatch, loop_model, schedule):
        monkeypatch.setattr(network, "Agent", _no_agents)
        sim = simulate(loop_model, schedule)
        assert sim.status == STATUS_CONVERGED

    @pytest.mark.parametrize("schedule", [Schedule.synchronous(), Schedule.random_sequential(5)])
    @pytest.mark.parametrize("max_ticks", [3, 10000])
    def test_a_simulation_is_a_run(self, loop_model, schedule, max_ticks):
        sim = simulate(loop_model, schedule, max_ticks=max_ticks)
        assert isinstance(sim, RunResult)
        assert sim.ticks == sim.state.iteration == sim.beliefs.iteration > 0

    def test_matches_engine_bitwise(self, loop_graph, loop_model):
        engine_result = run(loop_graph, loop_model)
        sim = simulate(loop_model, Schedule.synchronous())
        assert sim.status == STATUS_CONVERGED
        assert sim.ticks == engine_result.state.iteration
        assert sim.state == engine_result.state
        assert sim.beliefs == engine_result.beliefs

    def test_message_count_is_two_edges_per_tick(self, loop_graph, loop_model):
        sim = simulate(loop_model, Schedule.synchronous())
        per_tick = len(loop_graph.vf_edges) + len(loop_graph.fv_edges)
        assert sim.messages_sent == sim.ticks * per_tick

    def test_tree_model_parity(self):
        model = helpers.chain_model(5)
        sim = simulate(model, Schedule.synchronous())
        engine_result = run(build_factor_graph(model), model)
        assert sim.state == engine_result.state
        assert sim.beliefs == engine_result.beliefs

    def test_event_log(self, tmp_path, loop_graph, loop_model):
        log = tmp_path / "traffic.csv"
        sim = simulate(loop_model, Schedule.synchronous(), log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "tick,sender,receiver,precision,mean"
        assert len(lines) == sim.messages_sent + 1
        vf = set(loop_graph.vf_edges)
        fv = set(loop_graph.fv_edges)
        for line in lines[1:]:
            tick, sender, receiver, precision, mean = line.split(",")
            assert 1 <= int(tick) <= sim.ticks
            assert (sender, receiver) in vf or (sender, receiver) in fv
            float(precision), float(mean)


class TestRandomSequentialSchedule:
    def test_converges_to_oracle_means(self, loop_model):
        # loopy fixed point: means agree with the dense solve, variances
        # agree with the engine's own fixed point (not the true marginals)
        sim = simulate(loop_model, Schedule.random_sequential(seed=7))
        assert sim.status == STATUS_CONVERGED
        posterior = dense_posterior(loop_model)
        engine_result = run(build_factor_graph(loop_model), loop_model)
        for vid in ("x1", "x2", "x3", "x4"):
            assert sim.beliefs.means[vid] == pytest.approx(posterior.mean_of(vid), abs=1e-8)
            assert sim.beliefs.variances[vid] == pytest.approx(
                engine_result.beliefs.variances[vid], abs=1e-8
            )

    def test_same_seed_reproduces_run(self, loop_model):
        first = simulate(loop_model, Schedule.random_sequential(seed=42))
        second = simulate(loop_model, Schedule.random_sequential(seed=42))
        assert first.ticks == second.ticks
        assert first.messages_sent == second.messages_sent
        assert first.state == second.state
        assert first.beliefs == second.beliefs

    def test_seeds_change_the_trajectory(self, loop_model):
        ticks = {
            simulate(loop_model, Schedule.random_sequential(seed=s)).ticks
            for s in range(5)
        }
        assert len(ticks) > 1

    def test_log_includes_initial_flush(self, tmp_path, loop_model):
        log = tmp_path / "traffic.csv"
        simulate(loop_model, Schedule.random_sequential(seed=7), log_path=log)
        lines = log.read_text().splitlines()
        flush_rows = [line for line in lines[1:] if line.split(",")[0] == "0"]
        assert len(flush_rows) == 7  # one per variable-to-factor edge

    def test_overflowing_precision_is_divergence(self):
        sim = simulate(helpers.overflow_model(), Schedule.random_sequential(3))
        assert sim.status == STATUS_DIVERGED
        assert np.isinf(sim.state.precisions.array).any()

    def test_each_agent_view_is_built_once_per_run(self, monkeypatch):
        # A tick reads its agent's jagged views, built through Reads.select
        # on the agent's first tick and kept: one select per table per agent
        # ticked, however often it is ticked.
        model = _with_overflow(generate_model("random-loopy", 60, seed=4))
        graphs, calls = [], []
        select = Reads.select

        def counted(self, rows=None):
            if rows is not None:
                calls.append((id(self), tuple(rows.tolist())))
            return select(self, rows)

        monkeypatch.setattr(network, "build_factor_graph",
                            lambda model: graphs.append(build_factor_graph(model)) or graphs[-1])
        monkeypatch.setattr(Reads, "select", counted)
        sim = simulate(model, Schedule.random_sequential(seed=5), max_ticks=300)
        (graph,) = graphs
        rng = random.Random(5)
        ticked = {rng.randrange(len(graph.variable_ids)) for _ in range(sim.ticks)}
        assert sim.ticks == 300 and len(ticked) < 300
        agents, _, _ = build_agents(graph, model)
        vf_pass, fv_pass = graph.edge_tables.vf_pass, graph.edge_tables.fv_pass
        assert sorted(calls) == sorted(
            view for k in ticked for view in (
                (id(vf_pass), tuple(vf_pass.rank[agents[k].vf_rows].tolist())),
                (id(fv_pass), tuple(fv_pass.rank[agents[k].fv_rows].tolist()))))

    def test_single_agent_model(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0),), (Factor("f1", {"x1": 1.0}, 1.0, 2.0),)
        )
        sim = simulate(model, Schedule.random_sequential(seed=1))
        assert sim.status == STATUS_CONVERGED
        assert sim.beliefs.variances["x1"] == pytest.approx(0.5, abs=1e-12)
        assert sim.beliefs.means["x1"] == pytest.approx(1.0, abs=1e-12)


class TestEdgesAndValidation:
    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            Schedule("round-robin")
        with pytest.raises(ValueError, match="seed"):
            Schedule("random-sequential")
        assert Schedule.synchronous().kind == "synchronous"
        assert Schedule.random_sequential(3).seed == 3

    def test_bad_tolerance(self, loop_model):
        with pytest.raises(ValueError):
            simulate(loop_model, Schedule.synchronous(), tolerance=0.0)

    def test_nan_tolerance_rejected(self, loop_model):
        with pytest.raises(ValueError, match="tolerance"):
            simulate(loop_model, Schedule.synchronous(), tolerance=float("nan"))

    def test_tick_budget_must_be_positive(self, loop_model):
        with pytest.raises(ValueError, match="max_ticks"):
            simulate(loop_model, Schedule.synchronous(), max_ticks=0)

    def test_empty_model(self):
        model = LinearGaussianModel((), ())
        for schedule in (Schedule.synchronous(), Schedule.random_sequential(seed=0)):
            sim = simulate(model, schedule)
            assert sim.status == STATUS_CONVERGED
            assert sim.beliefs.means == {}

    def test_factorless_model(self):
        model = LinearGaussianModel((Variable("x1", 4.0),), ())
        sim = simulate(model, Schedule.synchronous())
        assert sim.status == STATUS_CONVERGED
        assert sim.beliefs.variances["x1"] == 4.0


class TestEventLog:
    @pytest.mark.parametrize("schedule", [Schedule.synchronous(), Schedule.random_sequential(7)],
                             ids=lambda s: s.kind)
    def test_unusable_path_refused_before_any_sweep(self, tmp_path, loop_model, schedule,
                                                    monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the log was opened")

        monkeypatch.setattr(network.engine, "sweeps", no_sweep)
        monkeypatch.setattr(network.engine, "vf_messages", no_sweep)
        with pytest.raises(OSError):
            simulate(loop_model, schedule, log_path=tmp_path)

    def test_failed_run_keeps_the_rows_written(self, tmp_path, loop_graph, loop_model,
                                               monkeypatch):
        sweeps = network.engine.sweeps

        def two_then_fail(*args):
            yield from list(sweeps(*args))[:2]
            raise RuntimeError("node lost")

        monkeypatch.setattr(network.engine, "sweeps", two_then_fail)
        log = tmp_path / "traffic.csv"
        with pytest.raises(RuntimeError, match="node lost"):
            simulate(loop_model, Schedule.synchronous(), log_path=log)
        lines = log.read_text().splitlines()
        per_tick = len(loop_graph.vf_edges) + len(loop_graph.fv_edges)
        assert len(lines) == 1 + 2 * per_tick
        assert [line.split(",")[0] for line in lines[1::per_tick]] == ["1", "2"]

    def test_log_adds_no_memory_that_grows_with_the_run(self, tmp_path):
        # The log may hold one tick's rows and the file buffer, nothing per run.
        model = generate_tree(2000, 7)
        model.columns
        peaks = []
        for log_path in (None, tmp_path / "traffic.csv"):
            tracemalloc.start()
            try:
                sim = simulate(model, Schedule.random_sequential(seed=1), max_ticks=20_000,
                               log_path=log_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sim.ticks == 20_000
        assert peaks[1] - peaks[0] < 2**20
