"""Agent simulation: assignment, routing guards, schedules, engine parity."""
import pytest

from gbpkit import (
    Factor,
    LinearGaussianModel,
    STATUS_CONVERGED,
    Schedule,
    Variable,
    build_factor_graph,
    dense_posterior,
    generate_model,
    run,
    simulate,
)
from gbpkit.generate import KINDS
from gbpkit.network import _Network, build_agents

import helpers


class TestAgentAssignment:
    def test_positional_hosting(self, loop_graph, loop_model):
        agents, variable_host, factor_host = build_agents(loop_graph, loop_model)
        assert [a.variable_id for a in agents] == ["x1", "x2", "x3", "x4"]
        assert variable_host == {"x1": 0, "x2": 1, "x3": 2, "x4": 3}
        # three factors, four variables: each factor rides with its position
        assert factor_host == {"f1": 0, "f2": 1, "f3": 2}
        assert [f.id for f in agents[0].hosted_factors] == ["f1"]
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

    def test_hosted_factor_mirrors_canonical_scope(self, loop_graph, loop_model):
        agents, _, _ = build_agents(loop_graph, loop_model)
        hosted = agents[0].hosted_factors[0]
        assert hosted.scope == loop_graph.factor_neighbors["f1"]
        expected = tuple(
            loop_model.factors_by_id["f1"].coeffs[v] for v in hosted.scope
        )
        assert hosted.coeffs == expected
        assert hosted.noise_var == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_hosting_matches_per_agent_scan(self, kind):
        # Reference: the host rule applied factor by factor, then every
        # factor scanned for each agent, canonical order kept.
        model = generate_model(kind, 60, seed=4)
        extra = tuple(
            Factor(f"g{k}", {model.variables[k].id: 1.0, model.variables[k - 7].id: -0.5}, 1.0, 0.0)
            for k in range(len(model.variables) - 1, 20, -3)
        )
        model = LinearGaussianModel(model.variables, model.factors + extra)
        graph = build_factor_graph(model)
        agents, _, factor_host = build_agents(graph, model)
        for k, fid in enumerate(graph.factor_ids):
            scope = graph.factor_neighbors[fid]
            lowest = min(scope, key=graph.variable_order.__getitem__)
            assert factor_host[fid] == (k if k < len(agents) else graph.variable_order[lowest])
        for k, agent in enumerate(agents):
            expected = [fid for fid in graph.factor_ids if factor_host[fid] == k]
            assert [f.id for f in agent.hosted_factors] == expected

    def test_agents_know_only_neighbors(self, loop_graph, loop_model):
        agents, _, _ = build_agents(loop_graph, loop_model)
        for agent in agents:
            assert agent.factor_neighbors == loop_graph.variable_neighbors[agent.variable_id]
            assert set(agent.fv_inbox) == set(agent.factor_neighbors)


class TestRoutingGuard:
    def test_non_neighbor_delivery_rejected(self, loop_graph, loop_model):
        agents, variable_host, factor_host = build_agents(loop_graph, loop_model)
        network = _Network(loop_graph, agents, variable_host, factor_host, None)
        # x2 is not in f1's scope
        with pytest.raises(RuntimeError, match="non-neighbors"):
            network.deliver_vf(1, ("x2", "f1"), (1.0, 0.0))
        with pytest.raises(RuntimeError, match="non-neighbors"):
            network.deliver_fv(1, ("f1", "x2"), (1.0, 0.0))

    def test_neighbor_delivery_lands_in_inbox(self, loop_graph, loop_model):
        agents, variable_host, factor_host = build_agents(loop_graph, loop_model)
        network = _Network(loop_graph, agents, variable_host, factor_host, None)
        network.deliver_fv(1, ("f2", "x1"), (0.25, -1.0))
        assert agents[0].fv_inbox["f2"] == (0.25, -1.0)
        assert network.sent == 1


class TestSynchronousSchedule:
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
