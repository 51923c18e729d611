"""Model validation, graph construction, information form, and file I/O."""
import gc
import json
import math

import numpy as np
import pytest

from gbpkit import (
    Factor,
    InvalidModelError,
    LinearGaussianModel,
    Schedule,
    TOPOLOGY_FOREST,
    TOPOLOGY_MULTI_LOOP,
    TOPOLOGY_SINGLE_LOOP,
    Variable,
    build_factor_graph,
    certify,
    classify_topology,
    dense_posterior,
    find_violations,
    generate_model,
    lingauss_to_gmrf,
    load_model,
    save_model,
    simulate,
    sparse_gmrf,
    validate_model,
    with_observations,
)
from gbpkit import model as model_module
from gbpkit.generate import KINDS
from gbpkit.model import dumps_model, loads_model

import helpers


def tiny_model(**overrides):
    fields = dict(prior_var=2.0, noise_var=1.0, coeff=1.0, obs=2.0)
    fields.update(overrides)
    return LinearGaussianModel(
        (Variable("x1", fields["prior_var"]),),
        (Factor("f1", {"x1": fields["coeff"]}, fields["noise_var"], fields["obs"]),),
    )


class TestValidation:
    def test_valid_model_passes_through(self):
        model = tiny_model()
        assert validate_model(model) is model
        assert find_violations(model) == []

    def test_nonpositive_prior_variance(self):
        with pytest.raises(InvalidModelError, match="prior_var"):
            validate_model(tiny_model(prior_var=0.0))

    def test_nonpositive_noise_variance(self):
        with pytest.raises(InvalidModelError, match="noise_var"):
            validate_model(tiny_model(noise_var=-1.0))

    def test_unknown_variable_reference(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0),),
            (Factor("f1", {"x9": 1.0}, 1.0, 0.0),),
        )
        with pytest.raises(InvalidModelError, match="unknown variable"):
            validate_model(model)

    def test_stored_zero_coefficient_rejected(self):
        with pytest.raises(InvalidModelError, match="zero coefficient"):
            validate_model(tiny_model(coeff=0.0))

    def test_duplicate_ids_rejected(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x1", 2.0)),
            (),
        )
        with pytest.raises(InvalidModelError, match="duplicate"):
            validate_model(model)

    def test_all_violations_reported_together(self):
        model = LinearGaussianModel(
            (Variable("x1", -1.0),),
            (Factor("f1", {"x1": 0.0, "x2": 1.0}, 0.0, float("nan")),),
        )
        problems = find_violations(model)
        # bad prior, bad noise, non-finite obs, zero coeff, dangling reference
        assert len(problems) == 5

    def test_non_finite_observation(self):
        with pytest.raises(InvalidModelError, match="obs"):
            validate_model(tiny_model(obs=float("inf")))



class TestValidateOnce:
    @pytest.fixture
    def validations(self, monkeypatch):
        """Every find_violations call the model module makes while the test runs."""
        calls = []
        real = model_module.find_violations

        def counting(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(model_module, "find_violations", counting)
        return calls

    def test_one_validation_per_pipeline(self, validations, tmp_path):
        path = tmp_path / "model.json"
        save_model(generate_model("random-loopy", 30, 4), path)
        validations.clear()  # the generator validates the model it builds
        model = load_model(path)
        certify(build_factor_graph(model), model)
        dense_posterior(model)
        simulate(model, Schedule.synchronous())
        assert validations == [model]

    @pytest.mark.parametrize("consumer", [build_factor_graph, sparse_gmrf, dense_posterior,
                                          lambda model: simulate(model, Schedule.synchronous())],
                             ids=["build_factor_graph", "sparse_gmrf", "dense_posterior",
                                  "simulate"])
    def test_invalid_model_refused_by_every_consumer(self, consumer):
        model = LinearGaussianModel(
            (Variable("x1", -1.0), Variable("x2", 1.0)),
            (Factor("f1", {"x1": 0.0, "x3": 1.0}, 1.0, 0.0),),
        )
        expected = find_violations(model)
        assert len(expected) == 3
        for _ in range(2):  # nothing is cached: a second use is refused the same way
            with pytest.raises(InvalidModelError) as refused:
                consumer(model)
            assert refused.value.violations == expected

    def test_graph_build_makes_no_per_edge_objects(self):
        model = generate_model("tree", 2000, 7)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            build_factor_graph(model)
            made = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert made < 100

    def test_loaded_model_keeps_no_per_item_objects(self, tmp_path):
        # One Variable or Factor per item would be about 4,000 objects here.
        path = tmp_path / "tree.json"
        model = generate_model("tree", 2000, 7)
        save_model(model, path)
        load_model(path)
        gc.collect()
        before = len(gc.get_objects())
        loaded = load_model(path)
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert "variables" not in vars(loaded) and "factors" not in vars(loaded)
        assert loaded.variables == model.variables
        assert loaded.factors == model.factors


class TestFactorGraph:
    def test_loop_model_edges_in_canonical_order(self, loop_graph):
        assert loop_graph.fv_edges == (
            ("f1", "x1"), ("f1", "x3"), ("f1", "x4"),
            ("f2", "x1"), ("f2", "x2"),
            ("f3", "x2"), ("f3", "x4"),
        )
        assert loop_graph.vf_edges == (
            ("x1", "f1"), ("x1", "f2"),
            ("x2", "f2"), ("x2", "f3"),
            ("x3", "f1"),
            ("x4", "f1"), ("x4", "f3"),
        )

    def test_neighbor_sets_sorted_by_canonical_index(self, loop_graph):
        assert loop_graph.factor_neighbors["f1"] == ("x1", "x3", "x4")
        assert loop_graph.variable_neighbors["x4"] == ("f1", "f3")

    def test_neighbor_order_follows_array_position_not_id(self):
        # Variables listed out of lexicographic order; indices must win.
        model = LinearGaussianModel(
            (Variable("b", 1.0), Variable("a", 1.0)),
            (Factor("f1", {"a": 1.0, "b": 1.0}, 1.0, 0.0),),
        )
        graph = build_factor_graph(model)
        assert graph.factor_neighbors["f1"] == ("b", "a")

    def test_isolated_variable_kept(self):
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1.0)),
            (Factor("f1", {"x1": 1.0}, 1.0, 0.0),),
        )
        graph = build_factor_graph(model)
        assert graph.variable_neighbors["x2"] == ()
        assert ("f1", "x2") not in graph.fv_edges

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModelError):
            build_factor_graph(tiny_model(prior_var=-2.0))

    def test_edge_tables_built_on_first_use_only(self, loop_model):
        graph = build_factor_graph(loop_model)
        assert "edge_tables" not in vars(graph)
        assert graph.edge_tables is graph.edge_tables

    def test_position_maps_are_as_long_as_what_they_index(self, loop_graph):
        tables = loop_graph.edge_tables
        assert len(tables.fv_position) == len(tables.vf_position) == 7
        assert len(loop_graph.variable_order) == 4

    @pytest.mark.parametrize("kind", ["loop", *KINDS])
    def test_edge_tables_match_neighbor_walk(self, loop_model, kind):
        model = loop_model if kind == "loop" else generate_model(kind, 60, seed=4)
        graph = build_factor_graph(model)
        tables = graph.edge_tables

        for reads in (tables.vf_pass, tables.fv_pass, tables.belief_reads):
            # The jagged columns: rows by descending width, ties in row
            # order, and column k as long as the count of rows wider than k.
            width = [len(reads.select(reads.rank[[r]])[2]) for r in range(len(reads.order))]
            assert reads.order.tolist() == sorted(range(len(width)), key=lambda r: -width[r])
            assert reads.rank[reads.order].tolist() == list(range(len(width)))
            assert [len(col) for col in reads.columns] == [
                sum(w > k for w in width) for k in range(max(width, default=0))]

        def named(edges, reads, r, order=None):
            """Row r's reads as edges; a pass's reads are positions in the
            other pass's ``order``."""
            row = reads.select(reads.rank[[r]])[2]
            return [edges[k] for k in (row if order is None else order[row])]

        for k, (vid, fid) in enumerate(graph.vf_edges):
            others = [(g, vid) for g in graph.variable_neighbors[vid] if g != fid]
            assert named(graph.fv_edges, tables.vf_pass, k, tables.fv_pass.order) == others
            assert tables.vf_position[(vid, fid)] == k
        for k, (fid, vid) in enumerate(graph.fv_edges):
            others = [(z, fid) for z in graph.factor_neighbors[fid] if z != vid]
            assert named(graph.vf_edges, tables.fv_pass, k, tables.vf_pass.order) == others
            assert tables.fv_position[(fid, vid)] == k
        for i, vid in enumerate(graph.variable_ids):
            into = [(g, vid) for g in graph.variable_neighbors[vid]]
            assert named(graph.fv_edges, tables.belief_reads, i) == into


class TestInformationForm:
    def test_loop_model_matrix(self, loop_model):
        s2, s3, s6 = helpers.SQRT2, helpers.SQRT3, helpers.SQRT6
        expected = np.array([
            [1.0,          1 / (3 * s2), 1 / s3, s2 / 3],
            [1 / (3 * s2), 1.0,          0.0,    1 / 3.0],
            [1 / s3,       0.0,          1.0,    1 / s6],
            [s2 / 3,       1 / 3.0,      1 / s6, 1.0],
        ])
        gmrf = lingauss_to_gmrf(loop_model)
        assert np.abs(gmrf.information_matrix - expected).max() < 1e-12

    def test_loop_model_potential(self, loop_model):
        coeff_rows = np.array([
            [2 / helpers.SQRT6, 0, 1 / helpers.SQRT2, 1 / helpers.SQRT3],
            [1 / helpers.SQRT6, 1 / helpers.SQRT3, 0, 0],
            [0, 1 / helpers.SQRT3, 0, 1 / helpers.SQRT3],
        ])
        gmrf = lingauss_to_gmrf(loop_model)
        np.testing.assert_allclose(gmrf.potential, coeff_rows.T @ [1.0, 2.0, 3.0], atol=1e-14)

    def test_unary_factor(self):
        gmrf = lingauss_to_gmrf(tiny_model())
        # 1^2/1 + 1/2 on the diagonal, obs/noise_var as potential
        assert gmrf.information_matrix[0, 0] == pytest.approx(1.5, abs=1e-15)
        assert gmrf.potential[0] == pytest.approx(2.0, abs=1e-15)

    def test_no_factors_gives_prior_precision(self):
        model = LinearGaussianModel((Variable("x1", 4.0),), ())
        gmrf = lingauss_to_gmrf(model)
        assert gmrf.information_matrix[0, 0] == 0.25
        assert gmrf.potential[0] == 0.0

    def test_matrix_exactly_symmetric(self, loop_model):
        info = lingauss_to_gmrf(loop_model).information_matrix
        assert np.array_equal(info, info.T)

    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_models_match_dense_formula(self, kind):
        # Reference: J = C^T diag(1/noise) C + diag(1/prior), h = C^T (obs/noise).
        for seed in (1, 2, 3):
            model = generate_model(kind, 200, seed)
            gmrf = lingauss_to_gmrf(model)
            order = {v.id: k for k, v in enumerate(model.variables)}
            coeff = np.zeros((len(model.factors), len(model.variables)))
            for n, f in enumerate(model.factors):
                for vid, c in f.coeffs.items():
                    coeff[n, order[vid]] = c
            noise = np.array([f.noise_var for f in model.factors])
            obs = np.array([f.obs for f in model.factors])
            prior = np.array([1.0 / v.prior_var for v in model.variables])
            info = coeff.T @ (coeff / noise[:, None]) + np.diag(prior)
            potential = coeff.T @ (obs / noise)
            assert np.array_equal(gmrf.information_matrix, gmrf.information_matrix.T)
            np.testing.assert_allclose(gmrf.information_matrix, info, rtol=1e-13, atol=0)
            np.testing.assert_allclose(gmrf.potential, potential, rtol=1e-13, atol=0)


class TestSparseInformationForm:
    @staticmethod
    def dense_scatter(model):
        """J scattered straight into a dense n x n array: the reference layout."""
        n_vars = len(model.variables)
        order = {v.id: k for k, v in enumerate(model.variables)}
        cells, terms = [], []
        for f in model.factors:
            scope = [(order[vid], c) for vid, c in f.coeffs.items()]
            for i, ci in scope:
                for j, cj in scope:
                    cells.append(i * n_vars + j)
                    terms.append((ci * cj) / f.noise_var)
        info = np.zeros((n_vars, n_vars))
        np.add.at(info.reshape(-1), cells, terms)
        info.flat[:: n_vars + 1] += [1.0 / v.prior_var for v in model.variables]
        return info

    def cancelling_model(self):
        # f1 and f2 add +1 and -1 to J[x1, x2]: the cell sums to exactly 0.0.
        return LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 2.0), Variable("x3", 0.5)),
            (
                Factor("f1", {"x1": 1.0, "x2": 1.0}, 1.0, 0.5),
                Factor("f2", {"x2": -1.0, "x1": 1.0}, 1.0, -0.5),
                Factor("f3", {"x3": 3.0, "x2": 0.25}, 2.0, 1.0),
            ),
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_sparse_j_is_canonical_and_its_dense_view_has_the_scatter_bytes(self, kind):
        models = [generate_model(kind, 200, seed, coeff) for seed in (1, 2, 3)
                  for coeff in ((-2.0, 2.0), (-6.0, 6.0))]
        models += [self.cancelling_model(), LinearGaussianModel((), ()),
                   LinearGaussianModel((Variable("x1", 4.0),), ())]
        for model in models:
            expected = self.dense_scatter(model)
            sparse = sparse_gmrf(model)
            dense = lingauss_to_gmrf(model)
            info = sparse.information_matrix
            assert info.format == "csr" and info.has_canonical_format
            assert np.all(info.data != 0)
            assert info.nnz == np.count_nonzero(expected)
            assert info.toarray().tobytes() == expected.tobytes()
            assert dense.information_matrix.tobytes() == expected.tobytes()
            assert sparse.potential.tobytes() == dense.potential.tobytes()
            assert sparse.variable_ids == dense.variable_ids

    def test_cancelled_cell_is_not_stored(self):
        info = sparse_gmrf(self.cancelling_model()).information_matrix
        assert info.toarray()[0, 1] == 0.0
        assert info.indices[info.indptr[0]:info.indptr[1]].tolist() == [0]
        assert info.nnz == 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factors, part", [
        # c^2 overflows; +inf and -inf meet in one cell; obs / noise_var overflows.
        ([Factor("f1", {"x1": 1e160, "x2": 1.0}, 1.0, 1.0)], "information matrix"),
        ([Factor("f1", {"x1": 1e160, "x2": 1e160}, 1.0, 0.0),
          Factor("f2", {"x1": 1e160, "x2": -1e160}, 1.0, 0.0)], "information matrix"),
        ([Factor("f1", {"x1": 1.0}, 1e-300, 1e300)], "potential"),
    ])
    def test_overflow_is_refused(self, factors, part):
        model = LinearGaussianModel((Variable("x1", 1.0), Variable("x2", 1.0)), tuple(factors))
        for build in (sparse_gmrf, lingauss_to_gmrf):
            with pytest.raises(ValueError, match=f"^{part} has non-finite entries$"):
                build(model)


class TestTopology:
    def test_loop_model_single_loop(self, loop_graph):
        report = classify_topology(loop_graph)
        assert report.kind == TOPOLOGY_SINGLE_LOOP
        assert report.component_cycles == (1,)

    def test_chain_is_forest(self):
        graph = build_factor_graph(helpers.chain_model(4))
        report = classify_topology(graph)
        assert report.kind == TOPOLOGY_FOREST
        assert report.component_cycles == (0,)

    def test_doubled_triple_is_multi_loop(self):
        variables = tuple(Variable(f"x{k}", 1.0) for k in (1, 2, 3))
        scope = {"x1": 1.0, "x2": 1.0, "x3": 1.0}
        factors = (
            Factor("f1", dict(scope), 1.0, 0.0),
            Factor("f2", dict(scope), 1.0, 0.0),
        )
        report = classify_topology(build_factor_graph(LinearGaussianModel(variables, factors)))
        assert report.kind == TOPOLOGY_MULTI_LOOP
        assert report.component_cycles == (2,)

    def test_disconnected_components_counted_separately(self):
        # One looped pair, one isolated variable.
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1.0), Variable("x3", 1.0)),
            (
                Factor("f1", {"x1": 1.0, "x2": 1.0}, 1.0, 0.0),
                Factor("f2", {"x1": 1.0, "x2": 1.0}, 1.0, 0.0),
            ),
        )
        report = classify_topology(build_factor_graph(model))
        assert report.kind == TOPOLOGY_SINGLE_LOOP
        assert sorted(report.component_cycles) == [0, 1]
        assert report.total_cycles == 1

    def test_isolated_variable_and_empty_scope_factor_are_components(self):
        # Components come in the order of their lowest node, variables
        # numbered before factors: {x1}, {x2, x3, f1, f2, f3}, {f0}.
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1.0), Variable("x3", 1.0)),
            (
                Factor("f0", {}, 1.0, 0.0),
                Factor("f1", {"x2": 1.0}, 1.0, 0.0),
                Factor("f2", {"x2": 1.0, "x3": 1.0}, 1.0, 0.0),
                Factor("f3", {"x3": 1.0, "x2": 1.0}, 1.0, 0.0),
            ),
        )
        report = classify_topology(build_factor_graph(model))
        assert report.kind == TOPOLOGY_SINGLE_LOOP
        assert report.component_cycles == (0, 1, 0)

    def test_empty_and_edgeless_graphs(self):
        empty = classify_topology(build_factor_graph(LinearGaussianModel((), ())))
        assert (empty.kind, empty.component_cycles) == (TOPOLOGY_FOREST, ())
        model = LinearGaussianModel(
            (Variable("x1", 1.0), Variable("x2", 1.0)), (Factor("f1", {}, 1.0, 0.0),)
        )
        report = classify_topology(build_factor_graph(model))
        assert (report.kind, report.component_cycles) == (TOPOLOGY_FOREST, (0, 0, 0))


class TestObservationSwap:
    def test_sequence_replaces_in_order(self, loop_model):
        swapped = with_observations(loop_model, [9.0, 8.0, 7.0])
        assert [f.obs for f in swapped.factors] == [9.0, 8.0, 7.0]
        # original untouched
        assert [f.obs for f in loop_model.factors] == [1.0, 2.0, 3.0]

    def test_mapping_may_be_partial(self, loop_model):
        swapped = with_observations(loop_model, {"f2": -1.0})
        assert [f.obs for f in swapped.factors] == [1.0, -1.0, 3.0]

    def test_length_mismatch(self, loop_model):
        with pytest.raises(ValueError, match="expected 3"):
            with_observations(loop_model, [1.0])

    def test_unknown_factor(self, loop_model):
        with pytest.raises(KeyError):
            with_observations(loop_model, {"nope": 0.0})

    @pytest.mark.parametrize("value", [True, np.True_, "1.5", "abc", None, 10**400],
                             ids=["bool", "numpy-bool", "numeric-str", "str", "None", "big-int"])
    def test_non_numbers_are_refused_by_the_validator(self, loop_model, value):
        for swapped in (with_observations(loop_model, [1.0, value, 3.0]),
                        with_observations(loop_model, {"f2": value})):
            with pytest.raises(InvalidModelError, match="factor 'f2': obs must be a finite number"):
                validate_model(swapped)

    @pytest.mark.parametrize("values", [
        np.array([0.1, -1e-300, 2.5e300]), np.array([1, -2, 3]), np.array([0.1, 2, -3], np.float32),
        [1, -2, 3]], ids=["float64", "int64", "float32", "int"])
    def test_numbers_convert_to_the_same_float_bits(self, loop_model, values):
        obs = [f.obs for f in with_observations(loop_model, values).factors]
        assert [type(x) for x in obs] == [float] * 3
        assert np.array(obs).tobytes() == np.array([float(x) for x in values]).tobytes()


class TestFileFormat:
    def test_round_trip_is_bit_exact(self, tmp_path, loop_model):
        path = tmp_path / "model.json"
        save_model(loop_model, path)
        loaded = load_model(path)
        assert loaded == loop_model
        # a second dump must produce identical bytes
        assert dumps_model(loaded) == path.read_text()

    def test_awkward_floats_survive(self, tmp_path):
        model = tiny_model(coeff=0.1 + 0.2, obs=-1e-17, prior_var=1 / 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.factors[0].coeffs["x1"] == 0.1 + 0.2
        assert loaded.factors[0].obs == -1e-17
        assert loaded.variables[0].prior_var == 1 / 3

    def test_duplicate_coefficient_keys_rejected(self):
        text = (
            '{"variables": [{"id": "x1", "prior_var": 1.0}],'
            ' "factors": [{"id": "f1", "coeffs": {"x1": 1.0, "x1": 2.0},'
            ' "noise_var": 1.0, "obs": 0.0}]}'
        )
        with pytest.raises(InvalidModelError, match="duplicate key"):
            loads_model(text)

    def test_parse_error_carries_line_context(self):
        with pytest.raises(InvalidModelError, match="line 2"):
            loads_model('{"variables": [],\n "factors": }')

    def test_missing_field_reported(self):
        with pytest.raises(InvalidModelError, match=r"variables\[0\]"):
            loads_model('{"variables": [{"id": "x1"}], "factors": []}')

    def test_unknown_top_level_key_reported(self):
        with pytest.raises(InvalidModelError, match="unknown top-level"):
            loads_model('{"variables": [], "factors": [], "extra": 1}')

    def test_array_order_defines_canonical_order(self):
        text = json.dumps({
            "variables": [
                {"id": "z", "prior_var": 1.0},
                {"id": "a", "prior_var": 1.0},
            ],
            "factors": [
                {"id": "g", "coeffs": {"z": 1.0}, "noise_var": 1.0, "obs": 0.0},
                {"id": "b", "coeffs": {"a": 1.0}, "noise_var": 1.0, "obs": 0.0},
            ],
        })
        graph = build_factor_graph(loads_model(text))
        assert graph.variable_ids == ("z", "a")
        assert graph.factor_ids == ("g", "b")

