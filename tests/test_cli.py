"""Command-line interface, driven in process through main()."""
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gbpkit import (
    Factor,
    LinearGaussianModel,
    VERDICT_INCONCLUSIVE,
    Variable,
    dense_posterior,
    engine,
    generate_model,
    generate_tree,
    load_model,
    network,
    save_model,
)
from gbpkit.cli import EXIT_DIVERGES, EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_OK, main

import helpers


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "loop.json"
    save_model(helpers.loop_model(), path)
    return path


@pytest.fixture
def divergent_file(tmp_path):
    from gbpkit import generate_random_loopy

    path = tmp_path / "divergent.json"
    save_model(generate_random_loopy(6, seed=113, coeff_range=(-6.0, 6.0)), path)
    return path


class TestSolve:
    def test_prints_belief_table(self, model_file, capsys):
        assert main(["solve", "--model", str(model_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "variable" in out and "mean" in out and "variance" in out
        for vid in ("x1", "x2", "x3", "x4"):
            assert vid in out
        assert "status: converged after" in out

    def test_oracle_columns_and_deviation(self, model_file, capsys):
        assert main(["solve", "--model", str(model_file), "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle_mean" in out
        deviation_line = next(
            line for line in out.splitlines() if line.startswith("max |mean - oracle_mean|:")
        )
        assert float(deviation_line.split(":")[1]) < 1e-6

    def test_oracle_runs_past_the_cap_on_a_forest(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        save_model(generate_tree(2001, seed=1), path)
        assert main(["solve", "--model", str(path), "--oracle"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for prefix in ("max |mean - oracle_mean|:", "max |variance - oracle_var|:"):
            assert float(next(line for line in lines if line.startswith(prefix)).split(":")[1]) < 1e-8

    def test_init_choice_changes_nothing_final(self, model_file, capsys):
        assert main(["solve", "--model", str(model_file), "--init", "U"]) == EXIT_OK
        out = capsys.readouterr().out
        posterior = dense_posterior(load_model(model_file))
        row = next(line for line in out.splitlines() if line.startswith("x2"))
        assert float(row.split()[1]) == pytest.approx(posterior.mean_of("x2"), abs=1e-6)

    def test_divergent_model_reports_status(self, divergent_file, capsys):
        assert main(["solve", "--model", str(divergent_file), "--max-iters", "500"]) == EXIT_OK
        assert "status: diverged after" in capsys.readouterr().out

    def test_bad_tolerance(self, model_file, capsys):
        assert main(["solve", "--model", str(model_file), "--tol", "0"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_loop_model_report(self, model_file, capsys):
        assert main(["analyze", "--model", str(model_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "topology: forest-plus-single-loop (cycles per component: 1)" in out
        assert "graph: 4 variables, 3 factors, 7 edges" in out
        assert "precision bounds:" in out
        assert "mean-update spectral radius:" in out
        assert "(not walk-summable)" in out
        assert "verdict: certified-converges (topology)" in out

    def test_walk_summability_line_reports_the_interval(self, model_file, capsys):
        assert main(["analyze", "--model", str(model_file)]) == EXIT_OK
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("walk-"))
        match = re.fullmatch(
            r"walk-summability radius: (\S+) in \[(\S+), (\S+)\] \(not walk-summable\)", line
        )
        assert match
        radius, lower, upper = map(float, match.groups())
        assert 1.0 <= lower <= radius <= upper
        assert radius == pytest.approx(1.0753662600622516, abs=1e-11)

    def test_undecided_walk_summability_leaves_the_exit_code(self, model_file, capsys,
                                                             monkeypatch):
        from gbpkit import analysis, build_factor_graph

        model = load_model(model_file)
        real = analysis.certify(build_factor_graph(model), model)
        walk = analysis.WalkSummability(radius=1.0, lower=0.9, upper=1.1, is_walk_summable=None)
        fake = dataclasses.replace(real, walk_summability=walk)
        monkeypatch.setattr(analysis, "certify", lambda *a, **k: fake)
        assert main(["analyze", "--model", str(model_file)]) == EXIT_OK
        assert "walk-summability radius: 1 in [0.9, 1.1] (undecided)" in capsys.readouterr().out

    def test_nan_tolerance(self, model_file, capsys):
        assert main(["analyze", "--model", str(model_file), "--tol", "nan"]) == EXIT_ERROR
        assert "tolerance" in capsys.readouterr().err

    def test_divergent_model_exit_code(self, divergent_file, capsys):
        assert main(["analyze", "--model", str(divergent_file)]) == EXIT_DIVERGES
        assert "verdict: certified-diverges" in capsys.readouterr().out

    def test_topology_decides_without_a_radius(self, model_file, capsys):
        assert main(["analyze", "--model", str(model_file)]) == EXIT_OK
        assert "mean-update spectral radius: not computed (topology decides)\n" in (
            capsys.readouterr().out)

    def test_bound_decides_without_reading_the_radius(self, tmp_path, capsys, monkeypatch):
        from gbpkit import analysis, generate_model

        path = tmp_path / "loopy.json"
        save_model(generate_model("random-loopy", 200, 7), path)

        def refuse(matrix):
            raise AssertionError("analyze must not read the lazy radius")

        monkeypatch.setattr(analysis, "spectral_radius", refuse)
        assert main(["analyze", "--model", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        match = re.search(r"^mean-update spectral radius: <= (\S+) \(Collatz-Wielandt bound\)$",
                          out, re.MULTILINE)
        assert match and float(match.group(1)) < 1.0
        assert "verdict: certified-converges (spectral)" in out

    def test_dense_path_prints_the_radius(self, divergent_file, capsys):
        from gbpkit import analysis, build_factor_graph

        assert main(["analyze", "--model", str(divergent_file)]) == EXIT_DIVERGES
        out = capsys.readouterr().out
        match = re.search(r"^mean-update spectral radius: (\S+) \(dense eigensolve\)$",
                          out, re.MULTILINE)
        model = load_model(divergent_file)
        radius = analysis.certify(build_factor_graph(model), model).mean_spectral_radius
        assert match and match.group(1) == format(radius, ".12g")

    def test_inconclusive_exit_code(self, model_file, capsys, monkeypatch):
        from gbpkit import analysis, build_factor_graph

        model = load_model(model_file)
        real = analysis.certify(build_factor_graph(model), model)
        fake = dataclasses.replace(real, verdict=VERDICT_INCONCLUSIVE, basis=None)
        monkeypatch.setattr(analysis, "certify", lambda *a, **k: fake)
        assert main(["analyze", "--model", str(model_file)]) == EXIT_INCONCLUSIVE
        assert "verdict: inconclusive" in capsys.readouterr().out


class TestTrace:
    def test_writes_named_csv(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        code = main(["trace", "--model", str(model_file), "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "iter,part_metric_distance,mean_delta"
        assert len(lines) > 2
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_default_output_name(self, model_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--model", str(model_file)]) == EXIT_OK
        assert (tmp_path / "trace.csv").exists()

    def test_compare_inits_writes_three_files(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        code = main([
            "trace", "--model", str(model_file), "--out", str(out_path), "--compare-inits",
        ])
        assert code == EXIT_OK
        for suffix in ("zero", "L", "U"):
            assert (tmp_path / f"rate_{suffix}.csv").exists()
        assert capsys.readouterr().out.count("wrote") == 3

    # Recorded with one code path per mode; the stdout lines (with the
    # directory shown as DIR) and the sha256 of every CSV must not change.
    ZERO_CSV = "96da651e7228d0fd14ab3c84b8d8eaf4cc48dd3ca05bdd5f9e5df9a514d17b07"
    L_CSV = "22fbebf826d6c278726926e4199b47f78329d1611f293f2baa8bc275302dbc40"
    U_CSV = "3cbe9bedfafca667224e74bc6fe725d535af1519bf727d3b39347ed3e900834c"
    ZERO_LINE = "(19 rows, init zero, final distance 3.60491636548e-11)"
    L_LINE = "(18 rows, init L, final distance 3.60491636548e-11)"
    U_LINE = "(18 rows, init U, final distance 4.05708799881e-11)"

    @pytest.mark.parametrize("out, flags, expected", [
        ("rate.csv", [], [("rate.csv", ZERO_CSV, ZERO_LINE)]),
        ("rate", ["--init", "U"], [("rate", U_CSV, U_LINE)]),
        ("rate.csv", ["--compare-inits"], [
            ("rate_zero.csv", ZERO_CSV, ZERO_LINE),
            ("rate_L.csv", L_CSV, L_LINE),
            ("rate_U.csv", U_CSV, U_LINE),
        ]),
        ("rate", ["--compare-inits", "--init", "U"], [
            ("rate_zero.csv", ZERO_CSV, ZERO_LINE),
            ("rate_L.csv", L_CSV, L_LINE),
            ("rate_U.csv", U_CSV, U_LINE),
        ]),
    ])
    def test_output_is_pinned(self, out, flags, expected, tmp_path, capsys):
        save_model(generate_model("random-loopy", 40, 5), tmp_path / "model.json")
        code = main(["trace", "--model", str(tmp_path / "model.json"),
                     "--out", str(tmp_path / out), *flags])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out.replace(str(tmp_path), "DIR")
        assert stdout.splitlines() == [f"wrote DIR/{name} {line}" for name, _, line in expected]
        written = sorted(p.name for p in tmp_path.iterdir() if p.name != "model.json")
        assert written == sorted(name for name, _, _ in expected)
        for name, digest, _ in expected:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_zero_budget_writes_nothing(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        code = main(["trace", "--model", str(model_file), "--out", str(out_path),
                     "--max-iters", "0"])
        assert code == EXIT_ERROR
        assert "max_iters must be at least 1" in capsys.readouterr().err
        assert not out_path.exists()

    def test_unusable_third_path_refused_before_any_trace(self, model_file, tmp_path, capsys,
                                                          monkeypatch):
        from gbpkit import analysis

        traced = []
        monkeypatch.setattr(analysis, "rate_trace", lambda *a, **k: traced.append(a))
        (tmp_path / "rate_U.csv").mkdir()
        code = main(["trace", "--model", str(model_file), "--out", str(tmp_path / "rate.csv"),
                     "--compare-inits"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "rate_U.csv" in captured.err
        assert captured.out == ""
        assert traced == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json", "rate_U.csv"]


    def test_failed_trace_keeps_an_earlier_output(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "rate.csv"
        out_path.write_text("earlier run\n")
        code = main(["trace", "--model", str(model_file), "--out", str(out_path),
                     "--max-iters", "0"])
        assert code == EXIT_ERROR
        assert "max_iters must be at least 1" in capsys.readouterr().err
        assert out_path.read_text() == "earlier run\n"

    def test_failed_last_trace_removes_only_new_outputs(self, model_file, tmp_path, capsys,
                                                        monkeypatch):
        from gbpkit import analysis

        trace = analysis.rate_trace
        calls = []

        def fail_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return trace(*args, **kwargs)

        monkeypatch.setattr(analysis, "rate_trace", fail_third)
        (tmp_path / "rate_zero.csv").write_text("earlier run\n")
        code = main(["trace", "--model", str(model_file), "--out", str(tmp_path / "rate.csv"),
                     "--compare-inits"])
        assert code == EXIT_ERROR
        assert "interrupted" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json", "rate_zero.csv"]
        assert (tmp_path / "rate_zero.csv").read_text() == "earlier run\n"

    def test_overwrites_a_longer_earlier_output(self, model_file, tmp_path):
        out_path = tmp_path / "rate.csv"
        out_path.write_text("x" * 100_000)
        assert main(["trace", "--model", str(model_file), "--out", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "iter,part_metric_distance,mean_delta"
        assert "x" not in "".join(lines)

class TestGenerate:
    def test_round_trips_generator_output(self, tmp_path, capsys):
        out_path = tmp_path / "tree.json"
        code = main([
            "generate", "--kind", "tree", "--size", "5", "--seed", "3",
            "--out", str(out_path),
        ])
        assert code == EXIT_OK
        assert load_model(out_path) == generate_tree(5, seed=3)
        assert "wrote" in capsys.readouterr().out

    def test_missing_seed(self, tmp_path, capsys):
        code = main([
            "generate", "--kind", "tree", "--size", "5", "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_ERROR
        assert "--seed is required" in capsys.readouterr().err

    def test_missing_out(self, capsys):
        code = main(["generate", "--kind", "tree", "--size", "5", "--seed", "1"])
        assert code == EXIT_ERROR
        assert "--out is required" in capsys.readouterr().err


class TestSimulate:
    def test_synchronous_default(self, model_file, capsys):
        assert main(["simulate", "--model", str(model_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: converged after" in out
        assert "messages)" in out

    def test_init_flag_refused(self, model_file, capsys):
        assert main(["simulate", "--model", str(model_file), "--init", "U"]) == EXIT_ERROR
        assert "unrecognized arguments: --init" in capsys.readouterr().err

    def test_random_sequential_needs_seed(self, model_file, capsys):
        code = main([
            "simulate", "--model", str(model_file), "--schedule", "random-sequential",
        ])
        assert code == EXIT_ERROR
        assert "--seed is required" in capsys.readouterr().err

    def test_random_sequential_with_seed(self, model_file, capsys):
        code = main([
            "simulate", "--model", str(model_file),
            "--schedule", "random-sequential", "--seed", "7",
        ])
        assert code == EXIT_OK
        assert "status: converged" in capsys.readouterr().out

    def test_event_log_written(self, model_file, tmp_path, capsys):
        log = tmp_path / "events.csv"
        code = main(["simulate", "--model", str(model_file), "--log", str(log)])
        assert code == EXIT_OK
        assert log.read_text().startswith("tick,sender,receiver,precision,mean")
        assert f"wrote {log}" in capsys.readouterr().out


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", "--model", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_one(self, model_file, capsys):
        # argparse would exit 2, the code analyze reserves for certified-diverges
        code = main(["analyze", "--model", str(model_file), "--tol", "abc"])
        assert code == EXIT_ERROR
        assert "invalid float value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--model", "{dir}"],
        ["analyze", "--model", "{dir}"],
        ["generate", "--kind", "tree", "--size", "5", "--seed", "1", "--out", "{dir}"],
        ["trace", "--model", "{model}", "--out", "{dir}"],
        ["simulate", "--model", "{model}", "--log", "{dir}"],
    ], ids=lambda argv: argv[0])
    def test_unusable_path_is_an_error(self, argv, model_file, tmp_path, capsys):
        argv = [arg.format(dir=tmp_path, model=model_file) for arg in argv]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(tmp_path) in captured.err
        if argv[0] == "simulate":  # the log is opened before the run
            assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert main(["solve", "--help"]) == EXIT_OK
        assert "--model" in capsys.readouterr().out

    def test_model_flag_required(self, capsys):
        assert main(["solve"]) == EXIT_ERROR
        assert "--model is required" in capsys.readouterr().err

    def test_invalid_model_lists_violations(self, tmp_path, capsys):
        bad = {
            "variables": [{"id": "x1", "prior_var": -1.0}],
            "factors": [{"id": "f1", "coeffs": {"x1": 1.0}, "noise_var": 1.0, "obs": 0.0}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["solve", "--model", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: invalid model" in err
        assert "  - " in err

    @pytest.mark.parametrize("command, module, stage", [
        ("solve", engine, "run"), ("simulate", network, "simulate"),
    ])
    def test_oracle_cap_fails_before_the_run(self, command, module, stage, tmp_path, capsys,
                                             monkeypatch):
        # The cap holds for models with more than one loop.
        path = tmp_path / "big.json"
        save_model(generate_model("random-loopy", 2001, seed=1), path)
        monkeypatch.setattr(module, stage, lambda *a, **k: pytest.fail(f"{stage} ran"))
        assert main([command, "--model", str(path), "--oracle"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "2000" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["analyze"], ["solve", "--oracle"],
                                      ["simulate", "--oracle"]])
    def test_overflowing_information_matrix_is_one_error(self, argv, tmp_path, capsys):
        # A valid model whose coefficient squared overflows J.
        path = tmp_path / "huge.json"
        save_model(LinearGaussianModel((Variable("x1", 1.0), Variable("x2", 1.0)),
                                       (Factor("f1", {"x1": 1e160, "x2": 1.0}, 1.0, 1.0),)),
                   path)
        assert main([argv[0], "--model", str(path), *argv[1:]]) == EXIT_ERROR
        captured = capsys.readouterr()
        # analyze stops at the fixed point, whose precision f1 -> x1 overflows.
        refused = "precision fixed point" if argv[0] == "analyze" else "information matrix"
        assert captured.err == f"error: {refused} has non-finite entries\n"
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    def test_underflowed_fixed_point_is_one_error(self, tmp_path, capsys):
        # A valid model whose coefficient squared underflows: the fixed
        # point's precision f1 -> x1 is 0.0, and analyze refuses it.
        path = tmp_path / "tiny.json"
        save_model(helpers.underflow_model(), path)
        assert main(["analyze", "--model", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: precision fixed point has zero entries\n"
        assert captured.out == ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"variables": [')
        assert main(["analyze", "--model", str(path)]) == EXIT_ERROR
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze", "simulate"])
    @pytest.mark.parametrize("field, violation", [
        ("prior_var", "variable 'x1': prior_var must be a positive finite number"),
        ("obs", "factor 'f1': obs must be a finite number"),
        ("coeff", "factor 'f1': coefficient for 'x1' must be a finite number"),
    ])
    def test_int_beyond_the_float_range_is_a_violation(self, command, field, violation,
                                                      tmp_path, capsys):
        values = dict(prior_var="1.0", obs="0.5", coeff="2.0")
        values[field] = "1" + "0" * 400
        path = tmp_path / "huge.json"
        path.write_text(
            f'{{"variables": [{{"id": "x1", "prior_var": {values["prior_var"]}}}], '
            f'"factors": [{{"id": "f1", "coeffs": {{"x1": {values["coeff"]}}}, '
            f'"noise_var": 1.0, "obs": {values["obs"]}}}]}}'
        )
        assert main([command, "--model", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid model\n  - {violation}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("module", ["gbpkit", "gbpkit.cli"])
    def test_python_dash_m_runs_the_cli(self, module, tmp_path):
        import gbpkit

        env = dict(os.environ, PYTHONPATH=str(Path(gbpkit.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", module, "solve", "--model", str(tmp_path / "none.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith("error: ")
        assert done.stdout == ""


def imported_modules(*argv):
    """Run the ``gbpkit`` command ``argv`` in a new process; the names in that
    process's ``sys.modules`` when the command returns, so modules loaded
    through the package's lazy names count too."""
    import gbpkit

    env = dict(os.environ, PYTHONPATH=str(Path(gbpkit.__file__).parents[1]))
    report = ("import sys; from gbpkit.cli import main; code = main(sys.argv[1:]); "
              "print(*sys.modules, file=sys.stderr); sys.exit(code)")
    done = subprocess.run(
        [sys.executable, "-c", report, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def _scipy(modules):
    return [name for name in modules if name.split(".")[0] == "scipy"]


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["simulate", "--schedule", "synchronous"],
    ])
    def test_solve_and_simulate_import_no_scipy(self, argv, model_file):
        modules = imported_modules(*argv, "--model", str(model_file))
        assert "gbpkit.network" in modules
        assert not {"gbpkit.analysis", "gbpkit.oracle"} & modules
        assert not _scipy(modules)

    @pytest.mark.parametrize("argv", [
        ["trace", "--compare-inits"],
        ["generate", "--kind", "random-loopy", "--size", "30", "--seed", "7"],
    ])
    def test_trace_and_generate_import_no_scipy(self, argv, model_file, tmp_path):
        trace = argv[0] == "trace"
        model = ["--model", str(model_file)] if trace else []
        modules = imported_modules(*argv, *model, "--out", str(tmp_path / "out"))
        assert list(tmp_path.glob("out*"))
        # trace runs the analysis's recursions, on numpy alone
        assert ("gbpkit.analysis" in modules) == trace
        assert "gbpkit.oracle" not in modules
        assert not _scipy(modules)

    def test_analyze_imports_scipy(self, model_file):
        assert "scipy.sparse" in imported_modules("analyze", "--model", str(model_file))

    def test_package_names_load_on_first_access(self):
        import gbpkit
        from gbpkit import analysis, oracle

        star = {}
        exec("from gbpkit import *", star)
        assert star["certify"] is analysis.certify and star["analysis"] is analysis
        assert star["dense_posterior"] is oracle.dense_posterior
        assert set(gbpkit.__all__) <= set(dir(gbpkit))
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            gbpkit.missing


class TestGenerateAnalyzeSolvePipeline:
    def test_single_loop_seeds_certify_and_solve(self, tmp_path, capsys):
        # end-to-end invariant: every generated single-loop model is
        # certified by structure and solved to oracle accuracy
        for seed in range(25):
            path = tmp_path / f"m{seed}.json"
            assert main([
                "generate", "--kind", "single-loop-plus-forest",
                "--size", "6", "--seed", str(seed), "--out", str(path),
            ]) == EXIT_OK
            assert main(["analyze", "--model", str(path)]) == EXIT_OK
            assert main(["solve", "--model", str(path), "--oracle"]) == EXIT_OK
            out = capsys.readouterr().out
            deviation_line = next(
                line for line in out.splitlines()
                if line.startswith("max |mean - oracle_mean|:")
            )
            assert float(deviation_line.split(":")[1]) < 1e-8
