"""The README's Python API example runs as written, and its figures match the code."""
import re
from pathlib import Path

from gbpkit import analysis, engine
from gbpkit.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def api_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_api_example_runs_on_a_generated_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--kind", "tree", "--size", "20", "--seed", "7",
                 "--out", "tree.json"]) == EXIT_OK
    capsys.readouterr()
    exec(compile(api_snippet(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["certified-converges (topology)", "None", "0.0"]
    assert len(lines) == 3 + 20


def test_power_iteration_budget_matches_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    budgets = re.findall(r"at most (\d+) power iterations", text)
    # One for the Collatz-Wielandt bound, one for walk-summability.
    assert budgets == [str(analysis.BOUND_MAX_ITERS)] * 2


def test_status_thresholds_match_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert [float(x) for x in re.findall(r"`--tol` or more \(default (\S+)\)", text)] == [
        engine.DEFAULT_TOLERANCE]
    assert [float(x) for x in re.findall(r"passes (\S+) \(`DIVERGENCE_GUARD`\)", text)] == [
        engine.DIVERGENCE_GUARD]
