"""The parent-against-change artifact diff: the working tree run against itself
differs nowhere, and `diff_outputs` reports each kind of difference it exists for."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"

# every CLI mode and the sweep in a few steps, so every artifact kind is
# written (the nonlocal run adds comparison.json); this cosine family is not
# well prepared at these eps, so the sweep is told to run anyway
SMALL_CONFIG = {
    "potential": "cubic-motivation",
    "solver": {"n": 32, "dt": 1e-3, "eps": 0.25, "t_end": 0.004},
    "initial_data": {"name": "cosine", "params": {"a": 0.3}},
    "eps_list": [0.25, 0.125],
    "allow_ill_prepared": True,
    "jko": {"tau": 1e-3, "m": 64},
    "output_times": [0.0, 0.002, 0.004],
    "output_dir": "out",
    "workers": 1,
}


def _diff_against_itself(tmp_path, doc):
    """The tool's rows for the working tree run twice on doc, all of them zero."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--config", str(config)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert rows and all(row[-2:] == ["0", "0"] for row in rows)
    return rows


def test_tree_against_itself_differs_nowhere(tmp_path):
    rows = _diff_against_itself(tmp_path, SMALL_CONFIG)
    artifacts = {row[0] for row in rows}
    for mode in ("eps", "limit", "jko", "nonlocal"):
        assert f"single-{mode}/trajectory.csv" in artifacts
    for extra in ("single-jko/cross_validation.csv", "single-nonlocal/comparison.json", "sweep/sweep_report.csv"):
        assert extra in artifacts
    columns = {(row[0], row[1]) for row in rows}
    assert ("sweep/sweep_report.csv", "sup_t_d2_to_limit") in columns
    assert ("single-nonlocal/comparison.json", "gaps[]") in columns


def test_crank_nicolson_config_skips_only_the_nonlocal_run(tmp_path):
    # the nonlocal model rejects theta != 1, which used to stop the tool before any diff
    half = {**SMALL_CONFIG, "solver": {**SMALL_CONFIG["solver"], "theta_scheme": 0.5}}
    artifacts = {row[0] for row in _diff_against_itself(tmp_path, half)}
    assert not any(a.startswith("single-nonlocal/") for a in artifacts)
    for mode in ("eps", "limit", "jko"):
        assert f"single-{mode}/trajectory.csv" in artifacts
    assert "sweep/sweep_report.csv" in artifacts


def test_diff_outputs_reports_each_kind_of_difference(tmp_path):
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    base, head = tmp_path / "base", tmp_path / "head"
    for side, cell, flavor, git in ((base, "0.5", "eps", "abc1234"), (head, "0.25", "limit", "abc1234-dirty")):
        side.mkdir()
        (side / "trajectory.csv").write_text(f"t,mass\n0.0,1.0\n0.5,{cell}\n")
        (side / "audit.json").write_text(json.dumps({"flavor": flavor, "residuals": [0.0, 1e-3]}))
        (side / "manifest.json").write_text(json.dumps({"mode": "eps", "versions": {"git": git, "numpy": "2.4"}}))
    (head / "final_state.csv").write_text("x,density\n0.5,1.0\n")
    rows = {(path, column): diffs for path, column, *diffs in tool.diff_outputs(base, head)}
    # a changed cell shows on its column only
    assert rows[("trajectory.csv", "mass")] == [0.25, 0.5]
    assert rows[("trajectory.csv", "t")] == [0.0, 0.0]
    # a changed string is text, an unchanged number list is zero
    assert rows[("audit.json", "flavor")] == [None, None]
    assert rows[("audit.json", "residuals[]")] == [0.0, 0.0]
    assert rows[("final_state.csv", "(file missing on one side)")] == [None, None]
    # the checkout's git state is not an artifact difference
    assert ("manifest.json", "versions.git") not in rows
    assert rows[("manifest.json", "mode")] == rows[("manifest.json", "versions.numpy")] == [0.0, 0.0]
    assert len(rows) == 7
