"""The parent-against-change artifact diff, run on the working tree against itself."""

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
