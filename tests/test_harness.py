"""Config plumbing, initial-data generators, sweeps, manifests, CLI."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from chflow import harness, nonlocal_model
from chflow.cli import main
from chflow.diagnostics import well_preparedness
from chflow.functionals import energy_eps, energy_star, slope_eps
from chflow.harness import (
    MODES,
    TRAJECTORY_COLUMNS,
    ExperimentConfig,
    InitialData,
    collect_versions,
    config_hash,
    default_output_times,
    experiment_from_dict,
    generate_initial,
    run_single,
    run_sweep,
)
from chflow.jko import jko_step_count
from chflow.nonlocal_model import simulate_nonlocal
from chflow.potential import HypothesisViolation, compute_convex_envelope, make_potential
from chflow.solvers import SolverConfig, simulate_eps
from chflow.wasserstein1d import w2_periodic


def _base_doc(out_dir, **overrides):
    doc = {
        "potential": "cubic-motivation",
        "solver": {"n": 96, "dt": 2e-4, "eps": 0.1, "t_end": 0.01},
        "initial_data": {"name": "cosine", "params": {"a": 0.2}},
        "output_times": [0.0, 0.005, 0.01],
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def test_generate_initial_builtins():
    n = 200
    uniform = generate_initial("uniform", {}, n)
    assert np.all(uniform.values == 1.0)

    cosine = generate_initial("cosine", {"a": 0.1, "k": 1}, n)
    assert abs(float(np.mean(cosine.values)) - 1.0) < 1e-14
    assert abs(float(np.min(cosine.values)) - 0.9) < 1e-3
    assert abs(float(np.max(cosine.values)) - 1.1) < 1e-3

    bump = generate_initial("bump", {"width": 0.5, "floor": 0.1}, n)
    assert abs(float(np.mean(bump.values)) - 1.0) < 1e-14
    assert float(np.min(bump.values)) > 0.0
    assert np.argmax(bump.values) in (n // 2 - 1, n // 2)

    vacuum = generate_initial("bump", {"width": 0.5, "floor": 0.0}, n)
    assert float(np.min(vacuum.values)) == 0.0
    assert abs(float(np.mean(vacuum.values)) - 1.0) < 1e-14

    phases = generate_initial("two-phase", {"lo": 0.4, "hi": 1.6, "width": 0.02}, n)
    assert abs(float(np.mean(phases.values)) - 1.0) < 1e-14
    x = (np.arange(n) + 0.5) / n
    assert abs(float(phases.values[np.argmin(np.abs(x - 0.5))]) - 1.6) < 1e-3
    assert abs(float(phases.values[np.argmin(np.abs(x - 0.02))]) - 0.4) < 1e-3


def test_generate_initial_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown initial-data generator 'plateau'"):
        generate_initial("plateau", {}, 64)
    with pytest.raises(ValueError, match="cosine amplitude must satisfy 0 <= a < 1"):
        generate_initial("cosine", {"a": 1.2}, 64)
    with pytest.raises(ValueError, match=r"unknown cosine parameter key\(s\): amp"):
        generate_initial("cosine", {"amp": 0.1}, 64)
    with pytest.raises(ValueError, match="two-phase levels must be nonnegative"):
        generate_initial("two-phase", {"lo": -0.1}, 64)
    with pytest.raises(ValueError, match="bump floor must be nonnegative"):
        generate_initial("bump", {"floor": -1.0}, 64)
    for width in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"bump width must lie in \(0, 1\]"):
            generate_initial("bump", {"width": width}, 64)
    with pytest.raises(ValueError, match=r"unknown uniform parameter key\(s\): a"):
        generate_initial("uniform", {"a": 1.0}, 64)


def test_two_phase_width_is_bounded():
    # the sum over images k = -3..3 is smooth across the wrap only up to width 0.2: at width
    # 1.0 the second difference there read 5.6e-7 against 2.1e-9 inside (n = 4096), silently
    for width in (0.21, 1.0):
        with pytest.raises(ValueError, match=r"two-phase interface width must lie in \(0, 0\.2\]"):
            generate_initial("two-phase", {"width": width}, 64)
    assert generate_initial("two-phase", {"width": 0.2}, 64).n == 64


def test_cosine_mode_must_be_integral():
    # int() used to truncate 1.5 to mode 1 silently
    for k in (0, -2, 0.5, 1.5, 2.25, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cosine mode must be a positive integer"):
            generate_initial("cosine", {"a": 0.1, "k": k}, 64)
    whole = generate_initial("cosine", {"a": 0.1, "k": 3.0}, 64)
    assert np.array_equal(whole.values, generate_initial("cosine", {"a": 0.1, "k": 3}, 64).values)


def test_cosine_mode_must_fit_the_grid(tmp_path):
    # on 64 cells k = 32 and 64 used to give uniform data and k = 33 mode 31, silently
    for k in (32, 33, 64):
        with pytest.raises(ValueError, match=f"cosine mode k = {k} needs k < n/2 = 32 to be resolved on 64 cells"):
            generate_initial("cosine", {"a": 0.1, "k": k}, 64)
    assert np.ptp(generate_initial("cosine", {"a": 0.1, "k": 31}, 64).values) > 0.1
    with pytest.raises(ValueError, match="cosine mode k = 48"):
        experiment_from_dict(_base_doc(tmp_path, initial_data={"name": "cosine", "params": {"k": 48}}))


@pytest.mark.parametrize("name, params", [
    ("uniform", {}),
    ("cosine", {}),
    ("bump", {}),
    ("two-phase", {}),
    ("two-phase", {"lo": 0.3, "hi": 1.7, "width": 0.1}),
    ("two-phase", {"lo": 0.3, "hi": 1.7, "width": 0.2}),
], ids=["uniform", "cosine", "bump", "two-phase", "two-phase-w0.1", "two-phase-w0.2"])
def test_initial_slope_converges_under_refinement(name, params):
    # a generator with a slope jump at the periodic wrap puts a delta in the discrete
    # second difference, so slope_eps at t = 0 grows with n (two-phase at width 0.2
    # read 37 at n = 2048 and 297 at n = 8192 before its images were summed)
    spec = make_potential("quartic-wrinkle")
    coarse, fine = (slope_eps(generate_initial(name, params, n), 0.025, spec) for n in (2048, 8192))
    if name == "uniform":
        assert coarse == fine == 0.0
    else:
        assert abs(fine - coarse) < 0.01 * fine


def test_two_phase_on_convex_branches_is_ill_prepared():
    # levels on the convex branches inside Sigma keep a bulk energy excess,
    # the ill-prepared control for wrinkling runs
    spec = make_potential("quartic-wrinkle")
    env = compute_convex_envelope(spec)
    family = []
    for eps in (0.1, 0.05):
        n = max(128, int(np.ceil(8.0 / eps)))
        family.append((eps, generate_initial("two-phase", {"lo": 0.3, "hi": 1.7}, n)))
    f0 = generate_initial("two-phase", {"lo": 0.3, "hi": 1.7}, 256)
    gaps = [energy_eps(f, eps, spec) - energy_star(f0, env) for eps, f in family]
    assert all(g > 0.01 for g in gaps)
    report = well_preparedness(family, f0, spec)
    assert not report.well_prepared


def test_default_output_times_shape():
    times = default_output_times(0.5)
    assert len(times) == 20
    assert times[0] == 0.0
    assert times[-1] == 0.5
    assert all(b > a for a, b in zip(times, times[1:]))
    assert abs(times[1] - 0.5e-3) < 1e-12
    assert sum(1 for t in times if t < 0.05) >= 10  # dense early
    with pytest.raises(ValueError, match="t_end must be positive"):
        default_output_times(0.0)
    with pytest.raises(ValueError, match="need at least two output times"):
        default_output_times(0.5, 1)


def test_experiment_config_validation(tmp_path):
    doc = _base_doc(tmp_path)
    cfg = experiment_from_dict(doc)
    assert cfg.solver.n == 96
    assert cfg.times() == (0.0, 0.005, 0.01)
    assert experiment_from_dict(_base_doc(tmp_path, output_times=None)).times()[0] == 0.0

    with pytest.raises(ValueError, match="unknown config key"):
        experiment_from_dict(_base_doc(tmp_path, solvr={}))
    with pytest.raises(ValueError, match="unknown solver key"):
        experiment_from_dict(_base_doc(tmp_path, solver={"n": 96, "dt": 1e-4, "eps": 0.1, "t_end": 0.01, "cfl": 0.5}))
    # positivity handling is fixed per flow, so no solver key selects it
    positivity = {"n": 96, "dt": 1e-4, "eps": 0.1, "t_end": 0.01, "positivity_mode": "clip-renormalize"}
    with pytest.raises(ValueError, match="unknown solver key.*positivity_mode"):
        experiment_from_dict(_base_doc(tmp_path, solver=positivity))
    with pytest.raises(ValueError, match="unknown jko key"):
        experiment_from_dict(_base_doc(tmp_path, jko={"tau": 1e-3, "steps": 5}))
    with pytest.raises(ValueError, match="unknown initial_data key"):
        experiment_from_dict(_base_doc(tmp_path, initial_data={"name": "uniform", "amplitude": 0.1}))
    with pytest.raises(ValueError, match="missing required key"):
        experiment_from_dict({"potential": "cubic-motivation"})
    with pytest.raises(ValueError):
        experiment_from_dict(_base_doc(tmp_path, initial_data={"name": "no-such-generator"}))
    with pytest.raises(ValueError, match="strictly decreasing"):
        experiment_from_dict(_base_doc(tmp_path, eps_list=[0.05, 0.1]))
    with pytest.raises(ValueError, match="positive"):
        experiment_from_dict(_base_doc(tmp_path, eps_list=[0.1, -0.05]))
    with pytest.raises(ValueError, match="within"):
        experiment_from_dict(_base_doc(tmp_path, output_times=[0.0, 0.02]))
    with pytest.raises(ValueError, match="increasing"):
        experiment_from_dict(_base_doc(tmp_path, output_times=[0.005, 0.005, 0.01]))
    with pytest.raises(ValueError, match="workers"):
        experiment_from_dict(_base_doc(tmp_path, workers=0))


def test_output_times_rejected_at_load_with_the_solver_rule(tmp_path):
    # the run would reject these; the config must do so before any directory exists
    out = tmp_path / "out"
    for bad in ([0.005, 0.01], [0.0], [0.0, 0.01 * (1.0 + 1e-9)]):
        with pytest.raises(ValueError):
            experiment_from_dict(_base_doc(out, output_times=bad))
    assert not out.exists()
    assert experiment_from_dict(_base_doc(out, output_times=[0.0, 0.01 * (1.0 + 1e-13)])).times()[0] == 0.0


def test_jko_tau_checked_at_load(tmp_path):
    # 3 tau is within 1e-8 of t_end but past t_end (1 + 1e-12): the run's step
    # times would fail as output times of the finite-difference cross-check
    out = tmp_path / "out"
    bad = _base_doc(out, jko={"tau": 0.00333333334, "m": 128})
    with pytest.raises(ValueError, match="multiple of tau"):
        experiment_from_dict(bad)
    assert not out.exists()
    for tau in (0.00333333334, 3e-3):
        with pytest.raises(ValueError, match="multiple of tau"):
            jko_step_count(tau, 0.01)
    assert jko_step_count(0.01 / 3.0, 0.01) == 3
    assert experiment_from_dict(_base_doc(out, jko={"tau": 2.5e-3, "m": 128})).jko.tau == 2.5e-3


def test_unknown_potential_rejected_at_load(tmp_path, monkeypatch):
    # both used to load and then fail only when the run built the potential
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"unknown potential 'quartic-spinnodal'; choices: \[.*'quartic-spinodal'"):
        experiment_from_dict(_base_doc(out, potential="quartic-spinnodal"))
    with pytest.raises(ValueError, match="potential needs at least one coefficient"):
        experiment_from_dict(_base_doc(out, potential=[]))
    assert not out.exists()
    # the check reads the names; building a potential is left to the run
    def no_build(*args, **kwargs):
        raise AssertionError("potential built at load time")

    monkeypatch.setattr(harness, "make_potential", no_build)
    monkeypatch.setattr(harness, "from_polynomial", no_build)
    assert experiment_from_dict(_base_doc(out, potential="quartic-wrinkle")).potential == "quartic-wrinkle"
    assert experiment_from_dict(_base_doc(out, potential=[0, 0, 1])).potential == (0.0, 0.0, 1.0)


def test_sweep_eps_labels_must_be_distinct(tmp_path):
    # 0.09999999 prints as 0.1 under :g, so both runs would write sweep/eps-0.1/
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="distinct sweep directories"):
        experiment_from_dict(_base_doc(out, eps_list=[0.1, 0.09999999]))
    assert not out.exists()
    assert experiment_from_dict(_base_doc(out, eps_list=[0.1, 0.0999999])).eps_list == (0.1, 0.0999999)


def test_non_finite_and_fractional_values_rejected_at_load(tmp_path):
    # each of these used to load and then fail mid-run, or run to completion
    # with nan rows in trajectory.csv
    out = tmp_path / "out"
    nan = float("nan")
    solver = {"n": 96, "dt": 2e-4, "eps": 0.1, "t_end": 0.01}
    for bad in (
        {"output_times": [0.0, nan, 0.01]},
        {"solver": dict(solver, dt=nan)},
        {"solver": dict(solver, t_end=float("inf"))},
        {"solver": dict(solver, eps=nan)},
        {"solver": dict(solver, newton_tol=nan)},
        {"solver": dict(solver, n=64.5)},
        {"eps_list": [0.2, nan]},
        {"eps_list": [float("inf"), 0.2]},
        {"jko": {"tau": 2.5e-3, "m": 128.5}},
        {"potential": [0.0, 0.0, nan, 1.0]},
        # a NaN center or an infinite width used to give uniform data silently
        {"initial_data": {"name": "bump", "params": {"center": nan}}},
        {"initial_data": {"name": "two-phase", "params": {"width": float("inf")}}},
    ):
        with pytest.raises(ValueError):
            experiment_from_dict(_base_doc(out, **bad))
    assert not out.exists()


def test_config_types_are_not_coerced(tmp_path):
    # bool("false") is True and int(2.7) is 2: both used to pass silently
    for value in ("false", "true", 0, 1, None):
        with pytest.raises(ValueError, match="allow_ill_prepared"):
            experiment_from_dict(_base_doc(tmp_path, allow_ill_prepared=value))
    for value in (2.7, True, "2", float("nan")):
        with pytest.raises(ValueError, match="workers"):
            experiment_from_dict(_base_doc(tmp_path, workers=value))
    assert experiment_from_dict(_base_doc(tmp_path, allow_ill_prepared=False)).allow_ill_prepared is False
    assert experiment_from_dict(_base_doc(tmp_path, workers=2.0)).workers == 2
    # float("0.1") and float(True) used to let strings and bools through as numbers
    solver = {"n": 96, "dt": 2e-4, "eps": 0.1, "t_end": 0.01}
    for key, value, what in (
        ("eps_list", ["0.1", "0.05"], "eps_list"),
        ("eps_list", [True, 0.5], "eps_list"),
        ("output_times", ["0", "0.01"], "output_times"),
        ("output_times", [False, 0.01], "output_times"),
        ("potential", ["0", "1"], "potential"),
        ("initial_data", {"name": "cosine", "params": {"a": "0.2"}}, "cosine parameter a"),
        ("initial_data", {"name": "bump", "params": {"floor": True}}, "bump parameter floor"),
        ("initial_data", {"name": "cosine", "params": {"k": "2"}}, "cosine mode"),
        ("solver", dict(solver, dt="2e-4"), "dt"),
        ("solver", dict(solver, theta_scheme=True), "theta_scheme"),
        ("jko", {"tau": "1e-3"}, "tau"),
        # sections of the wrong JSON type used to fail inside dict() or tuple()
        ("solver", [1, 2], "solver"),
        ("initial_data", "cosine", "initial_data"),
        ("initial_data", {"name": "cosine", "params": [1]}, "params"),
        ("initial_data", {"params": {"a": 0.2}}, "initial_data needs a generator name"),
        ("jko", 5, "jko"),
        ("potential", 5, "potential"),
        ("eps_list", 0.1, "eps_list"),
        ("output_times", 0.01, "output_times"),
        # an output_dir that is not a string used to fail at Path() after the whole run
        ("output_dir", 5, "output_dir"),
        ("output_dir", ["a"], "output_dir"),
    ):
        with pytest.raises(ValueError, match=what):
            experiment_from_dict(_base_doc(tmp_path, **{key: value}))
    with pytest.raises(ValueError, match="config"):
        experiment_from_dict([_base_doc(tmp_path)])
    assert experiment_from_dict(_base_doc(tmp_path, eps_list=[1, 0.5])).eps_list == (1.0, 0.5)
    with pytest.raises(ValueError, match="unknown config key"):
        experiment_from_dict(_base_doc(tmp_path, seed=0))
    # the inner tolerance and cap of the movement scheme are constants now
    for key, value in (("inner_tol", 1e-6), ("inner_max", 2000)):
        with pytest.raises(ValueError, match=f"unknown jko key\\(s\\): {key}"):
            experiment_from_dict(_base_doc(tmp_path, jko={"tau": 1e-3, key: value}))


def test_readme_example_config_loads(tmp_path):
    # tools/artifact_diff.py runs this config by default, read from README.md by its parser
    tool_path = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
    spec = importlib.util.spec_from_file_location("artifact_diff", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    doc = tool.readme_config()
    doc["output_dir"] = str(tmp_path)
    cfg = experiment_from_dict(doc)
    assert cfg.eps_list and cfg.jko is not None and cfg.workers == doc["workers"]


def test_config_hash_ignores_execution_keys(tmp_path):
    cfg_a = experiment_from_dict(_base_doc(tmp_path / "a"))
    cfg_b = experiment_from_dict(_base_doc(tmp_path / "b", workers=3))
    assert config_hash(cfg_a) == config_hash(cfg_b)
    assert len(config_hash(cfg_a)) == 64
    cfg_c = experiment_from_dict(_base_doc(tmp_path / "a", initial_data={"name": "cosine", "params": {"a": 0.3}}))
    assert config_hash(cfg_c) != config_hash(cfg_a)
    doc = _base_doc(tmp_path, solver={"dt": 2e-4, "t_end": 0.01, "n": 96, "eps": 0.1})
    assert config_hash(experiment_from_dict(doc)) == config_hash(cfg_a)  # key order free


def test_run_single_limit_constant_stationary(tmp_path):
    doc = _base_doc(tmp_path, initial_data={"name": "uniform", "params": {}})
    record = run_single(experiment_from_dict(doc), "limit")
    assert record.completed
    out = tmp_path / "single-limit"
    audit = json.loads((out / "audit.json").read_text())
    assert audit["flavor"] == "limit"
    assert max(abs(r) for r in audit["residuals"]) < 1e-12
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + three output times
    final = (out / "final_state.csv").read_text().strip().splitlines()
    assert final[0] == "x,density"
    xs = np.array([float(line.split(",")[0]) for line in final[1:]])
    assert np.array_equal(xs, record.snapshots[-1].cell_centers())
    dens = np.array([float(line.split(",")[1]) for line in final[1:]])
    assert np.max(np.abs(dens - 1.0)) < 1e-12
    wrinkle = json.loads((out / "wrinkle.json").read_text())
    assert len(wrinkle) == 3
    assert all(row["violations"] == 0 for row in wrinkle)


def test_run_single_manifest_hashes(tmp_path):
    cfg = experiment_from_dict(_base_doc(tmp_path))
    run_single(cfg, "eps")
    out = tmp_path / "single-eps"
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["config", "config_hash", "mode", "outputs", "versions"]
    assert manifest["mode"] == "eps"
    assert manifest["config_hash"] == config_hash(cfg)
    for key in ("python", "numpy", "scipy", "chflow", "git"):
        assert isinstance(manifest["versions"][key], str) and manifest["versions"][key]
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == {"trajectory.csv", "final_state.csv", "audit.json", "wrinkle.json"}
    for entry in manifest["outputs"]:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]


def test_run_single_jko_artifacts(tmp_path):
    doc = _base_doc(tmp_path, jko={"tau": 2e-3, "m": 128})
    record = run_single(experiment_from_dict(doc), "jko")
    assert record.flavor == "jko"
    out = tmp_path / "single-jko"
    ledger = (out / "ledger.csv").read_text().strip().splitlines()
    assert ledger[0] == "step,d2_increment,energy,slack"
    assert len(ledger) == record.times.size + 1
    cross = (out / "cross_validation.csv").read_text().strip().splitlines()
    assert cross[0] == "t,d2"
    d2 = np.array([float(line.split(",")[1]) for line in cross[1:]])
    assert d2.size == record.times.size
    assert np.all(np.isfinite(d2)) and np.all(d2 < 1e-3)


def _csv_rows(path, columns):
    """The rows of a CSV artifact, checked cell by cell against `columns` ({name: values}):
    the header names the columns in order, every line ends in LF alone, and every cell
    parses back bit for bit to the value it was written from (int columns as ints)."""
    blob = path.read_bytes()
    assert b"\r" not in blob, f"{path.name} has a CR"
    header, *rows = blob.decode().split("\n")[:-1]
    assert tuple(header.split(",")) == tuple(columns)
    rows = [line.split(",") for line in rows]
    for k, (name, values) in enumerate(columns.items()):
        cells = [row[k] for row in rows]
        assert len(cells) == len(values), name
        if all(isinstance(v, (int, np.integer)) for v in values):
            assert [int(c) for c in cells] == list(values), name
        else:
            got = np.array([float(c) for c in cells])
            assert np.array_equal(got.view(np.int64), np.asarray(values, dtype=float).view(np.int64)), name
    return rows


def _trajectory_columns(record):
    snaps, reps = record.snapshots, record.reports
    return {
        "t": record.times,
        "min": [np.min(s.values) for s in snaps],
        "max": [np.max(s.values) for s in snaps],
        "mass": [s.mass() for s in snaps],
        **{key: [getattr(r, key) for r in reps] for key in ("e_eps", "e_star", "slope_eps", "slope_star")},
        "speed": record.speeds(),
    }


def _recording_simulate_eps(monkeypatch):
    """Make harness keep every regularized record it computes, in call order."""
    records = []

    def recording(*args, **kwargs):
        records.append(simulate_eps(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(harness, "simulate_eps", recording)
    return records


@pytest.mark.parametrize("mode", MODES)
def test_run_single_csv_artifacts_round_trip(tmp_path, monkeypatch, mode):
    assert TRAJECTORY_COLUMNS == ("t", "min", "max", "mass", "e_eps", "e_star", "slope_eps", "slope_star", "speed")
    eps_records = _recording_simulate_eps(monkeypatch)
    record = run_single(experiment_from_dict(_base_doc(tmp_path, jko={"tau": 2e-3, "m": 128})), mode)
    out = tmp_path / f"single-{mode}"
    _csv_rows(out / "trajectory.csv", _trajectory_columns(record))
    final = record.snapshots[-1]
    _csv_rows(out / "final_state.csv", {"x": final.cell_centers(), "density": final.values})
    written = {"trajectory.csv", "final_state.csv"}
    if mode == "jko":
        ex = record.extras
        ledger = _csv_rows(out / "ledger.csv", {
            "step": list(range(record.times.size)),
            "d2_increment": ex["d2_increments"],
            "energy": ex["energies"],
            "slack": ex["ledger_slack"],
        })
        assert int(ledger[-1][0]) == record.times.size - 1
        assert float(ledger[-1][3]) <= 1e-12
        (fd_record,) = eps_records
        d2 = [w2_periodic(a, b) for a, b in zip(record.snapshots, fd_record.snapshots)]
        _csv_rows(out / "cross_validation.csv", {"t": record.times, "d2": d2})
        written |= {"ledger.csv", "cross_validation.csv"}
    assert {path.name for path in out.glob("*.csv")} == written


def test_run_sweep_csv_artifacts_round_trip(tmp_path, monkeypatch):
    eps_records = _recording_simulate_eps(monkeypatch)
    report = run_sweep(experiment_from_dict(_sweep_doc(tmp_path)))
    out = tmp_path / "sweep"
    _csv_rows(out / "limit_trajectory.csv", _trajectory_columns(report.limit_run))
    assert report.failures == () and len(eps_records) == len(report.rows) == 2
    for row, record in zip(report.rows, eps_records):
        _csv_rows(out / f"eps-{row.eps:g}" / "trajectory.csv", _trajectory_columns(record))
    wrinkles = [row.wrinkle_summary for row in report.rows]
    _csv_rows(out / "sweep_report.csv", {
        **{key: [getattr(row, key) for row in report.rows]
           for key in ("eps", "sup_t_d2_to_limit", "slope_gap_L2", "energy_gap_final")},
        "wrinkle_violations": [w["violations"] for w in wrinkles],
        "wrinkle_osc_mass": [w["oscillating_mass_fraction"] for w in wrinkles],
        "wrinkle_localized": [int(w["sigma_localized"]) for w in wrinkles],
    })
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*.csv")) == [
        "eps-0.05/trajectory.csv", "eps-0.1/trajectory.csv", "limit_trajectory.csv", "sweep_report.csv"]


def test_run_single_jko_needs_config(tmp_path):
    cfg = experiment_from_dict(_base_doc(tmp_path))
    with pytest.raises(ValueError, match="jko config"):
        run_single(cfg, "jko")
    with pytest.raises(ValueError, match="mode"):
        run_single(cfg, "spectral")


@pytest.mark.parametrize("mode, message", [
    ("eps", "simulate_eps needs eps > 0"),
    ("jko", "simulate_jko needs eps > 0"),
    ("nonlocal", "simulate_nonlocal needs eps > 0"),
])
def test_run_single_rejected_config_leaves_no_directory(tmp_path, mode, message):
    doc = _base_doc(tmp_path, solver={"n": 96, "dt": 2e-4, "eps": 0.0, "t_end": 0.01}, jko={"tau": 2e-3, "m": 128})
    with pytest.raises(ValueError, match=message):
        run_single(experiment_from_dict(doc), mode)
    assert list(tmp_path.iterdir()) == []


def test_run_single_nonlocal_comparison(tmp_path):
    record = run_single(experiment_from_dict(_base_doc(tmp_path)), "nonlocal")
    assert record.flavor == "nonlocal"
    cmp_doc = json.loads((tmp_path / "single-nonlocal" / "comparison.json").read_text())
    assert cmp_doc["gaps"][0] == 0.0
    assert cmp_doc["eps_eff"] == pytest.approx(0.1 * np.sqrt(cmp_doc["k0"]), rel=1e-12)
    assert len(cmp_doc["gaps"]) == len(cmp_doc["times"]) == 3


def test_run_single_nonlocal_runs_the_model_once(tmp_path, monkeypatch):
    # the record's run is also the comparison's nonlocal side
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate_nonlocal(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_nonlocal", counting)
    monkeypatch.setattr(nonlocal_model, "simulate_nonlocal", counting)
    record = run_single(experiment_from_dict(_base_doc(tmp_path, output_times=[])), "nonlocal")
    assert len(calls) == 1
    # so the comparison keeps the run's output times, here the log-spaced default
    cmp_doc = json.loads((tmp_path / "single-nonlocal" / "comparison.json").read_text())
    assert cmp_doc["times"] == list(record.times) == list(default_output_times(0.01))
    assert len(cmp_doc["gaps"]) == 20 and cmp_doc["gaps"][0] == 0.0


def _sweep_doc(out_dir, **overrides):
    doc = _base_doc(
        out_dir,
        potential="quartic-spinodal",
        solver={"n": 96, "dt": 2e-4, "eps": 0.1, "t_end": 0.02},
        initial_data={"name": "cosine", "params": {"a": 0.1}},
        eps_list=[0.1, 0.05],
        output_times=[0.0, 0.01, 0.02],
    )
    doc.update(overrides)
    return doc


def test_run_sweep_report_and_artifacts(tmp_path):
    cfg = experiment_from_dict(_sweep_doc(tmp_path))
    report = run_sweep(cfg)
    assert len(report.rows) == 2
    assert report.failures == ()
    assert report.grids == {0.1: 96, 0.05: 160}
    eps_col = [row.eps for row in report.rows]
    assert eps_col == [0.1, 0.05]
    for row in report.rows:
        assert np.isfinite(row.sup_t_d2_to_limit)
        assert np.isfinite(row.slope_gap_L2)
        assert np.isfinite(row.energy_gap_final)
    # the mini-sweep already shows the vanishing-interface trend
    assert report.rows[1].sup_t_d2_to_limit < report.rows[0].sup_t_d2_to_limit
    assert report.rows[1].slope_gap_L2 < report.rows[0].slope_gap_L2
    assert report.rows[1].energy_gap_final < report.rows[0].energy_gap_final

    out = tmp_path / "sweep"
    table = (out / "sweep_report.csv").read_text().strip().splitlines()
    assert table[0] == (
        "eps,sup_t_d2_to_limit,slope_gap_L2,energy_gap_final,"
        "wrinkle_violations,wrinkle_osc_mass,wrinkle_localized"
    )
    assert len(table) == 3
    assert (out / "limit_trajectory.csv").exists()
    assert (out / "eps-0.1" / "trajectory.csv").exists()
    assert (out / "eps-0.05" / "trajectory.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "sweep"
    assert manifest["grids"] == {"0.1": 96, "0.05": 160}
    assert manifest["failures"] == []


def test_theta_half_runs_the_relaxed_flow_by_backward_euler(tmp_path):
    # theta_scheme reaches the eps runs only; the relaxed flow, which raises
    # for a theta other than 1, is run with theta 1 as it is with eps 0
    half = {"n": 96, "dt": 2e-4, "eps": 0.1, "t_end": 0.02, "theta_scheme": 0.5}
    report = run_sweep(experiment_from_dict(_sweep_doc(tmp_path / "half", solver=half)))
    full = run_sweep(experiment_from_dict(_sweep_doc(tmp_path / "full")))
    assert len(report.rows) == 2 and report.failures == ()
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(report.limit_run.snapshots, full.limit_run.snapshots))
    assert report.rows != full.rows
    single = dict(half, t_end=0.01)
    assert run_single(experiment_from_dict(_base_doc(tmp_path, solver=single)), "limit").completed
    with pytest.raises(ValueError, match="theta_scheme"):
        run_single(experiment_from_dict(_base_doc(tmp_path, solver=single)), "nonlocal")


def test_run_sweep_gate_and_override(tmp_path):
    bad = _sweep_doc(tmp_path, potential="cubic-motivation")
    with pytest.raises(HypothesisViolation):
        run_sweep(experiment_from_dict(bad))
    tolerated = experiment_from_dict(_sweep_doc(tmp_path, potential="cubic-motivation", allow_ill_prepared=True))
    report = run_sweep(tolerated)
    assert len(report.rows) == 2
    with pytest.raises(ValueError, match="run_sweep needs a nonempty eps_list"):
        run_sweep(experiment_from_dict(_sweep_doc(tmp_path / "none", eps_list=[])))
    assert not (tmp_path / "none").exists()


def test_run_sweep_isolates_failures(tmp_path, monkeypatch):
    import chflow.harness as harness

    real = harness.simulate_eps

    def poisoned(f0, run_cfg, spec, output_times=None):
        if abs(run_cfg.eps - 0.1) < 1e-12:
            raise RuntimeError("poisoned run")
        return real(f0, run_cfg, spec, output_times=output_times)

    monkeypatch.setattr(harness, "simulate_eps", poisoned)
    report = run_sweep(experiment_from_dict(_sweep_doc(tmp_path)))
    assert len(report.rows) == 1
    assert report.rows[0].eps == 0.05
    assert len(report.failures) == 1
    assert report.failures[0][0] == 0.1
    assert "poisoned" in report.failures[0][1]
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["failures"] == [{"eps": 0.1, "error": "RuntimeError: poisoned run"}]


def test_run_sweep_with_every_eps_run_failing(tmp_path, monkeypatch, capsys):
    # no row survives: the report is its header alone, the reference is still written,
    # and the manifest hashes both files
    def poisoned(f0, run_cfg, spec, output_times=None):
        raise RuntimeError("poisoned run")

    monkeypatch.setattr(harness, "simulate_eps", poisoned)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_sweep_doc(tmp_path)))
    assert main(["sweep", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == []
    assert payload["failures"] == [{"eps": e, "error": "RuntimeError: poisoned run"} for e in (0.1, 0.05)]
    out = tmp_path / "sweep"
    header = b"eps,sup_t_d2_to_limit,slope_gap_L2,energy_gap_final,wrinkle_violations,wrinkle_osc_mass,wrinkle_localized"
    assert (out / "sweep_report.csv").read_bytes() == header + b"\n"
    assert (out / "limit_trajectory.csv").read_text().startswith(",".join(TRAJECTORY_COLUMNS) + "\n")
    assert not list(out.glob("eps-*"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [
        {"path": name, "sha256": hashlib.sha256((out / name).read_bytes()).hexdigest()}
        for name in ("limit_trajectory.csv", "sweep_report.csv")
    ]


def test_run_sweep_records_an_aborted_eps_run(tmp_path, monkeypatch):
    from chflow.solvers import TrajectoryRecord

    real = harness.simulate_eps

    def aborting(f0, run_cfg, spec, output_times=None):
        rec = real(f0, run_cfg, spec, output_times=output_times)
        if run_cfg.eps != 0.1:
            return rec
        abort = {"type": "abort", "t": 0.01, "dt": 1e-16}
        return TrajectoryRecord(rec.times[:2], rec.snapshots[:2], rec.reports[:2], [abort], rec.flavor)

    monkeypatch.setattr(harness, "simulate_eps", aborting)
    report = run_sweep(experiment_from_dict(_sweep_doc(tmp_path)))
    message = "RuntimeError: regularized run aborted before reaching t_end"
    assert report.failures == ((0.1, message),)
    assert [row.eps for row in report.rows] == [0.05]
    alone = run_sweep(experiment_from_dict(_sweep_doc(tmp_path / "alone", eps_list=[0.05])))
    assert report.rows == alone.rows
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["failures"] == [{"eps": 0.1, "error": message}]
    assert not (tmp_path / "sweep" / "eps-0.1").exists()


def test_run_single_aborted_before_its_second_snapshot(tmp_path, monkeypatch, capsys):
    # no energy-dissipation audit exists for one snapshot: audit.json says so, and
    # `chflow audit` refuses the one-row trajectory as a runtime failure
    from chflow.solvers import TrajectoryRecord

    real = harness.simulate_eps

    def aborting(f0, run_cfg, spec, output_times=None):
        rec = real(f0, run_cfg, spec, output_times=output_times)
        abort = {"type": "abort", "t": 0.0, "dt": 1e-16}
        return TrajectoryRecord(rec.times[:1], rec.snapshots[:1], rec.reports[:1], [abort], rec.flavor)

    monkeypatch.setattr(harness, "simulate_eps", aborting)
    record = run_single(experiment_from_dict(_base_doc(tmp_path)), "eps")
    assert not record.completed
    out = tmp_path / "single-eps"
    assert json.loads((out / "audit.json").read_text()) == {"error": "run aborted before the second snapshot"}
    assert len((out / "trajectory.csv").read_text().splitlines()) == 2
    assert main(["audit", "--trajectory", str(out / "trajectory.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trajectory has fewer than two rows" in captured.err


def test_run_sweep_stops_when_the_reference_aborts(tmp_path, monkeypatch):
    import chflow.harness as harness
    from chflow.solvers import TrajectoryRecord

    real = harness.simulate_limit
    eps_runs = []

    def truncated(f0, cfg, env, output_times=None):
        rec = real(f0, cfg, env, output_times=output_times)
        abort = {"type": "abort", "t": 0.0125, "dt": 1e-16}
        return TrajectoryRecord(rec.times[:2], rec.snapshots[:2], rec.reports[:2], [abort], rec.flavor)

    monkeypatch.setattr(harness, "simulate_limit", truncated)
    monkeypatch.setattr(harness, "simulate_eps", lambda *args, **kwargs: eps_runs.append(args))
    with pytest.raises(RuntimeError, match=r"relaxed reference run \(n = 160\) aborted at t = 0\.0125"):
        run_sweep(experiment_from_dict(_sweep_doc(tmp_path)))
    assert eps_runs == []


def test_git_timeout_reads_unknown(monkeypatch):
    import subprocess

    def hung(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    # the version is read once per process, so the cache is emptied around the patch
    harness._git_describe.cache_clear()
    monkeypatch.setattr(subprocess, "run", hung)
    try:
        assert collect_versions()["git"] == "unknown"
    finally:
        harness._git_describe.cache_clear()


def test_each_potential_builds_its_envelope_once(tmp_path, monkeypatch):
    # every chflow binding of compute_convex_envelope is wrapped, so a rebuild
    # anywhere counts; from_polynomial builds one, on the one working window,
    # and the runs read spec.envelope
    import sys

    import chflow.potential as potential
    from chflow.jko import JkoConfig, simulate_jko
    from chflow.nonlocal_model import simulate_nonlocal
    from chflow.solvers import simulate_eps

    real = potential.compute_convex_envelope
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].domain_max)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("chflow") and getattr(module, "compute_convex_envelope", None) is real:
            monkeypatch.setattr(module, "compute_convex_envelope", counting)

    times = [0.0, 0.002, 0.004]
    solver = {"n": 96, "dt": 2e-4, "eps": 0.1, "t_end": 0.004}
    run_sweep(experiment_from_dict(_sweep_doc(tmp_path, solver=solver, eps_list=[0.1, 0.05, 0.025],
                                              output_times=times)))
    assert len(calls) == 1
    calls.clear()
    run_single(experiment_from_dict(_base_doc(tmp_path, solver=solver, output_times=times)), "nonlocal")
    assert len(calls) == 1

    spec = make_potential("cubic-motivation")
    calls.clear()
    f0 = generate_initial("cosine", {"a": 0.2}, 96)
    cfg = SolverConfig(**solver)
    simulate_eps(f0, cfg, spec, output_times=times)
    simulate_nonlocal(f0, cfg, spec, output_times=times)
    simulate_jko(f0, JkoConfig(tau=1e-3, m=256), 0.1, spec, 0.004)
    assert calls == []


def test_sweep_parallel_matches_serial(tmp_path):
    serial = run_sweep(experiment_from_dict(_sweep_doc(tmp_path / "serial")))
    parallel = run_sweep(experiment_from_dict(_sweep_doc(tmp_path / "parallel", workers=2)))
    for a, b in zip(serial.rows, parallel.rows):
        assert a == b
    a = (tmp_path / "serial" / "sweep" / "sweep_report.csv").read_bytes()
    b = (tmp_path / "parallel" / "sweep" / "sweep_report.csv").read_bytes()
    assert a == b


def test_determinism_bit_identical(tmp_path):
    doc_a = _base_doc(tmp_path / "a")
    doc_b = _base_doc(tmp_path / "b")
    run_single(experiment_from_dict(doc_a), "eps")
    run_single(experiment_from_dict(doc_b), "eps")
    for name in ("trajectory.csv", "final_state.csv", "audit.json", "wrinkle.json"):
        blob_a = (tmp_path / "a" / "single-eps" / name).read_bytes()
        blob_b = (tmp_path / "b" / "single-eps" / name).read_bytes()
        assert blob_a == blob_b
    hash_a = json.loads((tmp_path / "a" / "single-eps" / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((tmp_path / "b" / "single-eps" / "manifest.json").read_text())["config_hash"]
    assert hash_a == hash_b


def test_cli_simulate_and_audit_roundtrip(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_base_doc(tmp_path, initial_data={"name": "uniform", "params": {}})))
    assert main(["simulate", "--mode", "limit", "--config", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["completed"] is True
    traj = tmp_path / "single-limit" / "trajectory.csv"
    assert main(["audit", "--trajectory", str(traj)]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["flavor"] == "limit"
    assert audit["satisfied"] is True
    # one audit schema: the CLI prints audit.json's keys and values plus its verdict
    saved = json.loads((tmp_path / "single-limit" / "audit.json").read_text())
    assert {k: v for k, v in audit.items() if k not in ("tol_audit", "satisfied")} == saved
    # the flavor is read from the columns; there is no option to override it
    with pytest.raises(SystemExit) as exit_info:
        main(["audit", "--trajectory", str(traj), "--flavor", "eps"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --flavor" in capsys.readouterr().err


def test_cli_sweep_smoke(tmp_path, capsys):
    doc = _sweep_doc(tmp_path, solver={"n": 32, "dt": 2e-4, "eps": 0.2, "t_end": 1e-3}, eps_list=[0.2, 0.1])
    del doc["output_times"]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["eps"] for row in payload["rows"]] == [0.2, 0.1]
    assert payload["failures"] == []
    assert payload["grids"] == {"0.2": 40, "0.1": 80}


def test_cli_envelope_and_validate(capsys):
    assert main(["envelope", "--potential", "cubic-motivation"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == [[0.0, 1.5]]
    assert doc["m0"] == pytest.approx(2.5, abs=1e-9)
    assert main(["validate-potential", "--potential", "quartic-spinodal"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(_base_doc(tmp_path, solvr={})))
    assert main(["simulate", "--mode", "eps", "--config", str(bad_cfg)]) == 1

    gate_cfg = tmp_path / "gate.json"
    gate_cfg.write_text(json.dumps(_sweep_doc(tmp_path, potential="cubic-motivation")))
    assert main(["sweep", "--config", str(gate_cfg)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert "hypothesis_violation" in payload

    # a trajectory whose energy rises violates the dissipation inequality
    rising = tmp_path / "rising.csv"
    rising.write_text(
        "t,min,max,mass,e_eps,e_star,slope_eps,slope_star,speed\n"
        "0.0,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n"
        "0.01,1.0,1.0,1.0,-0.1,-0.375,0.0,0.0,0.0\n"
    )
    assert main(["audit", "--trajectory", str(rising)]) == 2
    capsys.readouterr()

    # the audit reads the whole trajectory.csv schema, and names what a file lacks
    partial = tmp_path / "partial.csv"
    partial.write_text("t,e_eps,e_star,slope_eps,slope_star,speed\n0.0,-0.3,-0.375,0.0,0.0,0.0\n")
    assert main(["audit", "--trajectory", str(partial)]) == 1
    assert "lacks column(s) min, max, mass" in capsys.readouterr().err



@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["simulate", "--mode", "eps"],
        ["simulate", "--config", "missing-mode.json"],
        ["simulate", "--mode", "spectral", "--config", "c.json"],
        ["audit", "--trajectory", "t.csv", "--tol", "-inf"],
        ["audit", "--trajectory", "t.csv", "--tol", "small"],
        ["envelope", "--potential", "cubic-motivation", "--extra"],
    ],
    ids=["unknown-command", "no-command", "no-config", "no-mode", "bad-mode", "tol-dash-inf", "tol-word", "extra-flag"],
)
def test_cli_usage_errors_exit_1(argv, capsys):
    # exit 2 is kept for a violated hypothesis, so a malformed command line is exit 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: chflow") and "error:" in captured.err


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["audit", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: chflow")


def test_cli_audit_rejects_negative_energy_gap(tmp_path, capsys):
    # e_star <= e_eps holds for any admissible state, so a row breaking it is bad input
    header = "t,min,max,mass,e_eps,e_star,slope_eps,slope_star,speed\n"
    first = "0.0,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n"
    bad = tmp_path / "gap.csv"
    bad.write_text(header + first + "0.01,1.0,1.0,1.0,-0.4,-0.375,0.0,0.0,0.0\n")
    assert main(["audit", "--trajectory", str(bad)]) == 1
    assert "negative energy gap" in capsys.readouterr().err

    # a gap of -5e-11 is rounding, inside the 1e-10 allowance
    rounding = tmp_path / "rounding.csv"
    rounding.write_text(header + first + "0.01,1.0,1.0,1.0,-0.37500000005,-0.375,0.0,0.0,0.0\n")
    assert main(["audit", "--trajectory", str(rounding)]) == 0
    assert json.loads(capsys.readouterr().out)["flavor"] == "eps"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.01,1.0,1.0,1.0,nan,-0.375,0.0,0.0,0.0\n", "energies, slopes and speeds must be finite"),
        ("0.0,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n", "snapshot times must be finite and strictly increasing"),
        ("-0.1,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n", "snapshot times must be finite and strictly increasing"),
    ],
    ids=["nan-energy", "repeated-time", "decreasing-time"],
)
def test_cli_audit_rejects_malformed_trajectory(tmp_path, capsys, rows, message):
    # a malformed trajectory is bad input (exit 1), never an audit verdict
    bad = tmp_path / "bad.csv"
    bad.write_text("t,min,max,mass,e_eps,e_star,slope_eps,slope_star,speed\n"
                   "0.0,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n" + rows)
    assert main(["audit", "--trajectory", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_audit_rejects_bad_tolerance(tmp_path, capsys, tol):
    # a bad flag is a runtime failure (exit 1), never a violated theory (exit 2)
    traj = tmp_path / "flat.csv"
    traj.write_text(
        "t,min,max,mass,e_eps,e_star,slope_eps,slope_star,speed\n"
        "0.0,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n"
        "0.01,1.0,1.0,1.0,-0.3,-0.375,0.0,0.0,0.0\n"
    )
    assert main(["audit", "--trajectory", str(traj), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be" in captured.err
    # the joined form hands any value, -inf included, to the same check
    for joined in (f"--tol={tol}", "--tol=-inf"):
        assert main(["audit", "--trajectory", str(traj), joined]) == 1
        assert "--tol must be" in capsys.readouterr().err
    assert main(["audit", "--trajectory", str(traj), "--tol", "0"]) == 0
