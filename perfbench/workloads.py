"""The four benchmark workloads, taken from the acceptance gate.

Each workload is a config function, a set-up, one timed pass and a
correctness check.  `config(0)` is the seed-0 config; any other seed scales
the cosine amplitude by a factor in [0.99, 1.01] and, for the APIs that take
a DensityField, rolls the initial data by a whole number of cells.  Both
keep every gate tolerance below satisfied.

The sweep, dispersion and jko horizons are shorter than the gate's (see
README.md) so that one pass takes a few seconds and a run can report the
median of several passes.  Each workload's output times are cut with its
horizon, because every output time costs W2 calls whatever the horizon.
"""

import csv
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

Workload = namedtuple("Workload", "config setup run check")
Check = namedtuple("Check", "ok ref_err detail")

MASS_TOL = 1e-10


def _perturbation(seed):
    """(amplitude factor, roll fraction in [0, 1)); seed 0 is unperturbed."""
    if seed == 0:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    return 1.0 + rng.uniform(-0.01, 0.01), float(rng.uniform(0.0, 1.0))


def _cosine(m, n, a, k, roll):
    """Unit-mass 1 + a cos(2 pi k x) on n cells, rolled by round(roll * n) cells."""
    x = (np.arange(n) + 0.5) / n
    return m.wasserstein1d.DensityField.normalized(
        np.roll(1.0 + a * np.cos(2.0 * np.pi * k * x), int(roll * n) % n))


def _mass_drift(snapshots):
    return max(abs(float(np.mean(s.values)) - 1.0) for s in snapshots)


def _csv_mass_drift(path):
    with open(path) as fh:
        return max(abs(float(row["mass"]) - 1.0) for row in csv.DictReader(fh))


def _manifest_hashes(path):
    with open(path) as fh:
        return sorted((o["path"], o["sha256"]) for o in json.load(fh)["outputs"])


def _same_artifacts(state, hashes):
    """Artifacts of every pass must match the first pass bit for bit."""
    first = state.setdefault("hashes", hashes)
    return first == hashes


# ---------------------------------------------------------------------------
# sweep: criterion 5, the vanishing-interface sweep through run_sweep
# ---------------------------------------------------------------------------

def sweep_config(seed):
    amp, _ = _perturbation(seed)
    return {
        "potential": "quartic-spinodal",
        "solver": {"n": 128, "dt": 2e-4, "eps": 0.1, "t_end": 0.02},
        "initial_data": {"name": "cosine", "params": {"a": 0.1 * amp}},
        "eps_list": [0.1, 0.05, 0.025],
        "output_count": 3,
        "workers": 1,
    }


def sweep_setup(m, cfg, out_dir):
    doc = {k: v for k, v in cfg.items() if k != "output_count"}
    doc["output_times"] = list(m.harness.default_output_times(cfg["solver"]["t_end"], cfg["output_count"]))
    doc["output_dir"] = str(out_dir)
    return {"experiment": m.harness.experiment_from_dict(doc)}


def sweep_run(m, state):
    return m.harness.run_sweep(state["experiment"])


def sweep_check(m, state, report, out_dir):
    sweep_dir = Path(out_dir) / "sweep"
    rows = report.rows
    d2 = [r.sup_t_d2_to_limit for r in rows]
    egap = [r.energy_gap_final for r in rows]
    sgap = [r.slope_gap_L2 for r in rows]
    decreasing = all(b < a for col in (d2, egap, sgap) for a, b in zip(col, col[1:]))
    drift = max(_csv_mass_drift(p) for p in sweep_dir.glob("**/*trajectory.csv"))
    same = _same_artifacts(state, _manifest_hashes(sweep_dir / "manifest.json"))
    ok = (not report.failures and len(rows) == len(state["experiment"].eps_list)
          and decreasing and d2[-1] < 0.02 and drift < MASS_TOL and same)
    return Check(ok, d2[-1] if rows else None,
                 f"failures={len(report.failures)} d2={d2} decreasing={decreasing} "
                 f"mass_drift={drift:.1e} artifacts_repeat={same}")


# ---------------------------------------------------------------------------
# dispersion: criterion 1, linear growth/decay rates of modes 1..4
# ---------------------------------------------------------------------------

def dispersion_config(seed):
    amp, roll = _perturbation(seed)
    return {
        "potential": "quartic-wrinkle",
        "w2_at_1": -0.25,
        "solver": {"n": 512, "dt": 2e-5, "eps": 0.05, "t_end": 20 * 2e-5, "theta_scheme": 0.5,
                   "newton_tol": 1e-13},
        "amplitude": 1e-4 * amp,
        "roll": roll,
        "modes": [1, 2, 3, 4],
        "output_count": 3,
    }


def dispersion_setup(m, cfg, out_dir):
    solver = m.solvers.SolverConfig(**cfg["solver"])
    return {
        "spec": m.potential.make_potential(cfg["potential"]),
        "solver": solver,
        "times": tuple(np.linspace(0.0, solver.t_end, cfg["output_count"])),
        "initial": [_cosine(m, solver.n, cfg["amplitude"], k, cfg["roll"]) for k in cfg["modes"]],
        "modes": cfg["modes"],
        "w2_at_1": cfg["w2_at_1"],
    }


def dispersion_run(m, state):
    return [m.solvers.simulate_eps(f0, state["solver"], state["spec"], output_times=state["times"])
            for f0 in state["initial"]]


def dispersion_check(m, state, records, out_dir):
    eps = state["solver"].eps
    errors = []
    for k, rec in zip(state["modes"], records):
        amps = np.array([abs(np.fft.rfft(s.values)[k]) for s in rec.snapshots])
        rate = float(np.polyfit(rec.times, np.log(amps), 1)[0])
        q = (2.0 * np.pi * k) ** 2
        target = -q * (state["w2_at_1"] + eps * eps * q)
        errors.append(abs(rate - target) / abs(target))
    drift = max(_mass_drift(r.snapshots) for r in records)
    completed = all(r.completed for r in records)
    worst = max(errors)
    return Check(completed and worst < 0.05 and drift < MASS_TOL, worst,
                 f"rate_errors={errors} mass_drift={drift:.1e} completed={completed}")


# ---------------------------------------------------------------------------
# jko: criterion 4, three simulate_jko runs against a finite-difference reference
# ---------------------------------------------------------------------------

def jko_config(seed):
    amp, roll = _perturbation(seed)
    return {
        "potential": "cubic-motivation",
        "n": 128,
        "eps": 0.1,
        "amplitude": 0.3 * amp,
        "roll": roll,
        "m": 512,
        "taus": [2.5e-3, 1.25e-3, 6.25e-4],
        "t_end": 0.005,
        "reference_dt": 1e-4,
    }


def jko_setup(m, cfg, out_dir):
    spec = m.potential.make_potential(cfg["potential"])
    f0 = _cosine(m, cfg["n"], cfg["amplitude"], 1, cfg["roll"])
    ref_cfg = m.solvers.SolverConfig(n=cfg["n"], dt=cfg["reference_dt"], eps=cfg["eps"], t_end=cfg["t_end"])
    reference = m.solvers.simulate_eps(f0, ref_cfg, spec, output_times=(0.0, cfg["t_end"]))
    return {
        "spec": spec,
        "f0": f0,
        "eps": cfg["eps"],
        "t_end": cfg["t_end"],
        "jko": [m.jko.JkoConfig(tau=tau, m=cfg["m"]) for tau in cfg["taus"]],
        "target": reference.snapshots[-1],
    }


def jko_run(m, state):
    return [m.jko.simulate_jko(state["f0"], jcfg, state["eps"], state["spec"], state["t_end"])
            for jcfg in state["jko"]]


def jko_check(m, state, records, out_dir):
    gaps = [m.wasserstein1d.w2_periodic(r.snapshots[-1], state["target"]) for r in records]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    drift = max(_mass_drift(r.snapshots) for r in records)
    ok = all(1.5 <= q <= 3.0 for q in ratios) and gaps[-1] < 5e-3 and drift < MASS_TOL
    return Check(ok, gaps[-1], f"gaps={gaps} ratios={ratios} mass_drift={drift:.1e}")


# ---------------------------------------------------------------------------
# nonlocal: run_single(cfg, "nonlocal"), the CLI `simulate --mode nonlocal` path
# ---------------------------------------------------------------------------

def nonlocal_config(seed):
    amp, _ = _perturbation(seed)
    return {
        "potential": "cubic-motivation",
        "solver": {"n": 512, "dt": 2e-4, "eps": 0.05, "t_end": 0.05},
        "initial_data": {"name": "cosine", "params": {"a": 0.05 * amp}},
        "output_count": 6,
    }


def nonlocal_setup(m, cfg, out_dir):
    doc = {k: v for k, v in cfg.items() if k != "output_count"}
    doc["output_times"] = list(np.linspace(0.0, cfg["solver"]["t_end"], cfg["output_count"]))
    doc["output_dir"] = str(out_dir)
    return {"experiment": m.harness.experiment_from_dict(doc)}


def nonlocal_run(m, state):
    return m.harness.run_single(state["experiment"], "nonlocal")


def nonlocal_check(m, state, record, out_dir):
    run_dir = Path(out_dir) / "single-nonlocal"
    with open(run_dir / "comparison.json") as fh:
        gaps = json.load(fh)["gaps"]
    finite = len(gaps) > 0 and all(math.isfinite(g) for g in gaps)
    drift = _mass_drift(record.snapshots)
    same = _same_artifacts(state, _manifest_hashes(run_dir / "manifest.json"))
    ok = record.completed and finite and drift < MASS_TOL and same
    return Check(ok, gaps[-1] if gaps else None,
                 f"gaps={gaps} completed={record.completed} mass_drift={drift:.1e} artifacts_repeat={same}")


# why each was chosen: see the workloads of BENCHMARK.json
WORKLOADS = {
    "sweep": Workload(sweep_config, sweep_setup, sweep_run, sweep_check),
    "dispersion": Workload(dispersion_config, dispersion_setup, dispersion_run, dispersion_check),
    "jko": Workload(jko_config, jko_setup, jko_run, jko_check),
    "nonlocal": Workload(nonlocal_config, nonlocal_setup, nonlocal_run, nonlocal_check),
}
