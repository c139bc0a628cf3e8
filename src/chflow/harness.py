"""Experiment orchestration: configs, initial data, sweeps, manifests.

A single JSON document configures every run.  Sweeps reproduce the
vanishing-interface limit at desk scale: one relaxed reference run plus one
regularized run per eps, compared in transport distance, slope, and energy.
This module writes every artifact; the numerical modules write no file.
Every CSV's text comes from `_csv`, the one dialect, and every file goes
through `_write`, which hashes the bytes as it writes them for the manifest.
"""

import functools
import hashlib
import json
import math
import numbers
import platform
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .diagnostics import energy_dissipation_audit, well_preparedness, wrinkling_report
from .jko import JkoConfig, jko_step_count, simulate_jko
from .nonlocal_model import compare_local_nonlocal, simulate_nonlocal
from .potential import (
    HypothesisViolation,
    canonical_names,
    compute_unstable_set,
    from_polynomial,
    make_potential,
)
from .solvers import SolverConfig, check_output_times, real_number, simulate_eps, simulate_limit, whole_number
from .wasserstein1d import DensityField, w2_periodic

__all__ = [
    "ExperimentConfig",
    "InitialData",
    "MODES",
    "SweepReport",
    "SweepRow",
    "TRAJECTORY_COLUMNS",
    "collect_versions",
    "config_hash",
    "default_output_times",
    "experiment_from_dict",
    "generate_initial",
    "load_config",
    "plain",
    "run_single",
    "run_sweep",
    "write_manifest",
]

MODES = ("eps", "limit", "jko", "nonlocal")
# the columns of trajectory.csv and limit_trajectory.csv, which `chflow audit` reads back
TRAJECTORY_COLUMNS = ("t", "min", "max", "mass", "e_eps", "e_star", "slope_eps", "slope_star", "speed")
_WRINKLE_ETA = 0.05
_WRINKLE_DELTA = 0.125


def plain(obj):
    """json's `default` hook: a numpy scalar or array as a Python number or list."""
    return obj.tolist()


def _csv(columns):
    """The one CSV dialect of every artifact, built from {name: values}: a header
    row, then one line per row with LF line ends.  Each column is formatted once,
    an integer-dtype column with str and every other as repr of its floats, so
    every cell parses back bit for bit."""
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        if np.issubdtype(values.dtype, np.integer):
            cells.append(map(str, values.tolist()))
        else:
            cells.append(map(repr, values.astype(float).tolist()))
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _json(obj):
    """obj as indented JSON with sorted keys and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=plain) + "\n"


def _write(path, text, written):
    """Write text to path, the package's one file write, and append (path, sha256
    of the bytes written) to `written`, so the manifest reads no file back."""
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    written.append((path, hashlib.sha256(data).hexdigest()))


def _trajectory_columns(record):
    """The TRAJECTORY_COLUMNS of a record, each with one value per snapshot."""
    snaps, reps = record.snapshots, record.reports
    # e_eps, e_star, slope_eps and slope_star are the energy report's fields of those names
    reported = [[getattr(rep, key) for rep in reps] for key in TRAJECTORY_COLUMNS[4:8]]
    return dict(zip(TRAJECTORY_COLUMNS, (
        record.times, [np.min(s.values) for s in snaps], [np.max(s.values) for s in snaps],
        [s.mass() for s in snaps], *reported, record.speeds())))


def _reject_unknown(mapping, allowed, where):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


def generate_initial(name, params, n):
    """Built-in unit-mass, non-negative initial fields on n cells.

    Generators: "uniform"; "cosine" (1 + a cos(2 pi k x), 0 <= a < 1,
    k < n/2 so the grid holds the mode); "bump" (smooth compactly supported
    bump over a floor, renormalized); "two-phase" (tanh steps of width at
    most 0.2 between two levels at x = 1/4 and 3/4, summed over periodic
    images so the profile is smooth across the wrap, renormalized).
    Parameters that would produce negative density raise.
    """
    params = dict(params or {})
    x = (np.arange(int(n)) + 0.5) / int(n)

    def param(key, default):
        return real_number(params.get(key, default), f"{name} parameter {key}")

    if name == "uniform":
        _reject_unknown(params, (), "uniform parameter")
        vals = np.ones(x.size)
    elif name == "cosine":
        _reject_unknown(params, ("a", "k"), "cosine parameter")
        a = param("a", 0.1)
        k = params.get("k", 1)
        if not 0.0 <= a < 1.0:
            raise ValueError("cosine amplitude must satisfy 0 <= a < 1")
        if isinstance(k, bool) or not isinstance(k, numbers.Real) or not (k >= 1 and float(k).is_integer()):
            raise ValueError("cosine mode must be a positive integer")
        if k >= n / 2:
            raise ValueError(f"cosine mode k = {k:g} needs k < n/2 = {n / 2:g} to be resolved on {n} cells")
        vals = 1.0 + a * np.cos(2.0 * np.pi * int(k) * x)
    elif name == "bump":
        _reject_unknown(params, ("width", "floor", "center"), "bump parameter")
        width = param("width", 0.5)
        floor = param("floor", 0.1)
        center = param("center", 0.5)
        if not 0.0 < width <= 1.0:
            raise ValueError("bump width must lie in (0, 1]")
        if floor < 0.0:
            raise ValueError("bump floor must be nonnegative")
        u = x - center
        u -= np.round(u)
        arg = 1.0 - (2.0 * u / width) ** 2
        vals = floor + np.where(arg > 0.0, np.exp(-1.0 / np.maximum(arg, 1e-300)), 0.0)
    elif name == "two-phase":
        _reject_unknown(params, ("lo", "hi", "width"), "two-phase parameter")
        lo = param("lo", 0.4)
        hi = param("hi", 1.6)
        width = param("width", 0.05)
        if lo < 0.0 or hi < 0.0:
            raise ValueError("two-phase levels must be nonnegative")
        if not 0.0 < width <= 0.2:
            raise ValueError("two-phase interface width must lie in (0, 0.2]")
        # the sum over periodic images k = -3..3 is smooth across the wrap (the next image is
        # below 1e-13 for width <= 0.2); a single pair of steps has a slope jump at x = 0
        y = x - np.arange(-3, 4)[:, None]
        vals = lo + (hi - lo) * 0.5 * np.sum(np.tanh((y - 0.25) / width) - np.tanh((y - 0.75) / width), axis=0)
    else:
        raise ValueError(f"unknown initial-data generator {name!r}")
    if float(np.min(vals)) < 0.0:
        raise ValueError("generator parameters produced negative density")
    return DensityField.normalized(vals)


def default_output_times(t_end, count=20):
    """Snapshot times: 0 plus count-1 log-spaced points, dense early."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if count < 2:
        raise ValueError("need at least two output times")
    tail = np.geomspace(1e-3 * t_end, t_end, int(count) - 1)
    tail[-1] = t_end
    return (0.0, *(float(t) for t in tail))


@dataclass(frozen=True)
class InitialData:
    """Named generator plus its parameter mapping."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: potential, numerics, data, outputs.

    ``potential`` is a canonical name or a polynomial coefficient tuple.
    ``eps_list`` (strictly decreasing, positive, distinct in ``:g`` format,
    which names each run's directory) drives sweeps; single runs
    take eps from the solver section.  Empty ``output_times`` means the
    log-spaced default over [0, t_end]; others are checked with the
    solvers' rule (``check_output_times``) when the config is built, and so
    is a ``jko`` section's tau against t_end (``jko_step_count``).
    ``allow_ill_prepared`` must be a bool, ``workers`` a whole number, and
    the potential coefficients, ``eps_list`` and ``output_times`` finite
    real numbers (`real_number`): none is coerced from a string or a bool.
    """

    potential: object
    solver: SolverConfig
    initial_data: InitialData
    output_dir: str
    jko: JkoConfig | None = None
    eps_list: tuple = ()
    output_times: tuple = ()
    allow_ill_prepared: bool = False
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.potential, str):
            if self.potential not in canonical_names():
                raise ValueError(f"unknown potential {self.potential!r}; choices: {canonical_names()}")
        else:
            object.__setattr__(self, "potential", tuple(real_number(c, "potential coefficients") for c in self.potential))
            if not self.potential:
                raise ValueError("potential needs at least one coefficient")
        eps = tuple(real_number(e, "eps_list entries") for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        if not all(e > 0.0 for e in eps):
            raise ValueError("eps_list entries must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        dirs = [f"eps-{e:g}" for e in eps]
        if len(set(dirs)) < len(dirs):
            raise ValueError(f"eps_list entries must name distinct sweep directories, got {dirs}")
        times = tuple(self.output_times)
        if times:
            times = tuple(float(t) for t in check_output_times(self.solver, times))
        object.__setattr__(self, "output_times", times)
        if self.jko is not None:
            jko_step_count(self.jko.tau, self.solver.t_end)
        if not isinstance(self.allow_ill_prepared, bool):
            raise ValueError("allow_ill_prepared must be true or false")
        object.__setattr__(self, "workers", whole_number(self.workers, "workers"))
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def times(self):
        return self.output_times or default_output_times(self.solver.t_end)


# the JSON type of each section and of output_dir; another type would fail later, output_dir only after the run
_SECTION_TYPES = {"potential": ((str, list, tuple), "a name or an array"), "solver": (dict, "an object"),
                  "initial_data": (dict, "an object"), "jko": (dict, "an object"), "output_dir": (str, "a string"),
                  "eps_list": ((list, tuple), "an array"), "output_times": ((list, tuple), "an array")}


def _section(cls, doc, where):
    """cls(**doc), after rejecting every key of doc that is not a field of cls."""
    _reject_unknown(doc, [f.name for f in fields(cls)], where)
    return cls(**doc)


def experiment_from_dict(doc):
    """Build an ExperimentConfig from a JSON document, rejecting typos and sections of the wrong type."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    for key in ("potential", "solver", "initial_data", "output_dir"):
        if doc.get(key) is None:
            raise ValueError(f"config is missing required key {key!r}")
    for key, (kind, what) in _SECTION_TYPES.items():
        if doc.get(key) is not None and not isinstance(doc[key], kind):
            raise ValueError(f"config key {key!r} must be {what}")
    initial = doc["initial_data"]
    if "name" not in initial:
        raise ValueError("initial_data needs a generator name")
    if initial.get("params") is not None and not isinstance(initial["params"], dict):
        raise ValueError("initial_data params must be a JSON object")
    cfg = _section(ExperimentConfig, {
        **doc,
        "solver": _section(SolverConfig, doc["solver"], "solver"),
        "jko": None if doc.get("jko") is None else _section(JkoConfig, doc["jko"], "jko"),
        "initial_data": _section(InitialData, {**initial, "params": dict(initial.get("params") or {})}, "initial_data"),
        "eps_list": doc.get("eps_list") or (),
        "output_times": doc.get("output_times") or (),
    }, "config")
    # dry-run the generator so a bad name or parameter fails at load time
    generate_initial(cfg.initial_data.name, cfg.initial_data.params, cfg.solver.n)
    return cfg


def load_config(path):
    with open(path) as fh:
        return experiment_from_dict(json.load(fh))


def config_as_dict(cfg):
    """JSON-ready canonical form with defaults resolved."""
    return {**asdict(cfg), "output_times": list(cfg.times())}


def config_hash(cfg):
    """sha256 of the canonical config, minus execution-only keys.

    output_dir and workers do not influence any computed number, so two
    configs differing only there share a hash.
    """
    doc = config_as_dict(cfg)
    doc.pop("output_dir")
    doc.pop("workers")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.cache
def _git_describe():
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):  # no git, or a hung one (TimeoutExpired)
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def collect_versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "chflow": __version__,
        "git": _git_describe(),
    }


def write_manifest(out_dir, cfg, written, extra):
    """manifest.json: config, config_hash, versions, the (path, sha256) pairs
    `_write` recorded in `written`, and the run's own `extra` keys."""
    manifest = {
        "config": config_as_dict(cfg),
        "config_hash": config_hash(cfg),
        "versions": collect_versions(),
        "outputs": [{"path": str(Path(p).relative_to(out_dir)), "sha256": sha} for p, sha in written],
        **extra,
    }
    path = Path(out_dir) / "manifest.json"
    _write(path, _json(manifest), [])
    return path


def _potential_of(cfg):
    """The config's potential, which carries its envelope, and its unstable set."""
    spec = make_potential(cfg.potential) if isinstance(cfg.potential, str) else from_polynomial(cfg.potential)
    return spec, compute_unstable_set(spec.envelope)


def _grid_for(eps, n_base):
    """Resolve the interfacial width by at least 8 cells."""
    return max(int(n_base), int(math.ceil(8.0 / eps)))


def _wrinkle_summary(snap, unstable):
    rep = wrinkling_report(snap, unstable, eta=_WRINKLE_ETA, delta=_WRINKLE_DELTA)
    return {
        "violations": len(rep.violations),
        "oscillating_mass_fraction": rep.oscillating_mass_fraction,
        "far_mass_fraction": rep.far_mass_fraction,
        "sigma_localized": rep.sigma_localized,
    }


def _wrinkle_rows(record, unstable):
    return [
        {"t": float(t), **_wrinkle_summary(snap, unstable)}
        for t, snap in zip(record.times, record.snapshots)
    ]


def run_single(cfg, mode):
    """Dispatch one run, attach diagnostics, persist artifacts.

    Writes trajectory.csv, final_state.csv, audit.json, wrinkle.json, and a
    manifest under output_dir/single-<mode>, made once the run has returned;
    jko runs add the movement ledger and a cross-validation table against the
    regularized solver, nonlocal runs add the matched local comparison.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    spec, unstable = _potential_of(cfg)
    times = cfg.times()
    f0 = generate_initial(cfg.initial_data.name, cfg.initial_data.params, cfg.solver.n)

    if mode == "eps":
        record = simulate_eps(f0, cfg.solver, spec, output_times=times)
    elif mode == "limit":
        limit_cfg = replace(cfg.solver, eps=0.0, theta_scheme=1.0)
        record = simulate_limit(f0, limit_cfg, spec.envelope, output_times=times)
    elif mode == "jko":
        if cfg.jko is None:
            raise ValueError("mode=jko needs a jko config section")
        record = simulate_jko(f0, cfg.jko, cfg.solver.eps, spec, cfg.solver.t_end)
    else:
        record = simulate_nonlocal(f0, cfg.solver, spec, output_times=times)

    out_dir = Path(cfg.output_dir) / f"single-{mode}"
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if mode == "jko":
        ex = record.extras
        ledger = {"step": range(len(record.times)), "d2_increment": ex["d2_increments"],
                  "energy": ex["energies"], "slack": ex["ledger_slack"]}
        _write(out_dir / "ledger.csv", _csv(ledger), written)
        fd_record = simulate_eps(f0, cfg.solver, spec, output_times=record.times)
        d2 = [w2_periodic(a, b) for a, b in zip(record.snapshots, fd_record.snapshots)]
        _write(out_dir / "cross_validation.csv", _csv({"t": record.times, "d2": d2}), written)
    elif mode == "nonlocal":
        comparison = compare_local_nonlocal(record, cfg.solver, spec)
        _write(out_dir / "comparison.json", _json(asdict(comparison)), written)

    _write(out_dir / "trajectory.csv", _csv(_trajectory_columns(record)), written)
    final = record.snapshots[-1]
    _write(out_dir / "final_state.csv", _csv({"x": final.cell_centers(), "density": final.values}), written)
    audit = (
        asdict(energy_dissipation_audit(record))
        if len(record.snapshots) >= 2
        else {"error": "run aborted before the second snapshot"}
    )
    _write(out_dir / "audit.json", _json(audit), written)
    _write(out_dir / "wrinkle.json", _json(_wrinkle_rows(record, unstable)), written)
    write_manifest(out_dir, cfg, written, extra={"mode": mode})
    return record


@dataclass(frozen=True)
class SweepRow:
    """Gap columns of one regularized run against the relaxed reference: one
    row of sweep_report.csv, whose columns are eps, sup_t_d2_to_limit (max_t W2),
    slope_gap_L2 (int_t (slope_eps - slope_star)^2), energy_gap_final, which is
    max_t |E_eps(nu_eps) - E*(nu)|, not a final value, and the last snapshot's
    wrinkle_violations, wrinkle_osc_mass and wrinkle_localized (0 or 1)."""

    eps: float
    sup_t_d2_to_limit: float
    slope_gap_L2: float
    energy_gap_final: float
    wrinkle_summary: dict


@dataclass(frozen=True)
class SweepReport:
    """Per-eps rows plus the shared relaxed reference run."""

    rows: tuple
    limit_run: object
    grids: dict
    failures: tuple


def _sweep_worker(payload):
    """One regularized run measured against the relaxed reference record.

    payload is (run_cfg, spec, unstable, f0, d2_start, reference): the eps run's
    solver config on f0's grid, f0 and its t = 0 distance d2_start to the
    reference from the well-preparedness gate, and the reference record, whose
    times the run outputs at.  Returns (row, record, None), or (None, None,
    message) when the run raises or aborts."""
    run_cfg, spec, unstable, f0, d2_start, reference = payload
    try:
        record = simulate_eps(f0, run_cfg, spec, output_times=reference.times)
        if not record.completed:
            raise RuntimeError("regularized run aborted before reaching t_end")
        later = zip(record.snapshots[1:], reference.snapshots[1:])
        d2 = np.array([d2_start] + [w2_periodic(a, b) for a, b in later])
        reports = list(zip(record.reports, reference.reports))
        slope_diff = np.array([rep.slope_eps - ref.slope_star for rep, ref in reports])
        energy_diff = np.array([rep.e_eps - ref.e_star for rep, ref in reports])
        row = SweepRow(
            eps=run_cfg.eps,
            sup_t_d2_to_limit=float(np.max(d2)),
            slope_gap_L2=float(np.trapezoid(slope_diff**2, reference.times)),
            energy_gap_final=float(np.max(np.abs(energy_diff))),
            wrinkle_summary=_wrinkle_summary(record.snapshots[-1], unstable),
        )
        return row, record, None
    except Exception as exc:  # per-eps isolation: the sweep continues
        return None, None, f"{type(exc).__name__}: {exc}"


def run_sweep(cfg):
    """Relaxed reference plus one regularized run per eps; persist the report.

    The reference runs on the finest grid the sweep needs.  Initial data must
    pass the well-preparedness gate unless allow_ill_prepared is set.  A
    reference run that aborts raises RuntimeError before any eps run.  A
    failing eps is recorded and skipped; the remaining runs are unaffected.
    """
    if not cfg.eps_list:
        raise ValueError("run_sweep needs a nonempty eps_list")
    spec, unstable = _potential_of(cfg)
    times = cfg.times()

    grids = {eps: _grid_for(eps, cfg.solver.n) for eps in cfg.eps_list}
    family = [
        (eps, generate_initial(cfg.initial_data.name, cfg.initial_data.params, grids[eps]))
        for eps in cfg.eps_list
    ]
    # eps_list decreases and the grid never shrinks as eps does, so the last field is the finest
    f0_limit = family[-1][1]
    n_limit = f0_limit.n
    prep = well_preparedness(family, f0_limit, spec)
    if not prep.well_prepared and not cfg.allow_ill_prepared:
        raise HypothesisViolation(
            "initial data is not well prepared for this eps family",
            report={"rows": [tuple(map(float, row)) for row in prep.rows]},
        )

    limit_cfg = replace(cfg.solver, n=n_limit, eps=0.0, theta_scheme=1.0)
    limit_rec = simulate_limit(f0_limit, limit_cfg, spec.envelope, output_times=times)
    if not limit_rec.completed:
        abort_t = next(ev["t"] for ev in limit_rec.events if ev["type"] == "abort")
        raise RuntimeError(f"relaxed reference run (n = {n_limit}) aborted at t = {abort_t!r}; no eps run was started")

    payloads = [
        (replace(cfg.solver, n=f0.n, eps=eps), spec, unstable, f0, row[1], limit_rec)
        for (eps, f0), row in zip(family, prep.rows)
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(payloads))) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]

    out_dir = Path(cfg.output_dir) / "sweep"
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    rows = []
    failures = []
    for eps, (row, record, err) in zip(cfg.eps_list, results):
        if err is not None:
            failures.append((eps, err))
            continue
        rows.append(row)
        run_dir = out_dir / f"eps-{eps:g}"
        run_dir.mkdir(exist_ok=True)
        _write(run_dir / "trajectory.csv", _csv(_trajectory_columns(record)), written)

    _write(out_dir / "limit_trajectory.csv", _csv(_trajectory_columns(limit_rec)), written)
    wrinkles = [row.wrinkle_summary for row in rows]
    table = {
        **{key: [getattr(row, key) for row in rows]
           for key in ("eps", "sup_t_d2_to_limit", "slope_gap_L2", "energy_gap_final")},
        "wrinkle_violations": [w["violations"] for w in wrinkles],
        "wrinkle_osc_mass": [w["oscillating_mass_fraction"] for w in wrinkles],
        "wrinkle_localized": [int(w["sigma_localized"]) for w in wrinkles],
    }
    _write(out_dir / "sweep_report.csv", _csv(table), written)

    write_manifest(
        out_dir,
        cfg,
        written,
        extra={
            "mode": "sweep",
            "grids": {f"{eps:g}": grids[eps] for eps in cfg.eps_list},
            "failures": [{"eps": e, "error": msg} for e, msg in failures],
        },
    )
    return SweepReport(rows=tuple(rows), limit_run=limit_rec, grids=grids, failures=tuple(failures))
