"""Minimizing-movement scheme in the transport metric, particle form.

Each outer step solves  argmin  (1/m) sum dist(X_i, X_i^prev)^2 + 2 tau E(X)
over monotone equal-mass particle positions; in 1D the transport term is
exactly the squared metric for non-crossing particles, so no inner OT
solve is needed.  Densities are rebuilt on the grid with a cubic B-spline
whose width is an integer number of cells, which deposits the mass of
every particle exactly (translates of the spline sum to one).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .functionals import chemical_potential_values, energy_eps_values, energy_report
from .potential import PotentialSpec, compute_convex_envelope
from .solvers import TrajectoryRecord, past_horizon, whole_number
from .wasserstein1d import DensityField, to_quantiles

__all__ = [
    "JkoConfig",
    "JkoConvergenceFailure",
    "de_giorgi_interpolant",
    "density_from_particles",
    "jko_step",
    "jko_step_count",
    "jko_step_positions",
    "particles_from_density",
    "simulate_jko",
    "write_ledger_csv",
]

_SEPARATION = 1e-10


class JkoConvergenceFailure(RuntimeError):
    """Inner solve hit the iteration cap with the gradient above tolerance.

    Carries the best iterate found so callers can degrade gracefully.
    """

    def __init__(self, message, positions, grad_norm):
        super().__init__(message)
        self.positions = positions
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class JkoConfig:
    tau: float
    m: int = 256
    inner_tol: float = 1e-6
    inner_max: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "m", whole_number(self.m, "m"))
        object.__setattr__(self, "inner_max", whole_number(self.inner_max, "inner_max"))
        if not np.isfinite(self.tau) or not np.isfinite(self.inner_tol):
            raise ValueError("tau and inner_tol must be finite")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.m < 64:
            raise ValueError("need at least 64 particles")
        if self.inner_tol <= 0.0 or self.inner_max < 10:
            raise ValueError("inner_tol must be positive and inner_max at least 10")


def _bspline(t):
    """Cubic B-spline on [-2, 2], unit integral, translates sum to 1."""
    a = np.abs(t)
    inner = (4.0 - 6.0 * a * a + 3.0 * a**3) / 6.0
    outer = (2.0 - a) ** 3 / 6.0
    return np.where(a < 1.0, inner, np.where(a < 2.0, outer, 0.0))


def _bspline_d(t):
    a = np.abs(t)
    s = np.sign(t)
    inner = s * a * (9.0 * a - 12.0) / 6.0
    outer = -s * (2.0 - a) ** 2 / 2.0
    return np.where(a < 1.0, inner, np.where(a < 2.0, outer, 0.0))


def _bandwidth_cells(cfg, n):
    """The reconstruction bandwidth, twice the particle spacing 1/m, in cells (at least 1)."""
    return max(1, int(round(2.0 / cfg.m * n)))


def particles_from_density(f: DensityField, m: int) -> np.ndarray:
    """Equal-mass particle positions at mid-level quantiles."""
    return to_quantiles(f, m).positions.copy()


def _deposit(positions, n, p_cells):
    """Deposited cell values plus the stencil (cells idx, scaled offsets t) behind them.

    A particle at x covers the 4p cells base-2p+1 .. base+2p, base being the
    cell whose centre sits just below x; the support |t| < 2 of the spline
    excludes every other cell.  `bincount` adds in flattened order, one
    particle after another.
    """
    x = np.asarray(positions, dtype=float) % 1.0
    base = np.floor(x * n - 0.5).astype(int)
    offsets = np.arange(-2 * p_cells + 1, 2 * p_cells + 1)
    idx = base[:, None] + offsets[None, :]
    centers = (idx + 0.5) / n
    t = (centers - x[:, None]) * (n / p_cells)
    idx %= n
    weights = _bspline(t) * (n / p_cells) / x.size
    vals = np.bincount(idx.ravel(), weights.ravel(), minlength=n)
    return vals, idx, t


def density_from_particles(positions, n: int, p_cells: int) -> np.ndarray:
    """Deposit m equal-mass particles onto n cells; mass is exact."""
    return _deposit(positions, n, p_cells)[0]


def _signed_wrap(delta):
    return (delta + 0.5) % 1.0 - 0.5


class _Objective:
    """Value and gradient of the movement functional at fixed anchor."""

    def __init__(self, anchor, tau_eff, eps, spec, n, p_cells):
        self.anchor = anchor
        self.tau_eff = tau_eff
        self.eps = eps
        self.spec = spec
        self.n = n
        self.p_cells = p_cells
        self.h = 1.0 / n

    def __call__(self, x):
        m = x.size
        h, eps, n = self.h, self.eps, self.n
        delta = _signed_wrap(x - self.anchor)
        vals, idx, t = _deposit(x, n, self.p_cells)
        energy = energy_eps_values(vals, h, eps, self.spec)
        value = float(np.mean(delta * delta)) + 2.0 * self.tau_eff * energy

        # dE/df_j = h * (W'(f_j) - eps^2 (Lf)_j), then chain through the kernel
        p = chemical_potential_values(vals, h, eps, self.spec)
        kernel_d = _bspline_d(t) * (n / self.p_cells) ** 2 / m
        de_dx = -h * np.sum(p[idx] * kernel_d, axis=1)
        grad = 2.0 * delta / m + 2.0 * self.tau_eff * de_dx
        return value, grad


def _project(x, hits):
    """Restore monotone order and the minimal separation floor."""
    v = np.sort(x)
    floors = np.arange(v.size) * _SEPARATION
    shifted = np.maximum.accumulate(v - floors)
    out = shifted + floors
    hits[0] += int(np.count_nonzero(out != v))
    span = out[-1] - out[0]
    if span > 1.0 - _SEPARATION:
        out = out[0] + (out - out[0]) * (1.0 - v.size * _SEPARATION) / span
        hits[1] += 1
    return out


def _minimize(x0, objective, tol_scaled, max_iter):
    """Inner minimization with a monotonicity projection at the end.

    The smooth unconstrained search is delegated to L-BFGS; particles do
    not cross for resolvable steps, so the projection normally acts as
    the identity and exists as a guard.  Convergence is declared on
    (m/2) * ||grad||_inf, the per-particle force imbalance in
    displacement units.  Whatever happens, the returned configuration is
    monotone and its objective never exceeds the stay-put value.
    """
    from scipy.optimize import minimize as scipy_minimize

    anchor = np.asarray(x0, dtype=float)
    m = anchor.size
    res = scipy_minimize(
        objective,
        anchor,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxcor": 20, "ftol": 0.0, "gtol": 2.0 * tol_scaled / m},
    )
    hits = [0, 0]
    candidate = _project(np.asarray(res.x, dtype=float), hits)
    value, grad = objective(candidate)
    anchor_value, _ = objective(anchor)
    if value > anchor_value:
        # projection undid the progress; staying put is always admissible
        candidate, value = anchor.copy(), anchor_value
        grad_scaled = float("inf")
    else:
        grad_scaled = 0.5 * m * float(np.max(np.abs(grad)))
    info = {
        "converged": grad_scaled <= tol_scaled,
        "iterations": int(res.nit),
        "objective": float(value),
        "grad_scaled": grad_scaled,
        "separation_hits": hits[0],
        "span_rescales": hits[1],
    }
    return candidate, info


def jko_step_positions(prev_positions, cfg: JkoConfig, eps: float, spec: PotentialSpec, n: int, s: float | None = None):
    """One movement step in particle coordinates; returns (positions, info).

    Starting the search at the previous positions guarantees the returned
    objective never exceeds the stay-put value, which is what the energy
    ledger of the outer scheme relies on.
    """
    tau_eff = cfg.tau if s is None else s
    if tau_eff <= 0.0 or tau_eff > cfg.tau * (1.0 + 1e-12):
        raise ValueError("effective step must lie in (0, tau]")
    anchor = np.asarray(prev_positions, dtype=float)
    p_cells = _bandwidth_cells(cfg, n)
    objective = _Objective(anchor, tau_eff, eps, spec, n, p_cells)
    x, info = _minimize(anchor, objective, cfg.inner_tol, cfg.inner_max)
    if not info["converged"]:
        raise JkoConvergenceFailure(
            f"inner solve stopped at {info['grad_scaled']:.3e} after {info['iterations']} iterations",
            positions=x,
            grad_norm=info["grad_scaled"],
        )
    info["d2_increment"] = float(np.sqrt(np.mean(_signed_wrap(x - anchor) ** 2)))
    return x, info


def jko_step(f: DensityField, cfg: JkoConfig, eps: float, spec: PotentialSpec) -> DensityField:
    """Advance one outer step from a gridded density."""
    positions = particles_from_density(f, cfg.m)
    x, _ = jko_step_positions(positions, cfg, eps, spec, f.n)
    return DensityField.normalized(density_from_particles(x, f.n, _bandwidth_cells(cfg, f.n)))


def de_giorgi_interpolant(f_prev: DensityField, s: float, cfg: JkoConfig, eps: float, spec: PotentialSpec) -> DensityField:
    """Variational interpolant at intermediate weight 0 < s <= tau."""
    if not 0.0 < s <= cfg.tau * (1.0 + 1e-12):
        raise ValueError("s must lie in (0, tau]")
    positions = particles_from_density(f_prev, cfg.m)
    x, _ = jko_step_positions(positions, cfg, eps, spec, f_prev.n, s=min(s, cfg.tau))
    return DensityField.normalized(density_from_particles(x, f_prev.n, _bandwidth_cells(cfg, f_prev.n)))


def jko_step_count(tau: float, t_end: float) -> int:
    """Outer steps of a run to t_end; ValueError unless t_end is a positive multiple of tau.

    n * tau must lie within 1e-8 of t_end and, so that the step times are
    valid output times of the solvers (`check_output_times`), not past it.
    """
    n_steps = int(round(t_end / tau))
    end = n_steps * tau
    if n_steps < 1 or abs(end - t_end) > 1e-8 * max(tau, t_end) or past_horizon(end, t_end):
        raise ValueError("t_end must be a positive multiple of tau")
    return n_steps


def simulate_jko(f0: DensityField, cfg: JkoConfig, eps: float, spec: PotentialSpec, t_end: float) -> TrajectoryRecord:
    """Chain outer steps to t_end, carrying particles across steps.

    Re-quantizing the density between steps would contaminate the
    telescoped transport cost, so particles flow through the whole run
    and densities are reconstructed only for snapshots and reports.
    """
    n_steps = jko_step_count(cfg.tau, t_end)
    env = compute_convex_envelope(spec)
    n = f0.n
    p_cells = _bandwidth_cells(cfg, n)

    positions = particles_from_density(f0, cfg.m)
    snapshots = [DensityField.normalized(density_from_particles(positions, n, p_cells))]
    reports = [energy_report(snapshots[0], eps, spec, env)]
    times = [0.0]
    events = []
    increments = [0.0]

    for k in range(1, n_steps + 1):
        positions, info = jko_step_positions(positions, cfg, eps, spec, n)
        if info["separation_hits"] or info["span_rescales"]:
            events.append(
                {
                    "type": "projection",
                    "t": k * cfg.tau,
                    "separation_hits": info["separation_hits"],
                    "span_rescales": info["span_rescales"],
                }
            )
        snap = DensityField.normalized(density_from_particles(positions, n, p_cells))
        snapshots.append(snap)
        reports.append(energy_report(snap, eps, spec, env))
        times.append(k * cfg.tau)
        increments.append(info["d2_increment"])

    record = TrajectoryRecord(
        times=np.array(times),
        snapshots=snapshots,
        reports=reports,
        events=events,
        flavor="jko",
    )
    increments = np.array(increments)
    energies = np.array([rep.e_eps for rep in record.reports])
    # signed defect of E(k) + (1/2 tau) sum d2^2 <= E(0); healthy runs stay <= 0
    slack = energies - energies[0] + np.cumsum(increments**2) / (2.0 * cfg.tau)
    record.extras["speeds"] = np.concatenate([[0.0], increments[1:] / cfg.tau])
    record.extras["d2_increments"] = increments
    record.extras["ledger_slack"] = slack
    record.extras["positions"] = positions
    record.extras["bandwidth"] = p_cells / n
    return record


def write_ledger_csv(record: TrajectoryRecord, path):
    """Per-step movement ledger: step, d2_increment, energy, slack."""
    increments = record.extras["d2_increments"]
    slack = record.extras["ledger_slack"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "d2_increment", "energy", "slack"])
        for k, rep in enumerate(record.reports):
            writer.writerow([k, repr(float(increments[k])), repr(rep.e_eps), repr(float(slack[k]))])
