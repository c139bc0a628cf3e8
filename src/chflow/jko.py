"""Minimizing-movement scheme in the transport metric, particle form.

Each outer step solves  argmin  (1/m) sum dist(X_i, X_i^prev)^2 + 2 tau E(X)
over monotone equal-mass particle positions; in 1D the transport term is
exactly the squared metric for non-crossing particles, so no inner OT
solve is needed.  Densities are rebuilt on the grid with a cubic B-spline
whose width is an integer number of cells, which deposits the mass of
every particle exactly (translates of the spline sum to one).

The inner minimization is a damped Newton iteration on the positive part
H+ of the particle Hessian.  H+ is a diagonal plus the energy Hessian in the
cell values seen through the deposit stencil, so each Newton system is
solved in cell space: one cyclic band system of n unknowns, factorised
through `solvers.factorize` like every other implicit step
(`_newton_direction`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .functionals import chemical_potential_values, energy_eps_values, energy_report, laplacian
from .potential import PotentialSpec
from .solvers import TrajectoryRecord, factorize, past_horizon, real_number, whole_number
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

_ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton slope
_MAX_HALVINGS = 40


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
        object.__setattr__(self, "tau", real_number(self.tau, "tau"))
        object.__setattr__(self, "inner_tol", real_number(self.inner_tol, "inner_tol"))
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


def _bspline_d2(t):
    a = np.abs(t)
    return np.where(a < 1.0, 3.0 * a - 2.0, np.where(a < 2.0, 2.0 - a, 0.0))


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
        value, grad, _ = self.evaluate(x)
        return value, grad

    def evaluate(self, x):
        """Value, gradient, and the deposit state the Newton direction is built from."""
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
        return value, grad, (vals, idx, t, p, kernel_d)


def _newton_direction(state, grad, objective):
    """Solve H+ s = -grad in cell space through the one LU (`factorize`).

    H+ = Dg + 2 tau J^T A J, with Dg = 2/m + 2 tau max(D2, 0) diagonal
    (D2_i = h sum_j mu_j d2f_j/dx_i^2), J = df/dx the deposit stencil and
    A = h max(W'', 0) + (eps^2/h) D^T D the cyclic tridiagonal energy Hessian
    in the cell values (D the forward difference).  By the push-through
    identity u = J s solves (I + 2 tau K A) u = J Dg^-1 r with K = J Dg^-1 J^T
    and r = -grad, and then s = Dg^-1 (r - 2 tau J^T A u).  Particle i's
    column of J covers the 4p consecutive cells idx[i], so K is a cyclic band
    of half-width 4p - 1 and K A one of half-width 4p.
    """
    vals, idx, t, p, kernel_d = state
    m, n, h, q = grad.size, vals.size, objective.h, idx.shape[1]
    two_tau = 2.0 * objective.tau_eff
    d2 = h * np.sum(p[idx] * _bspline_d2(t), axis=1) * (n / objective.p_cells) ** 3 / m
    dg = 2.0 / m + two_tau * np.maximum(d2, 0.0)
    w2 = h * np.maximum(objective.spec.eval_W2(vals), 0.0)
    off = objective.eps**2 / h
    # row o + q + 1 holds K[a, (a + o) mod n]; the rows |o| >= q stay zero for A's off-diagonals
    offset = np.arange(q)[None, :] - np.arange(q)[:, None]
    rows = (offset + q + 1)[None] * n + idx[:, :, None]
    pairs = kernel_d[:, :, None] * kernel_d[:, None, :] / dg[:, None, None]
    k_bands = np.bincount(rows.ravel(), pairs.ravel(), minlength=(2 * q + 3) * n).reshape(2 * q + 3, n)
    # (K A)[a, a + o] = K[a, a + o] A[a + o, a + o] - (eps^2/h) (K[a, a + o - 1] + K[a, a + o + 1])
    cols = (np.arange(n)[None, :] + np.arange(-q, q + 1)[:, None]) % n
    system = two_tau * (k_bands[1:-1] * (w2 + 2.0 * off)[cols] - off * (k_bands[:-2] + k_bands[2:]))
    system[q] += 1.0
    scaled = -grad / dg  # Dg^-1 r
    u = factorize(system).solve(np.bincount(idx.ravel(), (-kernel_d * scaled[:, None]).ravel(), minlength=n))
    au = w2 * u - objective.eps**2 * h * laplacian(u, h)
    return scaled + two_tau * np.sum(kernel_d * au[idx], axis=1) / dg


def _ordered(x):
    """Particles in order and within one period: the set on which the transport term is the squared metric."""
    return bool(np.all(x[1:] >= x[:-1])) and x[-1] - x[0] < 1.0


def _minimize(x0, objective, tol_scaled, max_iter):
    """Damped Newton on H+ from an ordered anchor; returns a new array and the info.

    Each iteration solves H+ s = -grad and backtracks from the full step,
    halving until the Armijo condition holds at an ordered configuration
    (`_ordered`), so every accepted iterate is ordered and spans less than
    one period.  Convergence is declared on (m/2) * ||grad||_inf, the
    per-particle force imbalance in displacement units.  At the roundoff
    floor the Newton slope need not be negative, and Armijo can then accept
    a tiny rise above the stay-put value; the anchor is returned instead,
    with grad_scaled = inf.
    """
    anchor = np.asarray(x0, dtype=float)
    m = anchor.size
    x = anchor
    value, grad, state = objective.evaluate(x)
    anchor_value = value
    iterations = halvings = 0
    while 0.5 * m * float(np.max(np.abs(grad))) > tol_scaled and iterations < max_iter:
        step = _newton_direction(state, grad, objective)
        slope = float(grad @ step)
        for k in range(_MAX_HALVINGS):
            trial = x + 0.5**k * step
            if _ordered(trial):
                trial_value, trial_grad, trial_state = objective.evaluate(trial)
                if trial_value <= value + _ARMIJO * 0.5**k * slope:
                    break
            halvings += 1
        else:
            break  # no decrease left to find at this precision
        if trial_value >= value and np.max(np.abs(trial_grad)) >= np.max(np.abs(grad)):
            break  # at the roundoff floor: the step lowers neither the objective nor the gradient
        x, value, grad, state = trial, trial_value, trial_grad, trial_state
        iterations += 1
    if value > anchor_value:
        # staying put is always admissible
        x, value = anchor, anchor_value
        grad_scaled = float("inf")
    else:
        grad_scaled = 0.5 * m * float(np.max(np.abs(grad)))
    info = {
        "converged": grad_scaled <= tol_scaled,
        "iterations": iterations,
        "line_search_halvings": halvings,
        "objective": float(value),
        "grad_scaled": grad_scaled,
    }
    return (x.copy() if x is anchor else x), info


def jko_step_positions(prev_positions, cfg: JkoConfig, eps: float, spec: PotentialSpec, n: int, s: float | None = None):
    """One movement step in particle coordinates; returns (positions, info).

    `s` (0 < s <= tau, default tau) is the weight of the energy, which the
    De Giorgi interpolant varies.  Starting the search at the previous
    positions guarantees the returned objective never exceeds the stay-put
    value, which is what the energy ledger of the outer scheme relies on.
    """
    tau_eff = cfg.tau if s is None else s
    if not 0.0 < tau_eff <= cfg.tau * (1.0 + 1e-12):
        raise ValueError("s must lie in (0, tau]")
    tau_eff = min(tau_eff, cfg.tau)
    anchor = np.asarray(prev_positions, dtype=float)
    if not _ordered(anchor):
        raise ValueError("particle positions must be non-decreasing and span less than one period")
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
    """Advance one outer step from a gridded density: the interpolant at s = tau."""
    return de_giorgi_interpolant(f, cfg.tau, cfg, eps, spec)


def de_giorgi_interpolant(f_prev: DensityField, s: float, cfg: JkoConfig, eps: float, spec: PotentialSpec) -> DensityField:
    """Variational interpolant at intermediate weight 0 < s <= tau."""
    positions = particles_from_density(f_prev, cfg.m)
    x, _ = jko_step_positions(positions, cfg, eps, spec, f_prev.n, s=s)
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
    n = f0.n
    p_cells = _bandwidth_cells(cfg, n)

    positions = particles_from_density(f0, cfg.m)
    snapshots = [DensityField.normalized(density_from_particles(positions, n, p_cells))]
    reports = [energy_report(snapshots[0], eps, spec)]
    times = [0.0]
    increments = [0.0]
    iterations = [0]
    halvings = [0]

    for k in range(1, n_steps + 1):
        positions, info = jko_step_positions(positions, cfg, eps, spec, n)
        snap = DensityField.normalized(density_from_particles(positions, n, p_cells))
        snapshots.append(snap)
        reports.append(energy_report(snap, eps, spec))
        times.append(k * cfg.tau)
        increments.append(info["d2_increment"])
        iterations.append(info["iterations"])
        halvings.append(info["line_search_halvings"])

    record = TrajectoryRecord(
        times=np.array(times),
        snapshots=snapshots,
        reports=reports,
        events=[],
        flavor="jko",
    )
    increments = np.array(increments)
    energies = np.array([rep.e_eps for rep in record.reports])
    # signed defect of E(k) + (1/2 tau) sum d2^2 <= E(0); healthy runs stay <= 0
    slack = energies - energies[0] + np.cumsum(increments**2) / (2.0 * cfg.tau)
    record.extras["speeds"] = np.concatenate([[0.0], increments[1:] / cfg.tau])
    record.extras["d2_increments"] = increments
    record.extras["ledger_slack"] = slack
    record.extras["inner_iterations"] = np.array(iterations)
    record.extras["line_search_halvings"] = np.array(halvings)
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
