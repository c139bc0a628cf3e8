"""Minimizing-movement scheme in the transport metric, particle form.

Each outer step solves  argmin  (1/m) sum dist(X_i, X_i^prev)^2 + 2 tau E(X)
over monotone equal-mass particle positions; in 1D the transport term is
exactly the squared metric for non-crossing particles, so no inner OT
solve is needed.  Densities are rebuilt on the grid with a cubic B-spline
whose width is an integer number of cells, which deposits the mass of
every particle exactly (translates of the spline sum to one).

The inner minimization is a damped Newton iteration on the positive part
H+ of the particle Hessian, banded up to the few cell rows whose particle
run wraps across x = 0: a banded Cholesky factorisation plus a Woodbury
correction solves each step (`_Objective.hessian`, `_newton_direction`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .functionals import chemical_potential_values, energy_eps_values, energy_report
from .potential import PotentialSpec
from .solvers import TrajectoryRecord, past_horizon, real_number, whole_number
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
_ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton slope
_MAX_HALVINGS = 40
_BAND_CHUNK = 8  # band rows assembled per pass


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
    """Value, gradient and positive-part Hessian of the movement functional at fixed anchor."""

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
        """Value, gradient, and the deposit state the Hessian is built from."""
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
        return value, grad, (x, vals, idx, t, p, kernel_d)

    def hessian(self, state):
        """H+ = band + V V^T: the lower band (row d holds H+[i + d, i]) and the wrap rows V.

        H+ = (2/m) I + 2 tau [J^T (h W''+ + (eps^2/h) D^T D) J + diag(D2+)], with J = df/dx,
        D the forward difference and D2_i = h sum_j mu_j d2f_j/dx_i^2, negative parts of W''
        and D2 dropped.  The energy part is a sum of one outer product per cell row of J
        and of DJ.  On the universal cover particle i touches cells start_i + k, k < 4p + 1
        (the first with zero weight, so that DJ fits the same window), and the particles
        touching one cover cell are consecutive; a row whose cell is touched from one lift
        only is an outer product inside the band, a row touched from two (where the run
        of particles wraps across x = 0) becomes a column of V.
        """
        x, vals, idx, t, p, kernel_d = state
        m, n, h = x.size, self.n, self.h
        q = 4 * self.p_cells + 1
        two_tau = 2.0 * self.tau_eff
        # window[i, 0] is particle i's column of J, window[i, 1] that of DJ, over the cover
        # cells start_i + k in entries q + k; entries 0 .. q - 1 (for shifted reads) and 2q
        # (J one cell past the window) stay zero
        window = np.zeros((m, 2, 2 * q + 1))
        window[:, 0, q + 1 : 2 * q] = -kernel_d
        window[:, 1, q : 2 * q] = window[:, 0, q + 1 :] - window[:, 0, q : 2 * q]
        stencil = window[:, :, q : 2 * q]

        xm = x % 1.0
        lift = np.concatenate(([0], np.cumsum(xm[1:] < xm[:-1])))
        start = np.floor(xm * n - 0.5).astype(int) - 2 * self.p_cells + n * lift
        rel = start - start[0]
        width = rel[-1] + q
        cells = (start[0] + np.arange(width)) % n
        slots = cells[rel[:, None] + np.arange(q)]  # cell of every window entry

        def wrapping(first):
            """Cells touched from two lifts by window entries first .. q - 1."""
            runs = np.cumsum(np.bincount(rel + first, minlength=width + 1) - np.bincount(rel + q, minlength=width + 1))
            return np.bincount(cells[runs[:width] > 0], minlength=n) > 1

        weight = np.stack(
            (two_tau * h * np.maximum(self.spec.eval_W2(vals), 0.0), np.full(n, two_tau * self.eps**2 / h))
        )
        wrap = np.stack((wrapping(1), wrapping(0)))
        weighted = stencil * np.where(wrap, 0.0, weight)[:, slots].transpose(1, 0, 2)

        # band[d, i] pairs particle i with i + d while start_{i+d} - start_i < q, reading the
        # partner's window shifted by that difference: shifted[l * q + s] is particle l's
        # window seen from cover cell start_l - s, and the extra last row is all zero
        shifted = sliding_window_view(window[:, :, : 2 * q], q, axis=2)[:, :, q:0:-1].transpose(0, 2, 1, 3)
        shifted = np.concatenate((shifted.reshape(m * q, 2 * q), np.zeros((1, 2 * q))))
        weighted = weighted.reshape(m, 2 * q)
        last = np.searchsorted(start, start + q, side="left")
        band = np.empty((int(np.max(last - np.arange(m))), m))
        for lo in range(0, band.shape[0], _BAND_CHUNK):  # bounds the temporaries of a dense cluster
            partner = np.arange(m)[:, None] + np.arange(lo, min(lo + _BAND_CHUNK, band.shape[0]))
            clipped = np.minimum(partner, m - 1)
            rows = np.where(partner < last[:, None], clipped * q + start[clipped] - start[:, None], m * q)
            band[lo : lo + partner.shape[1]] = np.einsum("icj,ij->ci", np.take(shifted, rows, axis=0), weighted)
        d2 = h * np.sum(p[idx] * _bspline_d2(t), axis=1) * (n / self.p_cells) ** 3 / m
        band[0] += 2.0 / m + two_tau * np.maximum(d2, 0.0)

        # one column of V per wrapping row with a nonzero weight
        live = (wrap & (weight > 0.0)).ravel()
        k = int(np.count_nonzero(live))
        column = np.full(2 * n, -1)
        column[live] = np.arange(k)
        row_of = np.arange(2)[:, None] * n + slots[:, None, :]  # (m, 2, q): row of J or DJ
        col = column[row_of]
        i, part, j = np.nonzero(col >= 0)
        values = stencil[i, part, j] * np.sqrt(weight.ravel()[row_of[i, part, j]])
        wrap_rows = np.bincount(i * k + col[i, part, j], values, minlength=m * k)
        return band, wrap_rows.astype(float).reshape(m, k)  # bincount of nothing is integer


def _newton_direction(band, wrap, grad):
    """Solve (B + V V^T) s = -grad: banded Cholesky B = L L^T, Woodbury correction for V.

    B >= (2/m) I, so the factorisation cannot fail, and the k x k
    capacitance matrix I + (L^-1 V)^T (L^-1 V) is symmetric positive definite
    (Golub & Van Loan, Matrix Computations, 2.1.4).
    """
    factor = cholesky_banded(band, lower=True)
    step = cho_solve_banded((factor, True), -grad)
    if wrap.shape[1]:
        half = dtbtrs(factor, wrap, uplo="L")[0]
        capacitance = np.eye(wrap.shape[1]) + half.T @ half
        step = step - cho_solve_banded((factor, True), wrap @ np.linalg.solve(capacitance, wrap.T @ step))
    return step


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


def _ordered(x):
    """Particles in order and within one period: the set the band structure holds on."""
    return bool(np.all(x[1:] >= x[:-1])) and x[-1] - x[0] < 1.0


def _minimize(x0, objective, tol_scaled, max_iter):
    """Damped Newton on H+ with a monotonicity projection at the end.

    Each iteration solves H+ s = -grad and backtracks from the full step,
    halving until the Armijo condition holds at an ordered configuration;
    particles do not cross for resolvable steps, so the projection
    normally acts as the identity and exists as a guard.  Convergence is
    declared on (m/2) * ||grad||_inf, the per-particle force imbalance in
    displacement units.  Whatever happens, the returned configuration is
    monotone and its objective never exceeds the stay-put value.
    """
    anchor = np.asarray(x0, dtype=float)
    m = anchor.size
    x = anchor
    value, grad, state = objective.evaluate(x)
    anchor_value = value
    iterations = halvings = 0
    while 0.5 * m * float(np.max(np.abs(grad))) > tol_scaled and iterations < max_iter:
        step = _newton_direction(*objective.hessian(state), grad)
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
    hits = [0, 0]
    candidate = _project(x, hits)
    if not np.array_equal(candidate, x):
        value, grad = objective(candidate)
    if value > anchor_value:
        # projection undid the progress; staying put is always admissible
        candidate, value = anchor.copy(), anchor_value
        grad_scaled = float("inf")
    else:
        grad_scaled = 0.5 * m * float(np.max(np.abs(grad)))
    info = {
        "converged": grad_scaled <= tol_scaled,
        "iterations": iterations,
        "line_search_halvings": halvings,
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
    n = f0.n
    p_cells = _bandwidth_cells(cfg, n)

    positions = particles_from_density(f0, cfg.m)
    snapshots = [DensityField.normalized(density_from_particles(positions, n, p_cells))]
    reports = [energy_report(snapshots[0], eps, spec)]
    times = [0.0]
    events = []
    increments = [0.0]
    iterations = [0]
    halvings = [0]

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
        reports.append(energy_report(snap, eps, spec))
        times.append(k * cfg.tau)
        increments.append(info["d2_increment"])
        iterations.append(info["iterations"])
        halvings.append(info["line_search_halvings"])

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
