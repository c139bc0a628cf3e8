"""Minimizing-movement scheme in the transport metric, on particle gaps.

Between ordered equal-mass particle configurations on the line the transport
term of a movement step is exactly the squared metric, so no inner OT solve
is needed, and the energy is a function of the gaps g_i = X_{i+1} - X_i, gap
i carrying mass 1/m at density rho_i = 1/(m g_i), the last one wrapping
across the period (Gosse & Toscani, SISC 28, 2006; Matthes & Osberger, M2AN
48, 2014).  Each outer step solves

    argmin_d  1/2 |d|^2 + tau m E(anchor + d),
    E = sum_i g_i W(rho_i) + eps^2 sum_i (rho_{i+1} - rho_i)^2 / (g_i + g_{i+1}),

over displacements d that keep every gap positive, which is the set of
ordered configurations spanning less than one period.  This is m/2 times the
mean-square form (1/m)|d|^2 + 2 tau E, so the constant `_INNER_TOL` bounds
||grad||_inf, the per-particle force imbalance in displacement units.

The inner minimization is a damped Newton iteration on the positive part
H+ = I + tau m G^T B+ G of the Hessian, with G the cyclic gap difference and
B+ the curvature of E in the gaps, W'' clipped at zero and each eps term's
2 x 2 block in (g_i, g_{i+1}) replaced by its positive part.  H+ is a cyclic
band of half-width 2, factorised through `solvers.factorize` like every
other implicit step (`_newton_direction`).  A configuration is a plain
sorted array of positions, and output densities are the exact cell averages
of its piecewise-constant particle density (`wasserstein1d.to_density`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import ahead, behind, energy_report
from .potential import PotentialSpec
from .solvers import TrajectoryRecord, factorize, past_horizon, real_number, run_trajectory, whole_number
from .wasserstein1d import DensityField, to_density

__all__ = [
    "JkoConfig",
    "JkoConvergenceFailure",
    "de_giorgi_interpolant",
    "jko_step",
    "jko_step_count",
    "jko_step_positions",
    "particles_from_density",
    "simulate_jko",
]

_ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton slope
_MAX_HALVINGS = 40
_INNER_TOL = 1e-6
_INNER_MAX = 2000


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

    def __post_init__(self):
        object.__setattr__(self, "m", whole_number(self.m, "m"))
        object.__setattr__(self, "tau", real_number(self.tau, "tau"))
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.m < 64:
            raise ValueError("need at least 64 particles")


def particles_from_density(f: DensityField, m: int) -> np.ndarray:
    """Equal-mass particles at the mid-level quantiles of a piecewise-linear f.

    In cell j the reconstruction is f_j + s_j (x - x_j) / h, the centred slope
    s_j limited to keep it nonnegative, so every cell keeps its mass.  With a
    piecewise-constant f the gap densities would step at every cell edge, and
    the eps term (curvature ~ eps^2 m^4) would smooth the steps at any tau.
    """
    v = f.values / np.mean(f.values)
    slope = np.clip((ahead(v) - behind(v)) / 2.0, -2.0 * v, 2.0 * v)
    cum = np.concatenate(([0.0], np.cumsum(v)))
    levels = (np.arange(m) + 0.5) / m
    cell = np.minimum(np.searchsorted(cum / cum[-1], levels, side="right") - 1, v.size - 1)
    # across the cell the density is a + b u, u in [0, 1]: solve a u + b u^2 / 2 = r
    a, b = (v - 0.5 * slope)[cell], slope[cell]
    r = levels * cum[-1] - cum[cell]
    root = a + np.sqrt(np.maximum(a * a + 2.0 * b * r, 0.0))
    u = np.divide(2.0 * r, root, out=np.zeros(m), where=root > 0.0)
    return (cell + u) / v.size


class _Objective:
    """The movement functional on the displacement d from the anchor.

    The iterate is d, not X = anchor + d: with X as the iterate a 1-ulp change
    of X moves the gradient by about 1.5e-8, and Newton stalls above the
    tolerances it must reach.
    """

    def __init__(self, anchor, tau_eff, eps, spec):
        self.gaps = ahead(anchor) - anchor
        self.gaps[-1] += 1.0
        self.tau_m = tau_eff * anchor.size
        self.eps = eps
        self.spec = spec

    def evaluate(self, d):
        """Value, gradient and the gap state (E, rho, g_i + g_{i+1}, jump slope) behind them.

        The value is inf, and the rest None, where some gap is not positive.
        """
        g = self.gaps + (ahead(d) - d)
        if not np.all(g > 0.0):
            return np.inf, None, None
        m, eps2 = d.size, self.eps**2
        rho = 1.0 / (m * g)
        rho_next = ahead(rho)
        span = g + ahead(g)
        slope = (rho_next - rho) / span
        w, w1 = self.spec.eval_W(rho), self.spec.eval_W1(rho)
        energy = float(np.sum(g * w) + eps2 * np.sum((rho_next - rho) * slope))
        # dE/dg_i: minus the pressure rho W' - W of gap i, plus the derivatives of
        # eps term i (in its first gap) and of eps term i-1 (in its second gap)
        de_dg = w - rho * w1 + eps2 * slope * (2.0 * m * rho * rho - slope)
        de_dg -= behind(eps2 * slope * (2.0 * m * rho_next * rho_next + slope))
        grad = d + self.tau_m * (behind(de_dg) - de_dg)
        return 0.5 * float(d @ d) + self.tau_m * energy, grad, (energy, rho, span, slope)


def _curvature(state, objective):
    """The curvature B of E in the gaps, as (diagonal, aa, bb, ab).

    The diagonal is m rho^3 W''(rho).  Eps term i, with jump = rho_{i+1} -
    rho_i and span = g_i + g_{i+1}, has the block [[aa, ab], [ab, bb]] =
    (2 eps^2/span) v v^T + 2 eps^2 (jump/span) diag(-2 m^2 rho_i^3,
    2 m^2 rho_{i+1}^3) in (g_i, g_{i+1}), v = (m rho_i^2, -m rho_{i+1}^2) -
    jump/span.
    """
    _, rho, span, slope = state
    m, eps2 = rho.size, objective.eps**2
    rho_next = ahead(rho)
    va, vb = m * rho * rho - slope, -m * rho_next * rho_next - slope
    c = 2.0 * eps2 / span
    aa = c * va * va - 4.0 * eps2 * slope * m * m * rho**3
    bb = c * vb * vb + 4.0 * eps2 * slope * m * m * rho_next**3
    return m * rho**3 * objective.spec.eval_W2(rho), aa, bb, c * va * vb


def _bands(tau_m, diag, aa, bb, ab):
    """The five bands (row o + 2 holds entry (j, j + o)) of I + tau m G^T B G."""
    b0 = diag + aa + behind(bb)
    # (G^T B G)[j, j + 1] and [j, j + 2], with B[i, i + 1] = ab_i
    up1 = ab + behind(ab) - b0
    bands = tau_m * np.stack([behind(behind(-ab)), behind(up1), b0 + behind(b0) - 2.0 * behind(ab), up1, -ab])
    bands[2] += 1.0
    return bands


def _newton_direction(state, grad, objective):
    """Solve H+ s = -grad through the one LU (`factorize`).

    H+ clips W'' at zero and replaces each eps block by its positive part
    b (A - min(lo, 0) I), lo and hi its eigenvalues, b = (max(hi, 0) -
    max(lo, 0)) / (hi - lo).
    """
    diag, aa, bb, ab = _curvature(state, objective)
    mean, rad = 0.5 * (aa + bb), np.hypot(0.5 * (aa - bb), ab)
    lo, hi = mean - rad, mean + rad
    mixed = (lo < 0.0) & (hi > 0.0)
    weight = np.where(lo >= 0.0, 1.0, np.where(mixed, hi, 0.0) / np.where(mixed, hi - lo, 1.0))
    shift = np.minimum(lo, 0.0)
    bands = _bands(objective.tau_m, np.maximum(diag, 0.0), weight * (aa - shift), weight * (bb - shift), weight * ab)
    return factorize(bands).solve(-grad)


def _minimize(objective):
    """Damped Newton on H+ from the anchor (d = 0); returns the displacement and the info.

    Each iteration solves H+ s = -grad and backtracks from the full step,
    halving until the Armijo condition holds at a trial with every gap
    positive, so every accepted iterate is ordered and spans less than one
    period.  It stops at ||grad||_inf <= `_INNER_TOL` or `_INNER_MAX` steps.
    At the roundoff floor the Newton slope need not be negative, and Armijo
    can then accept a tiny rise above the stay-put value; the anchor is
    returned instead, with grad_scaled = inf.
    """
    m = objective.gaps.size
    d = np.zeros(m)
    value, grad, state = objective.evaluate(d)
    anchor_value, anchor_state = value, state
    iterations = halvings = 0
    while float(np.max(np.abs(grad))) > _INNER_TOL and iterations < _INNER_MAX:
        step = _newton_direction(state, grad, objective)
        slope = float(grad @ step)
        for k in range(_MAX_HALVINGS):
            trial = d + 0.5**k * step
            trial_value, trial_grad, trial_state = objective.evaluate(trial)
            if trial_value <= value + _ARMIJO * 0.5**k * slope:
                break
            halvings += 1
        else:
            break  # no decrease left to find at this precision
        if trial_value >= value and np.max(np.abs(trial_grad)) >= np.max(np.abs(grad)):
            break  # at the roundoff floor: the step lowers neither the objective nor the gradient
        d, value, grad, state = trial, trial_value, trial_grad, trial_state
        iterations += 1
    if value > anchor_value:
        # staying put is always admissible
        d, value, state = np.zeros(m), anchor_value, anchor_state
        grad_scaled = float("inf")
    else:
        grad_scaled = float(np.max(np.abs(grad)))
    info = {
        "converged": grad_scaled <= _INNER_TOL,
        "iterations": iterations,
        "line_search_halvings": halvings,
        "objective": float(value),
        "energy": state[0],
        "grad_scaled": grad_scaled,
    }
    return d, info


def jko_step_positions(prev_positions, cfg: JkoConfig, eps: float, spec: PotentialSpec, s: float | None = None):
    """One movement step in particle coordinates; returns (positions, info).

    `s` (0 < s <= tau, default tau) is the weight of the energy, which the
    De Giorgi interpolant varies.  Starting the search at the previous
    positions guarantees the returned objective never exceeds the stay-put
    value, which is what the energy ledger of the outer scheme relies on;
    info["energy"] is the gap energy E of the returned positions.
    """
    tau_eff = cfg.tau if s is None else s
    if not 0.0 < tau_eff <= cfg.tau * (1.0 + 1e-12):
        raise ValueError("s must lie in (0, tau]")
    anchor = np.asarray(prev_positions, dtype=float)
    objective = _Objective(anchor, min(tau_eff, cfg.tau), eps, spec)
    if not np.all(objective.gaps > 0.0):
        raise ValueError("particle positions must be strictly increasing and span less than one period")
    d, info = _minimize(objective)
    x = anchor + d
    if not info["converged"]:
        raise JkoConvergenceFailure(
            f"inner solve stopped at {info['grad_scaled']:.3e} after {info['iterations']} iterations",
            positions=x,
            grad_norm=info["grad_scaled"],
        )
    info["d2_increment"] = float(np.sqrt(np.mean(d * d)))
    return x, info


def jko_step(f: DensityField, cfg: JkoConfig, eps: float, spec: PotentialSpec) -> DensityField:
    """Advance one outer step from a gridded density: the interpolant at s = tau."""
    return de_giorgi_interpolant(f, cfg.tau, cfg, eps, spec)


def de_giorgi_interpolant(f_prev: DensityField, s: float, cfg: JkoConfig, eps: float, spec: PotentialSpec) -> DensityField:
    """Variational interpolant at intermediate weight 0 < s <= tau."""
    x, _ = jko_step_positions(particles_from_density(f_prev, cfg.m), cfg, eps, spec, s=s)
    return to_density(x, f_prev.n)


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
    """Chain outer steps to t_end through `solvers.run_trajectory`, snapshotting every tau.

    Re-quantizing the density would contaminate the telescoped transport
    cost, so the loop's state is the particles with their step's info, and
    densities are reconstructed only for snapshots and reports (grid
    energies).  The loop checks the gap energy E, `info["energy"]`, that
    the ledger telescopes and `extras["energies"]` holds.  Steps never
    halve, because the ledger telescopes equal steps: a rejected step
    raises, and the stay-put guarantee keeps that from happening.
    """
    if eps <= 0.0:
        raise ValueError("simulate_jko needs eps > 0")
    n_steps = jko_step_count(cfg.tau, t_end)
    positions = particles_from_density(f0, cfg.m)
    energy = _Objective(positions, cfg.tau, eps, spec).evaluate(np.zeros(cfg.m))[2][0]
    steps = [(positions, {"energy": energy, "d2_increment": 0.0, "iterations": 0, "line_search_halvings": 0})]

    def advance(state, dt, t, events):
        if abs(dt - cfg.tau) > 1e-9 * cfg.tau:
            raise RuntimeError(f"step at t = {t!r} rejected; the ledger telescopes steps of tau = {cfg.tau!r}")
        steps.append(jko_step_positions(state[0], cfg, eps, spec))
        return steps[-1]

    def field(state):
        return to_density(state[0], f0.n)

    def make_report(snap):
        return energy_report(snap, eps, spec)

    def energy_of(state):
        return state[1]["energy"]

    times = np.arange(n_steps + 1) * cfg.tau
    record = run_trajectory(steps[0], cfg.tau, times, advance, field, make_report, energy_of, "jko")
    infos = [info for _, info in steps]
    increments = np.array([info["d2_increment"] for info in infos])
    energies = np.array([info["energy"] for info in infos])
    # signed defect of E(k) + (1/2 tau) sum d2^2 <= E(0); the stay-put guarantee keeps it <= 0
    slack = energies - energies[0] + np.cumsum(increments**2) / (2.0 * cfg.tau)
    record.extras["speeds"] = np.concatenate([[0.0], increments[1:] / cfg.tau])
    record.extras["d2_increments"] = increments
    record.extras["energies"] = energies
    record.extras["ledger_slack"] = slack
    record.extras["inner_iterations"] = np.array([info["iterations"] for info in infos])
    record.extras["line_search_halvings"] = np.array([info["line_search_halvings"] for info in infos])
    record.extras["positions"] = steps[-1][0]
    return record

