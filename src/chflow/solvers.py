"""Implicit finite-volume steppers for the interface equation and its limit.

Both flows are conservative: the update is a difference of face fluxes,
so the discrete mass telescopes exactly no matter how inaccurate the
Newton solve is.  Each cell flow (the regularized flow, the limit flow
and the nonlocal model) is one flow triple (advance, energy_of,
make_report) from its builder, run by one driver, `simulate_cells`, or
stepped once by `step_cells`.  Every advance is a run's lagged-mobility
implicit flux step, `implicit_stepper`: a chord Newton iteration
(`newton`) whose factor the stepper holds across its steps, on one
stepping matrix I - dt theta Dx(m Dx (diag(c) - s Dxx)), its bands from
`stepping_bands` and its LU from `factorize`, and a result with a
negative cell clipped to its mass (`enforce_positivity`).  The limit
flow's is backward Euler with unit face mobility and mu = Q**', a
monotone system, which keeps the minimum principle and dissipates the
relaxed energy unconditionally.  All four flows, JKO too, step an opaque
state (cells, or particles) through one adaptive-dt loop,
`run_trajectory`, which halves dt only when a step truly fails; JKO
never halves tau, because its energy ledger telescopes equal steps.
"""

from __future__ import annotations

import functools
import numbers
import types
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .functionals import (
    EnergyReport,
    ahead,
    behind,
    chemical_potential_values,
    energy_eps_values,
    energy_report,
    energy_star,
    energy_star_values,
    slope_star,
)
from .potential import ConvexEnvelope, PotentialSpec
from .wasserstein1d import DensityField, metric_speed

__all__ = [
    "SolverConfig",
    "StepFailure",
    "TrajectoryRecord",
    "check_output_times",
    "divergence_of_flux",
    "enforce_positivity",
    "factorize",
    "implicit_stepper",
    "mobility_faces",
    "newton",
    "once_per_array",
    "past_horizon",
    "real_number",
    "run_trajectory",
    "simulate_cells",
    "simulate_eps",
    "simulate_limit",
    "step_cells",
    "step_eps",
    "step_limit",
    "step_limit_values",
    "stepping_bands",
    "whole_number",
]

class StepFailure(RuntimeError):
    """One implicit step could not be completed at the requested dt."""


def whole_number(value, what):
    """int(value) for an integral real number; a bool, a string, 2.5 or NaN raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"{what} must be a whole number")
    return int(value)


def real_number(value, what):
    """float(value) for a finite real number; a bool, a string, NaN or an infinity raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(float(value)):
        raise ValueError(f"{what} must be a finite real number")
    return float(value)


@dataclass(frozen=True)
class SolverConfig:
    n: int
    dt: float
    eps: float
    t_end: float
    theta_scheme: float = 1.0
    newton_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "n", whole_number(self.n, "n"))
        for name in ("dt", "eps", "t_end", "theta_scheme", "newton_tol"):
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if self.n < 16:
            raise ValueError("need at least 16 cells")
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
        if not 0.0 < self.theta_scheme <= 1.0:
            raise ValueError("theta_scheme must lie in (0, 1]")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")


@dataclass
class TrajectoryRecord:
    """Snapshots, energy diagnostics, and solver events for one run."""

    times: np.ndarray
    snapshots: list
    reports: list
    events: list
    flavor: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must be finite and strictly increasing")
        if len(self.snapshots) != self.times.size or len(self.reports) != self.times.size:
            raise ValueError("times, snapshots, and reports must align")

    @property
    def completed(self):
        """False when the run aborted on a dt underflow."""
        return not any(ev.get("type") == "abort" for ev in self.events)

    def speeds(self):
        """Metric speed into each snapshot (0 for the first), computed once and cached."""
        if "speeds" not in self.extras:
            self.extras["speeds"] = np.array(
                [0.0] + [metric_speed(self, k) for k in range(len(self.times) - 1)]
            )
        return self.extras["speeds"]


@functools.lru_cache(maxsize=64)
def _folded_plan(n, width):
    """Read-only cell order 0, n-1, 1, n-2, ... and its inverse, the half-width
    (at most 2 width) of an n x n cyclic band of half-width `width` in that
    order, and each stacked band entry's Fortran flat index in LAPACK band storage."""
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    where = np.argsort(order)
    rows = np.tile(np.arange(n), 2 * width + 1)
    i, j = where[rows], where[(rows + np.repeat(np.arange(-width, width + 1), n)) % n]
    half = int(np.max(np.abs(i - j)))
    flat = j * (3 * half + 1) + 2 * half + i - j
    for arr in (order, where, flat):
        arr.flags.writeable = False
    return order, where, half, flat


def factorize(bands):
    """LU, by LAPACK's partially pivoted band LU (dgbtrf), of the matrix whose
    row o + w of the (2w+1, n) `bands` holds entry (j, (j+o) mod n); in the
    folded cell order the cyclic band is a plain one, corners included, and
    entries bands put on one position (2w+1 > n) are summed.  The one
    factorisation every stepper uses; solve(rhs) takes and returns cell order."""
    n = bands.shape[1]
    order, where, half, flat = _folded_plan(n, bands.shape[0] // 2)
    ab = np.bincount(flat, weights=bands.ravel(), minlength=(3 * half + 1) * n)
    lu, piv, info = dgbtrf(ab.reshape((3 * half + 1, n), order="F"), half, half, overwrite_ab=True)
    if info > 0:
        raise RuntimeError("Factor is exactly singular")

    def solve(rhs):
        return dgbtrs(lu, half, half, rhs[order], piv, overwrite_b=True)[0][where]

    return types.SimpleNamespace(solve=solve)


def mobility_faces(v):
    """Face value at j+1/2, clamped so degenerate cells cannot push mass."""
    return np.maximum(0.0, 0.5 * (v + ahead(v)))


def divergence_of_flux(m, p, h):
    """Conservative update: difference of face fluxes m * Dx(p), m at faces j+1/2."""
    flux = m * (ahead(p) - p) / h
    return (flux - behind(flux)) / h


def stepping_bands(m, c, stiffness, h, dt_theta):
    """Five bands of I - dt_theta M (diag(c) - stiffness L), M = Dx(m Dx .) for
    face coefficients m; the diagonal sums its terms in the column order of
    M's rows, as a sparse product does.  With stiffness 0 the outer bands are
    zeros, which the band LU factors like any other entries."""
    m_minus = behind(m)
    lo, di, up = m_minus / h**2, -(m + m_minus) / h**2, m / h**2
    a = c - stiffness * (-2.0 / h**2)
    off = -(stiffness * (1.0 / h**2))
    inner = lo * off + di * a + up * off
    inner[0] = di[0] * a[0] + up[0] * off + lo[0] * off
    inner[-1] = up[-1] * off + lo[-1] * off + di[-1] * a[-1]
    prod = np.stack([lo * off, lo * behind(a) + di * off, inner, di * off + up * ahead(a), up * off])
    prod *= -dt_theta
    prod[2] += 1.0
    return prod


def newton(vals, residual_fn, jacobian_fn, tol, held, dt):
    """Chord Newton: one LU serves every correction, refreshed at the current
    iterate only when a step fails to halve the residual (Deuflhard 2004,
    simplified Newton).

    `held` is a run's dict of at most one factor, keyed on the step size it
    was made at: a factor held at this `dt` starts the iteration, any other
    call factorises the Jacobian at vals, and every factor made here replaces
    the held one (Hairer & Wanner, Solving ODEs II, IV.8).  A held factor is
    not fresh.

    f takes at least one correction and is accepted once its residual or its
    simplified correction lu.solve(r), which is also the next chord step, is
    below tol * (1 + max |f|) (Deuflhard 2004; Kelley 2003).  StepFailure is
    raised when a step taken with a fresh factor does not lower the residual,
    or after 50 steps.
    """

    def refactor(v):
        lu = factorize(jacobian_fn(v))
        held.clear()
        held[dt] = lu
        return lu

    f = vals
    r = residual_fn(f)
    norm = float(np.abs(r).max())
    lu = held.get(dt)
    fresh = lu is None
    if fresh:
        lu = refactor(f)
    step = lu.solve(r)
    for _ in range(50):
        f = f - step
        r = residual_fn(f)
        norm_new = float(np.abs(r).max())
        scale = tol * (1.0 + float(np.abs(f).max()))
        if norm_new < scale:
            return f
        step = lu.solve(r)
        if float(np.abs(step).max()) < scale:
            return f
        contracted = norm_new < 0.5 * norm
        if not contracted:
            if fresh and not norm_new < norm:
                raise StepFailure(f"Newton step did not lower the residual {norm:.3e}")
            lu = refactor(f)
            step = lu.solve(r)
        fresh = not contracted
        norm = norm_new
    raise StepFailure("Newton did not converge")


def enforce_positivity(vals, h, t, events):
    """Clip a negative step to zero and rescale it to its mass, with a clip event."""
    low = float(vals.min())
    if low >= 0.0:
        return vals
    clipped = np.maximum(vals, 0.0)
    mass = float(np.sum(clipped) * h)
    if mass <= 0.0:
        raise StepFailure("clipping removed all mass")
    target = float(np.sum(vals) * h)
    clipped *= target / mass
    events.append({"type": "clip", "t": t, "min_before": low})
    return clipped


def once_per_array(fn):
    """fn, evaluated again only when handed another array object: never mutate one handed in."""
    last = [None, None]

    def cached(v):
        if v is not last[0]:
            last[:] = v, fn(v)
        return last[1]

    return cached


def implicit_stepper(h, tol, potential, curvature, stiffness, theta=1.0, mobility=mobility_faces):
    """advance(vals, dt, t, events): one theta-weighted implicit step of
    v_t = Dx(m(v) Dx mu(v)), m = mobility(v) at faces, for one run.

    `potential(v)` is mu and `curvature(v)` the diagonal c of its
    linearisation mu' = diag(c) - stiffness * Dxx.  The Jacobian lags the
    mobility, I - dt theta M(v) (diag(c(v)) - stiffness L): the derivative of
    m is dropped, the flux in the residual is kept exact.  The stepper holds
    its run's chord factor (`newton`), so a fresh stepper starts without one;
    a negative result is clipped and renormalized (`enforce_positivity`).
    The flux divergence is taken `once_per_array`: a step's explicit half and
    first residual reuse its last step's final one; never mutate an array passed in.
    """
    held = {}
    flux = once_per_array(lambda v: divergence_of_flux(mobility(v), potential(v), h))

    def advance(vals, dt, t, events):
        explicit = (1.0 - theta) * flux(vals) if theta < 1.0 else None

        def residual(v):
            return v - vals - dt * (flux(v) if explicit is None else theta * flux(v) + explicit)

        def jacobian(v):
            return stepping_bands(mobility(v), curvature(v), stiffness, h, dt * theta)

        out = newton(vals, residual, jacobian, tol, held, dt)
        return enforce_positivity(out, h, t, events)

    return advance


def _eps_flow(cfg, spec, h, caller):
    """Flow triple of the regularized flow, mu = W' - eps^2 Dxx, c = W'', once cfg has eps > 0."""
    if cfg.eps <= 0.0:
        raise ValueError(f"{caller} needs eps > 0")

    def mu(v):
        return chemical_potential_values(v, h, cfg.eps, spec)

    def energy_of(v):
        return energy_eps_values(v, h, cfg.eps, spec)

    def make_report(snap):
        return energy_report(snap, cfg.eps, spec)

    advance = implicit_stepper(h, cfg.newton_tol, mu, spec.eval_W2, cfg.eps * cfg.eps, cfg.theta_scheme)
    return advance, energy_of, make_report


def _limit_flow(cfg, env, h, caller):
    """Flow triple of the relaxed flow, v_t = Dxx Q**'(v), by backward Euler:
    unit face mobility, mu = Q**', c = Q**'' = v W**'' (>= 0 on the admissible
    range, strays clamped), once cfg is its one scheme, eps = 0 and theta 1."""
    if cfg.eps != 0.0 or cfg.theta_scheme != 1.0:
        raise ValueError(f"{caller} requires eps = 0 and backward Euler (theta_scheme = 1)")

    def curvature(v):
        return np.maximum(0.0, v * env.eval_Wss2(v))

    def energy_of(v):
        return energy_star_values(v, h, env)

    def make_report(snap):
        e_star = energy_star(snap, env)
        s_star = slope_star(snap, env)
        return EnergyReport(e_eps=e_star, e_star=e_star, slope_eps=s_star, slope_star=s_star)

    advance = implicit_stepper(h, cfg.newton_tol, env.eval_Qss1, curvature, 0.0, mobility=np.ones_like)
    return advance, energy_of, make_report


def step_cells(flow, f, cfg):
    """One step of size cfg.dt from the field f by a flow triple's stepper, with
    no energy check and no retry at a smaller dt."""
    if f.n != cfg.n:
        raise ValueError("field resolution does not match config")
    advance, _, _ = flow
    return DensityField(advance(f.values, cfg.dt, 0.0, []))


def step_eps(f: DensityField, cfg: SolverConfig, spec: PotentialSpec) -> DensityField:
    """Advance the regularized flow by one step of size cfg.dt."""
    return step_cells(_eps_flow(cfg, spec, f.h, "step_eps"), f, cfg)


def step_limit(f: DensityField, cfg: SolverConfig, env: ConvexEnvelope) -> DensityField:
    """Advance the relaxed flow by one backward-Euler step of size cfg.dt."""
    return step_cells(_limit_flow(cfg, env, f.h, "step_limit"), f, cfg)


def step_limit_values(values, h, dt, cfg, env):
    """Mass-agnostic backward-Euler step on a raw array.

    Used for scheme studies (comparison principle on ordered data of
    unequal mass) where the unit-mass container does not apply.
    """
    return _limit_flow(cfg, env, h, "step_limit_values")[0](np.asarray(values, dtype=float), dt, 0.0, [])


def past_horizon(t, t_end):
    """True when t lies beyond t_end by more than the 1e-12 relative slack a run allows."""
    return t > t_end * (1.0 + 1e-12)


def check_output_times(cfg, output_times):
    """Snapshot times of a run: a default grid for None, else at least two
    finite real numbers (`real_number`: no strings, no bools) that start at
    0, strictly increase and are not `past_horizon`."""
    if output_times is None:
        return np.linspace(0.0, cfg.t_end, min(33, max(2, int(round(cfg.t_end / cfg.dt)) + 1)))
    if np.ndim(output_times) != 1 or len(output_times) < 2:
        raise ValueError("need at least two output times")
    times = np.array([real_number(t, "every output time in output_times") for t in output_times])
    if abs(times[0]) > 1e-14 or not np.all(np.diff(times) > 0.0):
        raise ValueError("output times must start at 0 and be strictly increasing")
    if past_horizon(times[-1], cfg.t_end):
        raise ValueError("output times must lie within [0, t_end]")
    return times


def run_trajectory(state, dt, times, advance, field, make_report, energy_of, flavor):
    """Adaptive-dt loop shared by every flow: snapshots, reports, events.

    `state` is opaque: cell values, or JKO's particles with their step info.
    `advance(state, dt, t, events)` takes one step or raises StepFailure,
    and so halves dt, as does an `energy_of(state)` rise beyond 1e-8 of its
    start; the events it appends reach the record only if the step is
    accepted.  A step is dt, shortened to land on the next output time only if
    it would pass it by more than 1e-12 relative.  `field(state)` is the
    snapshot, `times` come checked (`check_output_times`).  JKO's advance
    raises on a halved step instead, as its ledger telescopes equal steps.
    """
    events = []
    snapshots = [field(state)]
    reports = [make_report(snapshots[0])]
    recorded = [0.0]

    e_prev = energy_of(state)
    slack = 1e-8 * abs(e_prev)
    dt_cur = dt
    dt_min = dt * 2.0**-40
    grown_after = 0
    aborted = False

    t = 0.0
    for t_out in times[1:]:
        while t < t_out * (1.0 - 1e-12) and not aborted:
            dt_eff = dt_cur if t + dt_cur <= t_out * (1.0 + 1e-12) else t_out - t
            attempt = []
            try:
                new_state = advance(state, dt_eff, t, attempt)
                e_new = energy_of(new_state)
                if e_new > e_prev + slack:
                    raise StepFailure(f"energy increased by {e_new - e_prev:.3e}")
            except StepFailure as exc:
                dt_cur *= 0.5
                grown_after = 0
                events.append({"type": "dt-halve", "t": t, "dt": dt_cur, "reason": str(exc)})
                if dt_cur < dt_min:
                    events.append({"type": "abort", "t": t, "dt": dt_cur})
                    aborted = True
                continue
            events += attempt
            state, e_prev = new_state, e_new
            t += dt_eff
            grown_after += 1
            if dt_cur < dt and grown_after >= 10:
                dt_cur = min(dt, 2.0 * dt_cur)
                grown_after = 0
                events.append({"type": "dt-grow", "t": t, "dt": dt_cur})
        if aborted:
            break
        snap = field(state)
        snapshots.append(snap)
        reports.append(make_report(snap))
        recorded.append(float(t_out))

    return TrajectoryRecord(
        times=np.array(recorded), snapshots=snapshots, reports=reports, events=events, flavor=flavor
    )


def simulate_cells(flow, f0, cfg, output_times, flavor):
    """Run a flow triple (advance, energy_of, make_report) from the field f0 to
    cfg.t_end through `run_trajectory`, a record of flavor `flavor`."""
    if f0.n != cfg.n:
        raise ValueError("field resolution does not match config")
    times = check_output_times(cfg, output_times)
    advance, energy_of, make_report = flow
    return run_trajectory(f0.values, cfg.dt, times, advance, DensityField, make_report, energy_of, flavor)


def simulate_eps(
    f0: DensityField,
    cfg: SolverConfig,
    spec: PotentialSpec,
    output_times=None,
) -> TrajectoryRecord:
    """Run the regularized flow to t_end with adaptive step control.

    The step is halved whenever Newton fails or the energy rises beyond
    1e-8 of its starting size, and regrows after ten clean steps.
    """
    return simulate_cells(_eps_flow(cfg, spec, f0.h, "simulate_eps"), f0, cfg, output_times, "eps")


def simulate_limit(
    f0: DensityField,
    cfg: SolverConfig,
    env: ConvexEnvelope,
    output_times=None,
) -> TrajectoryRecord:
    """Run the relaxed flow to t_end by backward Euler with adaptive step control.

    In this flavor both energy columns report the relaxed functional, so
    the gap column is identically zero; the discrete energy-equality
    residuals are `diagnostics.energy_dissipation_audit(record).residuals`.
    """
    return simulate_cells(_limit_flow(cfg, env, f0.h, "simulate_limit"), f0, cfg, output_times, "limit")
