"""Oscillation reports, local H1 bounds, and energy-dissipation audits.

The wrinkling analysis turns the sharp-interface dichotomy (close pairs with
controlled slopes either oscillate less than eta or sit within eta of the
unstable band) into a measurable report: the scan width delta is calibrated
empirically per potential and eta, never asserted a priori.
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .functionals import dx_centered, dx_forward, energy_eps, energy_star
from .potential import distance_to_sigma
from .wasserstein1d import w2_periodic

__all__ = [
    "WrinkleReport",
    "DissipationAudit",
    "WellPreparednessReport",
    "wrinkling_report",
    "calibrate_delta",
    "oscillation_profile",
    "h1_local",
    "dissipation_audit",
    "energy_dissipation_audit",
    "well_preparedness",
    "u_lambda_membership",
]

_DELTA_CANDIDATES = 0.25 * 0.5 ** np.arange(7)  # calibrate_delta's pair widths 0.25 2^-k, largest first


@dataclass(frozen=True)
class WrinkleReport:
    """Outcome of one dichotomy scan.

    ``violations`` holds (x, y, osc, max_dist_to_sigma) quadruples on the
    cover (y = x + k*h may exceed 1 when the pair wraps); every entry has
    y - x < delta, slopes below L at both endpoints, osc >= eta, and some
    point between x and y at distance >= eta from the band.
    ``far_mass_fraction`` is the part of the oscillating mass carried by
    cells whose own value sits at distance > eta from the band.
    """

    eta: float
    delta: float
    L: float
    violations: tuple
    oscillating_mass_fraction: float
    far_mass_fraction: float
    sigma_localized: bool


@dataclass(frozen=True)
class DissipationAudit:
    """Per-snapshot residuals of the energy-dissipation inequality.

    residual(t) = E(0) - E(t) - (1/2) int slope^2 - (1/2) int speed^2; the
    inequality holds when every residual clears -tol_audit, and the residual
    vanishes under refinement for smooth flows.
    """

    flavor: str
    times: np.ndarray
    residuals: np.ndarray
    slope_integral: float
    speed_integral: float
    min_residual: float

    def satisfied(self, tol_audit):
        return bool(self.min_residual >= -tol_audit)


@dataclass(frozen=True)
class WellPreparednessReport:
    """Distance and energy-gap trend of an eps-family against target data."""

    rows: tuple
    well_prepared: bool


def _window_cells(n, window):
    """Half-width in cells of a centered window of total width ``window``."""
    return int(np.floor(window * n / 2.0 + 1e-12))


def oscillation_profile(f, window):
    """Per-cell max minus min of the field over a centered window."""
    n = f.n
    if window < 1.0 / n - 1e-12:
        raise ValueError("window must be at least one cell wide")
    hw = _window_cells(n, window)
    if hw == 0:
        return np.zeros(n)
    size = 2 * hw + 1
    hi = maximum_filter1d(f.values, size, mode="wrap")
    lo = minimum_filter1d(f.values, size, mode="wrap")
    return hi - lo


def wrinkling_report(f, sigma, eta, delta):
    """Scan close, slope-controlled grid pairs for dichotomy violations.

    The slope budget L = 4 max|f| / delta comes from the mean-value
    construction on a delta window.  The scan is O(n * delta/h): one
    vectorized pass per pair offset, with a running segment maximum of the
    distance to the band.
    """
    if eta <= 0.0 or delta <= 0.0:
        raise ValueError("eta and delta must be positive")
    v = f.values
    n = f.n
    h = 1.0 / n
    L = 4.0 * float(np.max(np.abs(v))) / delta
    slope_ok = np.abs(dx_centered(v, h)) < L
    d = distance_to_sigma(v, sigma)

    profile = oscillation_profile(f, delta)
    osc_cells = profile >= eta
    masses = v * h
    total = float(np.sum(masses))
    osc_mass = float(np.sum(masses[osc_cells]))
    far_mass = float(np.sum(masses[osc_cells & (d > eta)]))

    hw = _window_cells(n, delta)
    d_min = minimum_filter1d(d, 2 * hw + 1, mode="wrap") if hw > 0 else d
    sigma_localized = bool(np.all(d_min[osc_cells] < eta))

    x = (np.arange(n) + 0.5) * h
    k_max = min(int(np.ceil(delta / h - 1e-12)) - 1, n - 1)
    violations = []
    seg_max = d.copy()
    # entry j of twice[k:k + n] is entry (j + k) mod n, for every offset k < n
    d2, v2, ok2 = (np.concatenate((a, a)) for a in (d, v, slope_ok))
    for k in range(1, k_max + 1):
        seg_max = np.maximum(seg_max, d2[k:k + n])
        osc_pair = np.abs(v2[k:k + n] - v)
        bad = slope_ok & ok2[k:k + n] & (osc_pair >= eta) & (seg_max >= eta)
        for j in np.nonzero(bad)[0]:
            violations.append(
                (float(x[j]), float(x[j] + k * h), float(osc_pair[j]), float(seg_max[j]))
            )

    return WrinkleReport(
        eta=float(eta),
        delta=float(delta),
        L=float(L),
        violations=tuple(violations),
        oscillating_mass_fraction=osc_mass / total if total > 0.0 else 0.0,
        far_mass_fraction=far_mass / total if total > 0.0 else 0.0,
        sigma_localized=sigma_localized,
    )


def calibrate_delta(fields, sigma, eta):
    """Largest delta 0.25 * 2**-k, k = 0..6, with zero violations across a family of fields.

    The dichotomy guarantees some positive delta works uniformly in eps but
    gives no value; this sweep makes it measurable.  Violations shrink with
    delta (fewer pairs), so scanning the candidates in decreasing order and
    returning the first clean one yields the largest.  Returns 0.0 when even
    the smallest candidate produces a violation.
    """
    for delta in _DELTA_CANDIDATES:
        if all(not wrinkling_report(f, sigma, eta, delta).violations for f in fields):
            return float(delta)
    return 0.0


def h1_local(f, region):
    """Forward-difference H1 seminorm over a union of intervals in [0, 1]."""
    if len(region) == 2 and np.isscalar(region[0]):
        region = [tuple(region)]
    n = f.n
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    mask = np.zeros(n, dtype=bool)
    for a, b in region:
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("intervals must satisfy 0 <= a < b <= 1")
        mask |= (x >= a - 1e-12) & (x < b - 1e-12)
    grad = dx_forward(f.values, h)
    return float(np.sum(grad[mask] ** 2) * h)


def dissipation_audit(times, energies, slopes, speeds, flavor):
    """Energy-dissipation residuals from plain per-snapshot arrays.

    residual[k] = energies[0] - energies[k] minus half the running sums, up to
    times[k], of the trapezoidal slope integral and the rectangle-rule speed
    integral, linear in the snapshots; speeds[0] is unused.  Non-finite input
    and times not strictly increasing raise ValueError.
    """
    times, energies, slopes, speeds = (np.asarray(a, dtype=float) for a in (times, energies, slopes, speeds))
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0):
        raise ValueError("snapshot times must be finite and strictly increasing")
    if not np.all(np.isfinite(np.concatenate([energies, slopes, speeds]))):
        raise ValueError("energies, slopes and speeds must be finite")
    dt = np.diff(times)
    slope_run = np.concatenate([[0.0], np.cumsum(dt * (slopes[1:] ** 2 + slopes[:-1] ** 2) / 2.0)])
    speed_run = np.concatenate([[0.0], np.cumsum(speeds[1:] ** 2 * dt)])
    residuals = energies[0] - energies - 0.5 * (slope_run + speed_run)
    return DissipationAudit(
        flavor=flavor,
        times=times.copy(),
        residuals=residuals,
        slope_integral=float(slope_run[-1]),
        speed_integral=float(speed_run[-1]),
        min_residual=float(np.min(residuals)),
    )


def energy_dissipation_audit(traj):
    """Check E(0) - E(t) against the dissipated slope and speed integrals.

    Reads (e_eps, slope_eps) for every flavor: a limit run reports the
    relaxed pair in both columns.
    """
    if len(traj.reports) < 2:
        raise ValueError("audit needs at least two snapshots with energy reports")
    energies = [rep.e_eps for rep in traj.reports]
    slopes = [rep.slope_eps for rep in traj.reports]
    return dissipation_audit(traj.times, energies, slopes, traj.speeds(), traj.flavor)


def well_preparedness(f_eps_family, f0, spec):
    """Trend of d2-distance and energy gap for an eps-family of initial data.

    ``f_eps_family`` lists (eps, field) pairs sorted by decreasing eps; the
    gap row is E_eps[f_eps] - E_star[f0].  Well-prepared means both columns
    shrink monotonically and the last row has d2 <= 1e-3 and |gap| <= 1e-3.
    """
    eps_values = [float(e) for e, _ in f_eps_family]
    if not eps_values:
        raise ValueError("family must be nonempty")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("family must be sorted by strictly decreasing eps")
    e_target = energy_star(f0, spec.envelope)
    rows = tuple(
        (eps, w2_periodic(field, f0), energy_eps(field, eps, spec) - e_target)
        for eps, field in f_eps_family
    )
    d2s = np.array([r[1] for r in rows])
    gaps = np.array([r[2] for r in rows])
    trend = bool(np.all(np.diff(d2s) <= 1e-12) and np.all(np.diff(gaps) <= 1e-12))
    verdict = trend and d2s[-1] <= 1e-3 and abs(gaps[-1]) <= 1e-3
    return WellPreparednessReport(rows=rows, well_prepared=bool(verdict))


def u_lambda_membership(A, B, lam, spec):
    """Tangent-line test: W(A) + W'(A)(B - A) + lambda >= W(B)."""
    if A < 0.0 or B < 0.0:
        raise ValueError("A and B must be nonnegative")
    lhs = spec.eval_W(A) + spec.eval_W1(A) * (B - A) + lam
    rhs = spec.eval_W(B)
    slack = 1e-12 * (1.0 + abs(lhs) + abs(rhs))
    return bool(lhs >= rhs - slack)
