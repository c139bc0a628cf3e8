"""Quadratic optimal transport between periodic unit-mass densities.

Everything reduces to quantile functions.  A density on the circle R/Z with
unit mass has a generalized inverse CDF; matching the quantiles of two
densities at levels offset by a scalar theta enumerates every monotone
transport map on the circle, and the squared distance is the minimum over
theta of the mean squared displacement measured on the universal cover.  For
the quadratic cost that mean is convex in theta (Delon, Salomon & Sobolevski,
SIAM J. Appl. Math. 70, 2010), and its derivative is twice the Lebesgue mean
of the displacement.  The optimal map is the gradient of a periodic
potential, so its displacement has mean zero (Cordero-Erausquin, C. R. Acad.
Sci. Paris 329, 1999; McCann, GAFA 11, 2001): the optimal offset is the root
of one nondecreasing scalar function, found by bracketing.  Cell averages
make both quantile functions piecewise linear, so the mean squared
displacement and the mean displacement are both integrated exactly and the
distance carries no level-sampling error.

Conventions: cells are uniform with width h = 1/n, values are cell averages,
the CDF is piecewise linear through the cell edges, and flat stretches
(vacuum) invert to their left endpoint.  An ordered particle configuration
is a plain array of m equal-mass positions on the universal cover,
non-decreasing and spanning less than one period: `to_quantiles` places one
at a density's mid-level quantiles, and `to_density`, the one
particle-to-cell map, averages one back onto a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq


@dataclass(frozen=True)
class DensityField:
    """Cell-averaged density on the uniform periodic grid of [0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 4:
            raise ValueError("density needs a 1D array with at least 4 cells")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        if float(v.min()) < -1e-12:
            raise ValueError(f"negative density value {v.min():.3e}")
        v = np.where(v < 0.0, 0.0, v)
        mass = float(v.mean())
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"mass {mass!r} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.size

    @property
    def h(self):
        return 1.0 / self.values.size

    def mass(self):
        return float(self.values.mean())

    def cell_centers(self):
        n = self.n
        return (np.arange(n) + 0.5) / n

    @classmethod
    def normalized(cls, values):
        """Clamp negatives to zero and rescale to unit mass."""
        v = np.maximum(np.asarray(values, dtype=float), 0.0)
        m = v.mean()
        if m <= 0.0:
            raise ValueError("cannot normalize a nonpositive field")
        return cls(v / m)


def _cdf_edges(f):
    cum = np.concatenate([[0.0], np.cumsum(f.values) * f.h])
    cum /= cum[-1]
    return cum


def quantiles_at(f, levels, cum=None):
    """Generalized inverse CDF at levels in (0, 1), left-endpoint convention."""
    if cum is None:
        cum = _cdf_edges(f)
    t = np.asarray(levels, dtype=float)
    idx = np.searchsorted(cum, t, side="left")
    idx = np.clip(idx, 1, f.n)
    cell = idx - 1
    dens = f.values[cell]
    inside = np.where(dens > 0.0, (t - cum[cell]) / np.where(dens > 0.0, dens, 1.0), 0.0)
    return cell * f.h + inside


def to_quantiles(f, m):
    """Positions of the m mid-level quantiles (k + 1/2)/m of f on the universal cover."""
    if m < 2:
        raise ValueError("need at least two quantile levels")
    levels = (np.arange(int(m)) + 0.5) / int(m)
    return quantiles_at(f, levels)


def to_density(positions, n):
    """Exact cell averages on an n-cell grid of the particle density of an
    ordered particle configuration.

    The particle density is piecewise constant: mass 1/m between consecutive
    positions, the last gap wrapping across the period.  Its CDF is piecewise
    linear through the positions, so the cell masses are differences of that
    CDF at the cell edges; mass is conserved exactly and the round trip
    through ``to_quantiles`` costs O(1/m + h) in L1 for Lipschitz densities.
    """
    x = np.asarray(positions, dtype=float)
    if np.any(np.diff(x) < -1e-13):
        raise ValueError("particle positions must be non-decreasing")
    if x[-1] - x[0] >= 1.0:
        raise ValueError("particle positions span a full period or more")
    n = int(n)
    nodes = np.append(x, x[0] + 1.0)
    offset = np.arange(n + 1) / n - x[0]
    periods = np.floor(offset)
    cdf = periods + np.interp(x[0] + (offset - periods), nodes, np.arange(x.size + 1) / x.size)
    values = np.diff(cdf) * n
    return DensityField(values / values.mean())


class _CoverQuantiles:
    """Evaluate a density's quantile function on the universal cover."""

    def __init__(self, f):
        self.f = f
        self.cum = _cdf_edges(f)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        period = np.floor(t)
        frac = t - period
        eps = 1e-15
        frac = np.clip(frac, eps, 1.0 - eps)
        return quantiles_at(self.f, frac, cum=self.cum) + period


def _offset_cost(psi_a, psi_b, theta):
    """Mean squared displacement of the level-offset-theta map, integrated exactly.

    Between consecutive breakpoints (the CDF edges of mu shifted by +theta/2
    and of nu by -theta/2, mod 1) both quantile functions are linear, so
    two-point Gauss quadrature is exact on every piece; its nodes are interior,
    so the jumps across vacuum are never evaluated.
    """
    half = 0.5 * theta
    edges = np.sort(
        np.concatenate([[0.0, 1.0], np.mod(psi_a.cum + half, 1.0), np.mod(psi_b.cum - half, 1.0)])
    )
    width = np.diff(edges)
    mid = edges[:-1] + 0.5 * width
    node = width / (2.0 * np.sqrt(3.0))  # Gauss nodes: mid +- half-width / sqrt(3)
    s = np.concatenate([mid - node, mid + node])
    d2 = (psi_b(s + half) - psi_a(s - half)) ** 2
    return float(0.5 * np.dot(width, d2[: width.size] + d2[width.size :]))


def _mean_displacement(psi_a, psi_b, theta):
    """Lebesgue mean g(theta) of the displacement B(F_mu(x) + theta) - x, integrated exactly.

    A and B are the cover quantile functions of mu and nu; g is half the
    derivative of the offset cost.  The integrand is linear between the cell
    edges of mu and the points A((cum_nu - theta) mod 1), where F_mu + theta
    crosses an edge of nu's CDF, so the midpoint rule is exact on every piece
    and never evaluates a jump across vacuum.
    """
    grid = np.arange(psi_a.f.n + 1) * psi_a.f.h
    edges = np.sort(np.concatenate([grid, psi_a(np.mod(psi_b.cum[:-1] - theta, 1.0))]))
    width = np.diff(edges)
    level = np.interp(edges[:-1] + 0.5 * width, grid, psi_a.cum)
    return float(np.dot(width, psi_b(level + theta))) - 0.5


def _optimal_offset(mu, nu):
    """Level offset minimizing the offset cost, and that cost.

    The optimal map on the circle is the gradient of a periodic potential, so
    its displacement has Lebesgue mean zero (Cordero-Erausquin 1999; McCann
    2001): the offset is the root of the nondecreasing g = C'/2 of
    `_mean_displacement`.  Because g(theta +- 1) = g(theta) +- 1, the bracket
    grown geometrically from the secant guess -g(0) never needs to pass
    [-1, 1], where g is known from g(0).  A jump of g (a vacuum edge of mu
    meeting one of nu) is a kink of C and is found by bracketing like any
    root.
    """
    psi_a, psi_b = _CoverQuantiles(mu), _CoverQuantiles(nu)
    g0 = _mean_displacement(psi_a, psi_b, 0.0)
    if g0 == 0.0:
        return 0.0, _offset_cost(psi_a, psi_b, 0.0)
    known = {0.0: g0, 1.0: g0 + 1.0, -1.0: g0 - 1.0}

    def g(theta):
        if theta not in known:
            known[theta] = _mean_displacement(psi_a, psi_b, theta)
        return known[theta]

    near, step = 0.0, -g0
    while True:
        far = float(np.clip(step, -1.0, 1.0))
        if np.sign(g(far)) != np.sign(g0):
            break
        near, step = far, 2.0 * step
    theta = brentq(g, min(near, far), max(near, far), xtol=1e-15, rtol=8.9e-16)
    # a root a rounding error from 0 must not cost more than 0; identical densities give exactly 0.0
    cost0 = _offset_cost(psi_a, psi_b, 0.0)
    cost = _offset_cost(psi_a, psi_b, theta) if theta != 0.0 else cost0
    if cost0 <= cost:
        return 0.0, cost0
    return theta, cost


def w2_periodic(mu, nu):
    """Quadratic transport distance between two periodic densities.

    The mass offset enters symmetrically (levels shifted by +-theta/2), so
    swapping the arguments mirrors the offset cost exactly.
    """
    _, cost = _optimal_offset(mu, nu)
    return float(np.sqrt(cost))


def geodesic(mu, nu, t):
    """Displacement interpolation between two densities at time t in [0, 1].

    The interpolant is the particle density (`to_density`) of 4n quantile
    particles, averaged over the n cells of the finer grid, n = max(mu.n, nu.n).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation time must lie in [0, 1]")
    n = max(mu.n, nu.n)
    levels = (np.arange(4 * n) + 0.5) / (4 * n)
    theta, _ = _optimal_offset(mu, nu)
    psi_a, psi_b = _CoverQuantiles(mu), _CoverQuantiles(nu)
    xa = psi_a(levels - 0.5 * theta)
    xb = psi_b(levels + 0.5 * theta)
    return to_density((1.0 - t) * xa + t * xb, n)


def metric_speed(traj, k):
    """Divided-difference speed of a trajectory between snapshots k and k+1."""
    dt = traj.times[k + 1] - traj.times[k]
    if dt <= 0.0:
        raise ValueError("snapshot times must be strictly increasing")
    return w2_periodic(traj.snapshots[k], traj.snapshots[k + 1]) / dt
