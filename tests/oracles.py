"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's code paths: quantiles come from
np.interp on the piecewise-linear CDF, and the circle distance is minimized
by exhaustive assignment (all cyclic shifts of sorted particles, optionally
cross-checked by the Hungarian algorithm over every permutation).  The
particle density's cell averages sum gap-cell overlaps one pair at a time,
the piecewise-linear reconstruction's CDF sums whole cells one at a time,
the gap movement functional and its positive-part Hessian are written term
by term in loops and assembled densely, the movement step is an L-BFGS-B
search or a dense Newton iteration on that functional, the guarded
potentials evaluate through Polynomial.__call__, the stepping
matrices are chains of scipy.sparse sums and products, the periodic
convolution is a direct sum of shifted copies, and the implicit step's
Newton iteration factorises a fresh Jacobian, assembled from COO, at
every iterate.  The transport offset oracle shares the library's exact
offset cost but finds its minimum by a bounded Brent search plus a scan of
the kinks near it, not by the root of the mean displacement.  The
dissipation audit re-integrates the whole prefix for every snapshot.
"""

import numpy as np
from numpy.polynomial import Polynomial
from scipy.optimize import linear_sum_assignment, minimize, minimize_scalar
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chflow.solvers import StepFailure
from chflow.wasserstein1d import _CoverQuantiles, _offset_cost


def inverse_cdf(values, levels):
    values = np.asarray(values, dtype=float)
    n = values.size
    cum = np.concatenate([[0.0], np.cumsum(values) / n])
    cum /= cum[-1]
    edges = np.arange(n + 1) / n
    return np.interp(levels, cum, edges)


def circle_dist(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % 1.0
    return np.minimum(d, 1.0 - d)


def w2_circle_cyclic(fa_values, fb_values, m=200):
    """Min over the m cyclic monotone assignments of sorted mid-quantiles."""
    levels = (np.arange(m) + 0.5) / m
    xa = inverse_cdf(fa_values, levels)
    xb = inverse_cdf(fb_values, levels)
    best = np.inf
    for r in range(m):
        cost = float(np.mean(circle_dist(xa, np.roll(xb, -r)) ** 2))
        if cost < best:
            best = cost
    return float(np.sqrt(best))


def w2_circle_hungarian(fa_values, fb_values, m=120):
    """Optimal assignment over all m! pairings, geodesic-squared cost."""
    levels = (np.arange(m) + 0.5) / m
    xa = inverse_cdf(fa_values, levels)
    xb = inverse_cdf(fb_values, levels)
    cost = circle_dist(xa[:, None], xb[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def smooth_positive_field(rng, n):
    x = (np.arange(n) + 0.5) / n
    a1, a2 = rng.uniform(0.05, 0.45), rng.uniform(0.0, 0.35)
    if a1 + a2 > 0.85:
        a2 = 0.85 - a1
    p1, p2 = rng.uniform(0.0, 1.0, size=2)
    v = 1.0 + a1 * np.cos(2 * np.pi * (x - p1)) + a2 * np.cos(4 * np.pi * (x - p2))
    return v / v.mean()


def bump_field(rng, n, width=None, floor=0.05):
    x = (np.arange(n) + 0.5) / n
    width = width or rng.uniform(0.05, 0.15)
    center = rng.uniform(0.0, 1.0)
    d = circle_dist(x, center)
    v = floor + np.exp(-0.5 * (d / width) ** 2)
    return v / v.mean()


def vacuum_field(rng, n):
    x = (np.arange(n) + 0.5) / n
    center = rng.uniform(0.0, 1.0)
    v = np.maximum(0.0, np.cos(2 * np.pi * (x - center))) ** 2
    return v / v.mean()


def _kink_offsets(cum_a, cum_b, theta, radius):
    """Offsets within radius of theta at which an edge of mu meets an edge of nu."""
    found = []
    for lift in (-1.0, 0.0, 1.0):
        lo = np.searchsorted(cum_b, cum_a + (theta - radius - lift), side="left")
        hi = np.searchsorted(cum_b, cum_a + (theta + radius - lift), side="right")
        counts = hi - lo
        i = np.repeat(np.arange(cum_a.size), counts)
        j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts) + lo[i]
        found.append((cum_b[j] - cum_a[i]) + lift)
    kinks = np.unique(np.concatenate(found))
    return kinks[(np.abs(kinks - theta) <= radius) & (np.abs(kinks) <= 1.0)]


def optimal_offset_brent(mu, nu):
    """(offset, cost) by a bounded Brent search of the convex offset cost over
    [-1, 1], then every kink within the search's stopping radius, then theta = 0."""
    psi_a, psi_b = _CoverQuantiles(mu), _CoverQuantiles(nu)
    xatol = 1e-12
    res = minimize_scalar(
        lambda th: _offset_cost(psi_a, psi_b, th), bounds=(-1.0, 1.0), method="bounded", options={"xatol": xatol}
    )
    theta, cost = float(res.x), float(res.fun)
    radius = 2.0 * (np.sqrt(2.2e-16) * abs(theta) + xatol / 3.0)
    for kink in _kink_offsets(psi_a.cum, psi_b.cum, theta, radius):
        kink_cost = _offset_cost(psi_a, psi_b, float(kink))
        if kink_cost < cost:
            theta, cost = float(kink), kink_cost
    cost0 = _offset_cost(psi_a, psi_b, 0.0)
    if cost0 <= cost:
        return 0.0, cost0
    return theta, cost


def particle_cell_averages(positions, n):
    """Cell averages of the density putting mass 1/m on every gap between
    consecutive positions (the last one wrapping), by summing the overlap of
    every gap with every cell, one pair at a time."""
    x = [float(v) for v in positions]
    m = len(x)
    ends = x[1:] + [x[0] + 1.0]
    values = np.zeros(n)
    for i in range(m):
        lo, hi = x[i], ends[i]
        for j in range(n):
            for lift in (-2, -1, 0, 1, 2):
                left, right = j / n + lift, (j + 1) / n + lift
                overlap = min(hi, right) - max(lo, left)
                if overlap > 0.0:
                    values[j] += overlap / (hi - lo) / m * n
    return values


def piecewise_linear_cdf(values, x):
    """CDF at x in [0, 1) of the reconstruction that is v_j + s_j (t - 1/2) on
    cell j (t in [0, 1] across the cell, v normalised to mean 1), with the
    centred slope s_j = (v_{j+1} - v_{j-1}) / 2 clipped to [-2 v_j, 2 v_j];
    whole cells summed one at a time, the partial cell integrated in closed form."""
    v = [float(a) for a in np.asarray(values, dtype=float) / np.mean(values)]
    n = len(v)
    out = []
    for point in x:
        j = min(int(point * n), n - 1)
        s = min(max(0.5 * (v[(j + 1) % n] - v[j - 1]), -2.0 * v[j]), 2.0 * v[j])
        t = point * n - j
        out.append((sum(v[:j]) + (v[j] - 0.5 * s) * t + 0.5 * s * t * t) / n)
    return np.array(out)


def _gap_state(d, anchor, spec):
    m = len(d)
    gaps = [(anchor[(i + 1) % m] - anchor[i]) + (d[(i + 1) % m] - d[i]) for i in range(m)]
    gaps[-1] += 1.0
    gaps = np.array(gaps)
    rho = 1.0 / (m * gaps)
    return gaps, rho, spec.eval_W(rho), spec.eval_W1(rho), spec.eval_W2(rho)


def gap_objective(d, anchor, tau_eff, eps, spec):
    """Value and gradient of 1/2 |d|^2 + tau m E(anchor + d), E the gap energy
    sum g W(1/(m g)) + eps^2 sum (rho_{i+1} - rho_i)^2 / (g_i + g_{i+1}),
    term by term; the value is inf where a gap is not positive."""
    m = len(d)
    gaps, rho, w, w1, _ = _gap_state(d, anchor, spec)
    if np.min(gaps) <= 0.0:
        return np.inf, np.zeros(m)
    energy = 0.0
    de = np.zeros(m)
    for i in range(m):
        energy += gaps[i] * w[i]
        de[i] += w[i] - rho[i] * w1[i]
        k = (i + 1) % m
        r, s, span = rho[i], rho[k], gaps[i] + gaps[k]
        energy += eps * eps * (s - r) ** 2 / span
        de[i] += eps * eps * (2.0 * (s - r) * m * r * r / span - (s - r) ** 2 / span**2)
        de[k] += eps * eps * (-2.0 * (s - r) * m * s * s / span - (s - r) ** 2 / span**2)
    grad = np.array([d[j] + tau_eff * m * (de[j - 1] - de[j]) for j in range(m)])
    return 0.5 * float(np.dot(d, d)) + tau_eff * m * energy, grad


def gap_positive_hessian(d, anchor, tau_eff, eps, spec):
    """Dense H+ = I + tau m G^T B+ G of the gap objective, G the cyclic gap
    difference, B+ the gap curvature with W'' clipped at zero and each eps
    term's 2 x 2 block (written out from its second partial derivatives)
    replaced by its positive part through an eigendecomposition."""
    m = len(d)
    _, rho, _, _, w2 = _gap_state(d, anchor, spec)
    gaps = 1.0 / (m * rho)
    curv = np.zeros((m, m))
    for i in range(m):
        curv[i, i] += m * rho[i] ** 3 * max(w2[i], 0.0)
        k = (i + 1) % m
        r, s, span = rho[i], rho[k], gaps[i] + gaps[k]
        jump, da, db = s - r, m * r * r, -m * s * s
        daa, dbb = -2.0 * m * m * r**3, 2.0 * m * m * s**3
        aa = 2.0 * da * da / span + 2.0 * jump * daa / span - 4.0 * jump * da / span**2 + 2.0 * jump**2 / span**3
        bb = 2.0 * db * db / span + 2.0 * jump * dbb / span - 4.0 * jump * db / span**2 + 2.0 * jump**2 / span**3
        ab = 2.0 * da * db / span - 2.0 * jump * (da + db) / span**2 + 2.0 * jump**2 / span**3
        lam, vec = np.linalg.eigh(eps * eps * np.array([[aa, ab], [ab, bb]]))
        block = vec @ np.diag(np.maximum(lam, 0.0)) @ vec.T
        for p, row in enumerate((i, k)):
            for q, col in enumerate((i, k)):
                curv[row, col] += block[p, q]
    diff = np.zeros((m, m))
    for i in range(m):
        diff[i, i] = -1.0
        diff[i, (i + 1) % m] = 1.0
    return np.eye(m) + tau_eff * m * (diff.T @ curv @ diff)


def minimize_lbfgs(objective, m, tol, max_iter, scale):
    """The movement step on the displacement d by L-BFGS-B from d = 0,
    returning the stay-put d = 0 when the search ends above it.  L-BFGS-B's
    first step has unit length in its variable, which would cross particles,
    so it searches on d / scale."""

    def scaled(y):
        value, grad = objective(scale * y)
        return value, scale * grad

    res = minimize(scaled, np.zeros(m), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "maxcor": 20, "ftol": 0.0, "gtol": scale * tol})
    d = scale * res.x
    value, grad = objective(d)
    anchor_value, _ = objective(np.zeros(m))
    if not value <= anchor_value:
        return np.zeros(m), {"objective": anchor_value, "grad_scaled": float("inf"), "iterations": int(res.nit)}
    return d, {"objective": value, "grad_scaled": float(np.max(np.abs(grad))), "iterations": int(res.nit)}


def newton_dense(objective, hessian, m, tol, max_iter):
    """The movement step on the displacement d by Newton's method from d = 0:
    each direction solves the dense H+ system with np.linalg.solve, and the
    step is halved until the objective decreases."""
    d = np.zeros(m)
    value, grad = objective(d)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            break
        step = np.linalg.solve(hessian(d), -grad)
        for k in range(60):
            trial_value, trial_grad = objective(d + 0.5**k * step)
            if trial_value < value:
                break
        else:
            break
        d, value, grad = d + 0.5**k * step, trial_value, trial_grad
    return d, {"objective": value, "grad_scaled": float(np.max(np.abs(grad)))}


def guarded_polynomial(poly, lo, hi):
    """W, W', W'' of a Polynomial, continued quadratically outside [lo, hi],
    evaluated through Polynomial.__call__."""
    p0, p1, p2 = poly, poly.deriv(1), poly.deriv(2) if poly.degree() >= 2 else Polynomial([0.0])
    if poly.degree() < 1:
        p1 = Polynomial([0.0])

    def w(x):
        x = np.asarray(x, dtype=float)
        t = np.clip(x, lo, hi)
        d = x - t
        return p0(t) + p1(t) * d + 0.5 * p2(t) * d * d

    def w1(x):
        x = np.asarray(x, dtype=float)
        t = np.clip(x, lo, hi)
        return p1(t) + p2(t) * (x - t)

    def w2(x):
        x = np.asarray(x, dtype=float)
        return p2(np.clip(x, lo, hi))

    return w, w1, w2


def cyclic_tridiag(lower, diag, upper):
    """Sparse periodic tridiagonal with given per-row bands, assembled from COO."""
    n = diag.size
    j = np.arange(n)
    rows = np.concatenate([j, j, j])
    cols = np.concatenate([(j - 1) % n, j, (j + 1) % n])
    return sp.csr_matrix((np.concatenate([lower, diag, upper]), (rows, cols)), shape=(n, n))


def mobility_matrix(m, h):
    """Sparse p -> Dx(m Dx p) for face coefficients m, built with np.roll."""
    m_minus = np.roll(m, 1)
    return cyclic_tridiag(m_minus / h**2, -(m + m_minus) / h**2, m / h**2)


def _laplacian_matrix(n, h):
    one = np.ones(n)
    return cyclic_tridiag(one / h**2, -2.0 * one / h**2, one / h**2)


def flux_jacobian_sparse(m, c, stiffness, h, dt, theta):
    """I - dt theta M (diag(c) - stiffness L) as a chain of sparse sums and products."""
    linearized = sp.diags(c) - stiffness * _laplacian_matrix(c.size, h)
    return (sp.identity(c.size, format="csr") - dt * theta * (mobility_matrix(m, h) @ linearized)).tocsc()


def limit_jacobian_sparse(cond, h, dt):
    """I - dt L diag(cond) as a sparse product."""
    return (sp.identity(cond.size, format="csr") - dt * (_laplacian_matrix(cond.size, h) @ sp.diags(cond))).tocsc()


def convolve_direct(values, kernel_values, h):
    """Circular convolution h * sum_m k[m] f[j-m] as a sum of rolled copies."""
    out = np.zeros_like(values, dtype=float)
    for m in np.nonzero(kernel_values)[0]:
        out += kernel_values[m] * np.roll(values, m)
    return out * h


def kernel_moments(kern, n_samples):
    """(mass, k0) of a kernel profile by the trapezoid rule on n_samples points of [-1/2, 1/2]."""
    xs = np.linspace(-0.5, 0.5, int(n_samples))
    vals = kern.profile(xs)
    return float(np.trapezoid(vals, xs)), 0.5 * float(np.trapezoid(xs**2 * vals, xs))


def bands_sparse(bands):
    """CSC matrix with entry (j, (j+o) mod n) from row o + w of the (2w+1, n) bands, from COO."""
    n = bands.shape[1]
    width = bands.shape[0] // 2
    rows = np.tile(np.arange(n), 2 * width + 1)
    cols = (rows + np.repeat(np.arange(-width, width + 1), n)) % n
    return sp.csc_matrix((bands.ravel(), (rows, cols)), shape=(n, n))


def newton_fresh_jacobian(vals, residual_fn, jacobian_fn, tol, held=None, dt=None):
    """Full-step Newton with a Jacobian factorised afresh at every iterate,
    under the library's stopping rule and cap: take at least one step, accept
    f once its residual or its simplified correction is below
    tol * (1 + max |f|); StepFailure when a step neither converges nor lowers
    the residual, or after 50 steps.  A run's held factor is ignored."""
    f = vals.copy()
    r = residual_fn(f)
    norm = float(np.max(np.abs(r)))
    for _ in range(50):
        lu = spla.splu(bands_sparse(jacobian_fn(f)))
        f = f - lu.solve(r)
        r = residual_fn(f)
        norm_new = float(np.max(np.abs(r)))
        scale = tol * (1.0 + float(np.max(np.abs(f))))
        if norm_new < scale or float(np.max(np.abs(lu.solve(r)))) < scale:
            return f
        if not norm_new < norm:
            raise StepFailure(f"Newton step did not lower the residual {norm:.3e}")
        norm = norm_new
    raise StepFailure("Newton did not converge")


def dissipation_prefix_loop(times, energies, slopes, speeds):
    """Residuals, slope integral and speed integral of the energy-dissipation
    audit, with np.trapezoid and the speed sum re-run over every prefix."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    slopes_sq = np.array([float(s) ** 2 for s in slopes])
    residuals = np.zeros(times.size)
    slope_term = speed_term = 0.0
    for k in range(1, times.size):
        slope_term = np.trapezoid(slopes_sq[: k + 1], times[: k + 1])
        speed_term = float(np.sum(speeds[1 : k + 1] ** 2 * np.diff(times[: k + 1])))
        residuals[k] = energies[0] - energies[k] - 0.5 * (slope_term + speed_term)
    return residuals, float(slope_term), float(speed_term)
