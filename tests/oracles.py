"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's code paths: quantiles come from
np.interp on the piecewise-linear CDF, and the circle distance is minimized
by exhaustive assignment (all cyclic shifts of sorted particles, optionally
cross-checked by the Hungarian algorithm over every permutation).  The
particle deposit is the masked B-spline with an np.add.at scatter, the
movement Hessian is assembled densely from an n x m deposit Jacobian, the
movement step is the L-BFGS-B search the Newton solve replaced, the guarded
potentials evaluate through Polynomial.__call__, the stepping
matrices are chains of scipy.sparse sums and products, the periodic
convolution is a direct sum of shifted copies, and the implicit step's
Newton iteration factorises a fresh Jacobian, assembled from COO, at
every iterate.
"""

import numpy as np
from numpy.polynomial import Polynomial
from scipy.optimize import linear_sum_assignment, minimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chflow.solvers import StepFailure


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


def bspline_masked(t):
    """Cubic B-spline on [-2, 2] by boolean masks, one branch at a time."""
    a = np.abs(t)
    out = np.zeros_like(a)
    inner = a < 1.0
    outer = (a >= 1.0) & (a < 2.0)
    ai = a[inner]
    out[inner] = (4.0 - 6.0 * ai * ai + 3.0 * ai**3) / 6.0
    ao = a[outer]
    out[outer] = (2.0 - ao) ** 3 / 6.0
    return out


def bspline_d_masked(t):
    a = np.abs(t)
    s = np.sign(t)
    out = np.zeros_like(a)
    inner = a < 1.0
    outer = (a >= 1.0) & (a < 2.0)
    out[inner] = s[inner] * a[inner] * (9.0 * a[inner] - 12.0) / 6.0
    out[outer] = -s[outer] * (2.0 - a[outer]) ** 2 / 2.0
    return out


def deposit_masked(positions, n, p_cells):
    """Particle deposit over 4p+2 cells per particle, scattered with np.add.at."""
    x = np.asarray(positions, dtype=float) % 1.0
    base = np.floor(x * n - 0.5).astype(int)
    offsets = np.arange(-2 * p_cells, 2 * p_cells + 2)
    idx = base[:, None] + offsets[None, :]
    t = ((idx + 0.5) / n - x[:, None]) * (n / p_cells)
    idx %= n
    weights = bspline_masked(t) * (n / p_cells) / x.size
    vals = np.zeros(n)
    np.add.at(vals, idx, weights)
    return vals, idx, t


def movement_objective_masked(x, anchor, tau_eff, eps, spec, n, p_cells):
    """Value and gradient of the movement functional on the masked deposit,
    with the energy and chemical potential written out with np.roll."""
    m = x.size
    h = 1.0 / n
    delta = (x - anchor + 0.5) % 1.0 - 0.5
    vals, idx, t = deposit_masked(x, n, p_cells)
    grad_f = (np.roll(vals, -1) - vals) / h
    energy = float(np.sum(0.5 * eps * eps * grad_f * grad_f + spec.eval_W(vals)) * h)
    value = float(np.mean(delta * delta)) + 2.0 * tau_eff * energy
    lap = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / (h * h)
    p = spec.eval_W1(vals) - eps * eps * lap
    kernel_d = bspline_d_masked(t) * (n / p_cells) ** 2 / m
    de_dx = -h * np.sum(p[idx] * kernel_d, axis=1)
    return value, 2.0 * delta / m + 2.0 * tau_eff * de_dx


def bspline_d2_masked(t):
    a = np.abs(t)
    out = np.zeros_like(a)
    inner = a < 1.0
    outer = (a >= 1.0) & (a < 2.0)
    out[inner] = 3.0 * a[inner] - 2.0
    out[outer] = 2.0 - a[outer]
    return out


def positive_part_hessian(x, tau_eff, eps, spec, n, p_cells):
    """Dense H+ of the movement functional, and which particles its clipping touches.

    H+ = (2/m) I + 2 tau [J^T (h W''+ + (eps^2/h) D^T D) J + diag(D2+)] with the
    deposit Jacobian J built as a dense n x m array from nearest-image offsets
    (needs 4p < n).  A particle counts as clipped when W'' < 0 on a cell it
    touches or D2 < 0 at it.
    """
    m = x.size
    h = 1.0 / n
    centres = (np.arange(n) + 0.5) / n
    t = ((centres[:, None] - np.asarray(x)[None, :] + 0.5) % 1.0 - 0.5) * (n / p_cells)
    jac = -bspline_d_masked(t) * (n / p_cells) ** 2 / m
    f = bspline_masked(t).sum(axis=1) * (n / p_cells) / m
    mu = spec.eval_W1(f) - eps * eps * (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / (h * h)
    d2 = h * (mu[:, None] * bspline_d2_masked(t)).sum(axis=0) * (n / p_cells) ** 3 / m
    w2 = spec.eval_W2(f)
    diff = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
    inner = h * np.diag(np.maximum(w2, 0.0)) + (eps * eps / h) * (diff.T @ diff)
    hess = (2.0 / m) * np.eye(m) + 2.0 * tau_eff * (jac.T @ inner @ jac + np.diag(np.maximum(d2, 0.0)))
    touches_clipped = (np.abs(t) < 2.0)[w2 < 0.0].any(axis=0)
    return hess, touches_clipped | (d2 < 0.0)


def minimize_lbfgs(x0, objective, tol_scaled, max_iter):
    """The movement step by L-BFGS-B, projected and guarded as the Newton solve is."""
    anchor = np.asarray(x0, dtype=float)
    m = anchor.size
    res = minimize(
        objective,
        anchor,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxcor": 20, "ftol": 0.0, "gtol": 2.0 * tol_scaled / m},
    )
    v = np.sort(np.asarray(res.x, dtype=float))
    floors = np.arange(m) * 1e-10
    candidate = np.maximum.accumulate(v - floors) + floors
    span = candidate[-1] - candidate[0]
    if span > 1.0 - 1e-10:
        candidate = candidate[0] + (candidate - candidate[0]) * (1.0 - m * 1e-10) / span
    value, grad = objective(candidate)
    anchor_value, _ = objective(anchor)
    if value > anchor_value:
        return anchor.copy(), {"objective": anchor_value, "grad_scaled": float("inf"), "iterations": int(res.nit)}
    return candidate, {"objective": value, "grad_scaled": 0.5 * m * float(np.max(np.abs(grad))), "iterations": int(res.nit)}


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


def diffusion_system_sparse(m, h, dt):
    """I - dt Dx(m Dx .) as a sparse difference."""
    return (sp.identity(m.size, format="csr") - dt * mobility_matrix(m, h)).tocsc()


def convolve_direct(values, kernel_values, h):
    """Circular convolution h * sum_m k[m] f[j-m] as a sum of rolled copies."""
    out = np.zeros_like(values, dtype=float)
    for m in np.nonzero(kernel_values)[0]:
        out += kernel_values[m] * np.roll(values, m)
    return out * h


def bands_sparse(bands):
    """CSC matrix with entry (j, (j+o) mod n) from row o + w of the (2w+1, n) bands, from COO."""
    n = bands.shape[1]
    width = bands.shape[0] // 2
    rows = np.tile(np.arange(n), 2 * width + 1)
    cols = (rows + np.repeat(np.arange(-width, width + 1), n)) % n
    return sp.csc_matrix((bands.ravel(), (rows, cols)), shape=(n, n))


def newton_fresh_jacobian(vals, residual_fn, jacobian_fn, tol, max_iter):
    """Full-step Newton with a Jacobian factorised afresh at every iterate,
    under the library's stopping rule: accept f once its residual or its
    simplified correction is below tol * (1 + max |f|); StepFailure when a
    step neither converges nor lowers the residual."""
    f = vals.copy()
    r = residual_fn(f)
    norm = float(np.max(np.abs(r)))
    if norm < tol * (1.0 + float(np.max(np.abs(f)))):
        return f
    for _ in range(max_iter):
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
