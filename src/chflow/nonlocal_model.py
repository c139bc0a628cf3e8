"""Kernel-aggregation model: non-local velocity, its energy, local comparison.

The model replaces the local interfacial term with a mollified attraction,
∂tν = ∂x(ν ∂x(W'(ν) + ν - K_eps*ν)), W the run's PotentialSpec; expanding
K_eps*ν - ν = eps²k0 νxx + ..., whatever W is, recovers the regularized
local flow with eps_eff² = eps² k0, which is what compare_local_nonlocal
measures.  The model is a flow triple that `solvers.simulate_cells` runs,
as it runs the local flows, its step backward Euler through `implicit_stepper`,
so one run serves as the record and as the comparison's nonlocal side.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .functionals import EnergyReport, energy_star
from .solvers import SolverConfig, implicit_stepper, once_per_array, simulate_cells, simulate_eps, step_cells
from .wasserstein1d import DensityField, w2_periodic

__all__ = [
    "KernelSpec",
    "ComparisonReport",
    "make_kernel",
    "kernel_on_grid",
    "convolve_periodic",
    "step_nonlocal",
    "simulate_nonlocal",
    "energy_nonlocal",
    "compare_local_nonlocal",
]


@dataclass(frozen=True)
class KernelSpec:
    """Even, compactly supported, unit-mass interaction profile on [-1/2, 1/2].

    ``k0`` is the Taylor coefficient of the mollification defect,
    K_eps*f - f = eps² k0 f'' + O(eps⁴), i.e. half the second moment.
    """

    profile: callable
    k0: float
    name: str


def _bump_raw(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 0.5
    u = np.where(inside, 1.0 - (2.0 * x) ** 2, 1.0)
    return np.where(inside, np.exp(-1.0 / u), 0.0)


def make_kernel():
    """The bump kernel exp(-1/(1 - 4x^2)); normalization and moment by quadrature."""
    xs = np.linspace(-0.5, 0.5, 8193)
    raw = _bump_raw(xs)
    norm = float(np.trapezoid(raw, xs))

    def profile(x):
        return _bump_raw(x) / norm

    k0 = 0.5 * float(np.trapezoid(xs**2 * raw, xs)) / norm
    return KernelSpec(profile=profile, k0=k0, name="bump")


_kernel = functools.cache(make_kernel)  # the model's one kernel, built on first use, not at import


def kernel_on_grid(eps, n):
    """Periodic samples of K_eps = profile(./eps)/eps, renormalized exactly.

    Entry j holds the kernel at signed wrap offset j*h (fft layout); the
    discrete mass sum(k)*h is forced to 1 so convolution preserves mass and
    the seminorm identity holds without quadrature slack.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("kernel scale must satisfy 0 < eps <= 1")
    if eps * n < 4.0:
        raise ValueError("kernel support must span at least 4 cells")
    h = 1.0 / n
    idx = np.arange(n)
    offsets = np.where(idx <= n // 2, idx, idx - n) * h
    vals = _kernel().profile(offsets / eps) / eps
    return vals / (np.sum(vals) * h)


def convolve_periodic(values, kernel_hat, h):
    """Circular convolution h * sum_m k[m] f[j-m], by FFT; kernel_hat is np.fft.rfft(k)."""
    return np.fft.irfft(np.fft.rfft(values) * kernel_hat, values.size) * h


def _nonlocal_flow(cfg, spec, h, caller):
    """Flow triple of the model by backward Euler, mu = W' + v - K_eps*v the first
    variation of its energy, once cfg has eps > 0 and theta 1.

    The Jacobian replaces the convolution by its thin-interface surrogate
    I + eps^2 k0 Dxx, so c = W'' and the linear solves stay banded; the
    residual uses the exact kernel, so the fixed point is the true
    backward-Euler state and the surrogate only affects the iteration count.
    The energy check reuses the K_eps*v its last residual took (`once_per_array`).
    """
    if cfg.eps <= 0.0 or cfg.theta_scheme != 1.0:
        raise ValueError(f"{caller} needs eps > 0 and backward Euler (theta_scheme = 1)")
    k_hat = np.fft.rfft(kernel_on_grid(cfg.eps, cfg.n))
    conv = once_per_array(lambda v: convolve_periodic(v, k_hat, h))

    def mu(v):
        return spec.eval_W1(v) + v - conv(v)

    def energy_of(vals):
        return _energy_values(vals, h, conv(vals), spec)[0]

    def make_report(snap):
        return EnergyReport(
            e_eps=energy_of(snap.values), e_star=energy_star(snap, spec.envelope), slope_eps=0.0, slope_star=0.0
        )

    advance = implicit_stepper(h, cfg.newton_tol, mu, spec.eval_W2, cfg.eps * cfg.eps * _kernel().k0)
    return advance, energy_of, make_report


def step_nonlocal(f: DensityField, cfg: SolverConfig, spec) -> DensityField:
    """Advance the aggregation model with bulk potential spec by one backward-Euler step of size cfg.dt."""
    return step_cells(_nonlocal_flow(cfg, spec, f.h, "step_nonlocal"), f, cfg)


def _energy_values(vals, h, conv, spec):
    """(bulk + seminorm, seminorm) of a raw cell array and its convolution K_eps*vals."""
    # (1/4) double integral of K_eps(x-y)(f(x)-f(y))² via the unit-mass identity
    seminorm = 0.5 * h * float(np.sum(vals * vals) - np.sum(vals * conv))
    return seminorm + float(np.sum(spec.eval_W(vals)) * h), seminorm


def energy_nonlocal(f: DensityField, eps, spec):
    """Aggregation energy as (bulk W plus the mollified interaction seminorm, seminorm)."""
    return _energy_values(f.values, f.h, convolve_periodic(f.values, np.fft.rfft(kernel_on_grid(eps, f.n)), f.h), spec)


def simulate_nonlocal(f0, cfg, spec, output_times=None):
    """Drive the aggregation model by backward Euler with the adaptive-dt trajectory loop.

    Reports carry the model energy in e_eps and the relaxed bulk energy in
    e_star; the local slope surrogates do not transfer to this model, so the
    slope columns are recorded as zero.
    """
    record = simulate_cells(_nonlocal_flow(cfg, spec, f0.h, "simulate_nonlocal"), f0, cfg, output_times, "nonlocal")
    kern = _kernel()
    record.extras["kernel"] = {"name": kern.name, "k0": kern.k0, "eps": cfg.eps}
    return record


@dataclass(frozen=True)
class ComparisonReport:
    """Matched-run distances between the aggregation and local flows."""

    eps: float
    eps_eff: float
    k0: float
    times: tuple
    gaps: tuple
    sup_nonlocal: float
    sup_local: float


def compare_local_nonlocal(record, cfg, spec):
    """d2 gaps between a nonlocal run and the matched local run, at the run's output times.

    `record` is the `simulate_nonlocal` run under the SolverConfig `cfg`
    and potential `spec`; the local flow starts from its first snapshot
    with eps_eff = eps*sqrt(k0) and is stepped by backward Euler under cfg's
    dt and Newton tolerance, like the nonlocal run, so the time
    discretizations cancel and the gaps measure the distance between the
    models themselves.  No rate is asserted, only the trend across eps values
    is meaningful, so the report carries raw gaps.
    """
    k0 = _kernel().k0
    eps_eff = cfg.eps * float(np.sqrt(k0))
    local_cfg = replace(cfg, eps=eps_eff, theta_scheme=1.0)
    rec_loc = simulate_eps(record.snapshots[0], local_cfg, spec, output_times=record.times)
    gaps = tuple(w2_periodic(a, b) for a, b in zip(record.snapshots, rec_loc.snapshots))
    return ComparisonReport(
        eps=float(cfg.eps),
        eps_eff=float(eps_eff),
        k0=float(k0),
        times=tuple(float(t) for t in record.times),
        gaps=gaps,
        sup_nonlocal=max(float(np.max(s.values)) for s in record.snapshots),
        sup_local=max(float(np.max(s.values)) for s in rec_loc.snapshots),
    )
