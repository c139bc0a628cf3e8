"""Discrete energies, chemical potential, and slope surrogates on the circle.

Two energy levels coexist: the regularized functional with a gradient
penalty and a nonconvex well, and its relaxation built from the convex
envelope.  The auxiliary field `g_field` is the pressure form of the
regularized flow, f_t = Dxx(g), through the discrete identity
Dx(g) ~ f * Dx(chemical potential); no flow or audit in the package reads
it yet, and the tests check that identity under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import ConvexEnvelope, PotentialSpec, eval_q1
from .wasserstein1d import DensityField

__all__ = [
    "EnergyReport",
    "ahead",
    "behind",
    "chemical_potential",
    "chemical_potential_values",
    "dx_centered",
    "dx_forward",
    "energy_eps",
    "energy_eps_values",
    "energy_report",
    "energy_star",
    "energy_star_values",
    "g_field",
    "laplacian",
    "slope_eps",
    "slope_star",
]


def ahead(v):
    """v[j+1] with periodic wrap: with `behind`, the package's one neighbour read on the circle."""
    return np.concatenate((v[1:], v[:1]))


def behind(v):
    """v[j-1] with periodic wrap."""
    return np.concatenate((v[-1:], v[:-1]))


def dx_forward(values, h):
    """Forward difference (v[j+1] - v[j]) / h with periodic wrap."""
    v = np.asarray(values, dtype=float)
    return (ahead(v) - v) / h


def dx_centered(values, h):
    """Centered difference (v[j+1] - v[j-1]) / (2h) with periodic wrap."""
    v = np.asarray(values, dtype=float)
    return (ahead(v) - behind(v)) / (2.0 * h)


def laplacian(values, h):
    """Standard three-point second difference with periodic wrap."""
    v = np.asarray(values, dtype=float)
    return (ahead(v) - 2.0 * v + behind(v)) / (h * h)


@dataclass(frozen=True)
class EnergyReport:
    """Scalar energy diagnostics for a single snapshot: two energies, two slopes.

    The property `gap`, e_eps - e_star, is the excess of the regularized
    energy over the relaxed one; it cannot drop below zero (up to rounding)
    because the gradient term is a square and the well dominates its
    envelope pointwise, so a report with gap below -1e-10 is refused.
    """

    e_eps: float
    e_star: float
    slope_eps: float
    slope_star: float

    @property
    def gap(self):
        return self.e_eps - self.e_star

    def __post_init__(self):
        if self.gap < -1e-10:
            raise ValueError(f"negative energy gap {self.gap!r}")


def energy_eps_values(values, h, eps, spec: PotentialSpec) -> float:
    """Gradient-penalized energy of a raw cell array; see `energy_eps`."""
    grad = dx_forward(values, h)
    return float(np.sum(0.5 * eps * eps * grad * grad + spec.eval_W(values)) * h)


def energy_star_values(values, h, env: ConvexEnvelope) -> float:
    """Relaxed energy of a raw cell array; see `energy_star`."""
    return float(np.sum(env.eval_Wss(values)) * h)


def chemical_potential_values(values, h, eps, spec: PotentialSpec) -> np.ndarray:
    """W'(v) minus eps^2 times the discrete second difference of a raw cell array."""
    return spec.eval_W1(values) - eps * eps * laplacian(values, h)


def energy_eps(f: DensityField, eps: float, spec: PotentialSpec) -> float:
    """Gradient-penalized energy: sum of (eps^2/2)|Dx f|^2 + W(f), times h.

    The gradient term uses the forward difference so that its discrete
    first variation pairs with the centered operators used elsewhere.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return energy_eps_values(f.values, f.h, eps, spec)


def energy_star(f: DensityField, env: ConvexEnvelope) -> float:
    """Relaxed energy: the convex envelope integrated against the grid."""
    return energy_star_values(f.values, f.h, env)


def chemical_potential(f: DensityField, eps: float, spec: PotentialSpec) -> np.ndarray:
    """W'(f) minus eps^2 times the discrete second difference of f."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return chemical_potential_values(f.values, f.h, eps, spec)


def g_field(f: DensityField, eps: float, spec: PotentialSpec) -> np.ndarray:
    """Auxiliary flux potential whose gradient matches f * Dx(e).

    Built from the pressure-like term Q'(f) plus gradient corrections;
    all derivatives centered so the identity holds to first order.
    """
    h = f.h
    grad = dx_centered(f.values, h)
    return (
        eval_q1(spec, f.values)
        + 1.5 * eps * eps * grad * grad
        - eps * eps * dx_centered(f.values * grad, h)
    )


def slope_eps(f: DensityField, eps: float, spec: PotentialSpec) -> float:
    """Upper slope surrogate: sqrt of sum f * (Dx e)^2 h off the vacuum set.

    The vacuum set is every cell at or below 1e-8 times the field maximum,
    where the factorized flux velocity is not resolvable.
    """
    e = chemical_potential(f, eps, spec)
    de = dx_centered(e, f.h)
    mask = f.values > 1e-8 * float(np.max(f.values))
    return float(np.sqrt(np.sum(f.values[mask] * de[mask] ** 2) * f.h))


def slope_star(f: DensityField, env: ConvexEnvelope) -> float:
    """Relaxed slope: sqrt of sum f * (Dx W**'(f))^2 h.

    Composing W**' pointwise before differencing makes the slope vanish
    identically across contact-interval plateaus.
    """
    de = dx_centered(env.eval_Wss1(f.values), f.h)
    return float(np.sqrt(np.sum(f.values * de * de) * f.h))


def energy_report(f: DensityField, eps: float, spec: PotentialSpec) -> EnergyReport:
    """Bundle both energies and both slopes for one snapshot; the relaxed ones use ``spec.envelope``."""
    return EnergyReport(
        e_eps=energy_eps(f, eps, spec),
        e_star=energy_star(f, spec.envelope),
        slope_eps=slope_eps(f, eps, spec),
        slope_star=slope_star(f, spec.envelope),
    )
