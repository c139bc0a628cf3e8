"""Energy, potential, and slope diagnostics against closed-form values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chflow.functionals import (
    EnergyReport,
    ahead,
    behind,
    chemical_potential,
    dx_centered,
    dx_forward,
    energy_eps,
    energy_report,
    energy_star,
    g_field,
    laplacian,
    slope_eps,
    slope_star,
)
from chflow.potential import compute_convex_envelope, make_potential
from chflow.wasserstein1d import DensityField


@pytest.fixture(scope="module")
def cubic():
    return make_potential("cubic-motivation")


@pytest.fixture(scope="module")
def cubic_env(cubic):
    return compute_convex_envelope(cubic)


@pytest.fixture(scope="module")
def spinodal():
    return make_potential("quartic-spinodal")


@pytest.fixture(scope="module")
def spinodal_env(spinodal):
    return compute_convex_envelope(spinodal)


def _cosine_field(n, a, k=1):
    x = (np.arange(n) + 0.5) / n
    return DensityField(1.0 + a * np.cos(2.0 * np.pi * k * x))


def _uniform(n=64):
    return DensityField(np.ones(n))


def test_difference_operators_on_smooth_field():
    n = 512
    x = (np.arange(n) + 0.5) / n
    v = np.sin(2 * np.pi * x)
    h = 1.0 / n
    d_exact = 2 * np.pi * np.cos(2 * np.pi * x)
    lap_exact = -((2 * np.pi) ** 2) * v
    assert np.max(np.abs(dx_centered(v, h) - d_exact)) < 1e-3
    assert np.max(np.abs(dx_forward(v, h) - d_exact)) < 5e-2  # first order: ~ (2 pi)^2 h / 2
    assert np.max(np.abs(laplacian(v, h) - lap_exact)) < 2e-2


def test_energy_eps_uniform_is_well_value(cubic):
    # gradient term vanishes, leaving the well at density one: -1/3
    f = _uniform()
    for eps in (0.01, 0.1, 1.0):
        assert energy_eps(f, eps, cubic) == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_energy_eps_cosine_exact_discrete_value():
    # with a vanishing well the sum telescopes to a closed form
    zero = make_potential("zero")
    a, eps = 0.2, 0.05
    for n in (64, 256):
        f = _cosine_field(n, a)
        exact = eps**2 * a**2 * n**2 * np.sin(np.pi / n) ** 2
        assert energy_eps(f, eps, zero) == pytest.approx(exact, rel=1e-13)
    # and approaches the continuum value at second order
    cont = eps**2 * a**2 * np.pi**2
    errs = [abs(energy_eps(_cosine_field(n, a), eps, zero) - cont) for n in (128, 256, 512)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def test_energy_eps_refinement_consistency(cubic):
    eps = 0.08
    vals = {}
    for n in (128, 256, 512):
        x = (np.arange(n) + 0.5) / n
        f = DensityField(1.0 + 0.4 * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x))
        vals[n] = energy_eps(f, eps, cubic)
    drop = abs(vals[256] - vals[128]) / abs(vals[512] - vals[256])
    assert drop > 3.0  # second-order consistency gives ~4


def test_energy_eps_requires_positive_eps(cubic):
    with pytest.raises(ValueError):
        energy_eps(_uniform(), 0.0, cubic)


def test_energy_star_uniform_is_envelope_value(cubic_env):
    assert energy_star(_uniform(), cubic_env) == pytest.approx(-3.0 / 8.0, abs=1e-12)


def test_energy_star_matches_well_in_convex_region(spinodal, spinodal_env):
    # values in [0.6, 1.4] sit left of the first bitangent contact
    f = _cosine_field(256, 0.4)
    direct = float(np.sum(spinodal.eval_W(f.values)) * f.h)
    assert energy_star(f, spinodal_env) == pytest.approx(direct, rel=1e-12)


def test_energy_star_jensen_bound(cubic_env):
    rng = np.random.default_rng(3)
    for _ in range(5):
        raw = 0.05 + rng.random(96)
        f = DensityField.normalized(raw)
        assert energy_star(f, cubic_env) >= -3.0 / 8.0 - 1e-12


def test_chemical_potential_uniform(cubic):
    e = chemical_potential(_uniform(), 0.3, cubic)
    assert np.allclose(e, -0.5, atol=1e-13)


def test_chemical_potential_eps_zero_is_w_prime(cubic):
    f = _cosine_field(128, 0.3)
    assert np.allclose(chemical_potential(f, 0.0, cubic), cubic.eval_W1(f.values))
    with pytest.raises(ValueError):
        chemical_potential(f, -0.1, cubic)


def test_chemical_potential_cosine_exact_discrete():
    zero = make_potential("zero")
    n, a, eps = 128, 0.2, 0.05
    f = _cosine_field(n, a)
    h = 1.0 / n
    lam1 = 2.0 / h**2 * (1.0 - np.cos(2 * np.pi * h))
    x = (np.arange(n) + 0.5) / n
    expected = eps**2 * lam1 * a * np.cos(2 * np.pi * x)
    assert np.max(np.abs(chemical_potential(f, eps, zero) - expected)) < 1e-13
    # continuum limit at second order in h
    cont = eps**2 * (2 * np.pi) ** 2 * a
    assert lam1 * eps**2 * a == pytest.approx(cont, rel=1e-3)


def test_g_field_constant_inputs(cubic):
    assert np.allclose(g_field(_uniform(), 0.2, cubic), -1.0 / 6.0, atol=1e-13)
    c = 1.0 + 0.0 * np.ones(48)  # mean-one constraint forces c = 1 here
    f = DensityField(c)
    q1 = 1.0 * cubic.eval_W1(1.0) - cubic.eval_W(1.0)
    assert np.allclose(g_field(f, 0.7, cubic), q1, atol=1e-13)


def test_g_field_gradient_identity_refines(cubic):
    # Dx(g) tracks f * Dx(e) at first order or better
    eps = 0.08
    errs = []
    for n in (128, 256, 512):
        x = (np.arange(n) + 0.5) / n
        f = DensityField(1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x))
        g = g_field(f, eps, cubic)
        e = chemical_potential(f, eps, cubic)
        errs.append(np.max(np.abs(dx_centered(g, f.h) - f.values * dx_centered(e, f.h))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.0)
    assert errs[-1] < 5e-3


def test_g_gradient_l1_bounded_by_slope(cubic):
    # |Dx g|_1 <= sqrt(mass) * slope + identity error, and the error is O(h)
    eps = 0.08
    id_errs = []
    for n in (128, 256, 512):
        x = (np.arange(n) + 0.5) / n
        f = DensityField(1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x))
        dg = dx_centered(g_field(f, eps, cubic), f.h)
        fe = f.values * dx_centered(chemical_potential(f, eps, cubic), f.h)
        lhs = float(np.sum(np.abs(dg)) * f.h)
        rhs = np.sqrt(f.mass()) * slope_eps(f, eps, cubic)
        id_err = float(np.sum(np.abs(dg - fe)) * f.h)
        assert lhs <= rhs + id_err + 1e-12
        id_errs.append(id_err)
    assert id_errs[2] < 0.6 * id_errs[1] < 0.4 * id_errs[0]


def test_slopes_vanish_on_constants(cubic, cubic_env):
    f = _uniform()
    assert slope_eps(f, 0.1, cubic) == 0.0
    assert slope_star(f, cubic_env) == 0.0


def test_slope_eps_sine_linearization(cubic):
    # leading order: (2 pi) a |W''(1) + eps^2 (2 pi)^2| / sqrt(2)
    n, a, eps = 4096, 1e-3, 0.1
    f = _cosine_field(n, a)
    wrinkle = make_potential("quartic-wrinkle")
    cases = [
        (cubic, 0.0),  # W''(1) = 0, curvature term only
        (wrinkle, -0.25),
    ]
    for spec, w2 in cases:
        expected = 2 * np.pi * a * abs(w2 + eps**2 * (2 * np.pi) ** 2) / np.sqrt(2.0)
        assert slope_eps(f, eps, spec) == pytest.approx(expected, rel=1e-5)


def test_slope_eps_scales_linearly_in_amplitude(cubic):
    n, eps = 2048, 0.1
    r = [slope_eps(_cosine_field(n, a), eps, cubic) / a for a in (1e-3, 2e-4)]
    assert r[0] == pytest.approx(r[1], rel=1e-4)


def test_slope_star_zero_on_plateau(cubic_env):
    # values stay inside the affine stretch of the envelope
    f = _cosine_field(97, 0.45)
    assert np.max(f.values) < 1.5
    assert slope_star(f, cubic_env) == 0.0


def test_slope_star_matches_slope_eps_in_convex_region(spinodal, spinodal_env):
    f = _cosine_field(256, 0.4)
    a = slope_star(f, spinodal_env)
    b = slope_eps(f, 0.0, spinodal)
    assert a == pytest.approx(b, abs=1e-10)


def test_gap_is_exactly_h1_seminorm_in_convex_region(spinodal, spinodal_env):
    # W = W** pointwise there, so the gap reduces to the gradient term
    eps = 0.07
    f = _cosine_field(256, 0.4)
    grad = dx_forward(f.values, f.h)
    seminorm = float(np.sum(grad * grad) * f.h)
    gap = energy_eps(f, eps, spinodal) - energy_star(f, spinodal_env)
    assert gap == pytest.approx(0.5 * eps**2 * seminorm, rel=1e-12)


def test_gap_exact_for_two_phase_field(cubic, cubic_env):
    # values {0, 2} both lie where the well equals its envelope
    n = 64
    v = np.zeros(n)
    v[: n // 2] = 2.0
    f = DensityField(v)
    eps = 0.05
    grad = dx_forward(f.values, f.h)
    expected = 0.5 * eps**2 * float(np.sum(grad * grad) * f.h)
    gap = energy_eps(f, eps, cubic) - energy_star(f, cubic_env)
    assert gap == pytest.approx(expected, rel=1e-12)


def test_energy_report_fields_and_gap_guard(cubic):
    f = _cosine_field(128, 0.3)
    rep = energy_report(f, 0.1, cubic)
    assert rep.gap == pytest.approx(rep.e_eps - rep.e_star, abs=1e-15)
    assert rep.gap >= -1e-10
    assert rep.slope_eps >= 0.0 and rep.slope_star >= 0.0
    with pytest.raises(ValueError):
        EnergyReport(e_eps=0.0, e_star=1.0, slope_eps=0.0, slope_star=0.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    v=st.integers(2, 300).flatmap(lambda n: arrays(np.float64, n, elements=st.floats(-1e3, 1e3))),
    h=st.floats(1e-3, 1.0),
)
def test_slice_stencils_equal_roll_formulas(v, h):
    # the neighbour pair is np.roll by -1 and +1, and the stencils built on it repeat
    # the np.roll expressions operation for operation
    assert np.array_equal(ahead(v), np.roll(v, -1)) and np.array_equal(behind(v), np.roll(v, 1))
    assert np.array_equal(dx_forward(v, h), (np.roll(v, -1) - v) / h)
    assert np.array_equal(dx_centered(v, h), (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h))
    assert np.array_equal(laplacian(v, h), (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (h * h))
