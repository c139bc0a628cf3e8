"""Aggregation model: kernel numerics, dispersion, energy, local comparison."""

import numpy as np
import pytest

from chflow.nonlocal_model import (
    compare_local_nonlocal,
    convolve_periodic,
    energy_nonlocal,
    kernel_on_grid,
    make_kernel,
    simulate_nonlocal,
    step_nonlocal,
)
from chflow.potential import make_potential
from chflow.solvers import SolverConfig
from chflow.wasserstein1d import DensityField
from oracles import convolve_direct, kernel_moments

# Half second moment of the normalized bump profile, frozen from quadrature.
K0_BUMP = 0.019764204532974783


@pytest.fixture(scope="module")
def kern():
    return make_kernel()


@pytest.fixture(scope="module")
def cubic():
    return make_potential("cubic-motivation")


def _cosine(n, amp, k=1):
    x = (np.arange(n) + 0.5) / n
    return DensityField(1.0 + amp * np.cos(2.0 * np.pi * k * x))


def test_kernel_profile_and_moments(kern):
    mass, k0 = kernel_moments(kern, 8193)
    assert abs(mass - 1.0) < 1e-10
    assert k0 > 0.0
    assert abs(k0 - K0_BUMP) < 1e-12 * K0_BUMP
    assert abs(kern.k0 - K0_BUMP) < 1e-12 * K0_BUMP
    # evenness and compact support of the profile itself
    xs = np.linspace(0.0, 0.6, 301)
    left = kern.profile(-xs)
    right = kern.profile(xs)
    assert np.max(np.abs(left - right)) < 1e-14
    assert np.all(right[xs >= 0.5] == 0.0)
    # quadrature refinement: the smooth bump converges far faster than O(h^2)
    _, k0_coarse = kernel_moments(kern, 2049)
    assert abs(k0_coarse - k0) < 1e-12 * k0


def test_kernel_on_grid_contract():
    n = 256
    h = 1.0 / n
    for eps in (0.1, 0.25):
        kg = kernel_on_grid(eps, n)
        assert kg.shape == (n,)
        assert abs(float(np.sum(kg)) * h - 1.0) < 1e-12
        # fft layout: index j and n-j sample +x and -x
        assert np.max(np.abs(kg[1:] - kg[:0:-1])) < 1e-12
        # support confined to |x| <= eps/2
        idx = np.arange(n)
        offs = np.where(idx <= n // 2, idx, idx - n) * h
        assert np.all(kg[np.abs(offs) > 0.5 * eps + h] == 0.0)
    with pytest.raises(ValueError):
        kernel_on_grid(0.01, 64)  # eps*n < 4: unresolved
    with pytest.raises(ValueError):
        kernel_on_grid(1.5, 256)


def test_convolution_spectral_matches_direct():
    rng = np.random.default_rng(11)
    n = 64
    h = 1.0 / n
    vals = 1.0 + 0.5 * rng.standard_normal(n)
    kg = kernel_on_grid(0.25, n)
    spectral = convolve_periodic(vals, np.fft.rfft(kg), h)
    assert np.max(np.abs(spectral - convolve_direct(vals, kg, h))) < 1e-12
    const = convolve_periodic(np.full(n, 2.5), np.fft.rfft(kg), h)
    assert np.max(np.abs(const - 2.5)) < 1e-13


def test_constant_field_stationary_and_energy():
    n = 96
    f = DensityField(np.ones(n))
    cfg = SolverConfig(n=n, dt=1e-3, eps=0.1, t_end=1e-3)
    for name, w_at_one in (("cubic-motivation", -1.0 / 3.0), ("quartic-spinodal", 9.0 / 4.0),
                           ("quartic-wrinkle", 1.0 / 8.0)):
        spec = make_potential(name)
        out = step_nonlocal(f, cfg, spec)
        assert np.max(np.abs(out.values - 1.0)) < 1e-13
        total, seminorm = energy_nonlocal(f, 0.1, spec)
        assert seminorm == 0.0
        assert abs(total - w_at_one) < 1e-12


def test_seminorm_nonnegative_random_fields(cubic):
    rng = np.random.default_rng(3)
    n = 128
    for _ in range(20):
        f = DensityField.normalized(0.1 + rng.random(n))
        _, seminorm = energy_nonlocal(f, 0.1, cubic)
        assert seminorm >= 0.0


def test_seminorm_taylor_matches_dirichlet(kern, cubic):
    # seminorm = (eps^2 k0 / 2) |f|_{H1}^2 + O(eps^4) on smooth fields
    n = 512
    f = _cosine(n, 0.05)
    fwd = (np.roll(f.values, -1) - f.values) / f.h
    h1 = float(np.sum(fwd * fwd) * f.h)
    rels = {}
    for eps in (0.1, 0.05):
        _, seminorm = energy_nonlocal(f, eps, cubic)
        dirichlet = 0.5 * eps * eps * kern.k0 * h1
        rels[eps] = (seminorm - dirichlet) / dirichlet
    assert abs(rels[0.05]) < 0.01
    ratio = abs(rels[0.1]) / abs(rels[0.05])
    assert 3.0 < ratio < 6.0  # second-order shrinkage in eps


def test_mass_conservation_and_translation_equivariance(cubic):
    n = 128
    f0 = _cosine(n, 0.3)
    shift = 17
    cur = f0
    rolled = DensityField(np.roll(f0.values, shift))
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.1, t_end=1e-3)
    for _ in range(5):
        cur = step_nonlocal(cur, cfg, cubic)
        rolled = step_nonlocal(rolled, cfg, cubic)
    assert abs(float(np.mean(cur.values)) - 1.0) < 1e-12
    assert np.max(np.abs(np.roll(cur.values, shift) - rolled.values)) < 1e-12


def test_dispersion_matches_symbols(kern, cubic):
    # growth of small mode-k data vs the exact backward-Euler symbol, the
    # continuum kernel symbol, and the matched local expansion (W''(1) = 0);
    # Newton runs to roundoff so its stopping error does not blur the symbol
    n, eps, dt, steps = 256, 0.1, 2e-4, 50
    cfg = SolverConfig(n=n, dt=dt, eps=eps, t_end=steps * dt, newton_tol=1e-15)
    h = 1.0 / n
    kg = kernel_on_grid(eps, n)
    khat = np.fft.rfft(kg).real * h
    u = np.linspace(-0.5, 0.5, 20001)
    prof = kern.profile(u)
    prof = prof / np.trapezoid(prof, u)
    cont_tol = {1: 0.02, 2: 0.05, 3: 0.08}
    local_tol = {1: 0.02, 2: 0.06, 3: 0.10}
    for k in (1, 2, 3):
        f = _cosine(n, 1e-6, k)
        lam = (2.0 / h**2) * (1.0 - np.cos(2.0 * np.pi * k * h))
        g_exact = 1.0 / (1.0 + dt * lam * (1.0 - khat[k]))
        amps = [np.abs(np.fft.rfft(f.values))[k]]
        cur = f
        for _ in range(steps):
            cur = step_nonlocal(cur, cfg, cubic)
            amps.append(np.abs(np.fft.rfft(cur.values))[k])
        g_meas = float(np.exp(np.mean(np.diff(np.log(amps)))))
        assert abs(g_meas - g_exact) / abs(1.0 - g_exact) < 1e-5
        sig_meas = np.log(g_meas) / dt
        khat_cont = float(np.trapezoid(prof * np.cos(2.0 * np.pi * k * eps * u), u))
        sig_cont = -((2.0 * np.pi * k) ** 2) * (1.0 - khat_cont)
        sig_local = -((2.0 * np.pi * k) ** 4) * eps * eps * kern.k0
        assert abs(sig_meas - sig_cont) / abs(sig_cont) < cont_tol[k]
        assert abs(sig_meas - sig_local) / abs(sig_local) < local_tol[k]


def test_simulate_record_contract(kern, cubic):
    n = 128
    f0 = _cosine(n, 0.3)
    cfg = SolverConfig(n=n, dt=1e-4, eps=0.1, t_end=0.01)
    rec = simulate_nonlocal(f0, cfg, cubic, output_times=[0.0, 0.005, 0.01])
    assert rec.flavor == "nonlocal"
    assert rec.extras["kernel"] == {"name": "bump", "k0": kern.k0, "eps": 0.1}
    energies = [r.e_eps for r in rec.reports]
    assert all(b <= a + 1e-8 * abs(energies[0]) for a, b in zip(energies, energies[1:]))
    masses = [float(np.mean(s.values)) for s in rec.snapshots]
    assert max(abs(m - 1.0) for m in masses) < 1e-12
    with pytest.raises(ValueError):
        simulate_nonlocal(f0, SolverConfig(n=n, dt=1e-4, eps=0.0, t_end=0.01), cubic)
    # backward Euler is the model's one scheme; a theta of 0.5 used to be ignored
    half = SolverConfig(n=n, dt=1e-4, eps=0.1, t_end=0.01, theta_scheme=0.5)
    with pytest.raises(ValueError, match="theta_scheme"):
        simulate_nonlocal(f0, half, cubic)
    with pytest.raises(ValueError, match="theta_scheme"):
        step_nonlocal(f0, half, cubic)


def test_quartic_spinodal_run_needs_no_halving():
    # the step descends the energy the trajectory loop checks for every W; with
    # a hard-coded cubic chemical potential this run halved dt 1022 times
    n = 128
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.1, t_end=0.05)
    rec = simulate_nonlocal(_cosine(n, 0.1), cfg, make_potential("quartic-spinodal"), output_times=[0.0, 0.05])
    assert rec.completed
    assert not any(ev["type"] == "dt-halve" for ev in rec.events)


def test_simulate_converges_at_first_order_in_dt(cubic):
    # backward Euler: successive differences of the final state halve with dt
    n = 128
    f0 = _cosine(n, 0.3)
    finals = []
    for dt in (1e-4, 5e-5, 2.5e-5):
        cfg = SolverConfig(n=n, dt=dt, eps=0.1, t_end=0.01, newton_tol=1e-13)
        rec = simulate_nonlocal(f0, cfg, cubic, output_times=[0.0, 0.01])
        assert not any(ev["type"] == "dt-halve" for ev in rec.events)
        finals.append(rec.snapshots[-1].values)
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    assert diffs[0] < 1e-4
    assert 1.6 < diffs[0] / diffs[1] < 2.4


def _compare(f0, eps, spec, t_end, dt, n_out):
    cfg = SolverConfig(n=f0.n, dt=dt, eps=eps, t_end=t_end)
    record = simulate_nonlocal(f0, cfg, spec, output_times=np.linspace(0.0, t_end, n_out))
    return compare_local_nonlocal(record, cfg, spec)


def test_compare_starts_at_zero_gap(kern):
    # the expansion K_eps*f - f = eps^2 k0 f'' holds for every bulk potential;
    # constant data is stationary for both models, so its gaps vanish exactly
    for name, amp in (("cubic-motivation", 0.0), ("quartic-spinodal", 0.1)):
        rep = _compare(_cosine(128, amp), 0.1, make_potential(name), t_end=0.01, dt=1e-3, n_out=3)
        assert len(rep.gaps) == 3 and all(np.isfinite(rep.gaps))
        assert rep.gaps[0] == 0.0
        assert all(g == 0.0 for g in rep.gaps) == (amp == 0.0)
        assert abs(rep.eps_eff - 0.1 * np.sqrt(kern.k0)) < 1e-15


def test_compare_gap_shrinks_with_eps(cubic):
    # matched eps_eff^2 = eps^2 k0: trajectory gap decreases as eps decreases
    f0 = _cosine(512, 0.05)
    reps = {}
    for eps in (0.1, 0.05):
        reps[eps] = _compare(f0, eps, cubic, t_end=0.05, dt=2e-4, n_out=6)
    g_coarse = reps[0.1].gaps[-1]
    g_fine = reps[0.05].gaps[-1]
    assert 2e-7 < g_coarse < 9e-7
    assert g_fine < 0.3 * g_coarse
    for rep in reps.values():
        assert rep.gaps[0] == 0.0
        assert all(b > a for a, b in zip(rep.gaps, rep.gaps[1:]))  # separation grows in t
        # uniform L-infinity comparability of the two runs
        assert abs(rep.sup_nonlocal - rep.sup_local) < 0.02 * rep.sup_local
