"""Wrinkling reports, local H1 bounds, dissipation audits, tangent-line sets."""

import numpy as np
import pytest

from chflow.diagnostics import (
    calibrate_delta,
    dissipation_audit,
    energy_dissipation_audit,
    h1_local,
    oscillation_profile,
    u_lambda_membership,
    well_preparedness,
    wrinkling_report,
)
from chflow.functionals import dx_centered
from chflow.potential import (
    compute_convex_envelope,
    compute_unstable_set,
    distance_to_sigma,
    from_polynomial,
    make_potential,
)
from chflow.solvers import SolverConfig, TrajectoryRecord, simulate_eps, simulate_limit
from chflow.wasserstein1d import DensityField


@pytest.fixture(scope="module")
def cubic():
    return make_potential("cubic-motivation")


@pytest.fixture(scope="module")
def wrinkle_stack():
    spec = make_potential("quartic-wrinkle")
    env = compute_convex_envelope(spec)
    return spec, env, compute_unstable_set(env)


@pytest.fixture(scope="module")
def spinodal_stack():
    spec = make_potential("quartic-spinodal")
    env = compute_convex_envelope(spec)
    return spec, env, compute_unstable_set(env)


@pytest.fixture(scope="module")
def wrinkled_run(wrinkle_stack):
    # seeded noise around the spinodal mean grows into a saturated wrinkle state
    spec, _, _ = wrinkle_stack
    rng = np.random.default_rng(5)
    n = 320
    noise = rng.standard_normal(n)
    noise -= noise.mean()
    f0 = DensityField(1.0 + 0.05 * noise)
    cfg = SolverConfig(n=n, dt=5e-4, eps=0.025, t_end=0.5)
    return simulate_eps(f0, cfg, spec, output_times=[0.0, 0.1, 0.25, 0.5])


def _cosine_field(n, a):
    x = (np.arange(n) + 0.5) / n
    return DensityField.normalized(1.0 + a * np.cos(2.0 * np.pi * x))


def _two_phase(n, lo, hi, width):
    x = (np.arange(n) + 0.5) / n
    ind = 0.5 * (np.tanh((x - 0.25) / width) - np.tanh((x - 0.75) / width))
    return DensityField.normalized(lo + (hi - lo) * ind)


def test_oscillation_profile_constant_and_sawtooth():
    assert np.max(oscillation_profile(DensityField(np.ones(64)), 0.1)) == 0.0
    n = 400
    pattern = (np.arange(n) % 4) / 3.0
    f = DensityField(1.0 + 0.2 * (pattern - pattern.mean()))
    prof = oscillation_profile(f, 0.05)
    assert prof.min() == pytest.approx(0.2, rel=1e-12)
    assert prof.max() == pytest.approx(0.2, rel=1e-12)
    # a window narrower than two cells has half-width 0 and sees no oscillation
    assert np.array_equal(oscillation_profile(f, 1.5 / n), np.zeros(n))
    with pytest.raises(ValueError, match="window must be at least one cell wide"):
        oscillation_profile(f, 0.5 / n)


def test_oscillation_profile_lipschitz_bound():
    n = 400
    vals = np.ones(n)
    vals[:40] += np.linspace(0.0, 1.0, 40)
    f = DensityField.normalized(vals)
    window = 4.0 / n
    lipschitz = np.max(np.abs(np.diff(f.values))) * n
    assert np.max(oscillation_profile(f, window)) <= lipschitz * window + 1e-12


def test_h1_local_cosine_value_and_order():
    errs = []
    for n in (64, 256):
        f = _cosine_field(n, 0.3)
        exact = 0.3**2 * (2.0 * np.pi) ** 2 / 2.0
        errs.append(abs(h1_local(f, [(0.0, 1.0)]) - exact) / exact)
    assert errs[0] < 1e-3 and errs[1] < errs[0] / 8.0
    f = _cosine_field(512, 0.3)
    whole = h1_local(f, [(0.0, 1.0)])
    halves = h1_local(f, [(0.0, 0.5)]) + h1_local(f, [(0.5, 1.0)])
    assert halves == pytest.approx(whole, abs=1e-15)
    assert h1_local(DensityField(np.ones(64)), (0.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        h1_local(f, [(0.5, 0.2)])


def test_u_lambda_membership_cases(cubic):
    # B = A is always inside for lambda >= 0
    assert u_lambda_membership(1.3, 1.3, 0.0, cubic)
    # tangent at A=2 passes below W(1): (8/6 - 2) + 0*(-1) = -2/3 < -1/3
    assert not u_lambda_membership(2.0, 1.0, 0.0, cubic)
    # convex potential: the set shrinks to a neighborhood of A unless lambda pays
    quad = from_polynomial([0.0, 0.0, 1.0], name="quad")
    assert not u_lambda_membership(1.0, 1.5, 0.0, quad)
    assert u_lambda_membership(1.0, 1.5, 1.0, quad)
    # inside the unstable band tangents cross the graph and far values are allowed
    assert u_lambda_membership(0.5, 1.2, 0.0, cubic)
    with pytest.raises(ValueError):
        u_lambda_membership(-0.1, 1.0, 0.0, cubic)


def test_scanner_flags_genuine_far_oscillation(spinodal_stack):
    # a smooth wave far from the band violates the dichotomy by construction
    spec, _, sigma = spinodal_stack
    f = _cosine_field(256, 0.3)
    rep = wrinkling_report(f, sigma, 0.05, 0.1)
    assert rep.violations
    assert not rep.sigma_localized
    assert rep.oscillating_mass_fraction > 0.5
    h = 1.0 / f.n
    slopes = dx_centered(f.values, h)
    d = distance_to_sigma(f.values, sigma)
    x = (np.arange(f.n) + 0.5) * h
    for xa, xb, osc, maxd in rep.violations[:50]:
        assert 0.0 < xb - xa < rep.delta
        ja = int(round(xa * f.n - 0.5))
        jb = int(round(xb * f.n - 0.5)) % f.n
        assert abs(slopes[ja]) < rep.L and abs(slopes[jb]) < rep.L
        assert osc >= rep.eta and maxd >= rep.eta
        assert osc == pytest.approx(abs(f.values[jb] - f.values[ja]), abs=1e-12)
    # internal consistency: violations imply a window with oscillation >= eta
    assert np.max(oscillation_profile(f, rep.delta)) >= rep.eta
    assert np.all(d > rep.eta)


def test_scanner_quiet_on_smooth_and_constant(spinodal_stack):
    spec, _, sigma = spinodal_stack
    rep = wrinkling_report(_cosine_field(256, 0.01), sigma, 0.05, 0.1)
    assert rep.violations == ()
    assert rep.oscillating_mass_fraction == 0.0
    assert rep.sigma_localized
    rep0 = wrinkling_report(DensityField(np.ones(128)), sigma, 0.05, 0.1)
    assert rep0.violations == () and rep0.oscillating_mass_fraction == 0.0
    for eta, delta in ((0.0, 0.1), (0.05, -0.1)):
        with pytest.raises(ValueError, match="eta and delta must be positive"):
            wrinkling_report(DensityField(np.ones(128)), sigma, eta, delta)


def test_wrinkled_state_localizes_to_sigma(wrinkle_stack, wrinkled_run):
    _, _, sigma = wrinkle_stack
    rec = wrinkled_run
    assert rec.completed
    final = rec.snapshots[-1]
    # saturated wrinkles stay pinned inside a hair of the unstable band
    assert 0.1 < final.values.min() and final.values.max() < 1.9
    for delta in (0.0625, 0.03125):
        rep = wrinkling_report(final, sigma, 0.05, delta)
        assert rep.violations == ()
        assert rep.oscillating_mass_fraction > 0.5
        assert rep.far_mass_fraction < 1e-8
        assert rep.sigma_localized
    assert calibrate_delta(rec.snapshots, sigma, 0.05) == 0.25


def test_calibrate_delta_on_pathological_family(spinodal_stack):
    spec, _, sigma = spinodal_stack
    # centered slopes vanish on the period-2 comb, so every pair offset fails
    n = 256
    comb = 1.0 + 0.2 * (-1.0) ** np.arange(n)
    family = [DensityField(comb)]
    assert wrinkling_report(family[0], sigma, 0.05, 0.05).violations
    assert calibrate_delta(family, sigma, 0.05, deltas=[0.1, 0.05]) == 0.0
    assert calibrate_delta([_cosine_field(n, 0.01)], sigma, 0.05) == 0.25


def test_audit_stationary_and_input_guard(cubic):
    f = DensityField(np.ones(64))
    cfg = SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=5e-3)
    rec = simulate_eps(f, cfg, cubic)
    audit = energy_dissipation_audit(rec)
    assert np.max(np.abs(audit.residuals)) < 1e-12
    assert audit.satisfied(1e-10)
    solo = TrajectoryRecord(
        times=[0.0], snapshots=[f], reports=[rec.reports[0]], events=[], flavor="eps"
    )
    with pytest.raises(ValueError):
        energy_dissipation_audit(solo)
    # plain arrays get the record's checks: finite values, strictly increasing times
    zeros = [0.0, 0.0]
    with pytest.raises(ValueError, match="strictly increasing"):
        dissipation_audit([0.0, 0.0], [1.0, 1.0], zeros, zeros, "eps")
    with pytest.raises(ValueError, match="must be finite"):
        dissipation_audit([0.0, 0.1], [1.0, np.nan], zeros, zeros, "eps")


def test_audit_residual_refines_jointly(cubic):
    # drop - (slope^2 + speed^2)/2 vanishes for smooth flows; the discrete
    # residual shrinks at first order under joint (dt, h, output) refinement
    t_end = 0.01
    finals, mins, e0 = [], [], None
    for dt, n, nout in ((2e-4, 64, 6), (1e-4, 128, 11), (5e-5, 256, 21)):
        f0 = _cosine_field(n, 0.3)
        cfg = SolverConfig(n=n, dt=dt, eps=0.1, t_end=t_end)
        rec = simulate_eps(f0, cfg, cubic, output_times=np.linspace(0.0, t_end, nout))
        audit = energy_dissipation_audit(rec)
        finals.append(abs(audit.residuals[-1]))
        mins.append(audit.min_residual)
        e0 = abs(rec.reports[0].e_eps)
    assert all(m >= -1e-3 * e0 for m in mins)
    assert finals[0] > 2.0 * finals[1] > 4.0 * finals[2]
    assert finals[0] / finals[2] > 8.0


def test_audit_matches_limit_equality_residual(cubic):
    env = compute_convex_envelope(cubic)
    f0 = _cosine_field(128, 0.3)
    cfg = SolverConfig(n=128, dt=1e-4, eps=0.0, t_end=0.01)
    rec = simulate_limit(f0, cfg, env, output_times=np.linspace(0.0, 0.01, 9))
    audit = energy_dissipation_audit(rec)
    assert audit.flavor == "limit"
    # the eps columns of a limit record carry the relaxed pair, bit for bit
    star = dissipation_audit(
        rec.times, [rep.e_star for rep in rec.reports], [rep.slope_star for rep in rec.reports], rec.speeds(), "limit"
    )
    assert np.array_equal(audit.residuals, star.residuals)
    assert (audit.slope_integral, audit.speed_integral) == (star.slope_integral, star.speed_integral)
    # speed fallback: same audit with the cached speeds stripped
    bare = TrajectoryRecord(
        times=rec.times,
        snapshots=rec.snapshots,
        reports=rec.reports,
        events=list(rec.events),
        flavor="limit",
    )
    refit = energy_dissipation_audit(bare)
    np.testing.assert_allclose(refit.residuals, audit.residuals, rtol=0.0, atol=1e-12)


def test_well_preparedness_trend_and_exact_gap(spinodal_stack, cubic):
    spec, env, _ = spinodal_stack
    n = 256
    f = _cosine_field(n, 0.3)
    family = [(eps, f) for eps in (0.1, 0.05, 0.025)]
    report = well_preparedness(family, f, spec)
    h1 = h1_local(f, [(0.0, 1.0)])
    for (eps, d2, gap) in report.rows:
        # values stay under the envelope contact set, so the gap is pure Dirichlet
        assert d2 == 0.0
        assert gap == pytest.approx(eps**2 / 2.0 * h1, rel=1e-12)
    assert report.well_prepared

    env_c = compute_convex_envelope(cubic)
    bad = well_preparedness(family, f, cubic)
    floor = float(np.mean(cubic.eval_W(f.values) - env_c.eval_Wss(f.values)))
    assert floor > 0.02
    for (eps, _, gap) in bad.rows:
        assert gap == pytest.approx(eps**2 / 2.0 * h1 + floor, rel=1e-12)
    assert not bad.well_prepared

    with pytest.raises(ValueError, match="strictly decreasing eps"):
        well_preparedness([(0.05, f), (0.1, f)], f, spec)
    with pytest.raises(ValueError, match="family must be nonempty"):
        well_preparedness([], f, spec)


def test_distance_to_band_persists_under_eps(cubic):
    # lower-semicontinuity proxy: once the transition layers are thin, no
    # neighborhood of a bulk sample point dips halfway toward the band
    env = compute_convex_envelope(cubic)
    sigma = compute_unstable_set(env)
    t_fix = 0.005
    samples = (0.45, 0.5, 0.55)
    flags_per_eps = []
    h1_K = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        n = max(256, int(np.ceil(8.0 / eps)))
        f0 = _two_phase(n, 0.2, 1.8, 2.0 * eps)
        x = (np.arange(n) + 0.5) / n
        d_init = distance_to_sigma(f0.values, sigma)
        rec = simulate_eps(
            f0,
            SolverConfig(n=n, dt=1e-4, eps=eps, t_end=t_fix),
            cubic,
            output_times=[0.0, t_fix],
        )
        dT = distance_to_sigma(rec.snapshots[-1].values, sigma)
        flags = []
        for xs in samples:
            d0 = d_init[int(xs * n)]
            window = np.abs((x - xs + 0.5) % 1.0 - 0.5) < 0.03
            flags.append(bool(dT[window].min() <= d0 / 2.0))
        flags_per_eps.append(flags)
        h1_K.append(h1_local(rec.snapshots[-1], [(0.4, 0.6)]))
    arr = np.array(flags_per_eps, dtype=int)
    assert np.all(np.diff(arr, axis=0) <= 0)
    assert np.all(arr[-1] == 0)
    assert np.all(arr[0] == 1)
    # bulk H1 stays bounded while the interfaces sharpen
    assert max(h1_K) < 0.5
