"""Acceptance gate: ten numbered criteria, one [PASS]/[FAIL] line each.

Run `pytest -v -s tests/test_acceptance.py` to watch the verdict lines as
they print; without -s the lines appear in the captured output of any
failing test.  Every criterion states its tolerance inline and fails loudly
rather than degrading.
"""

import csv
import time

import numpy as np
import pytest

from chflow.diagnostics import calibrate_delta, energy_dissipation_audit, wrinkling_report
from chflow.harness import experiment_from_dict, generate_initial, run_sweep
from chflow.jko import JkoConfig, simulate_jko
from chflow.nonlocal_model import compare_local_nonlocal, energy_nonlocal, make_kernel, simulate_nonlocal
from chflow.potential import compute_convex_envelope, compute_unstable_set, make_potential
from chflow.solvers import SolverConfig, simulate_eps, simulate_limit
from chflow.wasserstein1d import DensityField, w2_periodic


def _verdict(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _x(n):
    return (np.arange(n) + 0.5) / n


def test_criterion_01_dispersion_rates():
    # quartic-wrinkle linearization around 1: rate(k) = -(2 pi k)^2 (W''(1) + eps^2 (2 pi k)^2)
    spec = make_potential("quartic-wrinkle")
    eps, n, amp, dt, steps = 0.05, 512, 1e-4, 2e-5, 100
    wpp = -0.25
    t0 = time.time()
    errors = {}
    for k in (1, 2, 3, 4):
        f0 = DensityField.normalized(1.0 + amp * np.cos(2 * np.pi * k * _x(n)))
        cfg = SolverConfig(n=n, dt=dt, eps=eps, t_end=steps * dt, theta_scheme=0.5, newton_tol=1e-13)
        rec = simulate_eps(f0, cfg, spec, output_times=tuple(np.linspace(0.0, steps * dt, 6)))
        amps = np.array([abs(np.fft.rfft(s.values)[k]) for s in rec.snapshots])
        rate = float(np.polyfit(rec.times, np.log(amps), 1)[0])
        target = -((2 * np.pi * k) ** 2) * (wpp + eps**2 * (2 * np.pi * k) ** 2)
        errors[k] = abs(rate - target) / abs(target)
    wall = time.time() - t0
    worst = max(errors.values())
    _verdict(
        1,
        "dispersion rates",
        worst < 0.05 and wall < 60.0,
        f"worst fitted-rate error {worst:.2%} over modes 1..4 (tol 5%), {wall:.0f}s",
    )


def test_criterion_02_conservation_and_monotonicity():
    generators = (
        ("uniform", {}),
        ("cosine", {"a": 0.1}),
        ("bump", {"width": 0.5, "floor": 0.1}),
        ("two-phase", {"lo": 0.4, "hi": 1.6, "width": 0.05}),
    )
    times = tuple(np.linspace(0.0, 0.01, 6))
    worst_drift, worst_rise, runs = 0.0, -np.inf, 0
    for pot in ("cubic-motivation", "quartic-spinodal", "quartic-wrinkle"):
        spec = make_potential(pot)
        env = compute_convex_envelope(spec)
        for name, params in generators:
            f0 = generate_initial(name, params, 64)
            rec_e = simulate_eps(f0, SolverConfig(n=64, dt=1e-4, eps=0.1, t_end=0.01), spec, output_times=times)
            rec_l = simulate_limit(f0, SolverConfig(n=64, dt=1e-4, eps=0.0, t_end=0.01), env, output_times=times)
            for rec, col in ((rec_e, "e_eps"), (rec_l, "e_star")):
                assert rec.completed
                e = [getattr(r, col) for r in rec.reports]
                slack = 1e-8 * abs(e[0])
                worst_rise = max(worst_rise, max(b - a - slack for a, b in zip(e, e[1:])))
                worst_drift = max(worst_drift, max(abs(s.mass() - 1.0) for s in rec.snapshots))
                runs += 1
    _verdict(
        2,
        "conservation and monotonicity",
        runs == 24 and worst_drift < 1e-10 and worst_rise <= 0.0,
        f"{runs} canonical runs, mass drift {worst_drift:.1e} (tol 1e-10), "
        f"worst energy rise beyond slack {worst_rise:.1e}",
    )


def test_criterion_03_energy_inequality_refinement():
    spec = make_potential("cubic-motivation")
    maxres, floors = [], []
    for dt, n, n_out in ((2e-4, 64, 6), (1e-4, 128, 11), (5e-5, 256, 21)):
        f0 = DensityField.normalized(1.0 + 0.3 * np.cos(2 * np.pi * _x(n)))
        cfg = SolverConfig(n=n, dt=dt, eps=0.1, t_end=0.01)
        rec = simulate_eps(f0, cfg, spec, output_times=tuple(np.linspace(0.0, 0.01, n_out)))
        audit = energy_dissipation_audit(rec)
        maxres.append(float(np.max(np.abs(audit.residuals))))
        floors.append(audit.min_residual >= -1e-3 * abs(rec.reports[0].e_eps))
    ratios = (maxres[0] / maxres[1], maxres[1] / maxres[2])
    _verdict(
        3,
        "energy-inequality audit",
        all(floors) and min(ratios) >= 1.8,
        f"residual floor holds at all levels; |residual| {maxres[0]:.1e} -> {maxres[2]:.1e}, "
        f"refinement ratios {ratios[0]:.2f}, {ratios[1]:.2f} (order >= 1 needs >= 1.8)",
    )


def test_criterion_04_jko_cross_validation():
    spec = make_potential("cubic-motivation")
    n = 128
    f0 = DensityField.normalized(1.0 + 0.3 * np.cos(2 * np.pi * _x(n)))
    ref = simulate_eps(f0, SolverConfig(n=n, dt=1e-5, eps=0.1, t_end=0.01), spec, output_times=(0.0, 0.01))
    target = ref.snapshots[-1]
    gaps = []
    for tau in (2.5e-3, 1.25e-3, 6.25e-4):
        rec = simulate_jko(f0, JkoConfig(tau=tau, m=512), 0.1, spec, 0.01)
        gaps.append(w2_periodic(rec.snapshots[-1], target))
    ratios = (gaps[0] / gaps[1], gaps[1] / gaps[2])
    ok = all(1.5 <= r <= 3.0 for r in ratios) and gaps[-1] < 5e-3
    _verdict(
        4,
        "jko cross-validation",
        ok,
        f"d2 gap {gaps[0]:.2e} -> {gaps[-1]:.2e}, halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"(need [1.5, 3]), finest {gaps[-1]:.2e} < 5e-3",
    )


@pytest.fixture(scope="module")
def spinodal_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = experiment_from_dict(
        {
            "potential": "quartic-spinodal",
            "solver": {"n": 128, "dt": 2e-4, "eps": 0.1, "t_end": 0.5},
            "initial_data": {"name": "cosine", "params": {"a": 0.1}},
            "eps_list": [0.1, 0.05, 0.025, 0.0125],
            "output_dir": str(out),
            "workers": 4,
        }
    )
    t0 = time.time()
    report = run_sweep(cfg)
    return report, out, time.time() - t0


def test_criterion_05_vanishing_interface_sweep(spinodal_sweep):
    report, _, wall = spinodal_sweep
    assert report.failures == ()
    d2 = [row.sup_t_d2_to_limit for row in report.rows]
    egap = [row.energy_gap_final for row in report.rows]
    sgap = [row.slope_gap_L2 for row in report.rows]
    e_star0 = abs(report.limit_run.reports[0].e_star)
    decreasing = all(b < a for a, b in zip(d2, d2[1:]))
    decreasing &= all(b < a for a, b in zip(egap, egap[1:]))
    decreasing &= all(b < a for a, b in zip(sgap, sgap[1:]))
    ok = (
        decreasing
        and d2[-1] < 0.02
        and egap[-1] < 0.02 * e_star0
        and sgap[-1] < 0.1 * sgap[0]
        and wall < 1800.0
    )
    _verdict(
        5,
        "vanishing-interface sweep",
        ok,
        f"all three gaps strictly decreasing over eps 0.1..0.0125; final sup d2 {d2[-1]:.2e} < 0.02, "
        f"energy gap {egap[-1]:.2e} < {0.02 * e_star0:.2e}, slope gap ratio {sgap[-1] / sgap[0]:.3f} < 0.1; "
        f"{wall:.0f}s",
    )


def test_criterion_06_slope_liminf(spinodal_sweep):
    _, out, _ = spinodal_sweep
    with open(out / "sweep" / "eps-0.0125" / "trajectory.csv") as fh:
        rows_eps = list(csv.DictReader(fh))
    with open(out / "sweep" / "limit_trajectory.csv") as fh:
        rows_lim = list(csv.DictReader(fh))
    assert len(rows_eps) == len(rows_lim)
    margins = []
    for re_, rl in zip(rows_eps, rows_lim):
        assert abs(float(re_["t"]) - float(rl["t"])) < 1e-12
        slope_eps = float(re_["slope_eps"])
        slope_star = float(rl["slope_star"])
        margins.append(slope_eps - (slope_star - (0.1 * slope_star + 1e-3)))
    passed = sum(1 for m in margins if m >= 0.0)
    _verdict(
        6,
        "slope lower bound",
        passed == len(margins),
        f"slope_eps >= slope_star - (0.1 slope_star + 1e-3) at {passed}/{len(margins)} "
        f"output times for eps=0.0125, worst margin {min(margins):.2e}",
    )


def test_criterion_07_wrinkling_localization():
    spec = make_potential("quartic-wrinkle")
    env = compute_convex_envelope(spec)
    sigma = compute_unstable_set(env)
    eta = 0.05
    finals = {}
    for eps in (0.05, 0.025, 0.0125):
        n = max(128, int(np.ceil(8.0 / eps)))
        f0 = generate_initial("two-phase", {"lo": 0.3, "hi": 1.7, "width": 4 * eps}, n)
        cfg = SolverConfig(n=n, dt=2e-4, eps=eps, t_end=0.01)
        rec = simulate_eps(f0, cfg, spec, output_times=(0.0, 0.005, 0.01))
        assert rec.completed
        finals[eps] = rec.snapshots[-1]
    delta = calibrate_delta([finals[0.05], finals[0.025]], sigma, eta)
    assert delta > 0.0, "no dichotomy scale cleared the calibration runs"
    rep = wrinkling_report(finals[0.0125], sigma, eta, delta)
    ok = not rep.violations and rep.far_mass_fraction < 0.02 and rep.sigma_localized
    _verdict(
        7,
        "wrinkling localization",
        ok,
        f"delta {delta:g} calibrated on eps in {{0.05, 0.025}}; at eps=0.0125: "
        f"{len(rep.violations)} violations, far-from-band oscillating mass "
        f"{rep.far_mass_fraction:.1%} (tol 2%), oscillating mass {rep.oscillating_mass_fraction:.1%}",
    )


def _quantile_atoms(f, m):
    cum = np.concatenate([[0.0], np.cumsum(f.values) * f.h])
    cum /= cum[-1]
    edges = np.linspace(0.0, 1.0, f.n + 1)
    return np.interp((np.arange(m) + 0.5) / m, cum, edges)


def _w2_circular_assignment(fa, fb, m):
    # equal-mass atoms at mid-level quantiles; the optimal matching between
    # cyclically sorted atoms is a cyclic shift, so scanning all m shifts
    # with per-pair geodesic displacement is exhaustive
    xa, xb = _quantile_atoms(fa, m), _quantile_atoms(fb, m)
    idx = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    d = xb[idx] - xa[None, :]
    d -= np.round(d)
    return float(np.sqrt(np.min(np.mean(d * d, axis=1))))


def _random_density(rng, n=256):
    v = np.ones(n)
    for k in range(1, 5):
        a, b = rng.normal(scale=0.25 / k, size=2)
        v += a * np.cos(2 * np.pi * k * _x(n)) + b * np.sin(2 * np.pi * k * _x(n))
    shift = int(rng.integers(n // 8, n // 2))
    return DensityField.normalized(np.roll(np.maximum(v, 0.05), shift))


def test_criterion_08_transport_oracle():
    m = 200
    rng = np.random.default_rng(42)
    fields = [_random_density(rng) for _ in range(40)]
    rels = []
    for i in range(20):
        fa, fb = fields[2 * i], fields[2 * i + 1]
        ref = _w2_circular_assignment(fa, fb, m)
        rels.append(abs(w2_periodic(fa, fb) - ref) / ref)
    tol = 1e-8 + 2.0 / m
    axiom_worst = 0.0
    for i in range(10):
        a, b, c = fields[i], fields[i + 13], fields[i + 26]
        dab, dba = w2_periodic(a, b), w2_periodic(b, a)
        axiom_worst = max(axiom_worst, abs(dab - dba), w2_periodic(a, a))
        axiom_worst = max(axiom_worst, w2_periodic(a, c) - (dab + w2_periodic(b, c)))
    ok = max(rels) < 0.01 and axiom_worst <= tol
    _verdict(
        8,
        "transport oracle",
        ok,
        f"20 pairs vs circular assignment (m={m}): worst relative error {max(rels):.2%} (tol 1%); "
        f"metric-axiom excess {axiom_worst:.2e} <= {tol:.2e} on 10 triples",
    )


def test_criterion_09_limit_flow_contraction():
    env = compute_convex_envelope(make_potential("quartic-spinodal"))
    n = 128
    fa = DensityField.normalized(1.0 + 0.2 * np.cos(2 * np.pi * _x(n)))
    fb = DensityField.normalized(1.0 + 0.15 * np.cos(4 * np.pi * _x(n)) + 0.1 * np.sin(2 * np.pi * _x(n)))
    times = tuple(np.linspace(0.0, 0.05, 11))
    cfg = SolverConfig(n=n, dt=1e-4, eps=0.0, t_end=0.05)
    rec_a = simulate_limit(fa, cfg, env, output_times=times)
    rec_b = simulate_limit(fb, cfg, env, output_times=times)
    d2 = [w2_periodic(a, b) for a, b in zip(rec_a.snapshots, rec_b.snapshots)]
    worst = max(b / a for a, b in zip(d2, d2[1:]))
    _verdict(
        9,
        "limit-flow contraction",
        worst <= 1.0 + 1e-6,
        f"d2 {d2[0]:.4f} -> {d2[-1]:.5f} over 10 intervals, worst step ratio {worst:.8f} "
        f"(tol 1 + 1e-6)",
    )


def test_criterion_10_nonlocal_consistency():
    spec = make_potential("cubic-motivation")
    kern = make_kernel()
    n = 512
    f0 = DensityField.normalized(1.0 + 0.05 * np.cos(2 * np.pi * _x(n)))
    gap = {}
    for eps in (0.1, 0.05):
        cfg = SolverConfig(n=n, dt=2e-4, eps=eps, t_end=0.05)
        record = simulate_nonlocal(f0, cfg, spec, output_times=np.linspace(0.0, 0.05, 6))
        gap[eps] = compare_local_nonlocal(record, cfg, spec).gaps[-1]
    _, semi = energy_nonlocal(f0, 0.05, spec)
    coeffs = np.fft.rfft(f0.values) / n
    weights = np.full(coeffs.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    dirichlet = float(np.sum(weights * (2 * np.pi * np.arange(coeffs.size)) ** 2 * np.abs(coeffs) ** 2))
    matched = 0.5 * 0.05**2 * kern.k0 * dirichlet
    rel = abs(semi - matched) / matched
    ok = gap[0.05] < gap[0.1] and rel < 0.10
    _verdict(
        10,
        "nonlocal consistency",
        ok,
        f"trajectory gap at t=0.05: {gap[0.1]:.2e} (eps=0.1) -> {gap[0.05]:.2e} (eps=0.05); "
        f"seminorm vs matched Dirichlet energy off by {rel:.2%} (tol 10%)",
    )
