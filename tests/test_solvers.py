"""Stepper checks against linearized and fine-grid oracles."""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chflow import nonlocal_model, solvers
from chflow.diagnostics import energy_dissipation_audit
from chflow.functionals import laplacian
from chflow.potential import compute_convex_envelope, from_polynomial, make_potential
from chflow.solvers import (
    SolverConfig,
    StepFailure,
    TrajectoryRecord,
    simulate_eps,
    simulate_limit,
    step_eps,
    step_limit,
    step_limit_values,
)
from chflow.solvers import (
    divergence_of_flux,
    enforce_positivity,
    factorize,
    mobility_faces,
    newton,
    stepping_bands,
)
from chflow.wasserstein1d import DensityField, w2_periodic
from oracles import (
    bands_sparse,
    flux_jacobian_sparse,
    limit_jacobian_sparse,
    newton_fresh_jacobian,
)


@pytest.fixture(scope="module")
def wrinkle():
    return make_potential("quartic-wrinkle")


@pytest.fixture(scope="module")
def spinodal():
    return make_potential("quartic-spinodal")


@pytest.fixture(scope="module")
def quadratic_env():
    # strictly convex well: the envelope is the well itself
    return from_polynomial([0.0, 0.0, 0.5], name="quadratic").envelope


def _cosine(n, a, k=1):
    x = (np.arange(n) + 0.5) / n
    return DensityField(1.0 + a * np.cos(2.0 * np.pi * k * x))


def _growth_rate(w2_at_one, eps, k):
    # linearization about the uniform state, used as the test-side oracle
    return -((2 * np.pi * k) ** 2) * (w2_at_one + eps**2 * (2 * np.pi * k) ** 2)


def test_config_validation():
    good = dict(n=64, dt=1e-3, eps=0.1, t_end=1.0)
    SolverConfig(**good)
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(good, n=8),
        dict(good, dt=0.0),
        dict(good, eps=-1.0),
        dict(good, t_end=0.0),
        dict(good, theta_scheme=0.0),
        dict(good, theta_scheme=1.5),
        dict(good, newton_tol=0.0),
        # NaN passed every `<= 0` check; a NaN dt failed later inside the LU
        dict(good, dt=nan),
        dict(good, dt=inf),
        dict(good, t_end=nan),
        dict(good, t_end=inf),
        dict(good, eps=nan),
        dict(good, eps=inf),
        dict(good, newton_tol=nan),
        dict(good, n=64.5),
        dict(good, n=nan),
        dict(good, n="64"),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    whole = SolverConfig(**dict(good, n=64.0))
    assert whole.n == 64 and type(whole.n) is int


def test_constant_field_is_fixed_point(wrinkle):
    cfg = SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=1.0)
    f = DensityField(np.ones(64))
    out = step_eps(f, cfg, wrinkle)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14


def test_constant_trajectory_zero_slopes(wrinkle):
    cfg = SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=5e-3)
    rec = simulate_eps(DensityField(np.ones(64)), cfg, wrinkle)
    assert all(rep.slope_eps == 0.0 for rep in rec.reports)
    assert np.max(np.abs(rec.snapshots[-1].values - 1.0)) < 1e-13


def test_mass_exact_over_many_steps(wrinkle):
    n = 128
    cfg = SolverConfig(n=n, dt=5e-4, eps=0.05, t_end=0.1)
    rec = simulate_eps(_cosine(n, 0.3), cfg, wrinkle)
    assert max(abs(s.mass() - 1.0) for s in rec.snapshots) < 1e-12


def test_linearized_dispersion_rates(wrinkle):
    # growth of mode 1 and decay of mode 2, against the analytic rates
    n, a, eps = 512, 1e-4, 0.05
    w2 = wrinkle.eval_W2(1.0)
    for k, t_end, steps in ((1, 0.02, 32), (2, 0.02, 100)):
        sigma = _growth_rate(w2, eps, k)
        cfg = SolverConfig(n=n, dt=t_end / steps, eps=eps, t_end=t_end)
        rec = simulate_eps(_cosine(n, a, k), cfg, wrinkle, output_times=[0.0, t_end])
        amp0 = np.abs(np.fft.rfft(rec.snapshots[0].values))[k]
        amp1 = np.abs(np.fft.rfft(rec.snapshots[-1].values))[k]
        rate = np.log(amp1 / amp0) / t_end
        assert rate == pytest.approx(sigma, rel=0.02)


def test_thin_film_dirichlet_energy_decays():
    # W = 0 and eps = 1: the surface-diffusion core of the scheme
    zero = make_potential("zero")
    n = 128
    x = (np.arange(n) + 0.5) / n
    f = DensityField(1.0 + 0.4 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x))
    cfg = SolverConfig(n=n, dt=1e-6, eps=1.0, t_end=4e-5)

    def dirichlet(v):
        g = (np.roll(v, -1) - v) * n
        return 0.5 * float(np.sum(g * g)) / n

    energies = [dirichlet(f.values)]
    for _ in range(40):
        f = step_eps(f, cfg, zero)
        energies.append(dirichlet(f.values))
    assert np.all(np.diff(energies) <= 1e-13)


def test_porous_medium_step_matches_explicit_oracle(quadratic_env):
    # W(y) = y^2/2 gives Q'(y) = y^2/2; fine explicit stepping is the oracle
    n = 256
    h = 1.0 / n
    x = (np.arange(n) + 0.5) / n
    f0 = 1.0 + 0.5 * np.cos(2 * np.pi * x)

    def lap(v):
        return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h**2

    t_end = 2e-5
    ref = f0.copy()
    dt_fine = 1e-8
    for _ in range(int(round(t_end / dt_fine))):
        ref = ref + dt_fine * lap(0.5 * ref * ref)

    errs = []
    for dt in (t_end, t_end / 2):
        cfg = SolverConfig(n=n, dt=dt, eps=0.0, t_end=t_end)
        v = f0.copy()
        for _ in range(int(round(t_end / dt))):
            v = step_limit_values(v, h, dt, cfg, quadratic_env)
        errs.append(float(np.sum(np.abs(v - ref)) * h))
    assert errs[0] < 1e-5
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.35)


def test_scheme_order_in_dt(wrinkle):
    # backward Euler is first order, Crank-Nicolson second
    n = 128
    h = 1.0 / n
    x = (np.arange(n) + 0.5) / n
    g0 = DensityField(1.0 + 0.3 * np.cos(2 * np.pi * x))
    t_end = 2e-3

    def final_state(theta, dt):
        cfg = SolverConfig(n=n, dt=dt, eps=0.1, t_end=t_end, theta_scheme=theta)
        rec = simulate_eps(g0, cfg, wrinkle, output_times=[0.0, t_end])
        return rec.snapshots[-1].values

    for theta, expected in ((1.0, 2.0), (0.5, 4.0)):
        ref = final_state(theta, t_end / 512)
        errs = [float(np.sum(np.abs(final_state(theta, dt) - ref)) * h) for dt in (t_end / 8, t_end / 16)]
        assert errs[0] / errs[1] == pytest.approx(expected, rel=0.2)


def test_equilibration_in_convex_region(spinodal):
    # stable well: perturbation decays to the uniform minimizer
    n = 128
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.08, t_end=0.08)
    rec = simulate_eps(_cosine(n, 0.3), cfg, spinodal)
    energies = [rep.e_eps for rep in rec.reports]
    assert np.all(np.diff(energies) <= 1e-8 * abs(energies[0]))
    assert np.ptp(rec.snapshots[-1].values) < 5e-3 * np.ptp(rec.snapshots[0].values)


def test_unstable_well_selects_fastest_mode(wrinkle):
    # dispersion oracle picks k* = 3 at this eps; the solver must agree
    eps = 0.02
    w2 = wrinkle.eval_W2(1.0)
    rates = [_growth_rate(w2, eps, k) for k in range(1, 9)]
    k_star = 1 + int(np.argmax(rates))
    assert k_star == 3
    n = 256
    x = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(11)
    pert = sum(1e-4 * np.cos(2 * np.pi * k * x + rng.random() * 2 * np.pi) for k in range(1, 9))
    f0 = DensityField.normalized(1.0 + pert)
    cfg = SolverConfig(n=n, dt=1e-3, eps=eps, t_end=0.25)
    rec = simulate_eps(f0, cfg, wrinkle, output_times=[0.0, 0.25])
    spectrum = np.abs(np.fft.rfft(rec.snapshots[-1].values))[1:9]
    assert 1 + int(np.argmax(spectrum)) == k_star


def test_oversized_dt_triggers_halving_then_regrowth(wrinkle):
    n = 128
    x = (np.arange(n) + 0.5) / n
    f0 = DensityField.normalized(1.0 + 0.6 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
    cfg = SolverConfig(n=n, dt=0.2, eps=0.1, t_end=1.0, theta_scheme=0.5)
    rec = simulate_eps(f0, cfg, wrinkle)
    kinds = {ev["type"] for ev in rec.events}
    assert "dt-halve" in kinds
    assert "dt-grow" in kinds
    assert rec.completed
    energies = [rep.e_eps for rep in rec.reports]
    assert np.all(np.diff(energies) <= 1e-8 * abs(energies[0]))


def test_limit_constant_and_plateau_stationary():
    cubic_env = compute_convex_envelope(make_potential("cubic-motivation"))
    n = 128
    cfg = SolverConfig(n=n, dt=1e-3, eps=0.0, t_end=1.0)
    const = step_limit(DensityField(np.ones(n)), cfg, cubic_env)
    assert np.max(np.abs(const.values - 1.0)) < 1e-14
    # values inside the affine stretch: Q**' is constant, flux vanishes
    f = _cosine(n, 0.45)
    out = step_limit(f, cfg, cubic_env)
    assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_limit_stationary_inside_a_bridge(wrinkle):
    # 1 + 0.3 cos stays inside quartic-wrinkle's bridge [0.134, 1.866], where
    # Q**' is one constant, so every residual is zero and nothing moves
    n = 512
    f0 = _cosine(n, 0.3)
    rec = simulate_limit(f0, SolverConfig(n=n, dt=1e-4, eps=0.0, t_end=0.05), wrinkle.envelope)
    assert rec.completed and rec.times[-1] == 0.05
    for snap in rec.snapshots:
        assert np.array_equal(snap.values, f0.values)


def _limit_step_pair(lo, hi, h, dt, cfg, env):
    """Both arrays advanced by dt, in two half steps each wherever Newton fails, as
    `run_trajectory` halves dt."""
    try:
        return step_limit_values(lo, h, dt, cfg, env), step_limit_values(hi, h, dt, cfg, env)
    except StepFailure:
        lo, hi = _limit_step_pair(lo, hi, h, 0.5 * dt, cfg, env)
        return _limit_step_pair(lo, hi, h, 0.5 * dt, cfg, env)


def test_limit_comparison_principle(quadratic_env):
    rng = np.random.default_rng(5)
    n = 128
    h = 1.0 / n
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.0, t_end=1.0)
    for _ in range(3):
        lo = 0.3 + rng.random(n)
        hi = lo + 0.2 * rng.random(n)
        for _ in range(5):
            lo = step_limit_values(lo, h, cfg.dt, cfg, quadratic_env)
            hi = step_limit_values(hi, h, cfg.dt, cfg, quadratic_env)
        assert np.all(hi >= lo - 1e-12)
    # W** with a bridge: for a quadratic well the pressure form Dxx Q**'(v) and the
    # mobility form Dx(face v Dx W**'(v)) are the same algebra, here they are not,
    # and a mobility-form step breaks the order on 20 of these 80 draws
    n = 64
    h = 1.0 / n
    cfg = SolverConfig(n=n, dt=1e-4, eps=0.0, t_end=1.0)
    for name in ("cubic-motivation", "quartic-wrinkle"):
        env = make_potential(name).envelope
        for _ in range(40):
            lo = 3.0 * rng.random(n)
            hi = lo + 0.5 * rng.random(n)
            lo, hi = _limit_step_pair(lo, hi, h, cfg.dt, cfg, env)
            assert np.all(hi >= lo - 1e-12), name


def _count_calls(monkeypatch, name):
    """Patch solvers.<name> with a wrapper that adds 1 to counts[-1] per call."""
    counts = [0]
    wrapped = getattr(solvers, name)

    def counting(*args):
        counts[-1] += 1
        return wrapped(*args)

    monkeypatch.setattr(solvers, name, counting)
    return counts


def test_chord_newton_refreshes_on_rough_data(quadratic_env, monkeypatch):
    # the limit steps of test_limit_comparison_principle: white noise at
    # dt/h^2 ~ 3.3, where the Jacobian moves between iterates, so the factor
    # of the first iterate alone does not converge
    counts = _count_calls(monkeypatch, "factorize")
    rng = np.random.default_rng(5)
    n = 128
    h = 1.0 / n
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.0, t_end=1.0)

    def step(vals):
        counts.append(0)
        return step_limit_values(vals, h, cfg.dt, cfg, quadratic_env)

    for _ in range(3):
        lo = 0.3 + rng.random(n)
        hi = lo + 0.2 * rng.random(n)
        for _ in range(5):
            lo, hi = step(lo), step(hi)
    per_step = counts[1:]
    assert len(per_step) == 30 and min(per_step) >= 1
    assert max(per_step) > 1


def test_chord_newton_factorises_a_few_times_per_smooth_run(spinodal, monkeypatch):
    # the finest run of the benchmark sweep, with its output times: the run's
    # held factor serves every step of one dt, and the short first and last
    # steps (2e-5 and 1.8e-4) each need their own
    counts = _count_calls(monkeypatch, "factorize")
    steps = []
    newton_ = solvers.newton

    def counting_newton(*args):
        steps.append(None)
        return newton_(*args)

    monkeypatch.setattr(solvers, "newton", counting_newton)
    n = 128
    x = (np.arange(n) + 0.5) / n
    f0 = DensityField.normalized(1.0 + 0.1 * np.cos(2.0 * np.pi * x))
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.025, t_end=0.02)
    rec = simulate_eps(f0, cfg, spinodal, output_times=[0.0, 2e-5, 0.02])
    assert rec.completed
    assert [ev for ev in rec.events if ev["type"] == "dt-halve"] == []  # every Newton call is an accepted step
    assert len(steps) > 100
    assert counts[0] <= 4


def test_newton_holds_one_factor_per_step_size():
    # v - 2 = 0 with the exact Jacobian I (the one band of ones)
    calls = []

    def jacobian(v):
        calls.append(v)
        return np.ones((1, v.size))

    def solve(held, dt):
        calls.clear()
        out = newton(np.ones(8), lambda v: v - 2.0, jacobian, 1e-10, held, dt)
        assert np.allclose(out, 2.0)
        return len(calls)

    held = {}
    assert solve(held, 1e-3) == 1 and list(held) == [1e-3]
    assert solve(held, 5e-4) == 1 and list(held) == [5e-4]  # made at another dt: not reused, replaced
    lu = held[5e-4]
    assert solve(held, 5e-4) == 0 and held[5e-4] is lu  # same dt: reused
    assert solve({}, 5e-4) == 1  # an empty holder: a fresh factor

    # a stale factor of -I walks away from the root; it is refreshed, not failed
    held = {5e-4: factorize(-np.ones((1, 8)))}
    assert solve(held, 5e-4) == 1 and held[5e-4] is not lu
    # one of 10 I contracts by 0.9 only: refreshed before it could stall
    held = {5e-4: factorize(np.full((1, 8), 10.0))}
    assert solve(held, 5e-4) == 1


def test_each_run_and_each_single_step_factorises_afresh(spinodal, monkeypatch):
    # the chord factor belongs to its run's stepper: a second run with the same
    # config, or a second single step, starts without the first one's factor
    counts = _count_calls(monkeypatch, "factorize")
    newton_ = solvers.newton
    made = []  # factorisations made by each Newton call

    def tracking_newton(*args):
        before = counts[-1]
        out = newton_(*args)
        made.append(counts[-1] - before)
        return out

    monkeypatch.setattr(solvers, "newton", tracking_newton)
    # dyadic times: every step is exactly dt, so a factor left over from the
    # first run would fit the second run's first step
    f0 = _cosine(64, 0.1)
    cfg = SolverConfig(n=64, dt=2.0**-12, eps=0.05, t_end=2.0**-9)
    runs = []
    for _ in range(2):
        made.clear()
        assert simulate_eps(f0, cfg, spinodal, output_times=[0.0, 2.0**-10, 2.0**-9]).events == []
        runs.append(list(made))
    assert len(runs[0]) > 1 and runs[0][0] >= 1
    assert runs[1] == runs[0]
    counts.append(0)
    step_eps(f0, cfg, spinodal)
    step_eps(f0, cfg, spinodal)
    assert counts[-1] == 2


def _run_closures(monkeypatch, simulate, *args):
    """The advance and energy_of that `simulate(*args)` hands to
    run_trajectory through `simulate_cells`, which is not run; a fresh stepper per call."""
    got = types.SimpleNamespace(extras={})

    def capture(state, dt, times, advance, field, make_report, energy_of, flavor):
        got.advance, got.energy_of = advance, energy_of
        return got

    monkeypatch.setattr(solvers, "run_trajectory", capture)
    return simulate(*args)


@pytest.mark.parametrize("flow", ["eps", "eps-theta", "limit", "nonlocal"])
def test_stepper_reuses_the_flux_of_the_array_it_returned(flow, spinodal, monkeypatch):
    # advance(out) reads the D its last residual took of out; advance(out.copy())
    # recomputes it, one evaluation more, and returns the same bits
    n, dt = 64, 1e-4
    f0 = _cosine(n, 0.1)
    eps = 0.0 if flow == "limit" else 0.1
    cfg = SolverConfig(n=n, dt=dt, eps=eps, t_end=0.01, theta_scheme=0.5 if flow == "eps-theta" else 1.0)
    if flow == "nonlocal":
        run = (nonlocal_model.simulate_nonlocal, f0, cfg, spinodal)
    elif flow == "limit":
        run = (simulate_limit, f0, cfg, spinodal.envelope)
    else:
        run = (simulate_eps, f0, cfg, spinodal)
    counts = _count_calls(monkeypatch, "divergence_of_flux")
    hit, miss = _run_closures(monkeypatch, *run), _run_closures(monkeypatch, *run)
    out = hit.advance(f0.values, dt, 0.0, [])
    assert np.array_equal(miss.advance(f0.values, dt, 0.0, []), out)
    made = []
    for stepper, vals in ((hit, out), (miss, out.copy())):
        counts.append(0)
        made.append(stepper.advance(vals, dt, dt, []))
    assert np.array_equal(made[0], made[1])
    assert counts[-1] == counts[-2] + 1
    assert hit.energy_of(made[0]) == miss.energy_of(made[1].copy())


@pytest.mark.parametrize(
    "name", ["simulate_eps", "simulate_limit", "simulate_nonlocal", "step_eps", "step_limit", "step_nonlocal"]
)
def test_field_of_another_resolution_is_rejected(name, spinodal):
    # every run and every single step checks the field against cfg.n before it steps
    limit = "limit" in name
    cfg = SolverConfig(n=128, dt=1e-4, eps=0.0 if limit else 0.1, t_end=1e-3)
    run = getattr(nonlocal_model if name.endswith("nonlocal") else solvers, name)
    with pytest.raises(ValueError, match="field resolution does not match config"):
        run(_cosine(64, 0.1), cfg, spinodal.envelope if limit else spinodal)


def test_dispersion_run_evaluates_the_flux_once_per_iterate_with_one_factor(wrinkle, monkeypatch):
    # the benchmark's mode-1 dispersion run (theta 0.5): the explicit half and
    # the first residual of each step reuse the previous step's last D, so its
    # 20 steps of one Newton iteration each take 21 evaluations, not 60; and a
    # step that reaches an output time only to roundoff is taken at full dt,
    # so the run's one factor serves every step
    counts = _count_calls(monkeypatch, "divergence_of_flux")
    lus = _count_calls(monkeypatch, "factorize")
    n, dt, steps = 512, 2e-5, 20
    cfg = SolverConfig(n=n, dt=dt, eps=0.05, t_end=steps * dt, theta_scheme=0.5, newton_tol=1e-13)
    rec = simulate_eps(_cosine(n, 1e-4), cfg, wrinkle, output_times=np.linspace(0.0, cfg.t_end, 3))
    assert rec.events == []
    assert counts[-1] == 21
    assert lus[-1] == 1


def test_newton_takes_a_step_from_a_small_residual(spinodal):
    # near equilibrium the first residual, O(dt a), falls below newton_tol;
    # the mode still decays at the backward-Euler rate of the linearised flow,
    # whatever its amplitude, instead of freezing
    n = 64
    x = (np.arange(n) + 0.5) / n
    cfg = SolverConfig(n=n, dt=2e-4, eps=0.1, t_end=0.05)
    q = 2.0 * np.pi
    predicted = (1.0 + cfg.dt * q**2 * (2.0 + cfg.eps**2 * q**2)) ** (-cfg.t_end / cfg.dt)
    ratios = []
    for a in (1e-9, 1e-6):
        rec = simulate_eps(DensityField(1.0 + a * np.cos(q * x)), cfg, spinodal, output_times=[0.0, 0.05])
        first, last = (abs(np.fft.rfft(s.values)[1]) for s in rec.snapshots)
        ratios.append(last / first)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-4)
    assert ratios[1] == pytest.approx(predicted, rel=0.01)


def test_limit_minimum_principle(quadratic_env):
    n = 128
    x = (np.arange(n) + 0.5) / n
    f = DensityField.normalized(0.05 + np.maximum(0.0, np.cos(2 * np.pi * x)) ** 2)
    lowest = float(np.min(f.values))
    cfg = SolverConfig(n=n, dt=5e-4, eps=0.0, t_end=1.0)
    for _ in range(10):
        f = step_limit(f, cfg, quadratic_env)
        assert float(np.min(f.values)) >= lowest - 1e-12


def test_limit_energy_equality_residual_refines(quadratic_env):
    n = 256
    x = (np.arange(n) + 0.5) / n
    f0 = DensityField(1.0 + 0.5 * np.cos(4 * np.pi * x))
    tails = []
    for level, dt in enumerate((2e-4, 1e-4, 5e-5)):
        cfg = SolverConfig(n=n, dt=dt, eps=0.0, t_end=0.01)
        out = np.linspace(0.0, 0.01, 9 * 2**level)
        rec = simulate_limit(f0, cfg, quadratic_env, output_times=out)
        drop = rec.reports[0].e_star - rec.reports[-1].e_star
        tails.append(abs(energy_dissipation_audit(rec).residuals[-1]))
        assert tails[-1] < 0.01 * abs(drop)
    assert tails[0] > 1.5 * tails[1] > 1.5 * tails[2]


def test_limit_energy_monotone_and_d2_contraction(quadratic_env):
    # two solutions of the same flow cannot spread apart in the metric
    n = 128
    x = (np.arange(n) + 0.5) / n
    fa = DensityField.normalized(1.0 + 0.5 * np.cos(2 * np.pi * x))
    fb = DensityField.normalized(1.0 + 0.4 * np.sin(4 * np.pi * x))
    cfg = SolverConfig(n=n, dt=1e-4, eps=0.0, t_end=5e-3)
    out = np.linspace(0.0, 5e-3, 6)
    ra = simulate_limit(fa, cfg, quadratic_env, output_times=out)
    rb = simulate_limit(fb, cfg, quadratic_env, output_times=out)
    dists = [w2_periodic(sa, sb) for sa, sb in zip(ra.snapshots, rb.snapshots)]
    assert np.all(np.diff(dists) <= 1e-6 * dists[0])


def test_step_flavor_guards(wrinkle, quadratic_env):
    f = DensityField(np.ones(64))
    with pytest.raises(ValueError):
        step_eps(f, SolverConfig(n=64, dt=1e-3, eps=0.0, t_end=1.0), wrinkle)
    with pytest.raises(ValueError):
        step_limit(f, SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=1.0), quadratic_env)
    # the relaxed flow steps by backward Euler only; a theta of 0.5 used to be ignored
    half = SolverConfig(n=64, dt=1e-3, eps=0.0, t_end=1.0, theta_scheme=0.5)
    for run in (
        lambda: step_limit(f, half, quadratic_env),
        lambda: step_limit_values(f.values, f.h, half.dt, half, quadratic_env),
        lambda: simulate_limit(f, half, quadratic_env),
    ):
        with pytest.raises(ValueError, match="theta_scheme"):
            run()
    with pytest.raises(ValueError):
        step_eps(DensityField(np.ones(32)), SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=1.0), wrinkle)


def test_output_times_validation(wrinkle):
    f = DensityField(np.ones(64))
    cfg = SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=0.01)
    nan = float("nan")
    bad_times = ([0.0], [0.005, 0.01], [0.0, 0.005, 0.005], [0.0, 0.02], [0.0, nan, 0.01], [nan, 0.01], [0.0, 0.01, nan])
    for bad in bad_times:
        with pytest.raises(ValueError):
            simulate_eps(f, cfg, wrinkle, output_times=bad)


def test_output_times_are_not_coerced_from_strings_or_bools(wrinkle):
    f = DensityField(np.ones(64))
    cfg = SolverConfig(n=64, dt=1e-3, eps=0.1, t_end=0.01)
    for bad in (["0", "0.001"], [0.0, "0.005"], [False, 0.005], (0.0, np.True_)):
        with pytest.raises(ValueError, match="output time"):
            simulate_eps(f, cfg, wrinkle, output_times=bad)
    assert list(simulate_eps(f, cfg, wrinkle, output_times=(0, 0.005)).times) == [0.0, 0.005]


def test_positivity_modes():
    vals = np.array([0.5, -0.01, 1.0, 0.51])
    events = []
    out = enforce_positivity(vals.copy(), 0.25, 0.3, events)
    assert np.min(out) == 0.0
    assert np.sum(out) * 0.25 == pytest.approx(np.sum(vals) * 0.25, abs=1e-15)
    assert events and events[0]["type"] == "clip"
    # nonnegative data pass untouched; data with no positive mass cannot be clipped
    nonneg = np.abs(vals)
    assert enforce_positivity(nonneg, 0.25, 0.3, events) is nonneg and len(events) == 1
    with pytest.raises(StepFailure, match="clipping removed all mass"):
        enforce_positivity(np.array([-0.1, 0.0, -0.2, -0.3]), 0.25, 0.3, [])


def test_trajectory_record_validation(wrinkle):
    n = 64
    cfg = SolverConfig(n=n, dt=1e-3, eps=0.1, t_end=5e-3)
    rec = simulate_eps(_cosine(n, 0.2), cfg, wrinkle)
    assert rec.times[0] == 0.0 and rec.speeds()[0] == 0.0
    for times in ([0.0, 0.0], [0.0, float("nan")], [0.0, float("inf")]):
        with pytest.raises(ValueError):
            TrajectoryRecord(
                times=np.array(times),
                snapshots=rec.snapshots[:2],
                reports=rec.reports[:2],
                events=[],
                flavor="eps",
            )
    with pytest.raises(ValueError, match="times, snapshots, and reports must align"):
        TrajectoryRecord(times=rec.times[:2], snapshots=rec.snapshots[:3], reports=rec.reports[:2],
                         events=[], flavor="eps")


def test_dispersion_run_at_roundoff_floor_never_halves(wrinkle):
    # the residual stalls near 2e-12 > 1e-13 (1 + max f); the simplified
    # correction is what reaches the tolerance
    n, dt, steps, k = 512, 2e-5, 20, 4
    cfg = SolverConfig(n=n, dt=dt, eps=0.05, t_end=steps * dt, theta_scheme=0.5, newton_tol=1e-13)
    rec = simulate_eps(_cosine(n, 1e-4, k), cfg, wrinkle, output_times=[0.0, steps * dt])
    assert rec.completed
    assert [ev for ev in rec.events if ev["type"] == "dt-halve"] == []


def _scripted_run(script):
    """run_trajectory over [0, 0.5] on a toy flow, its state a bare cell array,
    whose first steps follow `script`.

    "clip" appends a clip event and keeps the state, "fail" appends one and
    raises StepFailure, "rise" appends one and raises the energy (the first
    value) by 1; every later step keeps the state.
    """
    calls = []

    def advance(vals, dt, t, events):
        kind = script[len(calls)] if len(calls) < len(script) else "keep"
        calls.append(kind)
        if kind == "keep":
            return vals.copy()
        events.append({"type": "clip", "t": t, "min_before": -1.0})
        if kind == "fail":
            raise StepFailure("scripted failure")
        return vals + (1.0 if kind == "rise" else 0.0)

    times = np.array([0.0, 0.5])
    return solvers.run_trajectory(
        np.ones(16), 0.25, times, advance, DensityField, lambda snap: None, lambda v: float(v[0]), "eps"
    )


@pytest.mark.parametrize("kind, reason", [("fail", "scripted failure"), ("rise", "energy increased by 1.000e+00")])
def test_rejected_step_leaves_no_events(kind, reason):
    rec = _scripted_run([kind, "clip"])
    assert rec.completed and rec.times.tolist() == [0.0, 0.5]
    # the rejected attempt's clip is gone; the accepted retry's clip stays
    assert rec.events == [
        {"type": "dt-halve", "t": 0.0, "dt": 0.125, "reason": reason},
        {"type": "clip", "t": 0.0, "min_before": -1.0},
    ]
    assert np.all(rec.snapshots[-1].values == 1.0)


def test_a_step_that_reaches_an_output_time_to_roundoff_keeps_its_dt():
    # 0.2 + 0.1 lands one ulp past 0.3, inside the loop's 1e-12 slack: that
    # step is dt itself, not 0.3 - 0.2 = 0.09999999999999998, which would need
    # a factor of its own; a step that would pass an output time is shortened
    steps = []

    def advance(vals, dt, t, events):
        steps.append(dt)
        return vals

    times = np.array([0.0, 0.3, 0.7, 0.75])
    rec = solvers.run_trajectory(np.ones(16), 0.1, times, advance, DensityField, lambda snap: None,
                                 lambda v: 0.0, "eps")
    assert rec.times.tolist() == times.tolist()
    assert steps[:-1] == [0.1] * 7 and steps[-1] == pytest.approx(0.05, rel=1e-12)


def test_dt_underflow_aborts_the_run():
    rec = _scripted_run(["fail"] * 41)
    assert not rec.completed
    assert len(rec.snapshots) == 1 and rec.times.tolist() == [0.0]
    assert [ev["type"] for ev in rec.events] == ["dt-halve"] * 41 + ["abort"]
    assert rec.events[-1] == {"type": "abort", "t": 0.0, "dt": 0.25 * 2.0**-41}


def test_newton_fails_when_the_step_raises_the_residual():
    calls = []

    def jacobian(v):
        calls.append(v)
        return -np.ones((1, v.size))  # the one band of -I, wrong sign: the step walks away from the root

    with pytest.raises(StepFailure, match="did not lower the residual"):
        newton(np.ones(8), lambda v: v - 2.0, jacobian, 1e-10, {}, 1e-3)
    assert len(calls) == 1


def test_newton_gives_up_after_fifty_steps():
    # a Jacobian ten times too large removes a tenth of the error per step: the residual
    # always falls, so no step fails, but never halves, so every step refactors until the cap
    calls = []

    def jacobian(v):
        calls.append(v)
        return np.full((1, v.size), 10.0)

    with pytest.raises(StepFailure, match="Newton did not converge"):
        newton(np.ones(8), lambda v: v - 2.0, jacobian, 1e-10, {}, 1e-3)
    assert len(calls) == 51


def _quartic_well(a, width, scale):
    # W'' = scale (v - a)(v - a - width): an admissible quartic with one spinodal band
    b = a + width
    return from_polynomial([0.0, 0.0, 0.5 * scale * a * b, -scale * (a + b) / 6.0, scale / 12.0])


_wells = st.builds(
    _quartic_well, st.floats(0.2, 2.0), st.floats(0.2, 1.5), st.floats(0.5, 2.0)
)
_data = st.integers(16, 64).flatmap(
    lambda n: st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)
).map(lambda cells: DensityField.normalized(np.array(cells)))


def _check_invariants(rec, f0):
    assert rec.completed
    assert max(abs(s.mass() - f0.mass()) for s in rec.snapshots) < 1e-10
    assert min(float(np.min(s.values)) for s in rec.snapshots) >= 0.0
    energies = np.array([rep.e_eps for rep in rec.reports])
    assert np.all(np.diff(energies) <= 1e-8 * abs(energies[0]))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_wells, _data, st.floats(0.05, 0.2), st.floats(1e-5, 1e-3), st.sampled_from([0.5, 1.0]))
def test_eps_flow_invariants_on_random_wells(spec, f0, eps, dt, theta):
    cfg = SolverConfig(n=f0.n, dt=dt, eps=eps, t_end=5 * dt, theta_scheme=theta)
    _check_invariants(simulate_eps(f0, cfg, spec, output_times=np.linspace(0.0, 5 * dt, 6)), f0)


def _assert_matches_fresh_jacobian(step, dt):
    """step(dt) by the chord iteration and by Newton with a fresh Jacobian at
    every iterate agree, at the first dt of the halving sequence that the
    fresh iteration solves (the dt the trajectory loop would take)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "newton", newton_fresh_jacobian)
        while True:
            try:
                fresh = step(dt)
                break
            except StepFailure:
                dt *= 0.5
    chord = step(dt)
    unit = SolverConfig.newton_tol * (1.0 + float(np.max(np.abs(fresh.values))))
    assert np.max(np.abs(chord.values - fresh.values)) <= 10.0 * unit


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_wells, _data, st.floats(0.05, 0.2), st.floats(1e-5, 1e-3), st.sampled_from([0.5, 1.0]))
def test_chord_newton_matches_fresh_jacobian_on_random_wells_eps(spec, f0, eps, dt, theta):
    def step(dt):
        return step_eps(f0, SolverConfig(n=f0.n, dt=dt, eps=eps, t_end=dt, theta_scheme=theta), spec)

    _assert_matches_fresh_jacobian(step, dt)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_wells, _data, st.floats(1e-5, 1e-3))
def test_chord_newton_matches_fresh_jacobian_on_random_wells_limit(spec, f0, dt):
    env = compute_convex_envelope(spec)

    def step(dt):
        return step_limit(f0, SolverConfig(n=f0.n, dt=dt, eps=0.0, t_end=dt), env)

    _assert_matches_fresh_jacobian(step, dt)


def _steps(rec):
    return [(ev["type"], ev["t"]) for ev in rec.events]


def _assert_run_matches_fresh_jacobian(run):
    """run() with the run's held chord factor agrees at every snapshot with
    the same run under Newton with a fresh Jacobian at every iterate.  The
    chord and fresh iterations can fail at different steps (on about one
    draw in six, with or without a held factor), after which the two runs
    take different dt; such a run is compared with the chord iteration that
    holds nothing, which must then take the held run's steps."""
    held = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "newton", newton_fresh_jacobian)
        fresh = run()
        if _steps(fresh) != _steps(held):
            newton_ = newton
            mp.setattr(solvers, "newton", lambda vals, res, jac, tol, held, dt: newton_(vals, res, jac, tol, {}, dt))
            fresh = run()
    assert _steps(fresh) == _steps(held)
    for a, b in zip(held.snapshots, fresh.snapshots, strict=True):
        unit = SolverConfig.newton_tol * (1.0 + float(np.max(np.abs(b.values))))
        assert np.max(np.abs(a.values - b.values)) <= 10.0 * unit


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_wells, _data, st.floats(0.05, 0.2), st.floats(1e-5, 1e-3), st.sampled_from([0.5, 1.0]))
def test_held_factor_run_matches_fresh_jacobian_on_random_wells_eps(spec, f0, eps, dt, theta):
    cfg = SolverConfig(n=f0.n, dt=dt, eps=eps, t_end=5 * dt, theta_scheme=theta)
    _assert_run_matches_fresh_jacobian(
        lambda: simulate_eps(f0, cfg, spec, output_times=np.linspace(0.0, 5 * dt, 6)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_wells, _data, st.floats(1e-5, 1e-3))
def test_held_factor_run_matches_fresh_jacobian_on_random_wells_limit(spec, f0, dt):
    env = compute_convex_envelope(spec)
    cfg = SolverConfig(n=f0.n, dt=dt, eps=0.0, t_end=5 * dt)
    _assert_run_matches_fresh_jacobian(
        lambda: simulate_limit(f0, cfg, env, output_times=np.linspace(0.0, 5 * dt, 6)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_wells, _data, _data, st.floats(1e-5, 1e-3))
def test_limit_flow_invariants_and_contraction_on_random_wells(spec, fa, fb, dt):
    env = compute_convex_envelope(spec)
    out = np.linspace(0.0, 5 * dt, 6)
    ra = simulate_limit(fa, SolverConfig(n=fa.n, dt=dt, eps=0.0, t_end=5 * dt), env, output_times=out)
    rb = simulate_limit(fb, SolverConfig(n=fb.n, dt=dt, eps=0.0, t_end=5 * dt), env, output_times=out)
    _check_invariants(ra, fa)
    _check_invariants(rb, fb)
    dists = [w2_periodic(sa, sb) for sa, sb in zip(ra.snapshots, rb.snapshots)]
    assert np.all(np.diff(dists) <= 1e-6 * dists[0])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    vp=st.integers(2, 300).flatmap(lambda n: arrays(np.float64, (2, n), elements=st.floats(-1e3, 1e3))),
    h=st.floats(1e-3, 1.0),
)
def test_flux_stencils_equal_roll_formulas(vp, h):
    v, p = vp
    m = np.maximum(0.0, 0.5 * (v + np.roll(v, -1)))
    flux = m * (np.roll(p, -1) - p) / h
    assert np.array_equal(mobility_faces(v), m)
    assert np.array_equal(divergence_of_flux(mobility_faces(v), p, h), (flux - np.roll(flux, 1)) / h)
    # unit mobility, the limit flow's residual, is the three-point Laplacian up to
    # a few ulps of 4 max|p|/h^2, the largest either can be (max|p| floored at the
    # smallest normal: subnormal fluxes round in absolute terms)
    unit = np.spacing(4.0 * max(float(np.max(np.abs(p))), np.finfo(float).tiny) / h**2)
    assert np.max(np.abs(divergence_of_flux(np.ones(p.size), p, h) - laplacian(p, h))) <= 8.0 * unit


def _assert_bands_equal(bands, want):
    # the bands' matrix from COO, without the exact zeros the sparse products drop
    got = bands_sparse(bands)
    got.eliminate_zeros()
    assert got.format == want.format == "csc"
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def _with_zeros(data, n, high, low=0.0):
    # many cells, and at least one, are exactly zero
    cells = data.draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(low, high))))
    cells[data.draw(st.integers(0, n - 1))] = 0.0
    return cells


def _assert_tridiagonal_systems(m, q, h, dt):
    # stiffness 0: the outer bands are zeros, and the limit Jacobian (m = 1,
    # c = q) and the flux Jacobian at zero stiffness are tridiagonal
    _assert_bands_equal(stepping_bands(np.ones(m.size), q, 0.0, h, dt), limit_jacobian_sparse(q, h, dt))
    _assert_bands_equal(stepping_bands(m, q, 0.0, h, dt), flux_jacobian_sparse(m, q, 0.0, h, dt, 1.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data(), st.integers(16, 300), st.sampled_from([0.5, 1.0]), st.floats(1e-6, 1.0), st.floats(1e-5, 1.0))
def test_band_systems_equal_sparse_products(data, n, theta, dt, stiffness):
    # the one builder gives the same data, indices and indptr as the sparse
    # sums and products of all three systems, including the exact zeros of
    # vacuum faces, zero curvature and flat envelope parts they drop, and the
    # zero-free systems built next, from generic values that round
    # differently in every summation order
    h = 1.0 / n
    faces, cond = _with_zeros(data, n, 10.0), _with_zeros(data, n, 10.0)
    curv = _with_zeros(data, n, 1e3, -1e3)
    curv[data.draw(st.integers(0, n - 1))] = stiffness * (-2.0 / h**2)  # linearised diagonal cancels
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    generic = rng.uniform(0.1, 10.0, n), rng.uniform(-1e3, 1e3, n), rng.uniform(0.1, 10.0, n)
    for m, c, q in ((faces, curv, cond), generic):
        _assert_bands_equal(stepping_bands(m, c, stiffness, h, dt * theta),
                            flux_jacobian_sparse(m, c, stiffness, h, dt, theta))
        _assert_tridiagonal_systems(m, q, h, dt)
    # grids below the solvers' 16 cells, down to 4, where offsets +2 and -2 name one
    # column: only zero outer bands land there, and they sum to zero
    k = data.draw(st.integers(4, 15))
    _assert_tridiagonal_systems(_with_zeros(data, k, 10.0), _with_zeros(data, k, 10.0), 1.0 / k, dt)


def _assert_solves_as_dense(bands, rhs):
    # forward error of two backward-stable solves: n roundoffs times the condition number
    dense = bands_sparse(bands).toarray()
    want = np.linalg.solve(dense, rhs)
    got = factorize(bands).solve(rhs)
    assert got.shape == rhs.shape
    bound = rhs.size * np.finfo(float).eps * np.linalg.cond(dense, np.inf) * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from([1, 2, 4, 12]), st.integers(16, 300), st.booleans(), st.integers(0, 2**32 - 1))
@example(12, 16, False, 0)  # 25 bands on 16 cells: entries on one position are summed
@example(12, 24, True, 1)
def test_band_lu_matches_dense_solve(width, n, zero_outer, seed):
    # non-symmetric bands and an indefinite diagonal, so partial pivoting swaps rows
    rng = np.random.default_rng(seed)
    bands = rng.uniform(-1.0, 1.0, (2 * width + 1, n))
    if zero_outer:
        bands[[0, -1]] = 0.0
    _assert_solves_as_dense(bands, rng.uniform(-1.0, 1.0, n))
    # the stepping matrix across the spinodal (W'' < 0 on some cells), with and
    # without stiffness: the s = 0 systems carry two all-zero outer bands
    h = 1.0 / n
    faces, curv = rng.uniform(0.0, 2.0, n), rng.uniform(-10.0, 10.0, n)
    for stiffness in (0.0, rng.uniform(1e-5, 1e-2)):
        system = stepping_bands(faces, curv, stiffness, h, rng.uniform(1e-6, 1e-2))
        _assert_solves_as_dense(system, rng.uniform(-1.0, 1.0, n))


def test_band_lu_raises_on_an_exactly_singular_matrix():
    bands = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 40))
    bands[:, 7] = 0.0  # row 7 is zero
    with pytest.raises(RuntimeError, match="exactly singular"):
        factorize(bands)
    with pytest.raises(RuntimeError, match="exactly singular"):
        factorize(np.zeros((9, 16)))
