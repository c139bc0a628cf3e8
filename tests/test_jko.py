"""Movement-scheme checks: exact cell averages, gap gradients and curvature, and the energy ledger."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chflow import jko
from chflow.functionals import energy_eps
from chflow.jko import (
    JkoConfig,
    JkoConvergenceFailure,
    de_giorgi_interpolant,
    jko_step,
    jko_step_count,
    jko_step_positions,
    particles_from_density,
    simulate_jko,
)
from chflow.jko import _bands, _curvature, _Objective, _newton_direction
from chflow.potential import from_polynomial, make_potential
from chflow.solvers import SolverConfig, simulate_eps
from chflow.wasserstein1d import DensityField, to_density, w2_periodic

from oracles import (
    bands_sparse,
    gap_objective,
    gap_positive_hessian,
    minimize_lbfgs,
    newton_dense,
    particle_cell_averages,
    piecewise_linear_cdf,
    vacuum_field,
)


@pytest.fixture(scope="module")
def cubic():
    return make_potential("cubic-motivation")


def _cosine_field(n, a):
    x = (np.arange(n) + 0.5) / n
    return DensityField.normalized(1.0 + a * np.cos(2.0 * np.pi * x))


def test_config_validation():
    JkoConfig(tau=1e-3)
    nan = float("nan")
    for bad in (
        dict(tau=0.0),
        dict(tau=1e-3, m=32),
        dict(tau=nan),
        dict(tau=float("inf")),
        dict(tau=1e-3, m=100.5),
        dict(tau=1e-3, m=nan),
    ):
        with pytest.raises(ValueError):
            JkoConfig(**bad)


def test_deposit_mass_exact_for_arbitrary_positions():
    rng = np.random.default_rng(2)
    for n, m, shift in ((128, 96, 0.0), (64, 512, -0.7), (200, 100, 1.3)):
        f = to_density(shift + np.sort(rng.random(m)), n)
        assert abs(f.mass() - 1.0) < 1e-14
        assert np.min(f.values) >= 0.0


def _close(a, b, rel=1e-13):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= rel * max(1.0, float(np.max(np.abs(b))))


def test_objective_and_density_match_loop_references(cubic):
    # the vectorised gap functional and cell averages against term-by-term loops
    rng = np.random.default_rng(5)
    n = 64
    centres = (np.arange(n) + 0.5) / n
    for x in (np.sort(rng.random(97)), centres - 0.3, np.sort(rng.choice(centres, 40, replace=False)) + 0.75):
        assert _close(to_density(x, n).values, particle_cell_averages(x, n), 1e-12)
        d = 0.2 * np.min(np.diff(x)) * rng.uniform(-1.0, 1.0, x.size)
        value, grad, _ = _Objective(x, 1e-3, 0.1, cubic).evaluate(d)
        value_ref, grad_ref = gap_objective(d, x, 1e-3, 0.1, cubic)
        assert _close(value, value_ref)
        assert _close(grad, grad_ref, 1e-11)


def test_particles_sit_at_quantiles_of_the_piecewise_linear_density():
    # vacuum cells and the cells beside them exercise the slope limiter
    rng = np.random.default_rng(3)
    levels = (np.arange(300) + 0.5) / 300
    for f in (_cosine_field(128, 0.3), DensityField(vacuum_field(rng, 64)), DensityField(vacuum_field(rng, 97))):
        x = particles_from_density(f, 300)
        assert np.all(np.diff(x) > 0.0) and 0.0 <= x[0] and x[-1] < 1.0
        assert np.max(np.abs(piecewise_linear_cdf(f.values, x) - levels)) <= 1e-13


def test_uniform_is_fixed_point_of_convex_well():
    quartic = from_polynomial([0.0, 0.0, 0.0, 0.0, 1.0], name="pure-quartic")
    f = DensityField(np.ones(128))
    out = jko_step(f, JkoConfig(tau=1e-3, m=256), 0.1, quartic)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def _perturbed_cosine_particles(m, seed):
    # smooth particles with a rough displacement on top; every gap stays positive
    rng = np.random.default_rng(seed)
    anchor = particles_from_density(_cosine_field(128, 0.3), m)
    return anchor, 0.2 * np.min(np.diff(anchor)) * rng.uniform(-1.0, 1.0, m)


def test_objective_gradient_matches_finite_differences(cubic):
    anchor, d = _perturbed_cosine_particles(128, 7)
    objective = _Objective(anchor, tau_eff=1e-3, eps=0.08, spec=cubic)
    _, grad, _ = objective.evaluate(d)
    fd = np.zeros(d.size)
    bump = 1e-7
    for i in range(d.size):
        step = np.zeros(d.size)
        step[i] = bump
        fd[i] = (objective.evaluate(d + step)[0] - objective.evaluate(d - step)[0]) / (2.0 * bump)
    assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(fd))


def test_unclipped_hessian_matches_finite_differences(cubic):
    # the cubic well has W'' < 0 on part of the range, so the unclipped bands are the ones to check
    anchor, d = _perturbed_cosine_particles(128, 7)
    objective = _Objective(anchor, tau_eff=1e-3, eps=0.08, spec=cubic)
    _, _, state = objective.evaluate(d)
    assert np.min(cubic.eval_W2(state[1])) < 0.0
    hess = bands_sparse(_bands(objective.tau_m, *_curvature(state, objective))).toarray()
    bump = 1e-7  # the error is the O(bump^2) truncation: 2.5e-9 relative here, 2.5e-7 at 1e-6
    fd = np.zeros_like(hess)
    for i in range(d.size):
        step = np.zeros(d.size)
        step[i] = bump
        fd[:, i] = (objective.evaluate(d + step)[1] - objective.evaluate(d - step)[1]) / (2.0 * bump)
    assert np.max(np.abs(hess - fd)) <= 1e-8 * np.max(np.abs(hess))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.integers(16, 400),
    st.floats(0.02, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([1e-4, 1e-3, 1e-2]),
    st.integers(0, 2**32 - 1),
)
@example(256, 1.0, -0.5, 1e-3, 0)  # a full-period run wrapping across x = 0
@example(16, 0.05, 0.99, 1e-2, 1)  # a cluster straddling x = 1
def test_newton_direction_solves_dense_positive_part_system(cubic, m, span, shift, tau, seed):
    rng = np.random.default_rng(seed)
    anchor = shift + span * np.sort(rng.random(m))
    d = 0.2 * np.min(np.diff(anchor)) * rng.uniform(-1.0, 1.0, m)
    objective = _Objective(anchor, tau, 0.1, cubic)
    _, grad, state = objective.evaluate(d)
    step = _newton_direction(state, grad, objective)
    hess = gap_positive_hessian(d, anchor, tau, 0.1, cubic)
    scale = np.max(np.abs(hess)) * np.max(np.abs(step))
    assert np.max(np.abs(hess @ step + grad)) <= 1e-10 * scale


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.integers(16, 256),
    st.integers(1, 8),
    st.floats(0.02, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([1e-4, 1e-3, 1e-2]),
    st.integers(0, 2**32 - 1),
)
@example(128, 4, 1.0, -0.5, 1e-3, 0)  # a full-period run wrapping across x = 0
@example(16, 4, 0.05, 0.99, 1e-2, 1)  # a cluster straddling x = 1
def test_step_stays_ordered_and_below_stay_put_on_random_anchors(cubic, n, ratio, span, shift, tau, seed):
    # the line search accepts only trials with every gap positive: whatever the
    # inner solve reaches, it hands back a new, ordered array
    m = max(64, n * ratio)
    anchor = shift + span * np.sort(np.random.default_rng(seed).random(m))
    # random anchors give rough densities; this tolerance and cap let 16 of the
    # 42 draws converge and the rest raise, so both outcomes are checked, and
    # keep the run short (at the default 1e-6 and 2000 the draws take minutes)
    cfg = JkoConfig(tau=tau, m=m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jko, "_INNER_TOL", 1e-3)
        patch.setattr(jko, "_INNER_MAX", 100)
        try:
            x, info = jko_step_positions(anchor, cfg, 0.1, cubic)
        except JkoConvergenceFailure as err:
            x, info = err.positions, None
    assert np.all(np.diff(x) > 0.0) and x[-1] - x[0] < 1.0
    assert not np.shares_memory(x, anchor)
    if info is not None:
        assert info["objective"] <= _Objective(anchor, tau, 0.1, cubic).evaluate(np.zeros(m))[0]


def test_newton_step_matches_lbfgs_oracle(cubic):
    # at m = 64 L-BFGS-B converges in under 200 iterations; the eps term's
    # curvature grows like m^4, and at m = 512 it is still far off after 2000
    m = 64
    positions = particles_from_density(_cosine_field(128, 0.3), m)
    for tau in (2.5e-3, 1.25e-3, 6.25e-4):
        cfg = JkoConfig(tau=tau, m=m)
        x, info = jko_step_positions(positions, cfg, 0.1, cubic)
        objective = lambda d: gap_objective(d, positions, tau, 0.1, cubic)  # noqa: E731
        d_ref, ref = minimize_lbfgs(objective, m, jko._INNER_TOL, jko._INNER_MAX, 0.1 * np.min(np.diff(positions)))
        assert ref["grad_scaled"] <= jko._INNER_TOL
        assert info["objective"] <= ref["objective"] + 1e-10
        assert np.max(np.abs(x - (positions + d_ref))) <= 1e-6


def test_newton_step_matches_dense_newton_oracle_at_workload_size(cubic, monkeypatch):
    # m = 512, the particle count of criterion 4, where L-BFGS-B cannot serve
    monkeypatch.setattr(jko, "_INNER_TOL", 1e-9)
    m = 512
    positions = particles_from_density(_cosine_field(128, 0.3), m)
    for tau in (2.5e-3, 1.25e-3, 6.25e-4):
        cfg = JkoConfig(tau=tau, m=m)
        x, info = jko_step_positions(positions, cfg, 0.1, cubic)
        objective = lambda d: gap_objective(d, positions, tau, 0.1, cubic)  # noqa: E731
        hessian = lambda d: gap_positive_hessian(d, positions, tau, 0.1, cubic)  # noqa: E731
        assert objective(x - positions)[0] == pytest.approx(info["objective"], rel=1e-13)
        d_ref, ref = newton_dense(objective, hessian, m, 1e-9, 50)
        assert ref["grad_scaled"] <= 1e-9
        assert abs(info["objective"] - ref["objective"]) <= 1e-12
        assert np.max(np.abs(x - (positions + d_ref))) <= 1e-9


def test_newton_reaches_tight_tolerance_on_criterion_4_first_step(cubic, monkeypatch):
    # L-BFGS-B is still at |grad| 1.6e-2 after 2000 iterations on the tau = 2.5e-3 step
    monkeypatch.setattr(jko, "_INNER_TOL", 1e-9)
    n, m = 128, 512
    positions = particles_from_density(_cosine_field(n, 0.3), m)
    for tau, iterations in ((2.5e-3, 6), (1.25e-3, 5), (6.25e-4, 4)):
        _, info = jko_step_positions(positions, JkoConfig(tau=tau, m=m), 0.1, cubic)
        assert info["converged"] and info["grad_scaled"] <= 1e-9
        assert info["iterations"] == iterations


def test_displacement_scales_linearly_in_tau(cubic):
    n, m, eps = 128, 512, 0.1
    base = particles_from_density(_cosine_field(n, 0.3), m)
    moved = {}
    for tau in (4e-3, 2e-3, 1e-3):
        pos, info = jko_step_positions(base, JkoConfig(tau=tau, m=m), eps, cubic)
        assert info["converged"]
        moved[tau] = float(np.sqrt(np.mean(((pos - base + 0.5) % 1.0 - 0.5) ** 2)))
    assert moved[4e-3] / moved[2e-3] == pytest.approx(2.0, abs=0.4)
    assert moved[2e-3] / moved[1e-3] == pytest.approx(2.0, abs=0.4)


def test_matches_direct_solver_under_tau_refinement(cubic):
    # the two discretizations are mutual oracles for the same flow
    n, eps, t_end = 128, 0.1, 0.01
    f0 = _cosine_field(n, 0.3)
    ref = simulate_eps(f0, SolverConfig(n=n, dt=1e-5, eps=eps, t_end=t_end), cubic, output_times=[0.0, t_end])
    target = ref.snapshots[-1]
    errs = []
    for tau in (2.5e-3, 1.25e-3):
        rec = simulate_jko(f0, JkoConfig(tau=tau, m=512), eps, cubic, t_end)
        errs.append(w2_periodic(rec.snapshots[-1], target))
    assert errs[0] < 5e-3 and errs[1] < 5e-3
    assert 1.5 <= errs[0] / errs[1] <= 3.0


def test_energy_ledger_never_loosens(cubic, monkeypatch):
    # best-so-far search makes E(k) + (1/2 tau) sum d2^2 <= E(0) exact,
    # so the reported slack stays nonpositive at any inner tolerance
    f0 = _cosine_field(128, 0.3)
    for tol in (1e-4, 1e-6):
        monkeypatch.setattr(jko, "_INNER_TOL", tol)
        rec = simulate_jko(f0, JkoConfig(tau=1e-3, m=256), 0.1, cubic, 8e-3)
        assert np.max(rec.extras["ledger_slack"]) <= 1e-12
        energies = [rep.e_eps for rep in rec.reports]
        assert np.all(np.diff(energies) <= 1e-12)
        assert np.all(np.diff(rec.times) > 0)


def test_constant_trajectory_zero_slack():
    quartic = from_polynomial([0.0, 0.0, 0.0, 0.0, 1.0], name="pure-quartic")
    rec = simulate_jko(DensityField(np.ones(128)), JkoConfig(tau=1e-3, m=256), 0.1, quartic, 5e-3)
    assert np.max(np.abs(rec.extras["ledger_slack"])) < 1e-14
    assert np.max(np.abs(rec.snapshots[-1].values - 1.0)) < 1e-12
    assert max(abs(s.mass() - 1.0) for s in rec.snapshots) < 1e-12


def test_monotone_positions_after_chaining(cubic):
    rec = simulate_jko(_cosine_field(128, 0.4), JkoConfig(tau=1e-3, m=256), 0.08, cubic, 5e-3)
    positions = rec.extras["positions"]
    assert np.all(np.diff(positions) >= 0.0)
    assert np.min(rec.snapshots[-1].values) >= 0.0


def test_de_giorgi_interpolant_family(cubic):
    n, eps = 128, 0.1
    f0 = _cosine_field(n, 0.3)
    cfg = JkoConfig(tau=2e-3, m=256)
    # s -> 0: transport dominates, nothing moves beyond requantization
    baseline = to_density(particles_from_density(f0, cfg.m), n)
    near_zero = de_giorgi_interpolant(f0, 1e-9, cfg, eps, cubic)
    assert w2_periodic(baseline, near_zero) < 1e-7
    # s = tau reproduces the full step
    pos = particles_from_density(f0, cfg.m)
    _, full = jko_step_positions(pos, cfg, eps, cubic)
    _, capped = jko_step_positions(pos, cfg, eps, cubic, s=cfg.tau)
    assert abs(full["objective"] - capped["objective"]) <= 2.0 * jko._INNER_TOL
    # interpolant energy decreases along s
    energies = [
        energy_eps(de_giorgi_interpolant(f0, s, cfg, eps, cubic), eps, cubic)
        for s in (1e-9, 5e-4, 1e-3, 1.5e-3, 2e-3)
    ]
    assert np.all(np.diff(energies) <= 1e-10)
    for bad_s in (0.0, -1.0, 3e-3):
        with pytest.raises(ValueError):
            de_giorgi_interpolant(f0, bad_s, cfg, eps, cubic)


def test_step_rejects_unordered_particles(cubic):
    base = particles_from_density(_cosine_field(128, 0.3), 256)
    crossed = base.copy()
    crossed[[10, 11]] = crossed[[11, 10]]
    # the last particle on the first one's periodic image: a zero wrapping gap
    full_period = np.concatenate((base[:-1] - base[0], [1.0]))
    for bad in (crossed, full_period):
        with pytest.raises(ValueError, match="strictly increasing"):
            jko_step_positions(bad, JkoConfig(tau=1e-3, m=256), 0.1, cubic)


def test_convergence_failure_carries_best_iterate(cubic, monkeypatch):
    monkeypatch.setattr(jko, "_INNER_TOL", 1e-13)
    monkeypatch.setattr(jko, "_INNER_MAX", 10)
    base = particles_from_density(_cosine_field(128, 0.3), 256)
    with pytest.raises(JkoConvergenceFailure) as excinfo:
        jko_step_positions(base, JkoConfig(tau=4e-3, m=256), 0.1, cubic)
    err = excinfo.value
    assert err.positions.shape == base.shape
    assert err.grad_norm > 1e-13


def test_record_keeps_inner_work_per_step(cubic):
    f0 = _cosine_field(128, 0.3)
    cfg = JkoConfig(tau=2.5e-3, m=512)
    rec = simulate_jko(f0, cfg, 0.1, cubic, 5e-3)
    iterations = rec.extras["inner_iterations"]
    halvings = rec.extras["line_search_halvings"]
    assert len(iterations) == len(halvings) == len(rec.times)
    assert iterations[0] == 0 and halvings[0] == 0 and np.all(iterations[1:] >= 1)
    _, first = jko_step_positions(particles_from_density(f0, cfg.m), cfg, 0.1, cubic)
    assert (iterations[1], halvings[1]) == (first["iterations"], first["line_search_halvings"])


def test_rejected_step_raises_instead_of_halving_tau(cubic, monkeypatch):
    # the ledger telescopes steps of size tau, so a step whose energy rises stops the run
    step = jko.jko_step_positions

    def rising(*args, **kwargs):
        x, info = step(*args, **kwargs)
        return x, {**info, "energy": info["energy"] + 1.0}

    monkeypatch.setattr(jko, "jko_step_positions", rising)
    with pytest.raises(RuntimeError, match="rejected"):
        simulate_jko(_cosine_field(128, 0.3), JkoConfig(tau=1e-3, m=256), 0.1, cubic, 4e-3)


def test_simulate_needs_positive_eps_before_placing_particles(cubic, monkeypatch):
    # the gap energy and the reports are the eps flow's; at eps = 0 the run
    # stops before any work, not at its first report
    def placed(*args):
        raise AssertionError("particles placed")

    monkeypatch.setattr(jko, "particles_from_density", placed)
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="simulate_jko needs eps > 0"):
            simulate_jko(_cosine_field(64, 0.2), JkoConfig(tau=1e-3, m=256), eps, cubic, 4e-3)


def test_simulate_requires_multiple_of_tau(cubic):
    f0 = _cosine_field(128, 0.2)
    with pytest.raises(ValueError):
        simulate_jko(f0, JkoConfig(tau=3e-3, m=256), 0.1, cubic, 1e-2)
