"""Movement-scheme checks: exact deposits, gradients, and the energy ledger."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chflow.functionals import energy_eps
from chflow.jko import (
    JkoConfig,
    JkoConvergenceFailure,
    de_giorgi_interpolant,
    density_from_particles,
    jko_step,
    jko_step_count,
    jko_step_positions,
    particles_from_density,
    simulate_jko,
    write_ledger_csv,
)
from chflow.jko import _bandwidth_cells, _Objective, _newton_direction
from chflow.potential import from_polynomial, make_potential
from chflow.solvers import SolverConfig, simulate_eps
from chflow.wasserstein1d import DensityField, w2_periodic

from oracles import deposit_masked, minimize_lbfgs, movement_objective_masked, positive_part_hessian


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
        dict(tau=1e-3, inner_tol=0.0),
        dict(tau=1e-3, inner_max=5),
        dict(tau=nan),
        dict(tau=float("inf")),
        dict(tau=1e-3, inner_tol=nan),
        dict(tau=1e-3, m=100.5),
        dict(tau=1e-3, m=nan),
        dict(tau=1e-3, inner_max=nan),
    ):
        with pytest.raises(ValueError):
            JkoConfig(**bad)


def test_deposit_mass_exact_for_arbitrary_positions():
    rng = np.random.default_rng(2)
    for n, m, p in ((128, 96, 3), (64, 512, 1), (200, 100, 7)):
        vals = density_from_particles(rng.random(m), n, p)
        assert abs(np.sum(vals) / n - 1.0) < 1e-14
        assert np.min(vals) >= 0.0


def _close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-15 * max(1.0, float(np.max(np.abs(b))))


def test_deposit_kernel_matches_masked_reference(cubic):
    # the 4p-cell np.where/bincount kernel against the masked 4p+2-cell np.add.at one
    rng = np.random.default_rng(5)
    n = 128
    centres = (np.arange(n) + 0.5) / n  # x at a cell centre puts |t| on {0, 1, 2} exactly
    for p in (1, 3, 7):
        for x in (np.sort(rng.random(97)), centres, np.sort(rng.choice(centres, 80, replace=False))):
            vals_ref, _, t_ref = deposit_masked(x, n, p)
            if x is centres:
                assert {0.0, 1.0, 2.0} <= set(np.abs(t_ref).ravel())
            assert _close(density_from_particles(x, n, p), vals_ref)
            anchor = x + 1e-3 * rng.standard_normal(x.size)
            value, grad = _Objective(anchor, 1e-3, 0.1, cubic, n, p)(x)
            value_ref, grad_ref = movement_objective_masked(x, anchor, 1e-3, 0.1, cubic, n, p)
            assert _close(value, value_ref)
            assert _close(grad, grad_ref)


def test_uniform_is_fixed_point_of_convex_well():
    quartic = from_polynomial([0.0, 0.0, 0.0, 0.0, 1.0], name="pure-quartic")
    f = DensityField(np.ones(128))
    out = jko_step(f, JkoConfig(tau=1e-3, m=256), 0.1, quartic)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_objective_gradient_matches_finite_differences(cubic):
    rng = np.random.default_rng(7)
    n, m = 96, 128
    anchor = np.sort(rng.random(m))
    objective = _Objective(anchor, tau_eff=1e-3, eps=0.08, spec=cubic, n=n, p_cells=3)
    x = np.sort(anchor + 0.002 * rng.standard_normal(m))
    _, grad = objective(x)
    fd = np.zeros(m)
    bump = 1e-7
    for i in range(m):
        xp = x.copy()
        xp[i] += bump
        xm = x.copy()
        xm[i] -= bump
        fd[i] = (objective(xp)[0] - objective(xm)[0]) / (2.0 * bump)
    assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(fd))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.integers(16, 256),
    st.integers(1, 8),
    st.sampled_from([1, 3]),
    st.floats(0.02, 1.0),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(128, 4, 1, 1.0, -0.5, 0)  # a full-period run wrapping across x = 0
@example(16, 1, 3, 0.05, 0.99, 1)  # a cluster straddling x = 1; 25 bands on 16 cells overlap
def test_newton_direction_solves_dense_positive_part_system(cubic, n, ratio, p_cells, span, shift, seed):
    rng = np.random.default_rng(seed)
    m = n * ratio
    x = shift + span * np.sort(rng.random(m))
    objective = _Objective(x + 1e-3 * rng.standard_normal(m), 1e-3, 0.1, cubic, n, p_cells)
    _, grad, state = objective.evaluate(x)
    step = _newton_direction(state, grad, objective)
    hess, _ = positive_part_hessian(x, 1e-3, 0.1, cubic, n, p_cells)
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
    # the ordered line search is the only ordering guard: whatever the inner solve
    # reaches, it hands back a new, ordered array
    m = max(64, n * ratio)
    anchor = shift + span * np.sort(np.random.default_rng(seed).random(m))
    # random anchors give rough densities; this tolerance and cap let about 26 of the
    # 42 draws converge and the rest raise, so both outcomes are checked
    cfg = JkoConfig(tau=tau, m=m, inner_tol=1e-3, inner_max=100)
    try:
        x, info = jko_step_positions(anchor, cfg, 0.1, cubic, n)
    except JkoConvergenceFailure as err:
        x, info = err.positions, None
    assert np.all(np.diff(x) >= 0.0) and x[-1] - x[0] < 1.0
    assert not np.shares_memory(x, anchor)
    if info is not None:
        stay_put = _Objective(anchor, tau, 0.1, cubic, n, _bandwidth_cells(cfg, n))(anchor)[0]
        assert info["objective"] <= stay_put


def test_hessian_matches_finite_differences_where_nothing_is_clipped():
    convex = from_polynomial([0.0, 0.0, 1.0, 0.0, 1.0], name="convex-quartic")
    rng = np.random.default_rng(7)
    n, m, p_cells = 96, 128, 3
    anchor = np.sort(rng.random(m))
    objective = _Objective(anchor, tau_eff=1e-3, eps=0.08, spec=convex, n=n, p_cells=p_cells)
    x = np.sort(anchor + 0.002 * rng.standard_normal(m))
    hess, clipped = positive_part_hessian(x, 1e-3, 0.08, convex, n, p_cells)
    assert np.min(convex.eval_W2(density_from_particles(x, n, p_cells))) > 0.0
    kept = np.flatnonzero(~clipped)  # D2 >= 0 at these particles, so H+ is the Hessian on them
    assert kept.size >= m // 4
    bump = 1e-6
    fd = np.zeros((m, m))
    for i in range(m):
        xp = x.copy()
        xp[i] += bump
        xm = x.copy()
        xm[i] -= bump
        fd[:, i] = (objective(xp)[1] - objective(xm)[1]) / (2.0 * bump)
    block = np.ix_(kept, kept)
    assert np.max(np.abs(hess[block] - fd[block])) <= 1e-7 * np.max(np.abs(hess))


def test_newton_step_matches_lbfgs_oracle(cubic):
    n, m = 128, 512
    positions = particles_from_density(_cosine_field(n, 0.3), m)
    for tau in (2.5e-3, 1.25e-3, 6.25e-4):
        cfg = JkoConfig(tau=tau, m=m)
        x, info = jko_step_positions(positions, cfg, 0.1, cubic, n)
        # the bandwidth is twice the particle spacing 1/512, rounded to at least one cell
        x_ref, ref = minimize_lbfgs(positions, _Objective(positions, tau, 0.1, cubic, n, 1), cfg.inner_tol, cfg.inner_max)
        assert info["objective"] <= ref["objective"] + 1e-10
        assert np.max(np.abs(x - x_ref)) <= 1e-6


def test_newton_reaches_tight_tolerance_on_criterion_4_first_step(cubic):
    # L-BFGS-B stalls near 5e-7 on the tau = 2.5e-3 step
    n, m = 128, 512
    positions = particles_from_density(_cosine_field(n, 0.3), m)
    for tau, iterations in ((2.5e-3, 22), (1.25e-3, 11), (6.25e-4, 6)):
        _, info = jko_step_positions(positions, JkoConfig(tau=tau, m=m, inner_tol=1e-9), 0.1, cubic, n)
        assert info["converged"] and info["grad_scaled"] <= 1e-9
        assert info["iterations"] == iterations


def test_displacement_scales_linearly_in_tau(cubic):
    n, m, eps = 128, 512, 0.1
    base = particles_from_density(_cosine_field(n, 0.3), m)
    moved = {}
    for tau in (4e-3, 2e-3, 1e-3):
        pos, info = jko_step_positions(base, JkoConfig(tau=tau, m=m), eps, cubic, n)
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


def test_energy_ledger_never_loosens(cubic):
    # best-so-far search makes E(k) + (1/2 tau) sum d2^2 <= E(0) exact,
    # so the reported slack stays nonpositive at any inner tolerance
    f0 = _cosine_field(128, 0.3)
    for tol in (1e-4, 1e-6):
        rec = simulate_jko(f0, JkoConfig(tau=1e-3, m=256, inner_tol=tol), 0.1, cubic, 8e-3)
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
    baseline = DensityField.normalized(
        density_from_particles(particles_from_density(f0, cfg.m), n, 1)
    )
    near_zero = de_giorgi_interpolant(f0, 1e-9, cfg, eps, cubic)
    assert w2_periodic(baseline, near_zero) < 1e-7
    # s = tau reproduces the full step
    pos = particles_from_density(f0, cfg.m)
    _, full = jko_step_positions(pos, cfg, eps, cubic, n)
    _, capped = jko_step_positions(pos, cfg, eps, cubic, n, s=cfg.tau)
    assert abs(full["objective"] - capped["objective"]) <= 2.0 * cfg.inner_tol
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
    for bad in (crossed, np.concatenate((base[:-1], [base[0] + 1.0]))):
        with pytest.raises(ValueError, match="non-decreasing"):
            jko_step_positions(bad, JkoConfig(tau=1e-3, m=256), 0.1, cubic, 128)


def test_convergence_failure_carries_best_iterate(cubic):
    base = particles_from_density(_cosine_field(128, 0.3), 256)
    cfg = JkoConfig(tau=4e-3, m=256, inner_tol=1e-13, inner_max=10)
    with pytest.raises(JkoConvergenceFailure) as excinfo:
        jko_step_positions(base, cfg, 0.1, cubic, 128)
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
    _, first = jko_step_positions(particles_from_density(f0, cfg.m), cfg, 0.1, cubic, 128)
    assert (iterations[1], halvings[1]) == (first["iterations"], first["line_search_halvings"])


def test_simulate_requires_multiple_of_tau(cubic):
    f0 = _cosine_field(128, 0.2)
    with pytest.raises(ValueError):
        simulate_jko(f0, JkoConfig(tau=3e-3, m=256), 0.1, cubic, 1e-2)


def test_ledger_csv(tmp_path, cubic):
    rec = simulate_jko(_cosine_field(128, 0.3), JkoConfig(tau=1e-3, m=256), 0.1, cubic, 4e-3)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(rec, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "step,d2_increment,energy,slack"
    assert len(rows) == len(rec.times) + 1
    last = rows[-1].split(",")
    assert int(last[0]) == len(rec.times) - 1
    assert float(last[3]) <= 1e-12
