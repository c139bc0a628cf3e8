"""Envelope geometry against closed-form constructions.

The three built-in potentials admit exact contact points:

* cubic: W = x^3/6 - x^2/2 has Q'(y) = y^3/3 - y^2/2, so the tangent from
  the origin touches at y = 3/2 with slope W'(3/2) = -3/8.
* both quartics have W'' symmetric about its midpoint c, so the bitangent
  contacts sit at c -+ s where s^3/3 - s/4 = 0, i.e. s = sqrt(3)/2.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import Polynomial

from chflow.potential import (
    HypothesisViolation,
    PotentialSpec,
    compute_convex_envelope,
    compute_unstable_set,
    distance_to_sigma,
    eval_q1,
    from_polynomial,
    make_potential,
    validate_hypotheses,
)
from chflow.potential import _CANONICAL, _guarded_callables

from oracles import guarded_polynomial

S = np.sqrt(3.0) / 2.0
SPINODAL_A, SPINODAL_B = 2.5 - S, 2.5 + S
WRINKLE_A, WRINKLE_B = 1.0 - S, 1.0 + S


@pytest.fixture(scope="module")
def cubic():
    spec = make_potential("cubic-motivation")
    env = compute_convex_envelope(spec)
    uset = compute_unstable_set(env)
    return spec, env, uset


@pytest.fixture(scope="module")
def quartics():
    out = {}
    for name in ("quartic-spinodal", "quartic-wrinkle"):
        spec = make_potential(name)
        env = compute_convex_envelope(spec)
        out[name] = (spec, env, compute_unstable_set(env))
    return out


def test_cubic_pointwise_values(cubic):
    spec, env, _ = cubic
    assert spec.eval_W(1.0) == pytest.approx(-1.0 / 3.0, abs=1e-14)
    assert spec.eval_W1(1.0) == pytest.approx(-0.5, abs=1e-14)
    assert eval_q1(spec, 1.0) == pytest.approx(-1.0 / 6.0, abs=1e-14)
    assert eval_q1(spec, 1.5) == pytest.approx(0.0, abs=1e-14)
    assert env.eval_Wss(1.0) == pytest.approx(-3.0 / 8.0, abs=1e-9)
    assert env.eval_Wss1(0.7) == pytest.approx(-3.0 / 8.0, abs=1e-9)


def test_cubic_envelope_breakpoints(cubic):
    _, env, uset = cubic
    assert np.any(np.abs(env.breakpoints - 1.5) < 1e-9)
    assert uset.count == 1
    assert not uset.degenerate_first
    np.testing.assert_allclose(uset.intervals[0], [0.0, 1.5], atol=1e-9)
    assert uset.m0 == pytest.approx(2.5, abs=1e-9)


def test_quartic_spinodal_bitangent(quartics):
    spec, env, uset = quartics["quartic-spinodal"]
    assert uset.count == 2
    assert uset.degenerate_first
    np.testing.assert_allclose(uset.intervals[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(uset.intervals[1], [SPINODAL_A, SPINODAL_B], atol=1e-8)
    assert uset.m0 == pytest.approx(SPINODAL_A / 2.0, abs=1e-8)
    # density 1 sits in the convex region, so the envelope follows W there
    assert env.eval_Wss(1.0) == pytest.approx(spec.eval_W(1.0), abs=1e-12)
    assert spec.eval_W(1.0) == pytest.approx(2.25, abs=1e-14)


def test_quartic_wrinkle_bitangent(quartics):
    spec, env, uset = quartics["quartic-wrinkle"]
    assert spec.eval_W2(1.0) == pytest.approx(-0.25, abs=1e-14)
    assert uset.count == 2
    assert uset.degenerate_first
    np.testing.assert_allclose(uset.intervals[1], [WRINKLE_A, WRINKLE_B], atol=1e-8)
    assert uset.m0 == pytest.approx(WRINKLE_A / 2.0, abs=1e-8)
    # bridge midpoint value equals the chord average of the contact values
    mid = 0.5 * (spec.eval_W(WRINKLE_A) + spec.eval_W(WRINKLE_B))
    assert env.eval_Wss(1.0) == pytest.approx(mid, abs=1e-8)


@pytest.fixture(scope="module")
def wrinkle_on_unit_window():
    # quartic-wrinkle's W cut at 1, inside its bitangent: the last bridge ends
    # at the window's right edge, a tangent line through (1, W(1))
    w, w1, w2 = _guarded_callables(Polynomial(_CANONICAL["quartic-wrinkle"]), 0.0, 1.0)
    return PotentialSpec(name="wrinkle-unit", eval_W=w, eval_W1=w1, eval_W2=w2, domain_max=1.0)


def test_right_edge_tangent_contact(wrinkle_on_unit_window):
    spec = wrinkle_on_unit_window
    env = spec.envelope
    kinds = [seg[0] for seg in env.segments]
    assert kinds == ["graph", "bridge"]
    # W(1) - W(a) = W'(a)(1 - a) at a = 1 - 1/sqrt(2)
    assert env.segments[1][1] == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-15)
    assert env.segments[1][2] == 1.0
    assert float(env.eval_Wss(1.0)) == pytest.approx(float(spec.eval_W(1.0)), abs=1e-15)


def test_pressure_is_flat_on_every_bridge(wrinkle_on_unit_window):
    # Q**' on a bridge is minus the tangent line's intercept, the same bits at every
    # point, so the limit flow is exactly degenerate there; cubic-motivation's
    # bridge starts at 0, and its tangent line continues below 0
    custom = from_polynomial([0.0, 0.0, 1.0, -1.0, 0.3])
    for spec in [*(make_potential(name) for name in _CANONICAL), custom, wrinkle_on_unit_window]:
        for kind, a, b, _, intercept in spec.envelope.segments:
            if kind != "bridge":
                continue
            points = np.linspace(a, b, 1002)[1:-1]
            if a == 0.0:
                points = np.concatenate([points, np.linspace(-1.0, 0.0, 100)])
            q = spec.envelope.eval_Qss1(points)
            assert np.ptp(q) == 0.0, (spec.name, a, b, np.ptp(q))
            assert q[0] == -intercept


def test_envelope_below_and_convex(quartics, cubic, wrinkle_on_unit_window):
    edge = (wrinkle_on_unit_window, wrinkle_on_unit_window.envelope, None)
    for spec, env, _ in [cubic, edge] + list(quartics.values()):
        x = np.linspace(0.0, spec.domain_max, 3001)
        w = spec.eval_W(x)
        wss = env.eval_Wss(x)
        scale = max(float(np.abs(w).max()), 1.0)
        assert float((wss - w).max()) <= 1e-12 * scale
        second = np.diff(wss, 2)
        assert float(second.min()) >= -1e-10 * scale
        q = env.eval_Qss1(x)
        assert float(np.diff(q).min()) >= -1e-10 * scale


def test_envelope_idempotent(cubic):
    spec, env, _ = cubic
    # feed W** back in as a potential; its envelope must be itself
    flat = PotentialSpec(name="hulled", eval_W=env.eval_Wss, eval_W1=env.eval_Wss1,
                         eval_W2=env.eval_Wss2, domain_max=spec.domain_max)
    env2 = compute_convex_envelope(flat)
    x = np.linspace(0.0, spec.domain_max, 2001)
    assert float(np.abs(env2.eval_Wss(x) - env.eval_Wss(x)).max()) <= 1e-9


def test_q1_consistency_with_derivative(cubic):
    # Q'' = y W'', so differences of Q' must track y W'(y) differences
    spec, _, _ = cubic
    y = np.linspace(0.0, 3.0, 2001)
    q = eval_q1(spec, y)
    dq = np.gradient(q, y)
    assert np.allclose(dq[5:-5], (y * spec.eval_W2(y))[5:-5], atol=5e-5)


def test_distance_to_sigma(quartics):
    _, _, uset = quartics["quartic-spinodal"]
    d = distance_to_sigma(np.array([0.0, 1.0, 2.0, SPINODAL_B + 0.5]), uset)
    # density 1 is nearer to [a, b] than to {0}; density 2 lies inside the band
    expected = [0.0, SPINODAL_A - 1.0, 0.0, 0.5]
    np.testing.assert_allclose(d, expected, atol=1e-8)


def test_distance_is_lipschitz(cubic):
    _, _, uset = cubic
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 8.0, size=400)
    y = x + rng.uniform(-0.5, 0.5, size=400)
    dx = distance_to_sigma(x, uset)
    dy = distance_to_sigma(y, uset)
    assert np.all(np.abs(dx - dy) <= np.abs(x - y) + 1e-12)


def test_normalization_applied():
    spec = from_polynomial([3.0, -2.0, 1.0, 0.5], name="shifted")
    assert spec.eval_W(0.0) == pytest.approx(0.0, abs=1e-14)
    assert spec.eval_W1(0.0) == pytest.approx(0.0, abs=1e-14)
    # curvature untouched by the affine gauge fix
    assert spec.eval_W2(0.0) == pytest.approx(2.0, abs=1e-14)


def test_guarded_extension_is_quadratic(cubic):
    spec, _, _ = cubic
    hi = spec.domain_max
    x = hi + 2.0
    expected = spec.eval_W(hi) + spec.eval_W1(hi) * 2.0 + 0.5 * spec.eval_W2(hi) * 4.0
    assert spec.eval_W(x) == pytest.approx(float(expected), rel=1e-13)
    assert spec.eval_W2(x) == pytest.approx(float(spec.eval_W2(hi)), rel=1e-13)
    # below zero the continuation keeps the normalized contact at the origin
    assert spec.eval_W(-1.0) == pytest.approx(0.5 * float(spec.eval_W2(0.0)), rel=1e-12)


def test_hypothesis_reports_pass_for_builtins(quartics, cubic):
    for spec, _, _ in [cubic] + list(quartics.values()):
        report = validate_hypotheses(spec)
        assert report["ok"], report


def _sine_ripple_spec():
    # W = nu^2 + 0.05 sin(40 nu) on [0, 4]: a convex bowl with 26 ripple bands
    def w(v):
        v = np.asarray(v, dtype=float)
        return v * v + 0.05 * np.sin(40.0 * v)

    def w1(v):
        v = np.asarray(v, dtype=float)
        return 2.0 * v + 2.0 * np.cos(40.0 * v)

    def w2(v):
        return 2.0 - 80.0 * np.sin(40.0 * np.asarray(v, dtype=float))

    return PotentialSpec(name="sine-ripple", eval_W=w, eval_W1=w1, eval_W2=w2, domain_max=4.0)


@pytest.mark.parametrize(
    "make_spec, bridges, failed",
    [
        # W = -nu^2 is concave: one chord spans the whole window, so Sigma is all of it
        (lambda: from_polynomial([0.0, 0.0, -1.0], name="concave"), 1,
         {"h1": "1 + W vanishes on the window", "h4": "no sample off Sigma"}),
        (_sine_ripple_spec, 26,
         {"h3": "unstable set has 26 components (limit 8)", "h4": "Sigma unavailable"}),
    ],
    ids=["whole-window-chord", "too-many-bands"],
)
def test_hypothesis_reports_name_what_fails(make_spec, bridges, failed):
    spec = make_spec()
    assert sum(seg[0] == "bridge" for seg in spec.envelope.segments) == bridges
    report = validate_hypotheses(spec)
    assert report["ok"] is False
    for key, reason in failed.items():
        assert report[key] == {"ok": False, "reason": reason}


def test_too_many_bands_raises():
    # W'' with five sign changes on the window yields two separated bands
    rng = np.linspace(0.5, 4.5, 5)
    w2 = np.polynomial.Polynomial([1.0])
    for r in rng:
        w2 = w2 * np.polynomial.Polynomial([-r, 1.0])
    w = w2.integ(2)
    spec = from_polynomial(w.coef, name="wiggly")
    env = spec.envelope
    uset = compute_unstable_set(env)
    assert uset.count == 2
    # 26 ripple bands are past the limit of 8 components
    with pytest.raises(HypothesisViolation, match=r"unstable set has 26 components \(limit 8\)"):
        compute_unstable_set(_sine_ripple_spec().envelope)


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        make_potential("sextic")
    with pytest.raises(ValueError, match="need at least one coefficient"):
        from_polynomial([])


CANONICAL_SPECS = {name: make_potential(name) for name in _CANONICAL}


def _normalized(coefficients):
    c = np.zeros(max(3, len(coefficients)))
    c[2:len(coefficients)] = coefficients[2:]
    return Polynomial(c)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(u=arrays(np.float64, st.integers(1, 40), elements=st.floats(-2.0, 3.0)))
def test_guarded_callables_equal_polynomial_evaluation(u):
    # Horner on the coefficient tuples repeats Polynomial.__call__ bit for bit,
    # inside and outside the working window [0, domain_max], for every
    # canonical potential ("zero" included)
    for name, spec in CANONICAL_SPECS.items():
        x = u * spec.domain_max
        for got, want in zip(
            (spec.eval_W, spec.eval_W1, spec.eval_W2),
            guarded_polynomial(_normalized(_CANONICAL[name]), 0.0, spec.domain_max),
        ):
            assert np.array_equal(got(x), want(x))
            assert got(float(x[0])) == want(float(x[0]))
    for coefficients in ([0.7], [0.7, -1.3], [0.0, 0.0, 2.0, -1.0]):  # degree 0, 1 and 3
        poly = Polynomial(coefficients)
        for got, want in zip(_guarded_callables(poly, 0.0, 1.5), guarded_polynomial(poly, 0.0, 1.5)):
            assert np.array_equal(got(u), want(u))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    coefficients=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
    lo=st.floats(-1.0, 1.0),
    width=st.floats(0.1, 3.0),
    u=arrays(np.float64, st.integers(1, 30), elements=st.floats(-0.5, 1.5)),
)
def test_in_window_evaluation_equals_continued_formula(coefficients, lo, width, u):
    # inside the window the continuation terms vanish, so skipping them changes no bit;
    # points outside the window, all inside it, and a scalar on its edge
    hi = lo + width
    poly = Polynomial(coefficients)
    x = lo + u * width
    for points in (x, np.clip(x, lo, hi), hi):
        for got, want in zip(_guarded_callables(poly, lo, hi), guarded_polynomial(poly, lo, hi)):
            assert np.array_equal(got(points), want(points))


def _every_evaluation(spec):
    env = spec.envelope
    return (spec.eval_W, spec.eval_W1, spec.eval_W2, env.eval_Wss, env.eval_Wss1, env.eval_Wss2, env.eval_Qss1)


def test_potentials_survive_pickling_bit_for_bit():
    # sweep workers receive the spec by pickle, so the copy must evaluate
    # exactly as the original, inside the window and past both of its ends
    custom = from_polynomial([0.0, 0.0, 1.0, -1.0, 0.3])  # graph, bridge, graph
    for spec in [*CANONICAL_SPECS.values(), custom]:
        copy = pickle.loads(pickle.dumps(spec))
        assert (copy.name, copy.domain_max) == (spec.name, spec.domain_max)
        np.testing.assert_array_equal(copy.envelope.breakpoints, spec.envelope.breakpoints)
        x = np.linspace(-1.0, spec.domain_max + 1.0, 4001)
        for got, want in zip(_every_evaluation(copy), _every_evaluation(spec)):
            assert np.array_equal(got(x), want(x))
            assert got(float(x[-1])) == want(float(x[-1]))
