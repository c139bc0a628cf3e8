"""Bulk free energies and their convex geometry.

A potential W : [0, inf) -> R drives both the interfacial equation and its
transport limit.  Everything downstream needs four pieces of structure:

* guarded evaluation of W, W', W'' on a working window [0, nu_max],
* the convex envelope W** with its breakpoints, which each spec carries,
* the unstable band Sigma = closure({W > W**} union {0}), a finite union of
  closed intervals, plus the marker density m0 separating the first two,
* the pressure-like primitives Q'(y) = y W'(y) - W(y) and
  Q**'(z) = z W**'(z) - W**(z).

Potentials are normalized so that W(0) = 0 and W'(0) = 0; an affine shift
changes no flux, no envelope contact set and no energy difference, so the
constructor removes it silently.  Signed potentials are fine.  Outside the
working window every evaluation continues W by its second-order Taylor
polynomial at the nearest edge, which keeps Newton iterates from sampling
runaway quartic tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from scipy.optimize import brentq


class HypothesisViolation(RuntimeError):
    """Raised when a potential falls outside the supported structural class.

    Carries a ``report`` dict describing what failed (for example the
    unstable set splitting into more intervals than allowed).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


@dataclass(frozen=True)
class PotentialSpec:
    """A bulk potential with guarded derivatives on a working window.

    ``eval_W``, ``eval_W1`` and ``eval_W2`` accept scalars or arrays and are
    defined on all of R via quadratic continuation beyond [0, domain_max].
    ``envelope`` is W** on that window; left out, it is built once when the
    spec is, so every consumer reads the same envelope.
    """

    name: str
    eval_W: Callable[[np.ndarray], np.ndarray]
    eval_W1: Callable[[np.ndarray], np.ndarray]
    eval_W2: Callable[[np.ndarray], np.ndarray]
    domain_max: float
    envelope: ConvexEnvelope | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.envelope is None:
            object.__setattr__(self, "envelope", compute_convex_envelope(self))


@dataclass(frozen=True)
class ConvexEnvelope:
    """Piecewise description of W** on [0, domain_max].

    ``breakpoints`` contains the endpoints of the alternating segments; on a
    graph segment W** follows W, on a bridge segment it follows the common
    tangent line.  Contact points are refined to ~1e-10 in the node
    coordinate.
    """

    breakpoints: np.ndarray
    eval_Wss: Callable[[np.ndarray], np.ndarray]
    eval_Wss1: Callable[[np.ndarray], np.ndarray]
    eval_Qss1: Callable[[np.ndarray], np.ndarray]
    eval_Wss2: Callable[[np.ndarray], np.ndarray]
    segments: tuple = field(repr=False)


@dataclass(frozen=True)
class UnstableSet:
    """The band Sigma where W sits strictly above its envelope, plus {0}.

    ``intervals`` has shape (p, 2) with strictly separated closed intervals,
    ``m0`` is the marker density used to split low-density from bulk mass and
    ``degenerate_first`` says whether the first interval is the isolated
    point {0}.
    """

    intervals: np.ndarray
    m0: float
    degenerate_first: bool

    @property
    def count(self):
        return self.intervals.shape[0]


def _horner(coef, x):
    """numpy's polyval without Polynomial.__call__'s domain mapping."""
    c0 = coef[-2] + coef[-1] * x if len(coef) > 1 else coef[-1] + x * 0
    for i in range(3, len(coef) + 1):
        c0 = coef[-i] + c0 * x
    return c0


def _continued(coefs, lo, hi, x):
    """p(t) + p'(t) d + p''(t) d^2 / 2 at t = x clipped to [lo, hi], d = x - t,
    for the coefficient tuples `coefs` of p, p', p'' (or of p', p'', or of p'').

    When every x lies in the window, d = 0 and the continuation terms are
    exact zeros, so p(x) alone is returned, bit for bit the same value."""
    x = np.asarray(x, dtype=float)
    if x.size and lo <= x.min() and x.max() <= hi:
        return _horner(coefs[0], x)
    t = np.clip(x, lo, hi)
    d = x - t
    out = _horner(coefs[0], t)
    if len(coefs) > 1:
        out = out + _horner(coefs[1], t) * d
    if len(coefs) > 2:
        out = out + 0.5 * _horner(coefs[2], t) * d * d
    return out


def _guarded_callables(poly, lo, hi):
    """Quadratic continuation of a polynomial outside [lo, hi], as picklable partials."""
    c0, c1, c2 = (tuple(q.coef) for q in (poly, poly.deriv(1), poly.deriv(2)))
    return tuple(partial(_continued, coefs, lo, hi) for coefs in ((c0, c1, c2), (c1, c2), (c2,)))


def from_polynomial(coefficients, name="custom"):
    """Build a :class:`PotentialSpec` from polynomial coefficients.

    Parameters
    ----------
    coefficients : sequence of float
        Coefficients c0 + c1*x + c2*x^2 + ...  The affine part (c0, c1) is
        dropped to enforce the normalization W(0) = W'(0) = 0; it affects no
        flux and no envelope geometry.

    The working window is :func:`_working_window`: [0, 8] or wider, past
    every critical and inflection point of W.  The spec carries the envelope
    on that window.
    """
    c = np.array(coefficients, dtype=float)
    if c.size < 1:
        raise ValueError("need at least one coefficient")
    c = np.concatenate([c, np.zeros(max(0, 3 - c.size))])
    c[0] = 0.0
    c[1] = 0.0
    poly = Polynomial(c)
    domain_max = _working_window(poly)
    w, w1, w2 = _guarded_callables(poly, 0.0, domain_max)
    return PotentialSpec(name=name, eval_W=w, eval_W1=w1, eval_W2=w2,
                         domain_max=domain_max)


def _working_window(poly):
    """Right end of the working window: max(8, 2r + 2), r the largest real
    critical or inflection point of W."""
    hi = 8.0
    for q in (poly.deriv(1), poly.deriv(2)):
        roots = q.roots()
        real = roots.real[np.abs(roots.imag) < 1e-9]
        if real.size:
            hi = max(hi, 2.0 * float(real.max()) + 2.0)
    return hi


_CANONICAL = {
    # W = nu^3/6 - nu^2/2: tangent construction from the origin, envelope
    # affine with slope -3/8 on [0, 3/2].
    "cubic-motivation": [0.0, 0.0, -0.5, 1.0 / 6.0],
    # W'' = (nu - 2)(nu - 3): spinodal interval (2, 3) away from density 1.
    "quartic-spinodal": [0.0, 0.0, 3.0, -5.0 / 6.0, 1.0 / 12.0],
    # W'' = (nu - 1/2)(nu - 3/2): spinodal interval straddles density 1.
    "quartic-wrinkle": [0.0, 0.0, 0.375, -1.0 / 3.0, 1.0 / 12.0],
    # Zero bulk term: pure interfacial dynamics.
    "zero": [0.0],
}


def canonical_names():
    return sorted(_CANONICAL)


def make_potential(name):
    """Construct one of the built-in potentials by name."""
    if name not in _CANONICAL:
        raise KeyError(f"unknown potential {name!r}; choices: {canonical_names()}")
    return from_polynomial(_CANONICAL[name], name=name)


def _pressure_primitive(w, w1, y):
    """y w1(y) - w(y): Q' of a potential w with derivative w1."""
    y = np.asarray(y, dtype=float)
    return y * w1(y) - w(y)


def eval_q1(spec, y):
    """Pressure primitive Q'(y) = y W'(y) - W(y)."""
    return _pressure_primitive(spec.eval_W, spec.eval_W1, y)


# ---------------------------------------------------------------------------
# Convex envelope
# ---------------------------------------------------------------------------

def _lower_hull_indices(x, y):
    """Indices of the lower convex hull of the graph points, left to right."""
    x, y = x.tolist(), y.tolist()  # Python floats: same arithmetic, no numpy scalar per access
    keep = [0]
    for i in range(1, len(x)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            # pop b unless (a, b, i) makes a strict upward turn
            lhs = (y[b] - y[a]) * (x[i] - x[b])
            rhs = (y[i] - y[b]) * (x[b] - x[a])
            if lhs < rhs:
                break
            keep.pop()
        keep.append(i)
    return np.array(keep)


def _refine_bridge(spec, x_lo, x_hi, a0, b0, dx, interior_lo, interior_hi):
    """Sharpen one bridge's contact points.

    A bridge with two interior contacts is a bitangent; with an endpoint
    contact it is a tangent line through that endpoint.  Both reduce to
    scalar root problems that bisection solves without smoothness caveats:
    phi(a) below is strictly decreasing because phi'(a) = -W''(a) (b - a).
    """
    w, w1 = spec.eval_W, spec.eval_W1

    def tangent_through(point_x, point_y, lo, hi):
        # root of W(t) - point_y - W'(t)(t - point_x), monotone in t near contact
        def g(t):
            return float(w(t) - point_y - w1(t) * (t - point_x))
        lo, hi = _widen_bracket(g, lo, hi, x_lo, x_hi)
        return brentq(g, lo, hi, xtol=1e-12)

    if not interior_lo and not interior_hi:
        return a0, b0
    if not interior_lo:
        b = tangent_through(a0, float(w(a0)), max(b0 - 2 * dx, a0 + dx), min(b0 + 2 * dx, x_hi))
        return a0, b
    if not interior_hi:
        a = tangent_through(b0, float(w(b0)), max(a0 - 2 * dx, x_lo), min(a0 + 2 * dx, b0 - dx))
        return a, b0

    def other_contact(a):
        def g(t):
            return float(w1(t) - w1(a))
        lo, hi = _widen_bracket(g, max(b0 - 2 * dx, a + dx), min(b0 + 2 * dx, x_hi), x_lo, x_hi)
        return brentq(g, lo, hi, xtol=1e-12)

    def phi(a):
        b = other_contact(a)
        return float(w(b) - w(a) - w1(a) * (b - a))

    lo, hi = _widen_bracket(phi, max(a0 - 2 * dx, x_lo), min(a0 + 2 * dx, b0 - dx), x_lo, x_hi)
    a = brentq(phi, lo, hi, xtol=1e-12)
    return a, other_contact(a)


def _widen_bracket(g, lo, hi, floor, ceil, max_steps=60):
    """Grow [lo, hi] geometrically until g changes sign."""
    glo, ghi = g(lo), g(hi)
    width = hi - lo
    steps = 0
    while glo * ghi > 0 and steps < max_steps:
        lo = max(floor, lo - width)
        hi = min(ceil, hi + width)
        width *= 1.6
        glo, ghi = g(lo), g(hi)
        steps += 1
    if glo * ghi > 0:
        raise RuntimeError("could not bracket envelope contact point")
    return lo, hi


def compute_convex_envelope(spec):
    """Convex envelope of W on [0, domain_max].

    Samples the graph at 2048 points, takes the lower convex hull, classifies
    hull edges as graph contact or bridges, and refines every bridge's
    contact points by bisection.  An edge is a bridge only when the graph
    rises above its chord by more than 1e-9 of the sampled range of W (1e-39
    for a flat W); shallower edges are flat stretches of W itself.
    """
    x = np.linspace(0.0, spec.domain_max, 2048)
    y = spec.eval_W(x)
    contact_tol = 1e-9 * max(float(y.max() - y.min()), 1e-30)

    hull = _lower_hull_indices(x, y)
    dx = x[1] - x[0]

    bridges = []
    for p, q in zip(hull[:-1], hull[1:]):
        if q == p + 1:
            continue
        xs, ys = x[p:q + 1], y[p:q + 1]
        chord = ys[0] + (ys[-1] - ys[0]) * (xs - xs[0]) / (xs[-1] - xs[0])
        if float((ys - chord).max()) <= contact_tol:
            continue  # flat stretch of W itself, not a true bridge
        a, b = _refine_bridge(spec, 0.0, spec.domain_max, x[p], x[q], dx,
                              interior_lo=(p > 0), interior_hi=(q < x.size - 1))
        bridges.append((float(a), float(b)))

    segments = []
    cursor = 0.0
    for a, b in bridges:
        if a > cursor + 1e-14:
            segments.append(("graph", cursor, a, 0.0, 0.0))
        wa = float(spec.eval_W(a))
        slope = (float(spec.eval_W(b)) - wa) / (b - a)
        segments.append(("bridge", a, b, slope, wa - slope * a))
        cursor = b
    if cursor < spec.domain_max - 1e-14 or not segments:
        segments.append(("graph", cursor, spec.domain_max, 0.0, 0.0))
    segments = tuple(segments)

    breakpoints = np.array([segments[0][1]] + [s[2] for s in segments])
    starts = np.array([s[1] for s in segments])
    is_bridge = np.array([s[0] == "bridge" for s in segments])
    slopes = np.array([s[3] for s in segments])
    intercepts = np.array([s[4] for s in segments])

    graph = (spec.eval_W, spec.eval_W1, spec.eval_W2)
    wss, wss1, wss2 = (partial(_envelope_piece, starts, is_bridge, slopes, intercepts, order, graph[order])
                       for order in range(3))
    return ConvexEnvelope(breakpoints=breakpoints, eval_Wss=wss, eval_Wss1=wss1,
                          eval_Qss1=partial(_pressure_primitive, wss, wss1), eval_Wss2=wss2,
                          segments=segments)


def _envelope_piece(starts, is_bridge, slopes, intercepts, order, on_graph, z):
    """Derivative `order` of W**: the tangent line on bridge segments, W on graph segments."""
    z = np.asarray(z, dtype=float)
    idx = np.clip(np.searchsorted(starts, z, side="right") - 1, 0, starts.size - 1)
    if order == 0:
        on_bridge = slopes[idx] * z + intercepts[idx]
    elif order == 1:
        on_bridge = slopes[idx]
    else:
        on_bridge = 0.0
    out = np.where(is_bridge[idx], on_bridge, on_graph(z))
    return out if out.shape else float(out)


def compute_unstable_set(envelope, max_intervals=8):
    """Extract Sigma and the marker density m0 from an envelope.

    Raises :class:`HypothesisViolation` when Sigma splits into more than
    ``max_intervals`` intervals, which signals a potential outside the
    finitely-wrinkled structural class.  A first bridge starting within
    1e-10 of 0 absorbs the point {0}.
    """
    bands = [(s[1], s[2]) for s in envelope.segments if s[0] == "bridge"]
    if bands and bands[0][0] <= 1e-10:
        intervals = [(0.0, bands[0][1])] + list(bands[1:])
        degenerate_first = False
    else:
        intervals = [(0.0, 0.0)] + list(bands)
        degenerate_first = True
    arr = np.array(intervals, dtype=float)
    if arr.shape[0] > max_intervals:
        raise HypothesisViolation(
            f"unstable set has {arr.shape[0]} components (limit {max_intervals})",
            report={"intervals": arr.tolist()},
        )
    if arr.shape[0] == 1:
        m0 = float(arr[0, 1]) + 1.0
    else:
        m0 = 0.5 * (float(arr[0, 1]) + float(arr[1, 0]))
    return UnstableSet(intervals=arr, m0=m0, degenerate_first=degenerate_first)


def distance_to_sigma(values, unstable):
    """Pointwise distance from density values to the unstable band."""
    v = np.asarray(values, dtype=float)
    lo = unstable.intervals[:, 0]
    hi = unstable.intervals[:, 1]
    below = lo[None, ...] - v[..., None]
    above = v[..., None] - hi[None, ...]
    per_interval = np.maximum(np.maximum(below, above), 0.0)
    out = per_interval.min(axis=-1)
    return out if out.shape else float(out)


def validate_hypotheses(spec):
    """Report on the structural hypotheses; never raises.

    Checks, on 4096 samples of the working window: the growth controls
    Q' <= C(1 + W) and |W'| <= C(1 + W), divergence of Q' toward the right
    edge, the finite-band structure of Sigma (at most 8 intervals), and
    strict convexity of W off Sigma.  Returns a dict with one entry per
    hypothesis plus an overall ``ok`` flag.
    """
    report = {}

    x = np.linspace(0.0, spec.domain_max, 4096)
    w = spec.eval_W(x)
    q1 = eval_q1(spec, x)
    w1 = spec.eval_W1(x)
    denom = 1.0 + w
    if float(denom.min()) <= 0.0:
        report["h1"] = {"ok": False, "reason": "1 + W vanishes on the window"}
    else:
        c_growth = float(max((q1 / denom).max(), (np.abs(w1) / denom).max()))
        report["h1"] = {"ok": np.isfinite(c_growth), "constant": c_growth}

    tail = x >= 0.75 * spec.domain_max
    q_tail = q1[tail]
    increasing = bool(np.all(np.diff(q_tail) > -1e-12 * max(1.0, np.abs(q_tail).max())))
    report["h2"] = {
        "ok": increasing and float(q_tail[-1]) > float(q1[~tail].max()),
        "q1_at_edge": float(q_tail[-1]),
    }

    try:
        unstable = compute_unstable_set(spec.envelope)
    except HypothesisViolation as exc:
        report["h3"] = {"ok": False, "reason": str(exc)}
        report["h4"] = {"ok": False, "reason": "Sigma unavailable"}
    else:
        report["h3"] = {"ok": True, "count": unstable.count, "m0": unstable.m0,
                        "intervals": unstable.intervals.tolist()}
        dist = distance_to_sigma(x, unstable)
        outside = dist > max(1e-6 * spec.domain_max, 1e-9)
        if outside.any():
            min_w2 = float(spec.eval_W2(x[outside]).min())
            report["h4"] = {"ok": min_w2 > 0.0, "min_W2_off_sigma": min_w2}
        else:
            report["h4"] = {"ok": False, "reason": "no sample off Sigma"}

    report["normalization"] = {
        "ok": abs(float(spec.eval_W(0.0))) <= 1e-12 and abs(float(spec.eval_W1(0.0))) <= 1e-12,
        "W0": float(spec.eval_W(0.0)),
        "W1_0": float(spec.eval_W1(0.0)),
    }
    report["ok"] = all(entry.get("ok", False) for entry in report.values()
                       if isinstance(entry, dict))
    return report
