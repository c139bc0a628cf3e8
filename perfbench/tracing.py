"""Spans and call counts around chflow's public functions, from outside the package.

`Tracer.install()` replaces each wrapped public function with a recording
wrapper in every loaded ``chflow`` module that binds it (so ``from .x import y``
bindings are covered too), wraps scipy's sparse LU entry point (its spans
belong to the calling layer, so LU time is part of that layer's self time),
and makes the potential constructors return copies of their frozen dataclasses whose
callables count calls.  `Tracer.uninstall()` puts every original back.

Spans and counts are recorded only while a pass is open (`begin_pass` ..
`end_pass`); set-up and correctness checks run through the wrappers
unrecorded.  Private helpers (`_newton`, `_advance_eps`, `_Objective`, ...)
are never wrapped: their time is their caller's self time.
"""

import dataclasses
import functools
import sys
import time
from collections import Counter

import numpy as np

# layer -> (module, functions recorded as spans, functions only counted).
# Operators called once per residual (laplacian, quantiles_at, ...) are
# counted or left alone, because a span per call would dominate their cost.
LAYERS = {
    "potential": (
        "chflow.potential",
        ("make_potential", "from_polynomial", "compute_convex_envelope", "compute_unstable_set",
         "validate_hypotheses"),
        (),
    ),
    "w2": ("chflow.wasserstein1d", ("w2_periodic", "geodesic", "metric_speed", "to_quantiles"),
           ("quantiles_at",)),
    "functionals": (
        "chflow.functionals",
        ("energy_report", "energy_eps", "energy_star", "slope_eps", "slope_star"),
        (),
    ),
    "solvers": (
        "chflow.solvers",
        ("simulate_eps", "simulate_limit", "step_eps", "step_limit", "step_limit_values"),
        (),
    ),
    "jko": ("chflow.jko", ("simulate_jko", "jko_step", "jko_step_positions", "de_giorgi_interpolant"), ()),
    "nonlocal": (
        "chflow.nonlocal_model",
        ("simulate_nonlocal", "compare_local_nonlocal", "step_nonlocal", "energy_nonlocal", "make_kernel"),
        ("convolve_periodic",),
    ),
    "diagnostics": (
        "chflow.diagnostics",
        ("wrinkling_report", "calibrate_delta", "energy_dissipation_audit", "well_preparedness",
         "h1_local", "u_lambda_membership"),
        (),
    ),
    "harness": (
        "chflow.harness",
        ("run_single", "run_sweep", "write_manifest", "generate_initial", "experiment_from_dict",
         "load_config"),
        (),
    ),
}

_SPEC_FIELDS = ("eval_W", "eval_W1", "eval_W2")
_ENV_FIELDS = ("eval_Wss", "eval_Wss1", "eval_Wss2", "eval_Qss1")
_HALVING_REASONS = {"newton_stagnated": "Newton damping stagnated", "energy_rise": "energy increased"}
_BENCH = "bench"


class _TracedLU:
    """SuperLU stand-in whose solve is recorded as a span of the layer that factorised it."""

    def __init__(self, lu, tracer, layer):
        self._lu = lu
        self._tracer = tracer
        self._layer = layer

    def solve(self, rhs, *args, **kwargs):
        return self._tracer.record(self._layer, "SuperLU.solve", self._lu.solve, rhs, *args, **kwargs)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, pass id]
        self.counts = {}  # pass id -> Counter of (caller layer, key)
        self.halvings = {}  # pass id -> list of (layer, function, Counter of reasons)
        self.pass_id = None
        self._stack = []
        self._in_counted = False
        self._patches = []

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scipy.sparse.linalg as spla

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "chflow" or name.startswith("chflow."))]
        for layer, (modname, span_names, count_names) in LAYERS.items():
            mod = sys.modules[modname]
            for name in span_names:
                fn = getattr(mod, name)
                self._patch_everywhere(modules, fn, self._span_wrapper(layer, name, fn))
            for name in count_names:
                fn = getattr(mod, name)
                self._patch_everywhere(modules, fn, self._counting(name, fn))
        # a layer of None records the span in the calling layer
        self._patch(spla, "splu", self._span_wrapper(None, "splu", spla.splu))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    # -- recording -----------------------------------------------------------

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.counts[pass_id] = Counter()
        self.halvings[pass_id] = []

    def end_pass(self):
        self.pass_id = None

    def _layer(self):
        return self.spans[self._stack[-1]][1] if self._stack else _BENCH

    def record(self, layer, name, fn, /, *args, **kwargs):
        """Call fn inside a span when a pass is open, else call it directly."""
        if self.pass_id is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = [name, layer, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, layer, name, fn):
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = self.pass_id
            where = layer or self._layer()
            result = self.record(where, name, fn, *args, **kwargs)
            if after is not None:
                result = after(self, where, name, result, active)
            return result

        return wrapper

    def _counting(self, key, fn):
        """Count calls by the innermost layer; calls nested in a counted call are not counted."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.pass_id is None or self._in_counted:
                return fn(*args, **kwargs)
            self.counts[self.pass_id][(self._layer(), key)] += 1
            self._in_counted = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_counted = False

        counted.perfbench_counting = True
        return counted

    # -- result hooks (run whether or not a pass is open) ----------------------

    def _counting_copy(self, layer, name, obj, active):
        fields = _SPEC_FIELDS if hasattr(obj, "eval_W") else _ENV_FIELDS
        if getattr(getattr(obj, fields[0]), "perfbench_counting", False):
            return obj
        return dataclasses.replace(obj, **{f: self._counting(f, getattr(obj, f)) for f in fields})

    def _record_halvings(self, layer, name, record, active):
        if active is not None:
            reasons = Counter(ev.get("reason", "") for ev in record.events if ev.get("type") == "dt-halve")
            self.halvings[active].append((layer, name, reasons))
        return record

    def _record_jko_info(self, layer, name, result, active):
        if active is not None:
            self.counts[active][(layer, "inner_iters")] += int(result[1]["iterations"])
        return result

    def _traced_lu(self, layer, name, lu, active):
        return lu if active is None else _TracedLU(lu, self, layer)

    _after = {
        "make_potential": _counting_copy,
        "from_polynomial": _counting_copy,
        "compute_convex_envelope": _counting_copy,
        "simulate_eps": _record_halvings,
        "simulate_limit": _record_halvings,
        "simulate_nonlocal": _record_halvings,
        "jko_step_positions": _record_jko_info,
        "splu": _traced_lu,
    }

    # -- per-pass metrics ----------------------------------------------------

    def pass_metrics(self, pass_id):
        """Per-layer counts and times of one pass, keyed by metric name."""
        idx = [i for i, s in enumerate(self.spans) if s[5] == pass_id]
        child_time = Counter()
        for i in idx:
            name, layer, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child_time[parent] += end - start
        self_s = Counter()
        outer = Counter()  # calls into a layer from another layer, and their time
        outer_s = Counter()
        durations = {}  # (layer, name) -> span durations
        for i in idx:
            name, layer, start, end, parent, _ = self.spans[i]
            self_s[layer] += (end - start) - child_time[i]
            durations.setdefault((layer, name), []).append(end - start)
            if parent is None or self.spans[parent][1] != layer:
                outer[layer] += 1
                outer_s[layer] += end - start
        counts = self.counts.get(pass_id, Counter())
        calls = Counter(self.spans[i][0] for i in idx)

        halvings = Counter()
        halving_reasons = Counter()
        for layer, _, reasons in self.halvings.get(pass_id, []):
            halvings[layer] += sum(reasons.values())
            if layer == "solvers":
                for key, prefix in _HALVING_REASONS.items():
                    halving_reasons[key] += sum(n for r, n in reasons.items() if r.startswith(prefix))

        runs = calls["simulate_eps"] + calls["simulate_limit"]
        # one energy check per accepted step and per energy-rise rejection, plus
        # the initial energy of each run; the eps flow checks W, the limit flow W**
        checks = counts[("solvers", "eval_W")] + counts[("solvers", "eval_Wss")]
        accepted = checks - runs - halving_reasons["energy_rise"] if runs else 0
        attempts = accepted + halvings["solvers"]
        w2_ms = np.array(durations.get(("w2", "w2_periodic"), [])) * 1e3
        objective_evals = counts[("jko", "eval_W1")]
        linsolve = durations.get(("solvers", "splu"), []) + durations.get(("solvers", "SuperLU.solve"), [])

        return {
            "solvers.step_attempts": attempts,
            "solvers.steps_accepted": accepted,
            "solvers.useful_ratio": accepted / attempts if attempts else 1.0,
            "solvers.dt_halvings": halvings["solvers"],
            "solvers.halve.newton_stagnated": halving_reasons["newton_stagnated"],
            "solvers.halve.energy_rise": halving_reasons["energy_rise"],
            "solvers.newton_iters": counts[("solvers", "eval_W2")] + counts[("solvers", "eval_Wss2")],
            "solvers.residual_evals": counts[("solvers", "eval_W1")] + counts[("solvers", "eval_Qss1")],
            "solvers.linsolve_calls": len(durations.get(("solvers", "splu"), [])),
            "solvers.linsolve_s": float(sum(linsolve)),
            "solvers.self_s": float(self_s["solvers"]),
            "w2.calls": calls["w2_periodic"],
            "w2.quantile_lookups": counts[("w2", "quantiles_at")],
            "w2.self_s": float(self_s["w2"]),
            "w2.ms.p50": float(np.percentile(w2_ms, 50)) if w2_ms.size else 0.0,
            "w2.ms.p90": float(np.percentile(w2_ms, 90)) if w2_ms.size else 0.0,
            "functionals.report_calls": outer["functionals"],
            "functionals.report_s": float(outer_s["functionals"]),
            "potential.envelope_calls": calls["compute_convex_envelope"],
            "potential.envelope_s": float(sum(durations.get(("potential", "compute_convex_envelope"), []))),
            "jko.outer_steps": calls["jko_step_positions"],
            "jko.inner_iters": counts[("jko", "inner_iters")],
            "jko.objective_evals": objective_evals,
            "jko.self_s": float(self_s["jko"]),
            "jko.eval_us": 1e6 * self_s["jko"] / objective_evals if objective_evals else 0.0,
            "nonlocal.runs": calls["simulate_nonlocal"],
            "nonlocal.convolutions": sum(n for (_, key), n in counts.items() if key == "convolve_periodic"),
            "nonlocal.dt_halvings": halvings["nonlocal"],
            "nonlocal.self_s": float(self_s["nonlocal"]),
            "diagnostics.calls": outer["diagnostics"],
            "diagnostics.self_s": float(self_s["diagnostics"]),
            "harness.self_s": float(self_s["harness"]),
        }

    def halving_breakdown(self, pass_id):
        """Halvings of each simulate call of one pass, in call order, by reason."""
        return [{"layer": layer, "function": name, "reasons": dict(reasons)}
                for layer, name, reasons in self.halvings.get(pass_id, [])]

    def span_dicts(self):
        keys = ("name", "layer", "start", "end", "parent", "pass")
        return [dict(zip(keys, s)) for s in self.spans]
