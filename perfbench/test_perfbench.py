"""Tests of the benchmark itself, on configs small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

import sys

import pytest
import scipy.sparse.linalg

import run
import tracing
from workloads import WORKLOADS

TINY = {
    "dispersion": {"solver": {"n": 64, "dt": 2e-5, "eps": 0.05, "t_end": 4e-5, "theta_scheme": 0.5,
                              "newton_tol": 1e-13},
                   "modes": [1], "output_count": 3},
    "nonlocal": {"solver": {"n": 64, "dt": 2e-4, "eps": 0.1, "t_end": 1e-3}, "output_count": 3},
    "sweep": {"solver": {"n": 32, "dt": 2e-4, "eps": 0.1, "t_end": 1e-3}, "eps_list": [0.2, 0.1],
              "output_count": 3},
}


def _tiny(name):
    return dict(WORKLOADS[name].config(0), **TINY[name])


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "chflow" or n.startswith("chflow.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out[("scipy.sparse.linalg", "splu")] = scipy.sparse.linalg.splu
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_runs_repeat_counts(name, tmp_path):
    first, second = (run.measure(name, 0, 0, True, config=_tiny(name), out_root=tmp_path / str(i))
                     for i in range(2))
    counts = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["counts_repeat"] and second["counts_repeat"]


def test_traced_run_counts_the_layers_it_uses(tmp_path):
    result = run.measure("sweep", 0, 0, True, config=_tiny("sweep"), out_root=tmp_path)
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["solvers.linsolve_calls"] == value["solvers.newton_iters"] > 0
    assert value["solvers.step_attempts"] == value["solvers.steps_accepted"] + value["solvers.dt_halvings"]
    assert value["w2.quantile_lookups"] > value["w2.calls"] > 0
    assert value["harness.files_written"] > 0 and value["jko.objective_evals"] == 0


def test_uninstall_restores_every_binding():
    m = run.import_chflow()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert m.solvers.simulate_eps is not before[("chflow.solvers", "simulate_eps")]
        assert m.harness.simulate_eps is m.solvers.simulate_eps
        assert m.potential.make_potential("quartic-spinodal").eval_W.perfbench_counting
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    spec = m.potential.make_potential("quartic-spinodal")
    assert type(spec) is m.potential.PotentialSpec
    assert not hasattr(spec.eval_W, "perfbench_counting")
    assert not hasattr(m.potential.compute_convex_envelope(spec).eval_Wss, "perfbench_counting")


def test_wrong_output_is_counted_as_failed(tmp_path, monkeypatch):
    good = run.measure("dispersion", 0, 0, False, config=_tiny("dispersion"), out_root=tmp_path)
    assert good["correct"] and good["failed"] == 0

    wl = WORKLOADS["dispersion"]

    def setup_with_wrong_theory(m, cfg, out_dir):
        state = wl.setup(m, cfg, out_dir)
        state["w2_at_1"] *= 1.5  # the linear-theory rate the fitted rate is checked against
        return state

    monkeypatch.setitem(WORKLOADS, "dispersion", wl._replace(setup=setup_with_wrong_theory))
    bad = run.measure("dispersion", 0, 0, False, config=_tiny("dispersion"), out_root=tmp_path)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] >= 1
    assert bad["fail_frac"] == 1.0
    assert bad["metrics"]["ref_err"]["value"] > 0.05


def test_failing_pass_is_counted_and_tracer_removed(tmp_path, monkeypatch):
    wl = WORKLOADS["dispersion"]

    def broken_run(m, state):
        raise RuntimeError("solver exploded")

    monkeypatch.setitem(WORKLOADS, "dispersion", wl._replace(run=broken_run))
    with pytest.raises(RuntimeError, match="no pass of dispersion produced a result"):
        run.measure("dispersion", 0, 0, True, config=_tiny("dispersion"), out_root=tmp_path)
    assert not hasattr(sys.modules["chflow.solvers"].simulate_eps, "__wrapped__")


def test_lu_solves_count_in_the_calling_layer(tmp_path):
    result = run.measure("nonlocal", 0, 0, True, config=_tiny("nonlocal"), out_root=tmp_path)
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["nonlocal.runs"] == 2
    # nonlocal_model's own splu calls stay out of the solvers layer
    assert value["solvers.linsolve_calls"] == value["solvers.newton_iters"] > 0


def test_untraced_passes_of_a_traced_run_run_no_wrapper(tmp_path, monkeypatch):
    wl = WORKLOADS["dispersion"]
    seen = []

    def run_and_look(m, state):
        seen.append((hasattr(m.solvers.simulate_eps, "__wrapped__"),
                     getattr(state["spec"].eval_W, "perfbench_counting", False)))
        return wl.run(m, state)

    monkeypatch.setitem(WORKLOADS, "dispersion", wl._replace(run=run_and_look))
    run.measure("dispersion", 0, 0, True, config=_tiny("dispersion"), out_root=tmp_path)
    assert seen == [(True, True), (False, False)]
