"""chflow benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 28 --trace 0

Runs from the root of a checkout and imports chflow from its src/.  The load
is a closed loop in this one process: set up, then passes back to back until
--seconds have elapsed, each followed by its correctness check and, untraced,
one more timed set-up, all outside the pass's timing; setup_s is the median
set-up.  BLAS/OpenMP are pinned to one thread.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics of the traced ones, plus
probes of single steps and W2 calls.  The tracer is installed only around
the traced passes.  The last line of stdout is the result
JSON; machine info, quartiles and sample counts go to the lines before it
and, with the spans of a traced run, to .perfbench_out/ in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# git (ours and the one chflow's manifests spawn) must not look above the checkout
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
# library imports chflow triggers, loaded here so set-up times chflow alone
import concurrent.futures  # noqa: E402,F401
import numpy.polynomial  # noqa: E402,F401
import scipy.ndimage  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401

import tracing  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

CHFLOW_MODULES = ("potential", "wasserstein1d", "functionals", "solvers", "jko", "nonlocal_model",
                  "diagnostics", "harness")
COUNT_UNITS = ("count", "bytes")
with open(ROOT / "BENCHMARK.json") as _fh:
    BENCH = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
PROBE_MIN_S = 0.15


def _chflow_modules():
    return {n: mod for n, mod in sys.modules.items() if n == "chflow" or n.startswith("chflow.")}


def import_chflow():
    """Import chflow afresh, so that each set-up pays for the package import."""
    for name in _chflow_modules():
        del sys.modules[name]
    importlib.import_module("chflow")
    return types.SimpleNamespace(**{n: importlib.import_module("chflow." + n) for n in CHFLOW_MODULES})


def timed_setup(wl, cfg, out_dir):
    """Import chflow and set the workload up; returns (modules, state, seconds)."""
    t0 = time.perf_counter()
    m = import_chflow()
    state = wl.setup(m, cfg, out_dir)
    return m, state, time.perf_counter() - t0


def setup_again(wl, cfg, out_dir):
    """Time one more set-up, then put back the chflow modules the passes use."""
    kept = _chflow_modules()
    try:
        return timed_setup(wl, cfg, out_dir)[2]
    finally:
        for name in _chflow_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def machine_info():
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git": describe,
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one sample repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _dir_usage(path):
    files = [p for p in Path(path).rglob("*") if p.is_file()] if Path(path).exists() else []
    return len(files), sum(p.stat().st_size for p in files)


def _median_ms(fn):
    """Median wall time of repeated calls, at least five and PROBE_MIN_S in total."""
    fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < 5 or time.perf_counter() - start < PROBE_MIN_S:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def probe_metrics(m):
    """Single-call timings of step_eps, step_limit and w2_periodic on fixed states."""
    spec = m.potential.make_potential("quartic-spinodal")
    env = m.potential.compute_convex_envelope(spec)
    out = {}
    for n in (128, 640, 2048):
        x = (np.arange(n) + 0.5) / n
        f = m.wasserstein1d.DensityField.normalized(1.0 + 0.1 * np.cos(2.0 * np.pi * x))
        eps_cfg = m.solvers.SolverConfig(n=n, dt=1e-5, eps=0.0125, t_end=1e-5)
        limit_cfg = m.solvers.SolverConfig(n=n, dt=1e-5, eps=0.0, t_end=1e-5)
        out[f"solvers.step_eps_ms.n{n}"] = _median_ms(lambda: m.solvers.step_eps(f, eps_cfg, spec))
        out[f"solvers.step_limit_ms.n{n}"] = _median_ms(lambda: m.solvers.step_limit(f, limit_cfg, env))
        if n <= 640:
            g = m.wasserstein1d.DensityField.normalized(
                1.0 + 0.15 * np.cos(4.0 * np.pi * x) + 0.1 * np.sin(2.0 * np.pi * x))
            out[f"w2.ms.n{n}"] = _median_ms(lambda: m.wasserstein1d.w2_periodic(f, g))
    return out


def measure(name, seed, seconds, trace, config=None, out_root=OUT):
    """Set up, run passes for `seconds`, check each; returns the full result dict."""
    wl = WORKLOADS[name]
    cfg = wl.config(seed) if config is None else config
    out_dir = Path(out_root) / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    pass_dir = out_dir / "pass"
    tracer = tracing.Tracer() if trace else None

    m, state, first_setup = timed_setup(wl, cfg, pass_dir)
    setup_s = [first_setup]
    states = [state]
    if tracer is not None:
        # traced passes get a state set up under the tracer (counting potentials);
        # untraced passes keep the plain one, and the tracer is installed only
        # around traced passes, so untraced passes run no wrapper at all
        tracer.install()
        try:
            states.insert(0, wl.setup(m, cfg, pass_dir))
        finally:
            tracer.uninstall()

    walls, traced_walls, checks, layer_samples = [], [], [], []
    try:
        start = time.perf_counter()
        while True:
            i = len(checks)
            if pass_dir.exists():
                shutil.rmtree(pass_dir)
            traced = tracer is not None and i % 2 == 0
            state = states[i % len(states)]
            if traced:
                tracer.install()
                tracer.begin_pass(i)
            t0 = time.perf_counter()
            try:
                output, error = wl.run(m, state), None
            except Exception as exc:  # a failed pass is counted, the run goes on
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if traced:
                tracer.end_pass()
                tracer.uninstall()
            (traced_walls if traced else walls).append(wall)
            if error is None:
                try:
                    check = wl.check(m, state, output, pass_dir)
                except Exception as exc:  # a check that cannot run fails the pass
                    check = Check(False, None, f"check raised {type(exc).__name__}: {exc}")
            else:
                check = Check(False, None, error)
            checks.append(check)
            if traced:
                files, size = _dir_usage(pass_dir)
                layer_samples.append(dict(tracer.pass_metrics(i), **{
                    "harness.files_written": files, "harness.bytes_written": size}))
            if tracer is None:
                # set-ups are sampled between passes, so that their median spans
                # the run as the passes' does, not the few seconds before it
                setup_s.append(setup_again(wl, cfg, pass_dir))
            done = time.perf_counter() - start >= seconds
            if done and (tracer is None or len(checks) >= 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if pass_dir.exists():
            shutil.rmtree(pass_dir)

    failed = sum(1 for c in checks if not c.ok)
    ref_errs = [c.ref_err for c in checks if c.ref_err is not None]
    if not ref_errs:
        raise RuntimeError(f"no pass of {name} produced a result: {checks[-1].detail}")

    result = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "seconds": seconds,
        "config": cfg,
        "machine": machine_info(),
        "setup_s_samples": setup_s,
        "wall_s_samples": walls,
        "checks": [c._asdict() for c in checks],
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "fail_frac": failed / len(checks),
    }
    if tracer is None:
        q1, med, q3 = quartiles(walls)
        result["wall_s"] = {"median": med, "q1": q1, "q3": q3, "n": len(walls)}
        metrics = {
            "wall_s": med,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ref_err": ref_errs[-1],
        }
    else:
        # counts come from the first traced pass; times are medians over traced passes
        metrics = {key: layer_samples[0][key] if UNITS[key] in COUNT_UNITS
                   else statistics.median(s[key] for s in layer_samples) for key in layer_samples[0]}
        metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics.update(probe_metrics(m))
        result["traced_wall_s_samples"] = traced_walls
        result["counts_repeat"] = all(
            s[k] == layer_samples[0][k] for s in layer_samples for k in s if UNITS[k] in COUNT_UNITS)
        result["halvings_first_pass"] = tracer.halving_breakdown(0)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.json", "w") as fh:
            json.dump(tracer.span_dicts(), fh)
    expected = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(expected)}")
    result["metrics"] = {k: {"value": metrics[k], "unit": UNITS[k]} for k in expected}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", help="JSON object whose keys replace those of the seed's config")
    args = parser.parse_args(argv)

    cfg = WORKLOADS[args.workload].config(args.seed)
    if args.config:
        cfg.update(json.loads(args.config))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), config=cfg)

    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    if "wall_s" in result:
        w = result["wall_s"]
        print(f"# {args.workload} seed={args.seed} wall_s median={w['median']:.4f} "
              f"q1={w['q1']:.4f} q3={w['q3']:.4f} n={w['n']} failed={result['failed']}/{result['attempted']}")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"# failed pass: {c['detail']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
