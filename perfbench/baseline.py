"""Repeat the benchmark over seeds and write a baseline file.

    python3 perfbench/baseline.py --out perfbench/baseline-seed-state.json

For every workload: one untraced run per seed 0..9 (each its own process),
the quartiles and spread of each end-to-end metric over those runs, two
traced runs at seed 0 (their count metrics must agree exactly), and one
traced run at the acceptance gate's full-size config.  Run it from the root
of a checkout; it takes about 13 runs of BENCHMARK.json's run_seconds
per workload, plus the full-size runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEEDS = range(10)

# Seed-0 configs of tests/test_acceptance.py, criteria 1, 4, 5 and 10 (the
# sweep with workers=1); these replace the shortened benchmark configs.
GATE_CONFIGS = {
    "sweep": {"solver": {"n": 128, "dt": 2e-4, "eps": 0.1, "t_end": 0.5},
              "eps_list": [0.1, 0.05, 0.025, 0.0125], "output_count": 20},
    "dispersion": {"solver": {"n": 512, "dt": 2e-5, "eps": 0.05, "t_end": 100 * 2e-5, "theta_scheme": 0.5,
                              "newton_tol": 1e-13}, "output_count": 6},
    "jko": {"t_end": 0.01, "reference_dt": 1e-5},
    "nonlocal": {"solver": {"n": 512, "dt": 2e-4, "eps": 0.05, "t_end": 0.05}},
}


def run_once(workload, seed, seconds, trace, config=None):
    """One run.py process; returns (printed result, full result file)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if config is not None:
        cmd += ["--config", json.dumps(config)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    stdout, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    printed = json.loads(stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}-{proc.pid}" / "result.json") as fh:
        return printed, json.load(fh)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        started = time.time()
        runs = [run_once(name, seed, seconds, False) for seed in SEEDS]
        entry = {
            "config_seed0": runs[0][1]["config"],
            "correct": all(p["correct"] for p, _ in runs),
            "attempted": sum(p["attempted"] for p, _ in runs),
            "failed": sum(p["failed"] for p, _ in runs),
            "passes_per_run": [p["attempted"] for p, _ in runs],
            "wall_s_per_run": [full["wall_s"] for _, full in runs],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            stats = spread([p["metrics"][metric]["value"] for p, _ in runs])
            stats.update(bound=bound, unit=runs[0][0]["metrics"][metric]["unit"],
                         within_third_of_bound=stats["spread"] < bound / 3)
            entry["end_to_end"][metric] = stats
        report.setdefault("machine", runs[0][1]["machine"])

        traced = [run_once(name, 0, seconds, True) for _ in range(2)]
        layer = [{k: v["value"] for k, v in p["metrics"].items()} for p, _ in traced]
        counts = [k for k, v in traced[0][0]["metrics"].items() if v["unit"] in ("count", "bytes")]
        entry["per_layer_seed0"] = layer[0]
        entry["counts_repeat_across_traced_runs"] = all(layer[0][k] == layer[1][k] for k in counts)
        entry["counts_repeat_across_traced_passes"] = all(full["counts_repeat"] for _, full in traced)

        gate_cfg = dict(runs[0][1]["config"], **GATE_CONFIGS[name])
        printed, full = run_once(name, 0, 0, True, config=gate_cfg)
        entry["gate_scale"] = {
            "config": gate_cfg,
            "correct": printed["correct"],
            "per_layer": {k: v["value"] for k, v in printed["metrics"].items()},
            "wall_s_untraced": full["wall_s_samples"],
            "halvings_by_call": full["halvings_first_pass"],
        }
        entry["elapsed_s"] = time.time() - started
        report["workloads"][name] = entry
        print(f"{name}: " + ", ".join(f"{m} median={s['median']:.6g} spread={s['spread']:.3f}"
                                      for m, s in entry["end_to_end"].items()), flush=True)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
