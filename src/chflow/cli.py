"""Command-line front end: simulate, sweep, envelope, audit, validate-potential.

Exit codes: 0 on success, 2 when a hypothesis or inequality the theory
guarantees is violated by the data, 1 on runtime failure or a malformed
command line.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

from .diagnostics import dissipation_audit
from .harness import MODES, TRAJECTORY_COLUMNS, load_config, plain, run_single, run_sweep
from .potential import (
    HypothesisViolation,
    canonical_names,
    compute_unstable_set,
    make_potential,
    validate_hypotheses,
)
from .solvers import real_number

__all__ = ["main"]


def _cmd_simulate(args):
    cfg = load_config(args.config)
    record = run_single(cfg, args.mode)
    print(
        json.dumps(
            {
                "mode": args.mode,
                "completed": record.completed,
                "snapshots": int(record.times.size),
                "final_time": float(record.times[-1]),
                "output_dir": str(cfg.output_dir),
            }
        )
    )
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config)
    report = run_sweep(cfg)
    payload = {
        "rows": [asdict(row) for row in report.rows],
        "grids": {f"{eps:g}": n for eps, n in report.grids.items()},
        "failures": [{"eps": eps, "error": msg} for eps, msg in report.failures],
    }
    print(json.dumps(payload, sort_keys=True, default=plain))
    return 1 if report.failures else 0


def _cmd_envelope(args):
    spec = make_potential(args.potential)
    unstable = compute_unstable_set(spec.envelope)
    print(
        json.dumps(
            {
                "potential": args.potential,
                "breakpoints": spec.envelope.breakpoints,
                "sigma": unstable.intervals,
                "m0": unstable.m0,
                "degenerate_first": unstable.degenerate_first,
            },
            indent=2,
            sort_keys=True,
            default=plain,
        )
    )
    return 0


def _cmd_audit(args):
    if real_number(args.tol, "--tol") < 0.0:
        raise ValueError("--tol must be nonnegative")
    with open(args.trajectory, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [key for key in TRAJECTORY_COLUMNS if key not in header]
        if missing:
            raise ValueError(f"trajectory CSV lacks column(s) {', '.join(missing)}")
        rows = []
        for cells in filter(None, reader):  # blank lines hold no row
            if len(cells) != len(header):
                raise ValueError(f"trajectory CSV line {reader.line_num} has {len(cells)} cells; the header has {len(header)}")
            rows.append(dict(zip(header, cells)))
    cols = {key: [float(row[key]) for row in rows] for key in TRAJECTORY_COLUMNS}
    nonfinite = [key for key, values in cols.items() if not all(map(math.isfinite, values))]
    if nonfinite:
        raise ValueError(f"energies, slopes and speeds must be finite: column(s) {', '.join(nonfinite)}")
    if len(cols["t"]) < 2:
        raise ValueError("trajectory has fewer than two rows")
    for k, (e_eps, e_star) in enumerate(zip(cols["e_eps"], cols["e_star"])):
        # the relaxed energy never exceeds the regularized one
        if e_eps - e_star < -1e-10:
            raise ValueError(f"negative energy gap {e_eps - e_star!r} in row {k}")
    # a limit run writes the relaxed pair into both column pairs, so the eps pair serves every flavor
    limit_like = cols["e_eps"] == cols["e_star"] and cols["slope_eps"] == cols["slope_star"]
    flavor = "limit" if limit_like else "eps"
    audit = dissipation_audit(cols["t"], cols["e_eps"], cols["slope_eps"], cols["speed"], flavor)
    tol_audit = args.tol * abs(cols["e_eps"][0]) + 1e-15
    satisfied = audit.satisfied(tol_audit)
    print(
        json.dumps(
            {**asdict(audit), "tol_audit": tol_audit, "satisfied": satisfied},
            sort_keys=True,
            default=plain,
        )
    )
    return 0 if satisfied else 2


def _cmd_validate_potential(args):
    spec = make_potential(args.potential)
    report = validate_hypotheses(spec)
    print(json.dumps(report, indent=2, sort_keys=True, default=plain))
    return 0 if report["ok"] else 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors at exit 1, since exit 2 means a violated hypothesis."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="chflow",
        description="Periodic 1D interface dynamics and their transport-metric limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory and persist artifacts")
    p_sim.add_argument("--mode", required=True, choices=MODES)
    p_sim.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run the eps-sweep against the relaxed reference")
    p_sweep.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_env = sub.add_parser("envelope", help="print envelope breakpoints, Sigma, and m0 as JSON")
    p_env.add_argument("--potential", required=True, help=f"one of {canonical_names()}")
    p_env.set_defaults(func=_cmd_envelope)

    p_audit = sub.add_parser("audit", help="energy-dissipation audit of a trajectory CSV")
    p_audit.add_argument("--trajectory", required=True, help="path to trajectory.csv")
    p_audit.add_argument("--tol", type=float, default=1e-3, help="residual tolerance, relative to |E(0)|")
    p_audit.set_defaults(func=_cmd_audit)

    p_val = sub.add_parser("validate-potential", help="check structural hypotheses of a potential")
    p_val.add_argument("--potential", required=True, help=f"one of {canonical_names()}")
    p_val.set_defaults(func=_cmd_validate_potential)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(json.dumps({"hypothesis_violation": str(exc), "report": exc.report}, sort_keys=True, default=plain))
        return 2
    except Exception as exc:  # runtime failure contract: exit 1, message on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
