"""Run the CLI on two source trees and diff every artifact they write.

    python3 tools/artifact_diff.py [REV] [--config FILE]

Each side runs `chflow simulate` in the eps, limit, jko and nonlocal modes
and then `chflow sweep`, all on one config (by default the example config
block of README.md, read from the file), in a fresh Python process whose
PYTHONPATH is that tree's src/.
The nonlocal model is backward Euler only, so a config whose
`solver.theta_scheme` is not 1 skips the nonlocal run.
One side is the working tree, HEAD plus any uncommitted edits.  The other is
REV, checked out with `git worktree add --detach` into a temporary directory
and removed afterwards; without REV the working tree runs twice, which shows
whether the runs are reproducible.

For every column of every CSV artifact and every numeric leaf of every JSON
artifact (list indices folded, so `residuals[]` is one column) it prints the
largest absolute difference and the largest relative one,
|a - b| / max(|a|, |b|).  `versions.git` and `config.output_dir` in
manifest.json are skipped; text that differs elsewhere is reported as
`text`.  The exit status is 0 when every artifact matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def readme_config():
    """The example config of the README, the JSON block after "An experiment config is a JSON document"."""
    readme = (REPO / "README.md").read_text()
    block = re.search(r"An experiment config is a JSON document.*?```json\n(.*?)```", readme, re.S)
    if block is None:
        raise ValueError("README.md has no example config block")
    return json.loads(block.group(1))


COMMANDS = [["simulate", "--mode", mode, "--config", "config.json"] for mode in ("eps", "limit", "jko", "nonlocal")]
COMMANDS.append(["sweep", "--config", "config.json"])


def commands_for(config):
    """COMMANDS without the nonlocal run when the config's theta_scheme is not 1."""
    if config.get("solver", {}).get("theta_scheme", 1.0) == 1.0:
        return COMMANDS
    return [argv for argv in COMMANDS if "nonlocal" not in argv]


_DRIVER = """
import contextlib, io, sys
from chflow.cli import main
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"chflow {{' '.join(argv)}} exited {{code}}")
"""

_SKIPPED = {("manifest.json", "versions.git"), ("manifest.json", "config.output_dir")}


def run_tree(src, config, run_dir):
    """Run every command on the tree whose package lives in `src`; return the output dir."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps({**config, "output_dir": "out"}))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run(
        [sys.executable, "-c", _DRIVER.format(commands=commands_for(config))], cwd=run_dir, env=env, check=True
    )
    return run_dir / "out"


def _json_leaves(node, key=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _json_leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(node, list):
        for v in node:
            yield from _json_leaves(v, f"{key}[]")
    else:
        yield key, node


def _columns(path):
    """Artifact as {column: [values]}, read as CSV or JSON."""
    cols = {}
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for k, v in row.items():
                    cols.setdefault(k, []).append(v)
    else:
        for k, v in _json_leaves(json.loads(path.read_text())):
            if (path.name, k) not in _SKIPPED:
                cols.setdefault(k, []).append(v)
    return cols


def _number(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _column_diff(a, b):
    """(max abs, max rel) over paired values, or None when they are not numbers or not paired."""
    if len(a) != len(b):
        return None
    worst_abs = worst_rel = 0.0
    for u, v in zip(a, b):
        x, y = _number(u), _number(v)
        if x is None or y is None:
            if u != v:
                return None
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def diff_outputs(base, head):
    """Rows (artifact, column, max abs, max rel); abs and rel are None for text or shape differences."""
    rows = []
    files = sorted({p.relative_to(base) for p in base.rglob("*") if p.is_file()}
                   | {p.relative_to(head) for p in head.rglob("*") if p.is_file()})
    for rel in files:
        if not (base / rel).is_file() or not (head / rel).is_file():
            rows.append((str(rel), "(file missing on one side)", None, None))
            continue
        ca, cb = _columns(base / rel), _columns(head / rel)
        for col in sorted(set(ca) | set(cb)):
            got = _column_diff(ca.get(col, []), cb.get(col, []))
            rows.append((str(rel), col, *(got if got is not None else (None, None))))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against (default: the working tree again)")
    parser.add_argument("--config", help="experiment config JSON (default: the README example)")
    args = parser.parse_args(argv)
    config = json.loads(Path(args.config).read_text()) if args.config else readme_config()

    work = Path(tempfile.mkdtemp(prefix="artifact-diff-"))
    base_tree = work / "base-tree"
    try:
        if args.rev:
            subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", str(base_tree), args.rev],
                           check=True, stdout=subprocess.DEVNULL)
            base_src = base_tree / "src"
        else:
            base_src = REPO / "src"
        base = run_tree(base_src, config, work / "base")
        head = run_tree(REPO / "src", config, work / "head")
        rows = diff_outputs(base, head)
    finally:
        if args.rev and base_tree.exists():
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(base_tree)], check=False)
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'artifact':44s} {'column':32s} {'max abs':>10s} {'max rel':>10s}")
    same = True
    for path, col, d_abs, d_rel in rows:
        if d_abs is None:
            same = False
            print(f"{path:44s} {col:32s} {'text':>10s} {'text':>10s}")
        else:
            same &= d_abs == 0.0
            print(f"{path:44s} {col:32s} {d_abs:10.3g} {d_rel:10.3g}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
