"""Module boundaries: every chflow module imports only modules of a lower layer
and never another module's private names, the hot stencil modules use no
per-call-heavy numpy helpers, only functionals' neighbour pair (ahead,
behind) wraps an array around the circle, no module touches scipy.sparse, every LU
goes through the one factorisation seam and every implicit step's Newton
iteration and flux divergence through the one implicit stepper, only the
cell flows' builders make steppers and only their one driver and JKO run
the trajectory loop, jko imports nothing from scipy, only the trajectory
loop builds records, only potential builds convex envelopes, only harness
writes files and only through its one writer, every config field is read,
and every exported name exists."""

import ast
import importlib
import re
from pathlib import Path

import chflow

PACKAGE_DIR = Path(chflow.__file__).resolve().parent


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "chflow":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} imports {name} from {'.' * node.level}{node.module or ''}"


def test_no_module_imports_private_names():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources, f"no modules found in {PACKAGE_DIR}"
    offenders = [line for path in sources for line in _private_imports(path)]
    assert not offenders, "\n".join(offenders)


# np.roll and np.add.at cost microseconds of Python-level overhead per call;
# the stencils read their neighbours through functionals.ahead and behind
_SLOW_CALLS = {"np.roll", "numpy.roll", "np.add.at", "numpy.add.at"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_stencil_modules_avoid_roll_and_add_at():
    offenders = []
    for name in ("functionals", "solvers", "jko"):
        path = PACKAGE_DIR / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _dotted(node.func) in _SLOW_CALLS:
                offenders.append(f"{path.name}:{node.lineno} calls {_dotted(node.func)}")
    assert not offenders, "\n".join(offenders)


def test_jko_imports_nothing_from_scipy():
    # the inner solve is the Newton iteration on H+, its systems factorised through
    # solvers.factorize; no second (L-BFGS) path and no linear algebra of its own
    path = PACKAGE_DIR / "jko.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [_dotted(node)]
        else:
            continue
        offenders += [f"{path.name}:{node.lineno} uses {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not offenders, "\n".join(offenders)


# the stepping matrices stay bands from builder to LU (solvers.factorize scatters
# them into LAPACK band storage); no module builds or factors a sparse matrix
def _scipy_sparse_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [_dotted(node)]
        else:
            continue
        for name in names:
            if name == "scipy.sparse" or name.startswith("scipy.sparse."):
                yield f"{path.name}:{node.lineno} uses {name}"


def test_no_module_uses_scipy_sparse():
    offenders = [what for path in sorted(PACKAGE_DIR.glob("*.py")) for what in _scipy_sparse_uses(path)]
    assert not offenders, "\n".join(offenders)


# the circle's one neighbour pair: a wrap read, np.concatenate of the two complementary
# slices of one name (x[1:], x[:1] or x[-1:], x[:-1]), occurs only in functionals.ahead
# (v[j+1]) and functionals.behind (v[j-1]), and every stencil reads its neighbours through them
_WRAP_READ = re.compile(r"(?:np|numpy)\.concatenate\([(\[]([\w.]+)\[(-?1):\], \1\[:\2\][)\]]\)")


def _wrap_reads(tree):
    """(enclosing top-level function or None, line) for every wrap read in `tree`."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _WRAP_READ.fullmatch(ast.unparse(node)):
                yield owner, node.lineno


def test_only_the_neighbour_pair_wraps():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    places = {(stem, owner) for stem, tree in trees.items() for owner, _ in _wrap_reads(tree)}
    assert places == {("functionals", "ahead"), ("functionals", "behind")}, sorted(places, key=str)
    padders = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "pad_periodic"
    ]
    assert not padders, "pad_periodic defined at " + ", ".join(padders)


# the one LU seam: LAPACK's band LU (dgbtrf) and its solve (dgbtrs) are called only
# inside solvers.factorize, SuperLU (splu) nowhere, factorize only by the Newton
# iteration and the JKO Newton direction, and the Newton iteration only by the one
# implicit stepper (every implicit step of every flow), so a swap of the LU touches
# one function and a wrapper on factorize or newton sees every factorisation or Newton solve;
# the flux divergence too is evaluated only there, through the stepper's once-per-iterate cache
_LU_SEAM = {
    "dgbtrf": {("solvers", "factorize")},
    "dgbtrs": {("solvers", "factorize")},
    "splu": set(),
    "factorize": {("solvers", "newton"), ("jko", "_newton_direction")},
    "newton": {("solvers", "implicit_stepper")},
    "divergence_of_flux": {("solvers", "implicit_stepper")},
}


def _seam_uses(path, seam):
    """(name, enclosing top-level function or None, line) for every reference to a name of `seam`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # an import under another name would hide the uses from this check
                for alias in node.names:
                    name = alias.name.rpartition(".")[2]
                    if name in seam and alias.asname is not None:
                        yield name, f"an import as {alias.asname}", node.lineno
                continue
            else:
                continue
            if name in seam:
                yield name, owner, node.lineno


def _check_seam(seam):
    """Every name of `seam` is used only in its allowed (module, top-level function)
    places, and every allowed place really uses it."""
    uses = [
        (path.stem, name, owner, line)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name, owner, line in _seam_uses(path, seam)
    ]
    offenders = [
        f"{stem}.py:{line} uses {name} in {owner}"
        for stem, name, owner, line in uses
        if (stem, owner) not in seam[name]
    ]
    assert not offenders, "\n".join(offenders)
    used = {(name, stem, owner) for stem, name, owner, _ in uses}
    assert {(name, *place) for name, places in seam.items() for place in places} <= used


def test_every_lu_goes_through_factorize():
    # the LU is LAPACK's, and factorize keeps its callers
    _check_seam(_LU_SEAM)


# each cell flow (eps, limit, nonlocal) is a triple (advance, energy_of, make_report)
# whose stepper only its builder makes, and one driver runs every triple; JKO steps
# particles, not cells, and calls the trajectory loop itself
_DRIVER_SEAM = {
    "run_trajectory": {("solvers", "simulate_cells"), ("jko", "simulate_jko")},
    "implicit_stepper": {("solvers", "_eps_flow"), ("solvers", "_limit_flow"), ("nonlocal_model", "_nonlocal_flow")},
}


def test_cell_flows_share_one_driver():
    _check_seam(_DRIVER_SEAM)


# every flow (eps, limit, nonlocal, JKO) steps through the one adaptive loop,
# so no module builds a record from a stepping loop of its own
def test_only_run_trajectory_builds_records():
    places = {
        (path.stem, top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "TrajectoryRecord"
    }
    assert places == {("solvers", "run_trajectory")}


def test_only_potential_builds_envelopes():
    # every PotentialSpec carries its envelope; a call elsewhere would rebuild it
    offenders = [
        f"{path.name}:{node.lineno} calls {_dotted(node.func)}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "potential"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "compute_convex_envelope"
    ]
    assert not offenders, "\n".join(offenders)


# harness owns every artifact and its one CSV dialect (cli reads trajectory.csv back),
# so no other module imports csv and none below harness opens a file for writing
_WRITE_METHODS = {"write_text", "write_bytes"}


def _file_writes(tree):
    """(line, what) for every csv import and every call that may write a file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
            yield node.lineno, "import csv"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv":
            yield node.lineno, "from csv import"
        elif isinstance(node, ast.Call):
            name = _dotted(node.func).rpartition(".")[2]
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
                # a mode that is not a literal may write
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                    yield node.lineno, "open for writing"
            elif name in _WRITE_METHODS:
                yield node.lineno, f"calls {name}"


def test_only_harness_writes_files():
    offenders = [
        f"{path.name}:{line} {what}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, what in _file_writes(ast.parse(path.read_text(), filename=str(path)))
        if not (path.stem == "harness" or (path.stem == "cli" and what == "import csv"))
    ]
    assert not offenders, "\n".join(offenders)
    # and the check sees the writes it exists for
    harness = ast.parse((PACKAGE_DIR / "harness.py").read_text())
    assert "open for writing" in {what for _, what in _file_writes(harness)}


# harness's one writer: only `_write` opens a file for writing, and the runs and the
# manifest write through it, so every file the manifest lists is hashed as it is written
_WRITE_SEAM = {"_write": {("harness", "run_single"), ("harness", "run_sweep"), ("harness", "write_manifest")}}


def test_harness_writes_through_one_writer():
    tree = ast.parse((PACKAGE_DIR / "harness.py").read_text())
    writers = {
        (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None, what)
        for top in tree.body
        for _, what in _file_writes(top)
    }
    assert writers == {("_write", "open for writing")}
    _check_seam(_WRITE_SEAM)


# lowest first; a module may import only modules of a strictly lower layer
_LAYERS = (
    ("potential", "wasserstein1d"),
    ("functionals",),
    ("solvers", "diagnostics"),
    ("jko", "nonlocal_model"),
    ("harness",),
    ("cli",),
)
_LAYER_OF = {name: rank for rank, names in enumerate(_LAYERS) for name in names}


def _chflow_imports(path):
    """(line, imported chflow module) for every import of a chflow module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("chflow."):
                    yield node.lineno, alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "chflow":
                continue
            parts = (node.module or "").split(".")[(0 if node.level else 1):]
            if parts and parts[0]:
                yield node.lineno, parts[0]
            else:  # from . import name: the names are modules, or the package's own attributes
                for alias in node.names:
                    if alias.name != "__version__":
                        yield node.lineno, alias.name


def test_modules_import_only_lower_layers():
    modules = sorted(path for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")
    assert {path.stem for path in modules} == set(_LAYER_OF), "every module needs a layer"
    offenders = [
        f"{path.name}:{line} imports {target}"
        for path in modules
        for line, target in _chflow_imports(path)
        if _LAYER_OF.get(target, len(_LAYERS)) >= _LAYER_OF[path.stem]
    ]
    assert not offenders, "\n".join(offenders)


# a config field nothing reads is an option that changes no number
_CONFIG_CLASSES = {
    "SolverConfig": "solvers",
    "JkoConfig": "jko",
    "ExperimentConfig": "harness",
    "InitialData": "harness",
}


def _attribute_reads(node, owner=None):
    """(attribute name, class whose __post_init__ encloses the read, or None) for every read."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef) and child.name == "__post_init__":
            inner = node.name
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr, inner
        yield from _attribute_reads(child, inner)


def test_every_config_field_is_read_outside_its_validation():
    fields = {}
    for cls, module in _CONFIG_CLASSES.items():
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
        (body,) = [node.body for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
        fields[cls] = [stmt.target.id for stmt in body if isinstance(stmt, ast.AnnAssign)]
    readers = {}
    for path in PACKAGE_DIR.glob("*.py"):
        for name, owner in _attribute_reads(ast.parse(path.read_text())):
            readers.setdefault(name, set()).add(owner)
    unread = [f"{cls}.{name}" for cls, names in fields.items() for name in names if not readers.get(name, set()) - {cls}]
    assert not unread, "fields read nowhere but in their own __post_init__: " + ", ".join(unread)


def test_every_exported_name_resolves():
    stale = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "chflow" if path.stem == "__init__" else f"chflow.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not stale, "names in __all__ that do not exist: " + ", ".join(stale)
