"""Module boundaries: no chflow module imports another module's private names,
and the hot stencil modules use no per-call-heavy numpy helpers."""

import ast
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
# the stencils pad once and slice, the particle deposit uses np.bincount
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
