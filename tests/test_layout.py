"""Module boundaries: no chflow module imports another module's private names."""

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
