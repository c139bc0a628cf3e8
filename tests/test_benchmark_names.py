"""The benchmark under perfbench/ reaches chflow by name: its tracer looks up
the functions of `LAYERS` in each module and replaces the evaluator fields
`_SPEC_FIELDS` and `_ENV_FIELDS` on potentials and envelopes, and the
workloads and single-step probes call `m.<module>.<name>` on a namespace of
chflow modules.  A rename in chflow would fail only there, outside this
suite's test paths, so every such name is resolved here from the benchmark's
source, without importing it."""

import ast
import dataclasses
import importlib
from pathlib import Path

import chflow
from chflow.potential import ConvexEnvelope, PotentialSpec

PERFBENCH = Path(chflow.__file__).resolve().parents[2] / "perfbench"


def _resolves(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _tracing_constant(name):
    """The literal value of the module-level assignment `name = ...` in tracing.py."""
    (value,) = [
        node.value
        for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]
    return ast.literal_eval(value)


def _traced_names():
    """(module, function) for every name `tracing.LAYERS` wraps or counts."""
    for module, spans, counts in _tracing_constant("LAYERS").values():
        for name in spans + counts:
            yield module, name


def _module_namespace_uses(node):
    """'module.name...' for every outermost attribute chain on the name `m`."""
    inner = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            inner.add(id(child.value))
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and id(child) not in inner:
            parts = []
            while isinstance(child, ast.Attribute):
                parts.append(child.attr)
                child = child.value
            if isinstance(child, ast.Name) and child.id == "m":
                yield ".".join(reversed(parts))


def _called_names():
    (probe,) = [
        node for node in _tree("run.py").body if isinstance(node, ast.FunctionDef) and node.name == "probe_metrics"
    ]
    yield from _module_namespace_uses(probe)
    yield from _module_namespace_uses(_tree("workloads.py"))


def test_every_name_the_benchmark_uses_resolves_in_chflow():
    traced = list(_traced_names())
    called = sorted(set(_called_names()))
    assert len(traced) > 20 and "jko.simulate_jko" in called and "solvers.step_eps" in called
    missing = [f"{module}.{name}" for module, name in traced if not _resolves(module, name)]
    for use in called:
        module, _, name = use.partition(".")
        if not _resolves(f"chflow.{module}", name):
            missing.append(f"chflow.{use}")
    # the tracer's dataclasses.replace of these fields fails on one the class no longer has
    for constant, cls in (("_SPEC_FIELDS", PotentialSpec), ("_ENV_FIELDS", ConvexEnvelope)):
        have = {f.name for f in dataclasses.fields(cls)}
        missing += [f"{cls.__name__}.{name}" for name in _tracing_constant(constant) if name not in have]
    assert not missing, "names the benchmark uses that chflow no longer has: " + ", ".join(missing)
