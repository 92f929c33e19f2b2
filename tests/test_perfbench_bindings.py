"""What the benchmark binds still exists: ``perfbench/spans.py`` wraps
functions by (module, name) and counts some of their arguments by name,
``perfbench/workloads.py`` calls ``synth`` and ``encoders``, and
``perfbench/child.py`` calls ``hwmodel`` and ``cli``. All three are parsed,
not run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from hdtcam import cli, encoders, hwmodel, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The arguments each counter in spans.py binds by name.
COUNTED_PARAMETERS = {
    ("hdtcam.explorer", "evaluate"): {"queries", "am", "cfg", "replicas", "trials"},
    ("hdtcam.explorer", "ideal_accuracy"): {"queries", "am"},
    ("hdtcam.encoders", "load_hypervector_csv"): {"path"},
    ("hdtcam.core", "majority_from_counts"): {"total"},
}


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


TRACED = next(ast.literal_eval(node.value) for node in _parse("spans.py").body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED")


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_function_resolves(module, name):
    fn = getattr(importlib.import_module(module), name)
    missing = COUNTED_PARAMETERS.get((module, name), set()) - set(inspect.signature(fn).parameters)
    assert not missing, f"{module}.{name} lost {sorted(missing)}"


def test_counted_functions_are_traced():
    assert set(COUNTED_PARAMETERS) <= set(TRACED)


def test_workload_inputs_resolve():
    used = {(node.value.id, node.attr) for node in ast.walk(_parse("workloads.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("synth", "encoders")}
    assert ("synth", "make_language_benchmark") in used
    missing = [f"{m}.{a}" for m, a in sorted(used)
               if not hasattr({"synth": synth, "encoders": encoders}[m], a)]
    assert not missing, missing


def test_child_calls_resolve():
    """Every ``hwmodel.X`` and ``cli.X`` the benchmark's child process uses
    exists, and it can still build the default catalog without arguments."""
    modules = {"hwmodel": hwmodel, "cli": cli}
    used = {(node.value.id, node.attr) for node in ast.walk(_parse("child.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("hwmodel", "default_catalog"), ("cli", "main")} <= used
    missing = [f"{m}.{a}" for m, a in sorted(used) if not hasattr(modules[m], a)]
    assert not missing, missing
    inspect.signature(hwmodel.default_catalog).bind()
