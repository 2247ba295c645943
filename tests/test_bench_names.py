"""The names the benchmark reads from gkinv exist: every function that
``bench/measure.REPORTED_FUNCTIONS`` reports is one the span tracer wraps,
and every name ``bench/worker.py`` and ``bench/corpus.py`` import from
gkinv is there.  A deleted or renamed name fails here, not first in a
traced bench run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """A bench module loaded from its file, without putting bench on the path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reported_functions_are_traced_public_functions():
    measure, spans = _load("measure"), _load("spans")
    assert measure.REPORTED_FUNCTIONS
    for label in measure.REPORTED_FUNCTIONS:
        layer, name = label.split(".")
        assert layer in measure.LAYERS, label
        module = importlib.import_module(f"gkinv.{layer}")
        assert name in spans.public_functions(module), label


def _gkinv_names(tree):
    """(module, name) for each ``from gkinv... import name`` and each
    ``gkinv.module.name`` attribute read, and (module, None) for each
    ``import gkinv...``; code held in string constants is read too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gkinv":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "gkinv")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "gkinv"
        ):
            yield f"gkinv.{node.value.attr}", node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value)
            except SyntaxError:
                continue
            yield from _gkinv_names(inner)


@pytest.mark.parametrize("script", ["worker", "corpus"])
def test_bench_imports_from_gkinv_exist(script):
    names = set(_gkinv_names(ast.parse((BENCH / f"{script}.py").read_text())))
    assert any(name for _, name in names), script
    for module_name, name in sorted(names, key=str):
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{module_name}.{name}"
