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


def _called_names(path):
    """(module, name) for each call in a gkinv source file: ``m.f(...)`` as
    (m, f), and ``f(...)`` as (the module ``f`` was imported from, f), or as
    (this module, f) when the file defines it."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name: (node.module or "").rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            yield func.value.id, func.attr
        elif isinstance(func, ast.Name):
            yield imported.get(func.id, path.stem), func.id


def test_reported_functions_are_called_by_the_program():
    """A reported function the program never calls reads 0 on every workload
    and times nothing: each one is called from a module of gkinv other than
    the property suites of ``selfcheck``, or is part of the public API."""
    import gkinv

    measure = _load("measure")
    src = Path(gkinv.__file__).resolve().parent
    called = {
        pair
        for path in src.glob("*.py")
        if path.stem != "selfcheck"
        for pair in _called_names(path)
    }
    for label in measure.REPORTED_FUNCTIONS:
        layer, name = label.split(".")
        public = name in gkinv.__all__ and getattr(gkinv, name) is getattr(
            importlib.import_module(f"gkinv.{layer}"), name
        )
        assert (layer, name) in called or public, label
