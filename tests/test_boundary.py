"""Every routine of gkinv below the public API reads integer rows.  Rows of
Fractions cross that boundary in few places, and this test reads the source
to hold them there:

* ``linalg.mat`` and ``linalg._scaled`` read a Fraction matrix only in the
  four entry points: ``validate_form``, ``transform``, ``in_gk_group`` and
  the public ``ReductionCertificate`` constructor;
* ``linalg.over`` builds one only in ``HalfIntegralForm.entries``;
* ``form.entries`` is read only by ``gkinv.oracle``, which is independent of
  the rest on purpose, and ``cert.u`` by no routine at all: the CLI reads and
  prints the integer rows."""

import ast
from pathlib import Path

import gkinv

SRC = Path(gkinv.__file__).resolve().parent

ENTRY_POINTS = {
    "forms.validate_form",
    "forms.transform",
    "forms.in_gk_group",
    "reducer.ReductionCertificate.__init__",
}
ALLOWED = {
    "mat": ENTRY_POINTS,
    "_scaled": ENTRY_POINTS,
    "over": {"forms.HalfIntegralForm.entries"},
    "entries": {"oracle"},
    "u": set(),
}
CONVERSIONS = ("mat", "over", "_scaled")


def _uses(path):
    """(name, place) for each call of a conversion of ``linalg`` and each read
    of an ``entries`` or ``u`` attribute in one source file, with place the
    module and the enclosing classes and functions, dotted."""
    tree = ast.parse(path.read_text())
    local = {  # conversions called by their bare name
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
        for alias in node.names
        if alias.name in CONVERSIONS
    }
    if path.stem == "linalg":
        local.update((name, name) for name in CONVERSIONS)

    def visit(node, place):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            place = f"{place}.{node.name}"
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "linalg"
                and f.attr in CONVERSIONS
            ):
                yield f.attr, place
            elif isinstance(f, ast.Name) and f.id in local:
                yield local[f.id], place
        elif isinstance(node, ast.Attribute) and node.attr in ("entries", "u"):
            if isinstance(node.ctx, ast.Load):
                yield node.attr, place
        for child in ast.iter_child_nodes(node):
            yield from visit(child, place)

    yield from visit(tree, path.stem)


def _allowed(place, allowed):
    return any(place == a or place.startswith(a + ".") for a in allowed)


def test_fraction_matrices_cross_only_at_the_boundary():
    found = {name: set() for name in ALLOWED}
    for path in sorted(SRC.glob("*.py")):
        for name, place in _uses(path):
            found[name].add(place)
    outside = sorted(
        f"{place} uses {name}"
        for name, places in found.items()
        for place in places
        if not _allowed(place, ALLOWED[name])
    )
    assert outside == []
    # the boundary is used where it is drawn, so the walk sees the source
    assert found["mat"] == found["_scaled"] == ENTRY_POINTS
    assert found["over"] == ALLOWED["over"]
    assert found["entries"] and found["u"] == set()


def test_the_walk_finds_every_kind_of_use(tmp_path):
    """A read of ``.entries`` below the boundary, and a conversion called
    through the module or imported by name, are each seen and placed."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import linalg\n"
        "from .linalg import over as o\n"
        "def reader(form):\n"
        "    return form.entries\n"
        "class Box:\n"
        "    def build(self, rows):\n"
        "        return linalg.mat(rows), o(rows, 2), linalg._scaled(rows)\n"
    )
    assert sorted(_uses(probe)) == [
        ("_scaled", "probe.Box.build"),
        ("entries", "probe.reader"),
        ("mat", "probe.Box.build"),
        ("over", "probe.Box.build"),
    ]
