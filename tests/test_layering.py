"""The field-kernel decision lives in ``_packing`` and ``ffpoly`` alone,
and indented JSON is written by ``cli.render_json`` alone.

Every other module of ``src/ffzeta`` reaches powers and products through
``Poly`` and ``ffpoly.sum_of_powers``; it neither reads a field's private
bit planes (``._planes``) nor names a kernel that is chosen per field kind.
The test reads each module with ``ast``, so a new direct call fails here
instead of growing a second place that picks kernels.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ffzeta"
OWNERS = {"_packing.py", "ffpoly.py"}
KERNELS = {"pk_pow", "pk_mul", "f2_pow", "f2_mul", "Char2Planes"}
# (module, function) -> kernels it may name: the Hecke oracle of sqrtcar
# works in F_2[T] and F_2[sqrt T] on bit ints by design
EXCEPTIONS = {("sqrtcar.py", "hecke_special"): {"f2_pow", "f2_mul"}}


def _violations(path: Path) -> list[str]:
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        allowed = EXCEPTIONS.get((path.name, func), set())
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        if name == "_planes" or (name in KERNELS and name not in allowed):
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in OWNERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_field_kernel_outside_packing_and_ffpoly(path):
    assert _violations(path) == []


def test_the_check_sees_a_direct_kernel_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ._packing import pk_mul\n"
                     "def f(field, pk, c):\n"
                     "    return pk.pk_pow(c, 3, field.p), field._planes\n")
    assert [v.split()[1] for v in _violations(probe)] == ["pk_mul", "pk_pow", "_planes"]


# Indented JSON goes through cli.render_json alone: CPython's C encoder
# serves json.dumps only without ``indent``, so a call with it would send
# an output back through the pure-Python encoder.

def _indented_dumps(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "dumps" and any(kw.arg == "indent" for kw in node.keywords):
            found.append(f"{path.name}:{node.lineno} dumps(indent=...)")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    assert _indented_dumps(path) == []


def test_the_check_sees_an_indented_dumps(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom json import dumps\n"
                     "def f(doc):\n"
                     "    a = json.dumps(doc, sort_keys=True)\n"
                     "    return a + json.dumps(doc, indent=2) + dumps(doc, indent=None)\n")
    assert _indented_dumps(probe) == ["probe.py:5 dumps(indent=...)"] * 2
