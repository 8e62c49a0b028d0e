"""The field-kernel decision lives in ``_packing`` and ``ffpoly`` alone,
indented JSON is written by ``cli.render_json`` alone, every field of a
dataclass in ``src/ffzeta`` is read somewhere, no oracle reaches the
store or fast route of the quantity it checks, and every library function
is named outside the tests.

Every other module of ``src/ffzeta`` reaches powers and products through
``Poly`` and ``ffpoly.sum_of_powers``; it neither reads a field's private
bit planes (``._planes``) nor names a kernel that is chosen per field kind.
The test reads each module with ``ast``, so a new direct call fails here
instead of growing a second place that picks kernels.

The one deliberate second arithmetic is the enumeration oracle,
``oracle.py``: it raises rows of monics to a power on numpy arrays of
encodings, so that a fault in the packed kernels cannot reach both sides
of a check.  It imports neither ``_packing`` nor ``sum_of_powers`` nor
``zeta``, and its power loop does no ``Poly`` arithmetic.
"""

import ast
from collections import Counter
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


# An oracle checks a kept or fast result only if it does not reach it: the
# expansion route of the Dirichlet table solves and builds afresh, and the
# enumerated power sums never ask the engine or its packed kernels.  Each
# oracle's body, and the body of every function of its own module that it
# names, is walked.

FAST_SUMS = {"_ENGINES", "_engine", "power_sum", "pk", "_packing", "sum_of_powers"}
ORACLES = {
    ("drinfeld.py", "lseries_coeffs_by_expansion"):
        {"_DIRICHLET", "_FROBENIUS", "lseries_coeffs", "frobenius_charpoly"},
    ("oracle.py", "power_sum_enumerated"): FAST_SUMS,
    ("oracle.py", "multiples_power_sum"): FAST_SUMS,
    ("oracle.py", "coprime_power_sum"): FAST_SUMS,
    ("oracle.py", "coprime_power_sums"): FAST_SUMS,
    # the power loop works on arrays alone: no Poly, hence no Poly product
    ("oracle.py", "_power_rows"): {"Poly", *FAST_SUMS},
}


def _oracle_uses(path: Path, oracle: str, banned: set[str]) -> list[str]:
    """``function:line name`` for each name of ``banned`` that ``oracle``
    uses, or a module-level function of ``path`` that it names uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found, todo, seen = [], [oracle], set()
    while todo:
        func = todo.pop()
        if func in seen:
            continue
        seen.add(func)
        for node in ast.walk(defs[func]):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in banned:
                found.append(f"{func}:{node.lineno} {name}")
            elif name in defs:
                todo.append(name)
    return sorted(found)


@pytest.mark.parametrize("where", sorted(ORACLES), ids=lambda w: w[1])
def test_oracle_does_not_reach_what_it_checks(where):
    path, oracle = where
    assert _oracle_uses(SRC / path, oracle, ORACLES[where]) == []


def _imports(path: Path) -> set[str]:
    """Every module and name that ``path`` imports, as written."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


FAST_ROUTE_IMPORTS = {"_packing", "sum_of_powers", "zeta", "pk_sum", "pk_pow"}


def test_enumeration_oracle_imports_no_fast_route():
    assert _imports(SRC / "oracle.py") & FAST_ROUTE_IMPORTS == set()


def test_the_check_sees_an_import_of_the_fast_route(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import _packing as pk\n"
                     "from .ffpoly import Poly, sum_of_powers\n"
                     "import numpy as np\n")
    assert _imports(probe) & FAST_ROUTE_IMPORTS == {"_packing", "sum_of_powers"}


def test_the_check_sees_an_oracle_reach_the_store(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("_STORE = {}\n"
                     "def helper(k):\n"
                     "    return _STORE.get(k)\n"
                     "def fast(k):\n"
                     "    return k\n"
                     "def oracle(k, mod):\n"
                     "    return helper(k), mod._STORE, fast\n")
    assert _oracle_uses(probe, "oracle", {"_STORE", "fast"}) == [
        "helper:3 _STORE", "oracle:7 _STORE", "oracle:7 fast"]


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


# Every field of a ``@dataclass`` in ``src/ffzeta`` is read somewhere
# outside its own class body: as an attribute ``.field``, or as the string
# "field" (``perfbench/spans.py`` reads some fields by ``getattr``).  A
# field that nothing reads is stored state that no result depends on.
# The check goes by name, not by class: a read of another class's field
# of the same name (``.precision``, ``.name``) counts.

ROOT = SRC.parent.parent
READERS = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _dataclasses(tree) -> list[tuple[ast.ClassDef, list[str]]]:
    return [(node, [stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)])
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)]


def _names_read(tree, skip: ast.AST | None = None) -> set[str]:
    """Attribute names loaded and string constants in ``tree``, not
    counting the subtree ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unread_fields(sources: list[Path], readers: list[Path]) -> list[str]:
    """``file:Class.field`` for each dataclass field in ``sources`` that no
    file of ``readers`` reads outside the class body."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in {*sources, *readers}}
    reads = {path: _names_read(trees[path]) for path in readers}
    unread = []
    for path in sources:
        for cls, fields in _dataclasses(trees[path]):
            seen = set().union(_names_read(trees[path], skip=cls),
                               *(reads[r] for r in readers if r != path))
            unread += [f"{path.name}:{cls.name}.{name}" for name in fields
                       if name not in seen]
    return unread


def test_every_dataclass_field_is_read():
    assert _unread_fields(sorted(SRC.glob("*.py")), READERS) == []


def test_the_check_sees_an_unread_field(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\n"
                     "class Report:\n"
                     "    kept: int\n"
                     "    by_name: int\n"
                     "    stored: int\n"
                     "    def own(self):\n"
                     "        return self.stored\n"
                     "def use(r):\n"
                     "    r.stored = 1\n"
                     "    return r.kept, getattr(r, 'by_name')\n")
    assert _unread_fields([probe], [probe]) == ["probe.py:Report.stored"]


# Every top-level function and every method (not a dunder) of a module of
# ``src/ffzeta`` is named somewhere: by a name or an attribute in
# ``src/ffzeta`` outside its own body, or in ``perfbench/*.py`` also by a
# string, whose dotted parts count one by one (``WRAPPED`` names its
# targets as "module", "Class.method").  A re-export from ``__init__`` and
# a call from the tests do not count: a function that only they reach is
# library code that no command, criterion or workload runs.  The check
# goes by name, like the one above.

# name -> why it may stay unnamed
UNNAMED_ALLOWED = {
    "monic_prime_count": "ROADMAP item 9 sizes Frobenius work with it",
}


def _definitions(tree) -> list[ast.FunctionDef]:
    """Top-level functions and the non-dunder methods of top-level classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
        elif isinstance(node, ast.ClassDef):
            found += [stmt for stmt in node.body
                      if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]
    return found


def _names(tree, strings: bool = False) -> Counter:
    """How often each name is loaded as an ``ast.Name`` or ``ast.Attribute``
    in ``tree``; with ``strings``, each dotted part of a string constant
    counts too."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def _unnamed_functions(sources: list[Path], users: list[Path],
                       string_users: list[Path]) -> list[str]:
    """``file:name`` for each definition of ``sources`` (files among
    ``users``) that no file of ``users`` names outside the definition's own
    body, and no file of ``string_users`` names at all."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in {*sources, *users, *string_users}}
    named = sum((_names(trees[path]) for path in users), Counter())
    named += sum((_names(trees[path], strings=True) for path in string_users), Counter())
    unnamed = []
    for path in sources:
        for node in _definitions(trees[path]):
            if named[node.name] <= _names(node)[node.name]:
                unnamed.append(f"{path.name}:{node.name}")
    return unnamed


def test_every_library_function_is_named():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    unnamed = _unnamed_functions(sources, sorted(SRC.glob("*.py")),
                                 sorted((ROOT / "perfbench").glob("*.py")))
    assert [u for u in unnamed if u.split(":")[1] not in UNNAMED_ALLOWED] == []
    # an exemption goes once its function is named
    assert {u.split(":")[1] for u in unnamed} >= set(UNNAMED_ALLOWED)


def test_the_check_sees_an_unnamed_function(tmp_path):
    probe, bench = tmp_path / "probe.py", tmp_path / "bench.py"
    probe.write_text("from .probe import caller\n"
                     "NAMES = ['in_string']\n"
                     "def used():\n"
                     "    return 1\n"
                     "def recursive(n):\n"
                     "    return recursive(n - 1) if n else used()\n"
                     "def by_string():\n"
                     "    return 2\n"
                     "def in_string():\n"
                     "    return 3\n"
                     "class Ring:\n"
                     "    def __add__(self, other):\n"
                     "        return self\n"
                     "    def called(self):\n"
                     "        return self\n"
                     "    def wrapped(self):\n"
                     "        return self\n"
                     "    def unread(self):\n"
                     "        return self.unread\n"
                     "def caller(r):\n"
                     "    return r.called()\n")
    bench.write_text("WRAPPED = {'a': ('probe', 'by_string'), 'b': ('probe', 'Ring.wrapped')}\n")
    assert _unnamed_functions([probe], [probe], [bench]) == [
        "probe.py:recursive", "probe.py:in_string", "probe.py:unread",
        "probe.py:caller"]
