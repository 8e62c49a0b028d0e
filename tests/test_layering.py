"""The field-kernel decision lives in ``_packing`` and ``ffpoly`` alone,
indented JSON is written by ``cli.render_json`` alone, every field of a
dataclass in ``src/ffzeta`` is read somewhere, no oracle reaches the
store or fast route of the quantity it checks, results are kept in
``functools.cache`` entries and not in module-level containers, and
every library function is named outside the tests.

Every other module of ``src/ffzeta`` reaches powers and products through
``Poly``, whose ``__pow__`` chooses the power kernel; it neither reads a
field's private bit planes (``._planes``) nor names a function or class of
``_packing``.  The one allowance is the power-sum engine of ``zeta``, which
sums packed rows (``pk_sum``, ``pk_unpack``) over Lucas sub-exponents, and
the integer digit helpers ``base_digits`` and ``ceil_log`` where they are
read; an allowance that its module no longer uses fails the test.  The
test reads each module with ``ast``, so a new direct call fails here
instead of growing a second place that picks kernels.

The one deliberate second arithmetic is the enumeration oracle,
``oracle.py``: it raises rows of monics to a power on numpy arrays of
encodings, so that a fault in the packed kernels cannot reach both sides
of a check.  It imports neither ``_packing``, a kernel nor ``zeta``, and
its power loop does no ``Poly`` arithmetic.  The square-root example's
Hecke sums are its power sums, so they do not reach the engine either.
It is also the one module that imports numpy.
"""

import ast
from collections import Counter
from collections.abc import Collection
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ffzeta"
OWNERS = {"_packing.py", "ffpoly.py"}
# every function and class of _packing, read from its source
KERNELS = {node.name for node in ast.parse((SRC / "_packing.py").read_text()).body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
# module -> the _packing names it may use
KERNEL_ALLOWED = {
    "zeta.py": {"pk_sum", "pk_unpack", "lucas_residue", "base_digits", "ceil_log"},
    "nonarch.py": {"base_digits", "ceil_log"},
    "cli.py": {"ceil_log"},
}


def _violations(path: Path, allowed: Collection[str] = ()) -> list[str]:
    found = []

    def visit(node):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "_planes" or name in KERNELS:
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return [v for v in found if v.split()[1] not in allowed]


MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in OWNERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_field_kernel_outside_packing_and_ffpoly(path):
    allowed = KERNEL_ALLOWED.get(path.name, set())
    assert _violations(path, allowed) == []
    # an allowance goes once its module stops using the name
    assert {v.split()[1] for v in _violations(path)} >= allowed


def test_the_check_sees_a_direct_kernel_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ._packing import pk_mul\n"
                     "def f(field, pk, c):\n"
                     "    return pk.pk_pow(c, 3, field.p), field._planes\n")
    assert [v.split()[1] for v in _violations(probe)] == ["pk_mul", "pk_pow", "_planes"]


def test_the_check_sees_every_packing_kernel(tmp_path):
    # helpers, not per-field power kernels, are banned too; the engine's
    # allowance lets zeta alone name pk_sum
    probe = tmp_path / "zeta.py"
    probe.write_text("from ._packing import f2_spread, pk_sum, pk_sparse_mul\n"
                     "def f(pk, x):\n"
                     "    return pk.f2_to_coeffs(x), pk.pk_pack([x], 3)\n")
    names = ["f2_spread", "pk_sum", "pk_sparse_mul", "f2_to_coeffs", "pk_pack"]
    assert [v.split()[1] for v in _violations(probe)] == names
    assert [v.split()[1] for v in _violations(probe, KERNEL_ALLOWED["zeta.py"])] == [
        n for n in names if n != "pk_sum"]


# An oracle checks a kept or fast result only if it does not reach it: the
# expansion route of the Dirichlet table solves and builds afresh, with the
# skew-polynomial peel and not the fast Frobenius solver, and the
# enumerated power sums (the Hecke sums of sqrtcar among them) never ask
# the engine, its packed kernels or ``Poly.__pow__``, which chooses them.
# Each oracle's body, and the body of every function of its own module
# that it names, is walked.

FAST_SUMS = {"_layers", "_monic_sum", "_monic_poly", "_power_sums", "power_sum",
             "special_polynomial", "pk", "_packing", "__pow__"}
ORACLES = {
    ("drinfeld.py", "lseries_coeffs_by_expansion"):
        {"_kept_dirichlet", "_kept_frobenius", "lseries_coeffs", "frobenius_charpoly",
         "_flat_frobenius"},
    # the fast Frobenius solver and its oracle, the skew-polynomial peel,
    # share no skew arithmetic
    ("drinfeld.py", "_flat_frobenius"):
        {"SkewPoly", "VadicRing", "VadicElem", "_phi_preimage", "_norm_unit",
         "frobenius_charpoly_by_peel"},
    ("oracle.py", "power_sum_enumerated"): FAST_SUMS,
    ("oracle.py", "multiples_power_sum"): FAST_SUMS,
    ("oracle.py", "coprime_power_sum"): FAST_SUMS,
    ("oracle.py", "coprime_power_sums"): FAST_SUMS,
    # the power loops work on arrays or ints alone: no Poly, hence no Poly
    # product
    ("oracle.py", "_power_rows"): {"Poly", *FAST_SUMS},
    ("oracle.py", "_lane_sums"): {"Poly", *FAST_SUMS},
    ("sqrtcar.py", "hecke_special"): FAST_SUMS,
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


FAST_ROUTE_IMPORTS = {"_packing", "zeta", *KERNELS}


def test_enumeration_oracle_imports_no_fast_route():
    assert _imports(SRC / "oracle.py") & FAST_ROUTE_IMPORTS == set()


def test_the_check_sees_an_import_of_the_fast_route(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import _packing as pk\n"
                     "from .ffpoly import Poly, Char2Planes\n"
                     "import numpy as np\n")
    assert _imports(probe) & FAST_ROUTE_IMPORTS == {"_packing", "Char2Planes"}


# numpy serves the enumeration oracle alone, so every command that does not
# enumerate starts without importing it (``tests/test_oracle.py`` runs
# them); a module that imports numpy anywhere in its body fails here.

def _numpy_imports(path: Path) -> list[str]:
    return sorted(name for name in _imports(path) if name.split(".")[0] == "numpy")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_oracle_imports_numpy(path):
    if path.name == "oracle.py":
        assert _numpy_imports(path) == ["numpy"]
    else:
        assert _numpy_imports(path) == []


def test_the_check_sees_a_numpy_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from numpy import asarray\n"
                     "def f(x):\n"
                     "    import numpy.linalg\n"
                     "    return asarray(x)\n")
    assert _numpy_imports(probe) == ["numpy", "numpy.linalg"]


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


# A result kept for the process is a ``functools.cache`` entry: it never
# stores an exception, keys by value, counts in ``cache_info()`` and is
# reset by ``cache_clear()``.  A module-level name bound to an empty
# ``{}``, ``[]``, ``dict()``, ``list()`` or ``set()`` would be a second,
# hand-written store.  The one allowance is ``ffpoly._PRIMES``, which
# ``is_monic_prime`` reads without building it; an allowance that its
# module no longer binds fails the test.

STORES_ALLOWED = {"ffpoly.py:_PRIMES"}


def _empty_stores(path: Path) -> list[str]:
    """``file:name`` for each module-level name of ``path`` bound to an
    empty container."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        value = getattr(node, "value", None)
        empty = (isinstance(value, ast.Dict) and not value.keys
                 or isinstance(value, ast.List) and not value.elts
                 or isinstance(value, ast.Call) and not value.args
                 and not value.keywords and isinstance(value.func, ast.Name)
                 and value.func.id in {"dict", "list", "set"})
        if empty:
            found += [f"{path.name}:{t.id}" for t in targets if isinstance(t, ast.Name)]
    return found


def test_results_are_kept_in_functools_cache_entries():
    stores = [s for path in sorted(SRC.glob("*.py")) for s in _empty_stores(path)]
    assert sorted(stores) == sorted(STORES_ALLOWED)


def test_the_check_sees_an_empty_store(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\n"
                     "_X: dict = {}\n"
                     "_Y = _Z = set()\n"
                     "_ROWS = []\n"
                     "_TABLE = dict(a=1)\n"
                     "_KEPT = [1]\n"
                     "_NOTE: dict\n"
                     "def f():\n"
                     "    local = {}\n"
                     "    return local\n")
    assert _empty_stores(probe) == ["probe.py:_X", "probe.py:_Y", "probe.py:_Z",
                                    "probe.py:_ROWS"]


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
# ``src/ffzeta`` is named somewhere: a top-level function by a name or an
# attribute in ``src/ffzeta`` outside its own body, or in ``perfbench/*.py``
# also by a string, whose dotted parts count one by one (``WRAPPED`` names
# its targets as "module", "Class.method").  A method or property counts
# as named only by an attribute load ``.name`` in ``src/ffzeta`` outside
# its own body, or by such a string: a local variable or a function that
# shares its name does not name it.  A re-export from ``__init__`` and a
# call from the tests do not count: a function that only they reach is
# library code that no command, criterion or workload runs.  The check
# goes by name, like the one above.

# name -> why it may stay unnamed
UNNAMED_ALLOWED = {
    "monic_prime_count": "ROADMAP item 9 sizes Frobenius work with it",
}


def _definitions(tree) -> list[tuple[ast.FunctionDef, bool]]:
    """Top-level functions and the non-dunder methods of top-level classes,
    each with whether it is a method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node, False))
        elif isinstance(node, ast.ClassDef):
            found += [(stmt, True) for stmt in node.body
                      if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]
    return found


def _names(tree, kinds=("name", "attr")) -> Counter:
    """How often each name is loaded in ``tree`` as an ``ast.Name``
    ("name" in ``kinds``) or an ``ast.Attribute`` ("attr"); with "str",
    each dotted part of a string constant counts too."""
    found = Counter()
    for node in ast.walk(tree):
        if "name" in kinds and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif "attr" in kinds and isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif "str" in kinds and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def _unnamed_functions(sources: list[Path], users: list[Path],
                       string_users: list[Path]) -> list[str]:
    """``file:name`` for each definition of ``sources`` (files among
    ``users``) that no file of ``users`` names outside the definition's own
    body, and no file of ``string_users`` names at all; a method is named
    only by an attribute of ``users`` or a string of ``string_users``."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in {*sources, *users, *string_users}}
    named = sum((_names(trees[path]) for path in users), Counter())
    named += sum((_names(trees[path], ("name", "attr", "str")) for path in string_users),
                 Counter())
    as_attribute = sum((_names(trees[path], ("attr",)) for path in users), Counter())
    as_attribute += sum((_names(trees[path], ("str",)) for path in string_users), Counter())
    unnamed = []
    for path in sources:
        for node, method in _definitions(trees[path]):
            seen, kinds = (as_attribute, ("attr",)) if method else (named, ("name", "attr"))
            if seen[node.name] <= _names(node, kinds)[node.name]:
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
                     "    def shadowed(self):\n"
                     "        return self\n"
                     "def caller(r):\n"
                     "    shadowed = r.called()\n"
                     "    return shadowed\n")
    bench.write_text("WRAPPED = {'a': ('probe', 'by_string'), 'b': ('probe', 'Ring.wrapped')}\n")
    assert _unnamed_functions([probe], [probe], [bench]) == [
        "probe.py:recursive", "probe.py:in_string", "probe.py:unread",
        "probe.py:shadowed", "probe.py:caller"]
