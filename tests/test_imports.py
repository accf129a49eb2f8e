"""Every name a library module imports is used in that module."""

import ast
import inspect
from pathlib import Path

import pytest

import t2algebra
from t2algebra import piecewise

MODULES = sorted(
    path
    for path in Path(t2algebra.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # re-exports its imports
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds a; an ``as`` name binds in place of the name
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .a import b, c as d\n"
        "json.dumps(b)\n"
    )
    assert unused_imports(source) == ["d", "os"]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def dead_helpers(sources: list[str]) -> list[str]:
    """Module-level private defs and classes (``_name``, not dunders) of the
    given modules that no code of theirs refers to outside the definition."""
    trees = [ast.parse(source) for source in sources]
    helpers = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set()
    for tree in trees:
        for top in tree.body:
            own = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(helpers - used)


def test_every_private_helper_has_a_caller():
    package = Path(t2algebra.__file__).parent.glob("*.py")
    assert dead_helpers([path.read_text() for path in package]) == []


def test_the_check_sees_dead_helpers():
    first = (
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _called():\n"
        "    return 1\n"
        "class _Orphan:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    # an import is not a use; a call through a module attribute is
    second = "from .first import _Orphan\nfrom . import first\nfirst._called()\n"
    assert dead_helpers([first, second]) == ["_Orphan", "_recursive"]


MEMO_FACTORIES = {"lru_cache", "cache"}


def _called_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unsized_memos(source: str) -> list[int]:
    """Lines that make an ``lru_cache`` (or an unbounded ``cache``) other
    than ``lru_cache(maxsize=_CACHE)``, the one memo size of the package."""
    tree = ast.parse(source)
    sized = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node.func) == "lru_cache"
        and not node.args
        and [(k.arg, getattr(k.value, "id", None)) for k in node.keywords]
        == [("maxsize", "_CACHE")]
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _called_name(node) in MEMO_FACTORIES and id(node) not in sized
    )


def _makes_memo(node) -> bool:
    # lru_cache or cache, bare or called, and whatever it is then called on
    while isinstance(node, ast.Call):
        node = node.func
    return _called_name(node) in MEMO_FACTORIES


def memoised_names(source: str) -> set[str]:
    """Names bound to a memo: functions with a memo decorator, and names
    assigned a memo-wrapped callable."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_makes_memo(d) for d in node.decorator_list):
                names.add(node.name)
        elif isinstance(node, ast.Assign) and _makes_memo(node.value):
            names.update(n.id for n in node.targets if isinstance(n, ast.Name))
    return names


PACKAGE = sorted(Path(t2algebra.__file__).parent.glob("*.py"))
# _indicator, keyed by the integer slots of its ends, serves indicator(), which
# the axiom battery calls for every interval, and star/costar of two interval
# indicators; _shape holds each function's envelopes, threshold ends and
# lattice membership; _ascii_ratio holds the value of each integer or "p/q" slot
# string that to_rational reads, as loads passes them. canonicalize hands back
# its argument and holds nothing. A new memo is a deliberate edit here.
MEMOS = {"_indicator", "_shape", "_ascii_ratio"}


# the longest line of the package when the cap was set: a line count of the
# package cannot then fall by joining lines
MAX_LINE = 99


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_line_is_longer_than_the_cap(path):
    lines = enumerate(path.read_text().splitlines(), 1)
    assert [n for n, line in lines if len(line) > MAX_LINE] == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_memo_is_sized_by_cache(path):
    assert unsized_memos(path.read_text()) == []


def test_the_package_memoises_exactly_these_names():
    assert set().union(*(memoised_names(path.read_text()) for path in PACKAGE)) == MEMOS


def test_the_check_sees_unsized_memos():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=_CACHE)\n"
        "def sized(x): ...\n"
        "@lru_cache\n"
        "def bare(x): ...\n"
        "@functools.lru_cache(maxsize=128)\n"
        "def literal(x): ...\n"
        "@cache\n"
        "def unbounded(x): ...\n"
        "wrapped = lru_cache(maxsize=_CACHE)(len)\n"
        "positional = lru_cache(_CACHE)(len)\n"
    )
    assert unsized_memos(source) == [5, 7, 9, 12]
    assert memoised_names(source + "plain = len\ndef undecorated(x): ...\n") == {
        "sized",
        "bare",
        "literal",
        "unbounded",
        "wrapped",
        "positional",
    }


def callers(sources: dict[str, str], callee: str) -> set[str]:
    """``module.Class.method`` (or ``module.function``, or ``module.<module>``
    for code outside any definition) of the innermost definition of the given
    modules whose body calls ``callee``, by name or as an attribute."""
    found = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and _called_name(child.func) == callee:
                found.add(".".join(path) if len(path) > 1 else f"{path[0]}.<module>")
            visit(child, path)

    for module, source in sources.items():
        visit(ast.parse(source), [module])
    return found


def canonicalizing_functions(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each top-level definition (``module.<module>`` for
    other top-level code) of the given modules that calls ``canonicalize``,
    by name or as an attribute, anywhere in its body."""
    return {".".join(name.split(".")[:2]) for name in callers(sources, "canonicalize")}


# canonicalize hands back its argument (every PiecewiseFn is canonical); the
# library keeps what it builds as built. A canonicalizing call is a deliberate
# edit here.
CANONICALIZING = set()


def test_no_library_function_calls_canonicalize():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert canonicalizing_functions(sources) == CANONICALIZING


def test_the_check_sees_canonicalizing_calls():
    source = (
        "from . import piecewise\n"
        "from .piecewise import canonicalize\n"
        "def direct(f):\n"
        "    return canonicalize(f)\n"
        "def nested(fs):\n"
        "    return list(map(lambda f: piecewise.canonicalize(f), fs))\n"
        "def named_only(f):\n"
        "    return canonicalize\n"
        "class Box:\n"
        "    def method(self, f):\n"
        "        return canonicalize(f)\n"
        "INTERNED = canonicalize(None)\n"
    )
    assert canonicalizing_functions({"mod": source}) == {
        "mod.direct",
        "mod.nested",
        "mod.Box",
        "mod.<module>",
    }


# Every PiecewiseFn is canonical because every build canonicalizes in one
# place: the constructor and the trusted build both store through _seal. A
# second build path, or a second canonicalizer, is a deliberate edit here.
def test_only_seal_canonicalizes_and_only_the_two_builds_seal():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert callers(sources, "_canonical_parts") == {"piecewise.PiecewiseFn._seal"}
    assert callers(sources, "_seal") == {
        "piecewise.PiecewiseFn.__post_init__",
        "piecewise._sealed",
    }


# A build stores the key of what it stores: nothing rides in beside the parts.
def test_the_builds_take_exactly_the_three_parts():
    parts = ["breaks", "values", "pieces"]
    assert list(inspect.signature(piecewise._sealed).parameters) == parts
    assert list(inspect.signature(piecewise.PiecewiseFn._seal).parameters) == ["self", *parts]


def test_the_check_sees_each_caller():
    source = (
        "class Fn:\n"
        "    def build(self):\n"
        "        return self._seal()\n"
        "    def nested(self):\n"
        "        def inner():\n"
        "            return _seal()\n"
        "        return inner\n"
        "    def named_only(self):\n"
        "        return self._seal\n"
        "def lambda_call(fs):\n"
        "    return map(lambda f: f._seal(), fs)\n"
        "def other():\n"
        "    return _canonical_parts()\n"
        "SEALED = Fn()._seal()\n"
    )
    assert callers({"mod": source}, "_seal") == {
        "mod.Fn.build",
        "mod.Fn.nested.inner",
        "mod.lambda_call",
        "mod.<module>",
    }


def imported_modules(source: str) -> set[str]:
    """The last dotted part of each module a source imports or imports from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[-1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.split(".")[-1] for a in node.names)
    return found


# Every axiom check lives in axioms: only it runs the falsifier, and only it
# and report build an AxiomReport. The grid oracle and the connectives know
# nothing of reports. A check elsewhere is a deliberate edit here.
def test_every_axiom_check_is_in_axioms():
    sources = {path.stem: path.read_text() for path in PACKAGE}

    def modules_calling(callee):
        return {name.split(".")[0] for name in callers(sources, callee)}

    assert modules_calling("falsify") == {"axioms"}
    assert modules_calling("AxiomReport") == {"axioms", "report"}
    for module in ("convolution", "connectives"):
        assert "report" not in imported_modules(sources[module])


def test_the_check_sees_each_import():
    source = "import os.path\nfrom .report import falsify\nfrom . import star\n"
    assert imported_modules(source) == {"path", "report", "star"}


# The scalar layer stands alone: rationals and connectives import no module of
# the package but errors and rationals, and each builtin connective's integer
# forms are declared beside it, in connectives, and nowhere else.
def test_the_scalar_layer_imports_nothing_above_it():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    for module in ("rationals", "connectives"):
        assert imported_modules(sources[module]) & set(sources) <= {"errors", "rationals"}
    assigning = {
        name
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("_ROW_FORMS", "_SLOT_FORMS")
    }
    assert assigning == {"connectives"}
