"""Source hygiene of the package, checked with the standard library's ast
module, and the cold start of its module-level caches."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from rhopf import symfield
from rhopf.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "rhopf"
BENCH = Path(__file__).resolve().parents[1] / "verdictbench"


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds and the module never
    reads; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\nimport os\n"
              "import os.path as osp\nfrom re import match, sub as s\n"
              "def f(x: Path) -> None:\n    return match('', x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "s")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_local_imports(source: str) -> list:
    """Line of every import inside a function or class body; an import
    under a module-level ``if`` or ``try`` is still at module level."""
    out = []

    def visit(node, nested):
        for sub in ast.iter_child_nodes(node):
            if nested and isinstance(sub, (ast.Import, ast.ImportFrom)):
                out.append(sub.lineno)
            visit(sub, nested or isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    visit(ast.parse(source), False)
    return out


def test_function_local_imports_finds_nested_imports():
    source = ("import os\n"
              "try:\n    import json\nexcept ImportError:\n    json = None\n"
              "def f():\n    from re import match\n"
              "    def g():\n        import sys\n    return match\n"
              "class C:\n    import io\n"
              "    def m(self):\n        if self:\n"
              "            from . import a\n")
    assert function_local_imports(source) == [7, 9, 12, 15]


def test_no_function_local_imports():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in function_local_imports(
                 path.read_text(encoding="utf-8"))]
    assert found == []


def _constants(node):
    """The constants (upper-case names, leading underscores aside) that a
    module-level statement binds by assignment."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id.lstrip("_").isupper():
                    yield sub.id


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether a class derives from ``NamedTuple`` or is decorated with
    ``dataclass`` (also called, or reached as ``dataclasses.dataclass``)."""
    def name(node):
        if isinstance(node, ast.Call):
            node = node.func
        return node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)
    return "NamedTuple" in map(name, cls.bases) or \
        "dataclass" in map(name, cls.decorator_list)


def _definitions(tree):
    """(name, node) of every module-level function, class and constant
    (``_constants``) of a module, and ("Class.name", node) of every method
    or property of its classes and every annotated field of one that is a
    NamedTuple or a dataclass."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        yield from ((name, node) for name in _constants(node))
        if isinstance(node, ast.ClassDef):
            record = _is_record(node)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub
                elif record and isinstance(sub, ast.AnnAssign) and \
                        isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}", sub


def _reads(node):
    """The names read under ``node``: a bare name, an attribute, an
    imported name (the unused-import check makes the importer read it),
    and each part of a string that is a dotted identifier path, the name
    a patch target or a ``getattr`` gives."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and all(part.isidentifier() for part in sub.value.split(".")):
            yield from sub.value.split(".")


def _attribute_reads(node):
    """The attributes read under ``node`` (``obj.name``, ``Class.name``):
    a member is reached so, and a bare name of its spelling, such as a
    parameter or a keyword argument, is no read of it."""
    return (sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load))


def _scope(qualname: str) -> str:
    """Where ``unread`` looks for reads of a definition: "private" (a
    leading underscore), "member" (a public member) or "module"."""
    member, _, name = qualname.rpartition(".")
    return "private" if name[0] == "_" else "member" if member else "module"


def unread(sources: dict, readers: dict) -> list:
    """(module, name) of every definition of ``sources`` (``_definitions``)
    that nothing reads outside its own definition; both map module names
    to their text.  A private name must be read (``_reads``) in
    ``sources``, a public module-level one in ``sources`` or ``readers``,
    and a public member as an attribute (``_attribute_reads``) in either.
    A constant that a function rebinds (``global X; X += 1``) is written
    there, not read; a dunder name is never reported."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    wide = [*trees.values(), *map(ast.parse, readers.values())]
    inner = Counter(name for tree in trees.values() for name in _reads(tree))
    outer = Counter(name for tree in wide for name in _reads(tree))
    attributes = Counter(name for tree in wide
                         for name in _attribute_reads(tree))
    out = []
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            if name.startswith("__"):
                continue
            reads, read = {"private": (_reads, inner),
                           "member": (_attribute_reads, attributes),
                           "module": (_reads, outer)}[_scope(qualname)]
            if read[name] == list(reads(node)).count(name):
                out.append((mod, qualname))
    return sorted(out)


def test_dead_helpers_finds_what_is_never_read():
    sources = {
        "a": ("def _used():\n    pass\n"
              "def _dead():\n    return _used()\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Imported:\n    pass\n"
              "def _by_attribute():\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "def public():\n    pass\n"
              "_assigned = None\n"),
        "b": ("from .a import _Imported\n"
              "from . import a\n"
              "def f():\n    return _Imported, a._by_attribute()\n"),
    }
    readers = {"c": "import a, b\nb.f(), a._dead()\n"}
    assert unread(sources, readers) == [("a", "_dead"), ("a", "_recursive"),
                                        ("a", "public")]


def test_dead_helpers_finds_private_methods_and_constants():
    sources = {
        "a": ("_READ = 1\n"
              "_UNREAD: int = 2\n"
              "_PAIR_A, _PAIR_B = 3, 4\n"
              "_lower = 5\n"
              "__all__ = ()\n"
              "class C:\n"
              "    def _used(self):\n        return _READ, _PAIR_A\n"
              "    def _dead(self):\n        return self._used()\n"
              "    def _recursive(self):\n        return self._recursive()\n"
              "    def _by_attribute(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "    def public(self):\n        pass\n"),
        "b": ("from .a import C\n"
              "def f():\n    return C()._by_attribute(), C.public\n"),
    }
    readers = {"c": "from b import f\n"}
    assert unread(sources, readers) == [
        ("a", "C._dead"), ("a", "C._recursive"), ("a", "_PAIR_B"),
        ("a", "_UNREAD")]


def test_unread_public_members_finds_what_is_never_read():
    sources = {
        "a": ("class C:\n"
              "    def used(self):\n        return 0\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    @property\n    def dead(self):\n        return 0\n"
              "    @classmethod\n    def make(cls):\n        return cls()\n"
              "    def shadowed(self, named):\n        return named\n"
              "    def _private(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "def named(shadowed):\n    return shadowed\n"),
    }
    readers = {"b": "from a import C\nC.make().used()\n"}
    assert unread(sources, readers) == [
        ("a", "C._private"), ("a", "C.dead"), ("a", "C.recursive"),
        ("a", "C.shadowed")]


def test_unread_public_members_finds_unread_record_fields():
    sources = {
        "a": ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "class P(NamedTuple):\n"
              "    used: int\n    dead: int\n    _private: int\n"
              "@dataclass(frozen=True)\n"
              "class D:\n"
              "    kept: int\n    unread: int = 0\n"
              "@dataclasses.dataclass\n"
              "class E:\n"
              "    lost: int\n"
              "class Plain:\n"
              "    annotated: int\n"
              "def make(unread):\n"
              "    return P(used=1, dead=2, _private=3), D(1, unread)\n"),
    }
    readers = {"b": "from a import make\np, d = make(0)\np.used, d.kept\n"}
    assert unread(sources, readers) == [
        ("a", "D.unread"), ("a", "E"), ("a", "E.lost"), ("a", "P._private"),
        ("a", "P.dead"), ("a", "Plain")]


def test_unread_definitions_finds_what_is_never_read():
    sources = {
        "a": ("def used():\n    pass\n"
              "def dead():\n    return used()\n"
              "def _private_dead():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Dead:\n    def method(self):\n        return Dead\n"
              "def by_name():\n    pass\n"
              "def by_attribute():\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "def named():\n    return 'named is a word'\n"),
        "b": ("from .a import used\n"
              "def helper():\n    return 0\n"
              "def caller():\n    return helper()\n"),
    }
    readers = {"c": ("import a, b\n"
                     "TARGETS = [('a', 'by_name'), ('b', 'caller.x')]\n"
                     "a.by_attribute()\n")}
    assert unread(sources, readers) == [
        ("a", "Dead"), ("a", "Dead.method"), ("a", "_private_dead"),
        ("a", "dead"), ("a", "named"), ("a", "recursive")]


def test_unread_definitions_finds_unread_public_constants():
    sources = {
        "a": ("NAMES = ('x', 'y')\n"
              "PASSING = NAMES[:1]\n"
              "COUNT: int = 0\n"
              "WIDTH, DEPTH = 3, 4\n"
              "lower = 5\n"
              "_PRIVATE = 6\n"
              "__all__ = ()\n"
              "def bump():\n    global COUNT\n    COUNT += 1\n"
              "    return WIDTH\n"),
        "b": "from .a import bump\nbump()\n",
    }
    readers = {"c": "import a\nprint(a.NAMES)\n"}
    assert unread(sources, readers) == [
        ("a", "COUNT"), ("a", "DEPTH"), ("a", "PASSING"), ("a", "_PRIVATE")]


def _texts(directory: Path) -> dict:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(directory.glob("*.py"))}


# What only tests use: by ``_scope``, the definitions that only tests read,
# an independent oracle; under "parameter" (``unpassed``), the step budget
# of ``normal_order``, which only tests lower, and its trace list, which
# the benchmark's tracer passes through a forwarding call that name
# matching cannot see.  Equality keeps the list from going stale when the
# package starts reading or passing one of them.
TEST_ONLY = {"private": [], "member": [],
             "module": [("algebra", "term_measure")],
             "parameter": [("algebra", "normal_order.max_steps"),
                           ("algebra", "normal_order.trace")]}


def _gate(scope: str):
    assert [found for found in unread(_texts(SRC), _texts(BENCH))
            if _scope(found[1]) == scope] == TEST_ONLY[scope]


def test_no_dead_helpers():
    _gate("private")


def test_no_unread_public_members():
    _gate("member")


def test_no_unread_definitions():
    _gate("module")


def _callee(call: ast.Call):
    """The name a call reaches its function by: ``f(...)`` or
    ``obj.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _defaulted(fn: ast.FunctionDef):
    """(parameter, position in a call) of every parameter of ``fn`` that
    has a default; the position does not count ``self`` or ``cls``, and is
    None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i - skip) for i, a in enumerate(positional)
                if i >= first)
    yield from ((a.arg, None) for a, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                if default is not None)


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether ``call`` may pass ``param``: by keyword or through a
    ``**`` forward, and a positional parameter by position or through a
    ``*`` forward."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed(sources: dict, callers: dict) -> list:
    """(module, "function.parameter") of every parameter with a default of
    a function or method of ``sources`` (``_definitions``) that no call in
    ``sources`` or ``callers`` passes (``_passes``); both map module names
    to their text.  A call is matched by the name it reaches the function
    by (``_callee``): its own, and for ``__init__`` and ``__new__`` also
    that of their class."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = [node for tree in [*trees.values(), *map(ast.parse,
                                                     callers.values())]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    out = []
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner, _, name = qualname.rpartition(".")
            names = {name, owner} if name in ("__init__", "__new__") \
                else {name}
            mine = [call for call in calls if _callee(call) in names]
            out.extend((mod, f"{qualname}.{param}")
                       for param, position in _defaulted(node)
                       if not any(_passes(call, param, position)
                                  for call in mine))
    return sorted(out)


def test_unpassed_finds_parameters_no_call_passes():
    sources = {
        "a": ("def f(x, by_position=1, by_keyword=2, never=3):\n"
              "    return x\n"
              "def forwarded(x, *, through=4):\n    return x\n"
              "def forward(*args, **kw):\n"
              "    return forwarded(*args, **kw)\n"
              "class C:\n"
              "    def __init__(self, x, made=5):\n        self.x = x\n"
              "    def method(self, x, scaled=6):\n        return x\n"),
    }
    callers = {"b": ("from a import C, f, forward\n"
                     "f(0, 1, by_keyword=2), forward(0, through=3)\n"
                     "C(0, 1).method(0, 2)\n"
                     "other(never=3)\n")}
    assert unpassed(sources, callers) == [("a", "f.never")]


def test_no_unpassed_parameters():
    assert unpassed(_texts(SRC), _texts(BENCH)) == TEST_ONLY["parameter"]


def global_statements(source: str) -> list:
    """Line of every ``global`` statement: run state lives in the memos
    that ``symfield.run_memo`` registers, which ``reset_memo`` empties."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)]


def test_global_statements_finds_every_global():
    source = ("COUNT = 0\n"
              "def bump():\n    global COUNT\n    COUNT += 1\n"
              "class C:\n    def m(self):\n        def inner():\n"
              "            global A, B\n"
              "def enclosing():\n    x = 0\n    def g():\n"
              "        nonlocal x\n")
    assert global_statements(source) == [3, 8]


def test_no_global_statements():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in global_statements(path.read_text(encoding="utf-8"))]
    assert found == []


def unread_parameters(source: str) -> list:
    """(function, parameter) of every parameter of a function, method or
    lambda that its body never reads; ``self`` and ``cls`` aside.  A
    function is named by its dotted path of enclosing classes and
    functions, a lambda as ``<lambda>`` under its enclosing one.  A read
    inside a nested function or lambda counts as a read of the enclosing
    parameter of that name."""
    out = []

    def visit(node, path):
        for sub in ast.iter_child_nodes(node):
            name = path
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda, ast.ClassDef)):
                name = path + (getattr(sub, "name", "<lambda>"),)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                args = sub.args
                params = [a.arg for a in (
                    args.posonlyargs + args.args + [args.vararg]
                    + args.kwonlyargs + [args.kwarg]) if a]
                body = sub.body if isinstance(sub.body, list) else [sub.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                out.extend((".".join(name), p) for p in params
                           if p not in ("self", "cls") and p not in read)
            visit(sub, name)
    visit(ast.parse(source), ())
    return out


def test_unread_parameters_finds_what_is_never_read():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a, kw\n"
              "class C:\n"
              "    def m(self, x, y):\n        return lambda z: x\n"
              "    @classmethod\n    def k(cls, w):\n"
              "        def inner(v):\n            return w\n"
              "        return inner\n"
              "g = lambda u, t: u\n")
    assert unread_parameters(source) == [
        ("f", "b"), ("f", "args"), ("f", "c"), ("C.m", "y"),
        ("C.m.<lambda>", "z"), ("C.k.inner", "v"), ("<lambda>", "t")]


def test_no_unread_parameters():
    found = [(path.stem + "." + func, param)
             for path in sorted(SRC.glob("*.py"))
             for func, param in unread_parameters(
                 path.read_text(encoding="utf-8"))]
    assert found == []


def module_caches(source: str) -> list:
    """Names of the module-level functions that ``functools.cache`` or
    ``functools.lru_cache`` wraps, as a decorator (also called, or by its
    bare name) or in a module-level assignment, and of the module-level
    names bound to an empty dict literal (``X = {}``, ``X: dict = {}``),
    a hand-kept memo table, also when it is registered as run-scoped
    (``X: dict = run_memo({})``)."""
    def is_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)
        return name in ("cache", "lru_cache")

    def is_table(node):
        if isinstance(node, ast.Call) and len(node.args) == 1 and \
                getattr(node.func, "id", None) == "run_memo":
            node = node.args[0]
        return isinstance(node, ast.Dict) and not node.keys
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(is_cache(dec) for dec in node.decorator_list):
                out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                node.value is not None and (is_table(node.value) or (
                    isinstance(node.value, ast.Call)
                    and is_cache(node.value))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out.extend(t.id for t in targets if isinstance(t, ast.Name))
    return out


def test_module_caches_finds_every_module_level_cache():
    source = ("import functools\nfrom functools import cache\n"
              "@functools.cache\ndef a(x):\n    return x\n"
              "@cache\ndef b():\n    pass\n"
              "@functools.lru_cache(maxsize=None)\ndef c():\n    pass\n"
              "d = functools.cache(len)\n"
              "@staticmethod\ndef e():\n    pass\n"
              "class K:\n    @functools.cache\n    def m(self):\n"
              "        pass\n    TABLE = {}\n"
              "def f():\n    memo = {}\n    return functools.cache(f)\n"
              "g = {}\nh: dict = {}\ni = j = {}\n"
              "k = {1: 2}\nm: dict\nn = dict()\no = {**g}\n"
              "p: dict = run_memo({})\nr = run_memo({})\n"
              "@run_memo\n@functools.cache\ndef t():\n    pass\n"
              "u = run_memo({1: 2})\nv = run_memo(len)\n"
              "w = other({})\n")
    assert module_caches(source) == ["a", "b", "c", "d", "g", "h", "i", "j",
                                     "p", "r", "t"]


# Module-level caches of values that depend on no input: the coefficients
# of the cyclotomic polynomials and the q-power of a charge step.  Every
# other one is run-scoped, or it would let one CLI run warm the next and
# flatter a benchmark that repeats runs in one process.
INPUT_FREE = {"_cyclotomic", "charge_shift"}
# The entries a cold start leaves in a run-scoped table: the value table
# keeps the constants 0 and 1 (``symfield._R0``, ``symfield._R1``), which
# other modules bind at import, so that they stay the one objects for 0
# and 1.
KEPT = {"_VALUES": 2}


def _size(cache) -> int:
    return len(cache) if isinstance(cache, dict) else \
        cache.cache_info().currsize


def test_module_caches_are_input_free_or_start_cold(tmp_path, capsys):
    caches = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in module_caches(path.read_text(encoding="utf-8"))}
    assert INPUT_FREE <= {name for _, name in caches}
    assert {(mod, name) for mod, name in caches if name[1:].isupper()} >= {
        ("symfield", "_VALUES"), ("symfield", "_PRODUCTS"),
        ("symfield", "_SUMS"), ("symfield", "_SUBSTS"),
        ("symfield", "_CUTS"), ("expr", "_TEXTS"), ("modes", "_SHAPES")}
    scoped = {f"{mod}.{name}": (importlib.import_module(f"rhopf.{mod}"),
                                name, KEPT.get(name, 0))
              for mod, name in sorted(caches) if name not in INPUT_FREE}
    # the run-scoped memos are, by identity, the ones registered where
    # they are defined, so the one reset of ``main`` reaches each of them
    registry = symfield._RUN_MEMOS
    assert [name for name, (mod, attr, _) in scoped.items()
            if not any(getattr(mod, attr) is m for m in registry)] == []
    assert len(registry) == len(scoped)
    assert not any(getattr(importlib.import_module(f"rhopf.{mod}"), name) is m
                   for mod, name in caches if name in INPUT_FREE
                   for m in registry)
    # a failing run with residuals of each kind, and a scalar run that
    # also runs the reference comparison, warm every run-scoped cache: the
    # Hopf checks fill the engine's, the mode checks the mode layer's
    warm = set()
    for argv, code in ((["verify-hopf", "--instance", "example2-n2",
                         "--toggle", "ll-star=literal"], 1),
                       (["verify-modes", "--instance", "example2-n2",
                         "--toggle", "ll-star=literal"], 1),
                       (["verify-modes", "--instance", "example1"], 0)):
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == code
        warm |= {name for name, (mod, attr, kept) in scoped.items()
                 if _size(getattr(mod, attr)) > kept}
    assert sorted(set(scoped) - warm) == []
    # the cold start of main comes before its arguments are read
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert [name for name, (mod, attr, kept) in scoped.items()
            if _size(getattr(mod, attr)) != kept] == []
