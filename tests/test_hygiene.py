"""Source hygiene, checked with the standard library's ast alone: every
name a lorhol module imports is used there or exported in its
``__all__``, every private name a module defines at its top level
is read somewhere in the package, and every parameter of a function is
read in its body."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lorhol"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression reads
    and ``__all__`` does not list; ``from __future__`` is not a name."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_what_it_should():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "import numpy as np\n"
           "from a import B, C, D\n"
           "__all__ = ['D']\n"
           "x: B = np.zeros(1)\n")
    assert unused_imports(src) == ["C (line 4)", "os (line 2)"]


def dead_private_names(sources: dict) -> list[str]:
    """The private names (one leading underscore) that the modules in
    ``sources``, {module name: source}, define at their top level by
    def, class or assignment, and that no module reads: as a name, by
    ``from ... import`` or as an attribute of a module it imports."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [n.id for t in (node.targets if isinstance(
                    node, ast.Assign) else [node.target])
                           for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                targets = []
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, f"{module}: {name} "
                                             f"(line {node.lineno})")
        modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return sorted(where for name, where in defined.items()
                  if name not in read)


def test_no_dead_private_names():
    assert dead_private_names({p.stem: p.read_text()
                               for p in sorted(SRC.glob("*.py"))}) == []


def test_dead_name_check_sees_what_it_should():
    a = ("import numpy as np\n"
         "_dead = 1\n"
         "_used, _unused = 2, 3\n"
         "def _helper():\n"
         "    return _used\n"
         "class _Shadow:\n"
         "    _attr = np.zeros(1)\n"
         "_imported = _via_module = _via_other = 4\n"
         "__version__ = '0'\n")
    b = ("from . import a as m\n"
         "from .a import _imported\n"
         "x = m._via_module\n"
         "y = x._Shadow + x._via_other\n")
    assert dead_private_names({"a": a, "b": b}) == [
        "a: _Shadow (line 6)", "a: _dead (line 2)", "a: _helper (line 4)",
        "a: _unused (line 3)", "a: _via_other (line 8)"]


def unread_parameters(source: str) -> list[str]:
    """The parameters of each function, method and lambda in ``source``
    that its body never reads, nested functions included; ``self``,
    ``cls`` and the parameters of dunder methods, whose signatures are
    fixed by the protocol, are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs + [args.vararg,
                                                       args.kwarg]) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, f"{name}: {p} (line {node.lineno})")
                  for p in params if p not in read | {"self", "cls"}]
    return [where for _, where in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_check_sees_what_it_should():
    src = ("class A:\n"
           "    def __setattr__(self, key, value):\n"
           "        raise TypeError\n"
           "    def method(self, used, unused):\n"
           "        return used\n"
           "    @classmethod\n"
           "    def make(cls, x):\n"
           "        return cls\n"
           "def f(a, *args, b=1, **kw):\n"
           "    def inner(c):\n"
           "        return a + c\n"
           "    return inner, args\n"
           "g = lambda p, q: p\n")
    assert unread_parameters(src) == [
        "method: unused (line 4)", "make: x (line 7)", "f: b (line 9)",
        "f: kw (line 9)", "<lambda>: q (line 13)"]
