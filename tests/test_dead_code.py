"""Every function, method and class of the package is named somewhere.

A stdlib `ast` pass, like tests/test_imports.py: a definition under
`src/quivertt/` is dead when no `Name`, `Attribute`, import alias or string
constant in `src/`, `tests/` or `bench/` spells its name.  A method, a
function defined in a class body, is used only where an `Attribute` or an
import alias spells it: a bare `Name` of the same spelling is some local or
module name, not the method.  Its own `def` or `class` line does not count,
since that binds the name rather than using it.  Dunder names are exempt:
the language calls them.

A second pass flags unused locals: a name that a function (nested functions
included) stores but never loads.  Names starting with `_` are exempt.

A third pass flags redundant overrides: a method whose arguments and body
match, by `ast.dump`, the method it overrides in a base class defined in the
same module, so that deleting it changes nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quivertt"
SCANNED = ("src", "tests", "bench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(name, line, is_method) of every function, method and class defined in tree."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, DEFS[:2])}
    return [(node.name, node.lineno, id(node) in methods) for node in ast.walk(tree) if isinstance(node, DEFS)]


def used_names(tree):
    """(names, attributes): the spellings of bare names and string constants,
    and those of attributes and import aliases."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            attrs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names, attrs


def dead_definitions(modules, others):
    """'file:line name' for each definition in modules named nowhere in modules or others."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in list(modules) + list(others)}
    names, attrs = set(), set()
    for tree in trees.values():
        n, a = used_names(tree)
        names |= n
        attrs |= a
    return [f"{path.name}:{line} {name}"
            for path in modules for name, line, is_method in definitions(trees[path])
            if name not in attrs and (is_method or name not in names)
            and not (name.startswith("__") and name.endswith("__"))]


def outermost_functions(node):
    """Functions and methods not nested inside another function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS[:2]):
            yield child
        else:
            yield from outermost_functions(child)


def unused_locals(modules):
    """'file:line function: name' for each name a function stores but never loads."""
    found = []
    for path in modules:
        for func in outermost_functions(ast.parse(path.read_text(encoding="utf-8"))):
            stored, loaded = {}, set()
            for node in ast.walk(func):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
                    else:
                        loaded.add(node.id)
            found += [f"{path.name}:{line} {func.name}: {name}"
                      for name, line in sorted(stored.items(), key=lambda item: item[1])
                      if name not in loaded and not name.startswith("_")]
    return found


def redundant_overrides(modules):
    """'file:line Class.method' for each method that repeats the one it overrides."""
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        methods = {name: {f.name: f for f in cls.body if isinstance(f, DEFS[:2])} for name, cls in classes.items()}

        def overridden(cls, name):
            """The nearest definition of name in cls's bases within the module."""
            for base in (b.id for b in cls.bases if isinstance(b, ast.Name) and b.id in classes):
                f = methods[base].get(name) or overridden(classes[base], name)
                if f is not None:
                    return f
            return None

        def shape(f):
            return ast.dump(f.args), [ast.dump(stmt) for stmt in f.body]

        for cls in classes.values():
            for name, f in methods[cls.name].items():
                base = overridden(cls, name)
                if base is not None and shape(base) == shape(f):
                    found.append(f"{path.name}:{f.lineno} {cls.name}.{name}")
    return found


def test_every_definition_is_used():
    modules = sorted(SRC.glob("*.py"))
    others = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py") if p not in modules)
    dead = dead_definitions(modules, others)
    assert not dead, "defined but named nowhere: " + ", ".join(dead)


def test_the_guard_sees_a_dead_definition(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    def used(self):\n        pass\n\n    def spare(self):\n        pass\n\n"
                   "def by_string():\n    pass\n\n\ndef __init_subclass__():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import A\nA().used()\nnames = ['by_string']\n")
    assert dead_definitions([lib], [user]) == ["lib.py:5 spare"]


def test_the_guard_sees_a_method_spelled_only_by_a_local(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    def levels(self):\n        pass\n\n    def read(self):\n        pass\n\n"
                   "    def imported(self):\n        pass\n\n\n"
                   "def helper():\n    levels = [1]\n    return levels\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import A, helper, imported\nA().read()\nhelper()\n")
    assert dead_definitions([lib], [user]) == ["lib.py:2 levels"]


def test_no_unused_locals():
    unused = unused_locals(sorted(SRC.glob("*.py")))
    assert not unused, "stored but never read: " + ", ".join(unused)


def test_the_guard_sees_an_unused_local(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def f(xs):\n    q, r = divmod(7, 2)\n    total = 0\n    for x, _ in xs:\n        total += x\n"
                   "    def inner():\n        return q\n    spare = [y for y in xs]\n    return inner\n\n\n"
                   "class A:\n    def m(self):\n        kept = 1\n        return kept\n")
    assert unused_locals([lib]) == ["lib.py:2 f: r", "lib.py:3 f: total", "lib.py:8 f: spare"]


def test_no_redundant_overrides():
    redundant = redundant_overrides(sorted(SRC.glob("*.py")))
    assert not redundant, "same as the base-class method: " + ", ".join(redundant)


def test_the_guard_sees_a_redundant_override(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Base:\n    def f(self, a):\n        return str(a)\n\n    def g(self):\n        return 1\n\n\n"
                   "class Mid(Base):\n    def g(self):\n        return 2\n\n\n"
                   "class Leaf(Mid):\n    def f(self, a):\n        return str(a)\n\n    def g(self):\n        return 1\n\n"
                   "    def h(self, b):\n        return str(b)\n\n\n"
                   "class Other(dict):\n    def get(self, k):\n        return str(k)\n")
    assert redundant_overrides([lib]) == ["lib.py:15 Leaf.f"]
