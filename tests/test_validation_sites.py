"""Validation happens only where the validation rule allows it.

A stdlib `ast` pass, like tests/test_dead_code.py, over `src/quivertt/`.  A
call `<anything>.validate()` may sit only inside a function named `__init__`
or `validate` (a constructor validating itself, a validator validating its
parts) or inside `complex_r`, the one public builder that validates.  A call
to a validating constructor (`Representation(`, `RepMorphism(`, `ComplexRQ(`,
`ComplexMorphism(`) may sit there too, or in the other public entry points
that promise a validated result: `rep_free`, `evaluation_map` and the
workspace loader's `_build_term` and `_build_object`.  Every other builder
returns what `_trusted` or `_complex` made, unvalidated.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertt"
ALLOWED = {"__init__", "validate", "complex_r"}
BOUNDARY = ALLOWED | {"rep_free", "evaluation_map", "workspace._build_term", "workspace._build_object"}
CONSTRUCTORS = {"Representation", "RepMorphism", "ComplexRQ", "ComplexMorphism"}
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def validating_calls(tree, func=None):
    """(line, innermost enclosing function name or None, allowed set) of each validating call."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            callee = child.func
            if isinstance(callee, ast.Attribute) and callee.attr == "validate":
                found.append((child.lineno, func, ALLOWED))
            elif getattr(callee, "id", getattr(callee, "attr", None)) in CONSTRUCTORS:
                found.append((child.lineno, func, BOUNDARY))
        found += validating_calls(child, child.name if isinstance(child, FUNCS) else func)
    return found


def stray_validations(modules):
    """'file:line in function' for each validating call outside the allowed functions."""
    return [f"{path.name}:{line} in {func}"
            for path in modules
            for line, func, allowed in validating_calls(ast.parse(path.read_text(encoding="utf-8")))
            if func not in allowed and f"{path.stem}.{func}" not in allowed]


def test_validate_is_called_only_at_the_boundary():
    stray = stray_validations(sorted(SRC.glob("*.py")))
    assert not stray, "validate() or a validating constructor called by a builder: " + ", ".join(stray)


def test_the_guard_sees_a_stray_validate(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    def __init__(self):\n        self.validate()\n\n    def validate(self):\n"
                   "        self.part.validate()\n\n\ndef complex_r(x):\n    x.validate()\n\n\n"
                   "def cone(x):\n    out = x\n    out.validate()\n\n    def inner():\n        x.validate()\n"
                   "    return out\n\n\nA().validate()\n\n\n"
                   "def evaluation_map(x):\n    ev = _trusted(ComplexMorphism, x)\n"
                   "    return ComplexMorphism(ev.source, isinstance(ev, RepMorphism))\n\n\n"
                   "def shift(x):\n    return mod.ComplexRQ(x)\n\n\n"
                   "def _build_term(q):\n    return Representation(q)\n")
    workspace = tmp_path / "workspace.py"
    workspace.write_text("def _build_term(q):\n    return Representation(q)\n\n\n"
                         "def _build_object(t):\n    t.validate()\n    return RepMorphism(t, t)\n")
    assert stray_validations([lib, workspace]) == [
        "lib.py:15 in cone", "lib.py:18 in inner", "lib.py:22 in None",
        "lib.py:31 in shift", "lib.py:35 in _build_term", "workspace.py:6 in _build_object"]
