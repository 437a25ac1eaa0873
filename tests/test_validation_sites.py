"""`.validate()` is called only where the validation rule allows it.

A stdlib `ast` pass, like tests/test_dead_code.py: under `src/quivertt/`, a
call `<anything>.validate()` may sit only inside a function named `__init__`
or `validate` (a constructor validating itself, a validator validating its
parts) or inside `complex_r`, the one public builder that validates.  Every
other builder returns what `_trusted` or `_complex` made, unvalidated.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertt"
ALLOWED = {"__init__", "validate", "complex_r"}
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def validate_calls(tree, func=None):
    """(line, innermost enclosing function name or None) of each .validate() call."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "validate":
            found.append((child.lineno, func))
        found += validate_calls(child, child.name if isinstance(child, FUNCS) else func)
    return found


def stray_validations(modules):
    """'file:line in function' for each .validate() call outside the allowed functions."""
    return [f"{path.name}:{line} in {func}"
            for path in modules
            for line, func in validate_calls(ast.parse(path.read_text(encoding="utf-8")))
            if func not in ALLOWED]


def test_validate_is_called_only_at_the_boundary():
    stray = stray_validations(sorted(SRC.glob("*.py")))
    assert not stray, "validate() called by a builder: " + ", ".join(stray)


def test_the_guard_sees_a_stray_validate(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    def __init__(self):\n        self.validate()\n\n    def validate(self):\n"
                   "        self.part.validate()\n\n\ndef complex_r(x):\n    x.validate()\n\n\n"
                   "def cone(x):\n    out = x\n    out.validate()\n\n    def inner():\n        x.validate()\n"
                   "    return out\n\n\nA().validate()\n")
    assert stray_validations([lib]) == ["lib.py:15 in cone", "lib.py:18 in inner", "lib.py:22 in None"]
