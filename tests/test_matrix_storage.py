"""The matrix storage format is known only to `linalg.py`.

A stdlib `ast` pass, like tests/test_validation_sites.py, over
`src/quivertt/`.  Outside `linalg.py` a matrix is built only by linalg's
builders (`Matrix.from_entries`, `blocks`, `kron`, ...), never by calling
`Matrix(` on its fields, and read only through `nonzeros()`, `m[i, j]` and
`select_columns`/`select_rows`, never through its stored rows `.row_maps`
or its dense view `.entries`.  So changing the storage touches `linalg.py`
alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertt"
# tstruct's Filtration and SerreChain have an `entries` field of their own,
# their change points, which cli and checks read too; no matrix there
OTHER_ENTRIES = {"tstruct.py", "cli.py", "checks.py"}


def storage_uses(tree):
    """(line, what) of each raw Matrix( call and each .entries or .row_maps read."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == "Matrix":
                found.append((node.lineno, "Matrix("))
        elif isinstance(node, ast.Attribute) and node.attr in ("entries", "row_maps"):
            found.append((node.lineno, "." + node.attr))
    return sorted(found)


def stray_storage(modules):
    """'file:line what' for each use of the storage outside linalg."""
    return [f"{path.name}:{line} {what}"
            for path in modules if path.name != "linalg.py"
            for line, what in storage_uses(ast.parse(path.read_text(encoding="utf-8")))
            if not (what == ".entries" and path.name in OTHER_ENTRIES)]


def test_matrix_storage_is_read_and_built_only_in_linalg():
    stray = stray_storage(sorted(SRC.glob("*.py")))
    assert not stray, "matrix storage used outside linalg: " + ", ".join(stray)


def test_the_guard_sees_a_stray_read_and_a_stray_construction(tmp_path):
    lib = tmp_path / "homs.py"
    lib.write_text("def lift(m, ring):\n    col = [row[0] for row in m.entries]\n"
                   "    return Matrix(ring, len(col), 1, tuple((x,) for x in col))\n\n\n"
                   "def ok(m, ring):\n    return Matrix.from_entries(ring, 1, 1, {}), m.nonzeros(), m[0, 0]\n\n\n"
                   "def qualified(ring):\n    return linalg.Matrix(ring, 0, 0, ())\n\n\n"
                   "def rows(m):\n    return [sorted(row) for row in m.row_maps]\n")
    linalg = tmp_path / "linalg.py"
    linalg.write_text("def _new(ring, rows, cols, entries):\n    return Matrix(ring, rows, cols, entries.entries)\n")
    tstruct = tmp_path / "tstruct.py"
    tstruct.write_text("def levels(f, ring, m):\n    return f.entries, Matrix(ring, 0, 0, ()), m.row_maps\n")
    assert stray_storage([lib, linalg, tstruct]) == [
        "homs.py:2 .entries", "homs.py:3 Matrix(", "homs.py:11 Matrix(", "homs.py:15 .row_maps",
        "tstruct.py:2 .row_maps", "tstruct.py:2 Matrix("]
