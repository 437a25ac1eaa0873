"""Golden CLI reports: every command on every shipped workspace, byte for byte.

Each case runs `cli.main` in text and in `--json` mode and compares the exit
code and stdout with `tests/golden/<workspace>.json`.  The case list is
derived from the workspaces themselves (each object, every vertex as its own
filtration-system part), so a new object gets covered without editing this
file.

Regenerate the goldens after an intended report change with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from quivertt.cli import main
from quivertt.workspace import load_workspace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKSPACES = sorted((ROOT / "workspaces").glob("*.yaml"))


def cases_for(path: Path):
    """The argv lists run on one workspace, workspace path relative to ROOT."""
    ws = load_workspace(str(path))
    rel = str(path.relative_to(ROOT))
    names = sorted(ws.objects)
    out = [["spectrum", rel]]
    for name in names:
        out.append(["support", rel, name])
        out.append(["ideal", rel, "--from", name])
        out.append(["rigidity", rel, name])
    out.append(["aisle", rel, "--gen", *names])
    out.append(["filtsys", rel, *ws.quiver.vertices])
    out.append(["verify", rel, "--cases", "16"])
    return [argv + mode for argv in out for mode in ([], ["--json"])]


def run_main(argv):
    """(exit code, stdout) of one CLI run from the repository root."""
    absolute = [str(ROOT / a) if a.endswith(".yaml") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(absolute)
    return code, out.getvalue()


def golden_path(path: Path) -> Path:
    return GOLDEN / (path.stem + ".json")


CASES = [(path, argv) for path in WORKSPACES for argv in cases_for(path)]


@pytest.mark.parametrize("path", WORKSPACES, ids=[p.name for p in WORKSPACES])
def test_golden_covers_every_case(path):
    recorded = json.loads(golden_path(path).read_text(encoding="utf-8"))
    assert [case["argv"] for case in recorded] == cases_for(path)


@pytest.mark.parametrize(
    "path, argv", CASES, ids=[" ".join(argv[:1] + argv[2:]) + f" @{p.stem}" for p, argv in CASES]
)
def test_golden_report(path, argv):
    recorded = json.loads(golden_path(path).read_text(encoding="utf-8"))
    want = next(case for case in recorded if case["argv"] == argv)
    code, stdout = run_main(argv)
    assert code == want["code"]
    assert stdout == want["stdout"]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for path in WORKSPACES:
        recorded = []
        for argv in cases_for(path):
            code, stdout = run_main(argv)
            recorded.append({"argv": argv, "code": code, "stdout": stdout})
        golden_path(path).write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {golden_path(path).relative_to(ROOT)}: {len(recorded)} cases", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
