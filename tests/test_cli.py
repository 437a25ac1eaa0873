"""Command-line surface: frozen reports, exit codes, JSON mirrors.

Output lines are pinned byte for byte; these are the strings other tooling
greps for, so any drift is a break worth noticing.
"""

import json
from pathlib import Path

import pytest

from quivertt import checks
from quivertt.cli import main
from quivertt.errors import QuiverTTError

WS = Path(__file__).resolve().parent.parent / "workspaces"
Z_A3 = str(WS / "z_a3.yaml")
F2_A2 = str(WS / "f2_a2.yaml")
D5 = str(WS / "affine_d5_f2.yaml")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_poset_report(capsys):
    code, out, err = run(capsys, "spectrum", Z_A3, "--bound", "6")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "12 points over Z with bound 6"
    assert lines[1:5] == ["  (0, 1)", "  (2, 1)", "  (3, 1)", "  (5, 1)"]
    assert lines[13] == "covers (lower < upper):"
    covers = lines[14:]
    assert len(covers) == 9
    assert covers[0] == "  (2, 1) < (0, 1)"
    # every cover climbs toward the generic point of its own vertex
    assert all(c.endswith(("(0, 1)", "(0, 2)", "(0, 3)")) for c in covers)


def test_spectrum_dot_export(capsys):
    code, out, _ = run(capsys, "spectrum", F2_A2, "--bound", "3", "--dot")
    assert code == 0
    assert out == 'digraph spectrum {\n  rankdir=BT;\n  "(0, 1)";\n  "(0, 2)";\n}\n'


def test_support_tables(capsys):
    code, out, _ = run(capsys, "support", Z_A3, "K2")
    assert code == 0
    assert out == "support of K2\n  1: {(2)}\n  2: {}\n  3: {}\n"
    code, out, _ = run(capsys, "support", Z_A3, "T6")
    assert code == 0
    assert out == "support of T6\n  1: {}\n  2: {(2), (3)}\n  3: {}\n"


def test_ideal_generators_of_named_support(capsys):
    code, out, _ = run(capsys, "ideal", Z_A3, "--set", "S23")
    assert code == 0
    assert out.splitlines() == [
        "ideal of S23: 3 generators",
        "  g0: 1: {(2)}; 2: {}; 3: {}",
        "  g1: 1: {(3)}; 2: {}; 3: {}",
        "  g2: 1: {}; 2: {(2)}; 3: {}",
    ]


def test_ideal_membership_with_inline_set(capsys):
    code, out, _ = run(capsys, "ideal", Z_A3, "--set", "1: [2]", "--member", "K2")
    assert code == 0
    assert out.splitlines() == [
        "MEMBER",
        "  ideal support:  1: {(2)}; 2: {}; 3: {}",
        "  object support: 1: {(2)}; 2: {}; 3: {}",
    ]
    # same support by name and inline must produce the same ideal payload
    code, by_name, _ = run(capsys, "ideal", Z_A3, "--set", "S23", "--json")
    code, inline, _ = run(capsys, "ideal", Z_A3, "--set", "1: [2, 3]; 2: [2]", "--json")
    assert json.loads(by_name) == json.loads(inline)


def test_aisle_generated_filtration(capsys):
    code, out, _ = run(capsys, "aisle", Z_A3, "--gen", "K2", "T6")
    assert code == 0
    assert out.splitlines() == [
        "filtration generated by K2, T6",
        "n < 1: 1: {(2)}; 2: {(2), (3)}; 3: {}",
        "n >= 1: 1: {}; 2: {}; 3: {}",
    ]


def test_aisle_membership_named_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "aisle", Z_A3, "--member", "K2", "--filt", "F")
    assert code == 0 and out == "IN AISLE\n"
    cut = tmp_path / "cut.yaml"
    cut.write_text("tail_low: {1: [3]}\n")
    code, out, _ = run(capsys, "aisle", Z_A3, "--member", "K2", "--filt", str(cut))
    assert code == 0 and out == "NOT IN AISLE\n"


def test_rigidity_reports(capsys):
    code, out, _ = run(capsys, "rigidity", F2_A2, "U")
    assert code == 0
    assert out.splitlines() == [
        "RIGID",
        "hom against the unit, tensored back:",
        "  n=0: 1: R; 2: R",
        "hom against itself:",
        "  n=0: 1: R; 2: R",
    ]
    code, out, _ = run(capsys, "rigidity", F2_A2, "U1")
    assert code == 0
    assert out.splitlines() == [
        "NOT RIGID",
        "hom against the unit, tensored back:",
        "  0 in every degree",
        "hom against itself:",
        "  n=0: 1: R",
    ]
    # projective at the sink: still not rigid, and the unit side shows why
    code, out, _ = run(capsys, "rigidity", F2_A2, "U2")
    assert code == 0
    assert out.splitlines()[0] == "NOT RIGID"
    assert out.splitlines()[2] == "  n=0: 2: R"


def test_filtsys_verdicts(capsys):
    code, out, _ = run(capsys, "filtsys", D5, "1", "2", "3", "4", "5", "6")
    assert code == 0
    assert out.splitlines() == [
        "filtration system: yes",
        "dynkin support:    yes",
        "witness: [4, 5, 3, 2, 0, 1]",
    ]
    code, out, _ = run(capsys, "filtsys", D5, "1,2,3,4,5,6")
    assert code == 0
    assert out.splitlines()[:2] == ["filtration system: yes", "dynkin support:    no"]


def test_verify_report_and_exit(capsys):
    code, out, err = run(capsys, "verify", Z_A3, "--seed", "0", "--cases", "4")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "case    0 ok   adjunction_dim             dim 0 vs 0"
    assert lines[-1] == "4/4 cases passed (seed 0)"


def test_verify_failure_exits_3(capsys, monkeypatch):
    def always_fails(rng):
        return False, "synthetic"

    monkeypatch.setattr(checks, "CHECKS", (("always_fails", always_fails),))
    code, out, err = run(capsys, "verify", Z_A3, "--cases", "2")
    assert code == 3
    assert "0/2 cases passed" in out
    assert err == "ERR 3: 2 of 2 cases failed\n"


def test_wrapped_domain_error_still_fails_the_case(capsys, monkeypatch):
    def raises(rng):
        raise QuiverTTError("synthetic")

    monkeypatch.setattr(checks, "CHECKS", (("raises", raises),))
    code, out, err = run(capsys, "verify", Z_A3, "--cases", "1")
    assert code == 3 and "QuiverTTError" in out


def test_unreadable_inputs_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "support", str(tmp_path / "none.yaml"), "U")
    assert code == 1 and err.startswith("ERR 1: cannot read")
    bad = tmp_path / "bad.yaml"
    bad.write_text("ring: Z\nquiver: {vertices: [1, 1]}\n")
    code, _, err = run(capsys, "support", str(bad), "U")
    assert code == 1 and err.startswith("ERR 1:")
    # inline --set with an unknown vertex is a parse problem, not a math one
    code, _, err = run(capsys, "ideal", Z_A3, "--set", "9: all")
    assert code == 1 and "unknown vertices" in err


def test_oversized_ring_parameter_exits_1(capsys, tmp_path):
    big = tmp_path / "big.yaml"
    big.write_text(Path(F2_A2).read_text().replace("ring: Fp(2)", "ring: Fp(1000000000000000003)"))
    code, out, err = run(capsys, "spectrum", str(big))
    assert code == 1 and out == ""
    assert err == f"ERR 1: {big}/ring: Fp parameter above the cap 10^9\n"


def test_precondition_violations_exit_2(capsys):
    code, _, err = run(capsys, "support", Z_A3, "NOPE")
    assert code == 2
    assert err == "ERR 2: no object named 'NOPE' (workspace has: K2, T6, U)\n"
    code, _, err = run(capsys, "aisle", Z_A3, "--member", "K2")
    assert code == 2 and err == "ERR 2: aisle --member needs --filt\n"


@pytest.mark.parametrize("cases", ["-1", "0"])
def test_verify_rejects_an_empty_run(capsys, cases):
    code, out, err = run(capsys, "verify", Z_A3, "--cases", cases)
    assert code == 2 and out == ""
    assert err == "ERR 2: --cases must be at least 1\n"


def test_json_mirrors_are_valid_and_sorted(capsys):
    for argv in (
        ("spectrum", Z_A3, "--bound", "6", "--json"),
        ("support", Z_A3, "K2", "--json"),
        ("ideal", Z_A3, "--set", "S23", "--json"),
        ("aisle", Z_A3, "--gen", "K2", "--json"),
        ("rigidity", F2_A2, "U1", "--json"),
        ("filtsys", D5, "1,2", "3,4,5,6", "--json"),
        ("verify", Z_A3, "--cases", "2", "--json"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_support_json_payload(capsys):
    _, out, _ = run(capsys, "support", Z_A3, "K2", "--json")
    assert json.loads(out) == {"object": "K2", "support": {"1": ["2"], "2": [], "3": []}}


def test_reports_are_deterministic(capsys):
    one = run(capsys, "spectrum", Z_A3, "--bound", "6", "--json")
    two = run(capsys, "spectrum", Z_A3, "--bound", "6", "--json")
    assert one == two
    one = run(capsys, "verify", Z_A3, "--cases", "3")
    two = run(capsys, "verify", Z_A3, "--cases", "3")
    assert one == two
