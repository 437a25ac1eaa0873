"""Command-line surface: frozen reports, exit codes, JSON mirrors.

Output lines are pinned byte for byte; these are the strings other tooling
greps for, so any drift is a break worth noticing.
"""

import json
import os
import random
import subprocess
import sys
import time
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


def test_rigidity_of_the_unit_on_affine_d5(capsys):
    # the goldens cover this run too; here its lines are spelled out
    code, out, _ = run(capsys, "rigidity", D5, "U")
    assert code == 0
    assert out.splitlines() == [
        "RIGID",
        "hom against the unit, tensored back:",
        "  n=0: 1: R; 2: R; 3: R; 4: R; 5: R; 6: R",
        "hom against itself:",
        "  n=0: 1: R; 2: R; 3: R; 4: R; 5: R; 6: R",
    ]


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
    # a node of the wrong shape is a parse problem, not a traceback
    bad.write_text("ring: Z\nquiver: {vertices: [1, 2], arrows: ['a: 1 -> 2']}\n"
                   "objects:\n  U: {degrees: {0: {1: free 1, arrow_maps: [[5]]}}}\n")
    code, out, err = run(capsys, "support", str(bad), "U")
    assert code == 1 and out == ""
    assert err == f"ERR 1: {bad}/objects/U/degrees/0/arrow_maps: expected a mapping of arrow names\n"
    # bytes that are not UTF-8, as a workspace and as a filtration file
    undecodable = tmp_path / "undecodable.yaml"
    undecodable.write_bytes(b"ring: Z\n\xff\xfe x\n")
    for argv in (("support", str(undecodable), "U"), ("aisle", Z_A3, "--member", "U", "--filt", str(undecodable))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"ERR 1: cannot read {undecodable}: ")
    # a zero denominator is a bad entry, in a workspace and in --set
    for ring in ("Q", "Zloc(3)"):
        ws = tmp_path / "fractions.yaml"
        for fiber, argv in (('[["1/0"]]', ("support", str(ws), "T")),
                            ("free 1", ("ideal", str(ws), "--set", "1: [1/0]"))):
            ws.write_text(f"ring: {ring}\nquiver: {{vertices: [1], arrows: []}}\n"
                          f"objects:\n  T: {{degrees: {{0: {{1: {fiber}}}}}}}\n")
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("ERR 1: ") and "zero denominator in '1/0'" in err
    # inline --set with an unknown vertex is a parse problem, not a math one
    code, _, err = run(capsys, "ideal", Z_A3, "--set", "9: all")
    assert code == 1 and "unknown vertices" in err
    # a vertex given twice is refused, not overwritten by its second spec
    code, out, err = run(capsys, "ideal", Z_A3, "--set", "1: all; 1: [2]")
    assert code == 1 and out == "" and err == "ERR 1: --set: keys '1' and '1' both name '1'\n"


def test_oversized_ring_parameter_exits_1(capsys, tmp_path):
    big = tmp_path / "big.yaml"
    big.write_text(Path(F2_A2).read_text().replace("ring: Fp(2)", "ring: Fp(1000000000000000003)"))
    code, out, err = run(capsys, "spectrum", str(big))
    assert code == 1 and out == ""
    assert err == f"ERR 1: {big}/ring: Fp parameter above the cap 10^9\n"


CAPPED_MAIN = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
               "from quivertt.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")


def run_capped(*argv):
    """(exit code, stdout, stderr) of the CLI in a subprocess limited to 2 GB
    of address space, so that a missing size cap ends in a MemoryError there
    instead of taking the host's memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("quiver, term", [
    ("{vertices: [1], arrows: []}", "{1: free 100000000}"),
    ('{vertices: [1, 2], arrows: ["a: 1 -> 2"]}', "{1: free 20000, 2: free 20000}"),
], ids=["one huge fiber", "zero arrow between two large fibers"])
def test_oversized_fiber_rank_exits_1(tmp_path, quiver, term):
    # the cap is checked before any matrix is built: the second case used to
    # run out of memory filling the implicit 20000 x 20000 arrow matrix
    ws = tmp_path / "big.yaml"
    ws.write_text(f"ring: Z\nquiver: {quiver}\nobjects:\n  X:\n    degrees: {{0: {term}}}\n")
    code, out, err = run_capped("support", str(ws), "X")
    assert (code, out) == (1, "")
    assert err == f"ERR 1: {ws}/objects/X/degrees/0/1: fiber generators above the cap 1000\n"


def test_implicit_zero_entries_exit_1(tmp_path):
    # every fiber is within its cap, but the omitted arrow maps of 300 degrees
    # would take about 2.4 GB: the eleventh 1000 x 1000 one is refused
    ws = tmp_path / "wide.yaml"
    degrees = ", ".join(f"{n}: {{1: free 1000, 2: free 1000}}" for n in range(300))
    ws.write_text(f'ring: Z\nquiver: {{vertices: [1, 2], arrows: ["a: 1 -> 2"]}}\n'
                  f"objects:\n  X:\n    degrees: {{{degrees}}}\n")
    code, out, err = run_capped("support", str(ws), "X")
    assert (code, out) == (1, "")
    assert err == f"ERR 1: {ws}/objects/X/degrees/10/arrow_maps/a: implicit zero entries above the cap 10^7\n"


def test_oversized_prime_window_exits_2(capsys, tmp_path):
    # FpX(101) at the default bound 7 would enumerate 101 + ... + 101^7 monic
    # candidates; the window refuses past 10^4 instead of hanging
    big = tmp_path / "fpx101.yaml"
    big.write_text(Path(F2_A2).read_text().replace("ring: Fp(2)", "ring: FpX(101)"))
    code, out, err = run(capsys, "spectrum", str(big))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("ERR 2: ") and "Traceback" not in err
    assert err == "ERR 2: FpX(101) prime window at bound 7 would examine more than 10^4 candidate generators\n"


def test_oversized_integer_factoring_exits_with_the_cap(capsys, tmp_path):
    # N = (10^9+7)(10^9+9) has no prime factor up to the trial-division cap
    # 10^6: `support`, `ideal --from`, `ideal --member` and `aisle --gen`
    # factor it, naming the object, and `--set` asks whether it is prime;
    # each answers within 10 s
    n = (10**9 + 7) * (10**9 + 9)
    ws = tmp_path / "zbig.yaml"
    ws.write_text(f"ring: Z\nquiver: {{vertices: [1], arrows: []}}\n"
                  f"objects:\n  S:\n    degrees: {{0: {{1: [[2]]}}}}\n  T:\n    degrees: {{0: {{1: [[{n}]]}}}}\n")
    capped = f"ERR 2: object T, degree 0, vertex 1: factoring {n} would trial-divide past the cap 10^6\n"
    cases = [(("support", str(ws), "T"), 2, capped),
             (("ideal", str(ws), "--from", "T"), 2, capped),
             (("ideal", str(ws), "--set", "1: all", "--member", "T"), 2, capped),
             (("aisle", str(ws), "--gen", "S", "T"), 2, capped),
             (("ideal", str(ws), "--set", f"1: [{n}]"), 1,
              f"ERR 1: --set/1: deciding whether {n} is prime would trial-divide past the cap 10^6\n")]
    for argv, code, err in cases:
        start = time.perf_counter()
        got = run(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert got == (code, "", err)


FPX_TORSION = """ring: FpX({p})

quiver:
  vertices: [1, 2]
  arrows: ["a: 1 -> 2"]

objects:
  T:
    degrees:
      0:
        1: [["{poly}"]]
"""


def test_poly_support_factors_by_trial_division(capsys, tmp_path):
    ws = tmp_path / "fpx2.yaml"
    ws.write_text(FPX_TORSION.format(p=2, poly="x^21+x+1"))
    code, out, err = run(capsys, "support", str(ws), "T")
    assert code == 0 and err == ""
    assert out == "support of T\n  1: {(x^7+x^5+x^3+x+1), (x^14+x^12+x^7+x^6+x^4+x^3+1)}\n  2: {}\n"


def test_oversized_poly_factoring_exits_2(capsys, tmp_path):
    # x^4+1 over F_101 would trial-divide by 101 + 101^2 candidates
    ws = tmp_path / "fpx101.yaml"
    ws.write_text(FPX_TORSION.format(p=101, poly="x^4+1"))
    code, out, err = run(capsys, "support", str(ws), "T")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == ("ERR 2: object T, degree 0, vertex 1: FpX(101): factoring x^4+1 would trial-divide by more than "
                   "10^4 candidate divisors\n")


def test_sparse_zmod_differential_finishes(capsys, tmp_path):
    # one 2 %-dense differential R^100 -> R^100 over Z/12 drawing the units 5,
    # 7 and 11: on the integer lift, where they are not units, its entries
    # grew until `support` was killed at 30 s
    rng = random.Random(3)
    elems = [1, 5, 7, 11, 2, 4, 6, 10]
    rows = [[rng.choice(elems) if rng.random() < 0.02 else 0 for _ in range(100)] for _ in range(100)]
    ws = tmp_path / "zmod12.yaml"
    ws.write_text("ring: Zmod(12)\nquiver: {vertices: [1], arrows: []}\nobjects:\n  X:\n"
                  "    degrees: {-1: {1: free 100}, 0: {1: free 100}}\n"
                  f"    differentials: {{-1: {{1: {json.dumps(rows)}}}}}\n")
    code, out, err = run(capsys, "support", str(ws), "X")
    assert (code, out, err) == (0, "support of X\n  1: all\n", "")


def test_wide_degree_span_finishes(capsys, tmp_path):
    # H^n = 0 wherever C^n = 0: the homology readers visit the two occupied
    # degrees, not the 10^9 empty ones between them
    ws = tmp_path / "wide.yaml"
    ws.write_text("ring: Z\nquiver: {vertices: [1], arrows: []}\nobjects:\n  W:\n"
                  "    degrees: {0: {1: free 1}, 1000000000: {1: free 1}}\n")
    want = {
        "support": "support of W\n  1: all\n",
        "aisle": "filtration generated by W\nn < 1000000001: 1: all\nn >= 1000000001: 1: {}\n",
        "rigidity": "RIGID\nhom against the unit, tensored back:\n"
                    "  n=-1000000000: 1: R\n  n=0: 1: R^2\n  n=1000000000: 1: R\n"
                    "hom against itself:\n  n=-1000000000: 1: R\n  n=0: 1: R^2\n  n=1000000000: 1: R\n",
    }
    for argv in (["support", str(ws), "W"], ["aisle", str(ws), "--gen", "W"], ["rigidity", str(ws), "W"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, want[argv[0]], "")
        assert time.perf_counter() - t0 < 5.0


def test_rigidity_over_zmod_prime_resolves(capsys, tmp_path):
    # Z/5 is a field: a fiber with relations resolves, and the report is the F_5 one
    reports = []
    for ring in ("Zmod(5)", "Fp(5)"):
        ws = tmp_path / "z5.yaml"
        ws.write_text(f"ring: {ring}\nquiver: {{vertices: [1, 2], arrows: ['a: 1 -> 2']}}\nobjects:\n  T:\n"
                      "    degrees: {0: {1: [[1], [0]]}}\n")
        code, out, err = run(capsys, "rigidity", str(ws), "T")
        assert code == 0 and err == ""
        reports.append(out)
    assert reports[0] == reports[1] == ("NOT RIGID\nhom against the unit, tensored back:\n  0 in every degree\n"
                                        "hom against itself:\n  n=0: 1: R\n")


ZMOD30_A3 = """ring: Zmod(30)
quiver: {vertices: [1, 2, 3], arrows: ["a: 1 -> 2", "b: 2 -> 3"]}
objects:
  X:
    degrees:
      -1: {1: free 2, 2: free 3, 3: free 1}
      0: {1: free 2, 2: free 3, 3: free 1}
    differentials:
      -1: {1: [[0, 12], [0, 0]], 2: [[16, 0, 2], [0, 0, 0], [12, 0, 0]], 3: [[2]]}
"""

# (free rank, R/(2) summands, R/(6) summands) per degree and vertex
ZMOD30_UNIT_SIDE = {-1: (2, 3, 1), 0: (4, 6, 2), 1: (2, 3, 1)}
ZMOD30_SELF_SIDE = {
    -1: ((2, 6, 6), (1, 6, 3), (0, 1, 0)),
    0: ((5, 17, 15), (2, 15, 6), (0, 2, 0)),
    1: ((4, 16, 12), (1, 12, 3), (0, 1, 0)),
    2: ((1, 5, 3), (0, 3, 0)),
}


def zmod30_fiber(free, twos, sixes):
    """A Z/30 fiber as reports spell it: R^free, then each R/(2), then each R/(6)."""
    head = [] if not free else ["R"] if free == 1 else [f"R^{free}"]
    return " + ".join(head + ["R/(2)"] * twos + ["R/(6)"] * sixes)


def test_rigidity_over_zmod30_within_its_bound(capsys, tmp_path):
    # Z/30 is not a field, so every hom and chain-map space here comes from
    # Smith transforms; this run took 6-7 s while the worker kept dense rows
    ws = tmp_path / "zmod30.yaml"
    ws.write_text(ZMOD30_A3)
    start = time.perf_counter()
    code, out, err = run(capsys, "rigidity", str(ws), "X")
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    lines = ["NOT RIGID", "hom against the unit, tensored back:"]
    lines += [f"  n={n}: " + "; ".join(f"{v}: {zmod30_fiber(0, twos, 0)}" for v, twos in enumerate(row, 1))
              for n, row in ZMOD30_UNIT_SIDE.items()]
    lines.append("hom against itself:")
    lines += [f"  n={n}: " + "; ".join(f"{v}: {zmod30_fiber(*f)}" for v, f in enumerate(row, 1))
              for n, row in ZMOD30_SELF_SIDE.items()]
    assert out == "\n".join(lines) + "\n"


def test_oversized_poly_degree_exits_1(capsys, tmp_path):
    # the parser builds degree + 1 coefficients; past the cap 10^4 it refuses
    # before allocating them
    ws = tmp_path / "fpx2.yaml"
    ws.write_text(FPX_TORSION.format(p=2, poly="x^10001"))
    code, out, err = run(capsys, "support", str(ws), "T")
    assert code == 1 and out == ""
    assert err == (f"ERR 1: {ws}/objects/T/degrees/0/1: bad entry 'x^10001': "
                   "polynomial degree 10001 above the cap 10^4\n")


def test_spectrum_bound_cap(capsys):
    code, out, err = run(capsys, "spectrum", Z_A3, "--bound", "10000")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "3690 points over Z with bound 10000"
    code, out, err = run(capsys, "spectrum", Z_A3, "--bound", "10001")
    assert code == 2 and out == ""
    assert err == "ERR 2: Z prime window at bound 10001 would examine more than 10^4 candidate generators\n"


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
