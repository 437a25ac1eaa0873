"""The paired-run verdict of tools/bench_json.py, on synthetic runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)
verdict = bench_json.verdict

BASE = {s: 0.60 + 0.002 * s for s in range(1, 11)}  # 0.602 .. 0.620, spread 0.009


def test_a_clear_gain_holds_the_rule():
    new = {s: v - 0.06 for s, v in BASE.items()}
    v = verdict(BASE, new, "lower", 0.2)
    assert (v["wins"], v["pairs"], v["gain"], v["regressed"]) == (10, 10, True, False)
    assert abs(v["base"] - 0.611) < 1e-9 and abs(v["new"] - 0.551) < 1e-9
    assert abs(v["spread"] - 0.009) < 1e-9


def test_nine_wins_hold_and_eight_do_not():
    new = {s: v - 0.06 for s, v in BASE.items()}
    new[3] = BASE[3] + 0.01
    assert verdict(BASE, new, "lower", 0.2)["wins"] == 9
    assert verdict(BASE, new, "lower", 0.2)["gain"]
    new[4] = BASE[4] + 0.01
    assert not verdict(BASE, new, "lower", 0.2)["gain"]


def test_ties_count_for_neither_side():
    new = dict(BASE)
    v = verdict(BASE, new, "lower", 0.2)
    assert (v["wins"], v["gain"], v["regressed"]) == (0, False, False)


def test_a_gap_inside_the_spread_is_no_gain():
    # every pair won, but the median moves less than the base's spread
    new = {s: v - 0.005 for s, v in BASE.items()}
    v = verdict(BASE, new, "lower", 0.2)
    assert v["wins"] == 10 and not v["gain"]


def test_the_bound_is_relative_to_the_base_median():
    assert not verdict(BASE, {s: v * 1.19 for s, v in BASE.items()}, "lower", 0.2)["regressed"]
    assert verdict(BASE, {s: v * 1.21 for s, v in BASE.items()}, "lower", 0.2)["regressed"]


def test_higher_is_better_flips_the_direction():
    up = {s: v + 0.06 for s, v in BASE.items()}
    assert verdict(BASE, up, "higher", 0.2)["gain"]
    assert not verdict(BASE, up, "lower", 0.2)["gain"]
    assert verdict(BASE, {s: v * 0.7 for s, v in BASE.items()}, "higher", 0.2)["regressed"]


def test_only_seeds_run_on_both_sides_are_paired():
    new = {s: BASE[s] - 0.06 for s in (1, 2, 3)}
    v = verdict(BASE, {**new, 99: 0.1}, "lower", 0.2)
    assert (v["wins"], v["pairs"]) == (3, 3)
    assert not verdict(BASE, {99: 0.1}, "lower", 0.2)["gain"]


def test_print_verdicts_writes_one_line_per_metric(capsys):
    def runs(values):
        return [{"seed": s, "metrics": {"wall_s": v, "peak_rss_mb": 30.0}} for s, v in values.items()]

    table = {(0, "verify"): runs(BASE), (1, "verify"): runs({s: v - 0.06 for s, v in BASE.items()})}
    bench_json.print_verdicts(["parent", "change"], table, ["verify"])
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "change vs parent verify wall_s: median 0.611 -> 0.551, first's spread 0.009, won 10/10, "
        "gain rule holds, within the 20% bound",
        "change vs parent verify peak_rss_mb: median 30 -> 30, first's spread 0, won 0/10, "
        "gain rule fails, within the 10% bound",
    ]
