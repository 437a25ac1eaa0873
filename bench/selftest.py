"""Self-test of the benchmark's tracer and gates.

    python3 bench/selftest.py --workload rings --seed 0

Runs the traced benchmark twice on one workload and seed, each in its own
interpreter, and checks that:

- the traced batch returns the same item results as the untraced one;
- the self times of all spans sum to no more than the traced batch's wall time;
- every span in the dump closes inside its parent;
- every count (`.calls`, SNF distinct ratio and largest dimension, mul
  density, widest entry, closure cache counts) repeats exactly across the
  two runs, so later changes may cite them as counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_SUFFIXES = (".calls", ".distinct_ratio", ".max_dim", ".density", "entry_bits_max")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name.startswith("spectrum.closure.")


def traced_run(workload: str, seed: int, out: Path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    stem = f"{workload}-{seed}"
    report = json.loads((out / f"trace-{stem}.json").read_text())
    spans = json.loads((out / f"spans-{stem}.json").read_text())
    return result, report, spans


def spans_nest(spans) -> bool:
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    return all(
        start[i] <= end[i] and (p < 0 or (start[p] <= start[i] and end[i] <= end[p]))
        for i, p in enumerate(parent)
    )


def check(workload: str, seed: int) -> list:
    failures = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        runs = [traced_run(workload, seed, Path(tmp) / name) for name in ("a", "b")]
    for tag, (result, report, spans) in zip("ab", runs):
        if not result["correct"]:
            failures.append(f"run {tag}: result gate failed ({result['failed']} of {result['attempted']} items)")
        if not report["traced_matches_untraced"]:
            failures.append(f"run {tag}: traced items differ from untraced items")
        if report["self_sum_s"] > report["traced_wall_s"]:
            failures.append(f"run {tag}: self times {report['self_sum_s']:.4f} s exceed wall {report['traced_wall_s']:.4f} s")
        if not spans_nest(spans):
            failures.append(f"run {tag}: a span ends outside its parent")
    (_, a, _), (_, b, _) = runs
    counts = sorted(k for k in a["metrics"] if is_count(k))
    for k in counts:
        if a["metrics"][k] != b["metrics"][k]:
            failures.append(f"count {k} differs: {a['metrics'][k]} vs {b['metrics'][k]}")
    print(f"{workload} seed {seed}: {len(counts)} counts compared, {len(failures)} failures")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="self-test of the benchmark tracer")
    ap.add_argument("--workload", default="rings", choices=("verify", "closure", "rings", "all"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    names = ("verify", "closure", "rings") if args.workload == "all" else (args.workload,)
    failures = [f for name in names for f in check(name, args.seed)]
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
