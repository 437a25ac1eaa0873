"""quivertt benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload verify --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Run from the root of a source checkout; the package is imported from its
`src/`.  With `--trace 0` the workload's fixed batch repeats in one process
(closed loop, one caller) until the next batch would overrun `--seconds`,
and each timing is the median over batches, scaled to nominal host speed
(see speed.py; the raw figures are printed too).  With `--trace 1` one
untraced batch runs, then one traced batch; per-layer numbers come from the
traced one and `trace.overhead_ratio` is their raw wall-time ratio.  Every item is
checked against its reference answer.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, scale_for
from tracer import TARGETS, Tracer
from workloads import RINGS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
TAIL_BEYOND = 10  # items that must lie above the tail percentile

SETUP_CODE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import quivertt
for path in {files!r}:
    quivertt.load_workspace(path)
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
from speed import reference
print(t1 - t0, statistics.median(reference() for _ in range(5)))
"""


def tail(values):
    """(value, percentile) at the highest rank with TAIL_BEYOND items above."""
    s = sorted(values)
    rank = max(len(s) - TAIL_BEYOND, 1)
    return s[rank - 1], 100.0 * rank / len(s)


def measure_setup():
    """Median time to import quivertt and load the shipped workspaces, each
    sample in a fresh interpreter (an in-process re-import is cached), with
    bytecode caching on as in an installed package.  Returns (scaled, raw)."""
    files = [str(p) for p in sorted((ROOT / "workspaces").glob("*.yaml"))]
    code = SETUP_CODE.format(src=str(ROOT / "src"), files=files, bench=str(HERE))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, raw = [], []
    for k in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        if k:  # the first run only fills the bytecode cache
            secs, probe = map(float, out.stdout.split())
            raw.append(secs)
            scaled.append(secs * scale_for(probe))
    return statistics.median(scaled), statistics.median(raw)


def same_results(a, b):
    return [(it.key, it.result, it.ok) for it in a] == [(it.key, it.result, it.ok) for it in b]


def run_untraced(wl, seconds):
    """Batches as (raw wall s, speed scale, items, batch gate) until the next
    batch would overrun `seconds`."""
    batches = []
    probe = SpeedProbe()
    start = perf_counter()
    while True:
        probe.start_batch()
        t0 = perf_counter()
        items, batch_ok = wl.run_batch(tick=probe.tick)
        wall = perf_counter() - t0 - probe.spent
        batches.append((wall, probe.scale(), items, batch_ok))
        if perf_counter() - start + statistics.median(b[0] for b in batches) > seconds:
            return batches


def end_to_end(wl, seconds, setup):
    batches = run_untraced(wl, seconds)
    first = batches[0][2]
    items = [it for b in batches for it in b[2]]
    failed = sum(not it.ok for it in items)
    correct = failed == 0 and all(b[3] for b in batches) and all(same_results(first, b[2]) for b in batches)
    per_batch = []  # raw (wall s, p50 ms, tail ms, max ms) and the batch's scale
    for wall, scale, its, _ in batches:
        ms = [it.seconds * 1e3 for it in its]
        per_batch.append(((wall, statistics.median(ms), tail(ms)[0], max(ms)), scale))
    names = ("wall_s", "item_p50_ms", "item_tail_ms", "item_max_ms")
    raw = [statistics.median(v[i] for v, _ in per_batch) for i in range(4)]
    scaled = [statistics.median(v[i] * sc for v, sc in per_batch) for i in range(4)]
    metrics = {name: (val, name.rsplit("_", 1)[1]) for name, val in zip(names, scaled)}
    metrics["setup_s"] = (setup[0], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    n = len(first)
    notes = [
        f"{'fail_ratio':44s} {failed / len(items):14.6f} ratio ({failed} of {len(items)} items)",
        f"{len(batches)} batches of {n} items; tail is p{tail(range(n))[1]:.1f} ({TAIL_BEYOND} items beyond)",
        "speed scales: " + " ".join(f"{sc:.3f}" for _, sc in per_batch),
        "raw: " + " ".join(f"{name}={val:.6g}" for name, val in zip(names + ("setup_s",), raw + [setup[1]])),
    ]
    return correct, len(items), failed, metrics, notes


def layer_metrics(wl):
    import quivertt.checks

    t0 = perf_counter()
    items_u, ok_u = wl.run_batch()
    wall_u = perf_counter() - t0
    tr = Tracer()
    tr.install()
    try:
        (items_t, ok_t), wall_t = tr.root("bench.batch", wl.run_batch, tr)
    finally:
        tr.uninstall()

    m = {}
    for name, _, _, fields in TARGETS:
        for suffix, field in fields:
            m[f"{name}.{suffix}"] = (tr.total(name, field), "count" if field == "calls" else "s")
    snf_calls = tr.total("linalg.smith_normal_form", "calls")
    m["linalg.smith_normal_form.distinct_ratio"] = (len(tr.snf_inputs) / snf_calls if snf_calls else 0.0, "ratio")
    m["linalg.smith_normal_form.max_dim"] = (tr.snf_max_dim, "count")
    m["linalg.Matrix.mul.density"] = (tr.mul_nonzero / tr.mul_entries if tr.mul_entries else 0.0, "ratio")
    m["linalg.entry_bits_max"] = (tr.entry_bits_max, "bits")
    counts = wl.layer_counts()
    for name in ("spectrum.closure.box_products", "spectrum.closure.cone_sweeps"):
        m[name] = (counts.get(name, 0), "count")
    for _, label in RINGS:
        m[f"rings.{label}.items_s"] = (sum(it.seconds for it in items_u if it.group == label), "s")
    for check, _ in quivertt.checks.CHECKS:
        m[f"checks.{check}.s"] = (sum(it.seconds for it in items_u if it.group == check), "s")
    m["trace.overhead_ratio"] = (wall_t / wall_u, "ratio")

    failed = sum(not it.ok for it in items_u) + sum(not it.ok for it in items_t)
    match = same_results(items_u, items_t)
    correct = failed == 0 and ok_u and ok_t and match
    shares = {layer: s / wall_t for layer, s in sorted(tr.layer_self_s().items())}
    report = {
        "workload": wl.name,
        "traced_wall_s": wall_t,
        "untraced_wall_s": wall_u,
        "self_sum_s": sum(tr.self_s),
        "layer_self_share": shares,
        "traced_matches_untraced": match,
        "metrics": {k: v for k, (v, _) in m.items()},
    }
    notes = [f"traced batch {wall_t:.3f} s, untraced {wall_u:.3f} s, self times sum to {sum(tr.self_s):.3f} s"]
    notes += [f"  self share {layer:10s} {share * 100:6.2f} %" for layer, share in shares.items()]
    return correct, len(items_u) + len(items_t), failed, m, notes, report, tr


def run_one(args):
    if not (ROOT / "src" / "quivertt" / "__init__.py").is_file() or not (ROOT / "workspaces").is_dir():
        print(f"ERR: no quivertt source tree (src/, workspaces/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import quivertt

    if Path(quivertt.__file__).resolve().parent != ROOT / "src" / "quivertt":
        print(f"ERR: imported quivertt from {quivertt.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.trace:
        wl = WORKLOADS[args.workload](ROOT, args.seed, args.held_out)
        correct, attempted, failed, metrics, notes, report, tr = layer_metrics(wl)
        out = Path(args.out) if args.out else HERE / "out"
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-{args.seed}"
        (out / f"trace-{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
        tr.write_spans(out / f"spans-{stem}.json")
    else:
        setup = measure_setup()
        wl = WORKLOADS[args.workload](ROOT, args.seed, args.held_out)
        correct, attempted, failed, metrics, notes = end_to_end(wl, args.seconds, setup)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:14.6f} {unit}")
    for line in notes:
        print(f"{args.workload:8s} {line}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter, so peak RSS is per workload."""
    results = {}
    for name in ("verify", "closure", "rings"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.held_out:
            cmd.append("--held-out")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "closure", "rings", "all"))
    ap.add_argument("--seed", type=int, default=0, help="sets the order each batch visits its pool")
    ap.add_argument("--seconds", type=float, default=30.0, help="untraced measuring budget per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true", help="use each workload's held-out pool")
    ap.add_argument("--out", help="directory for trace files (default bench/out)")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
