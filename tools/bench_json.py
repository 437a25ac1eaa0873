"""Collect end-to-end benchmark runs into one JSON file per checkout.

    python3 tools/bench_json.py --run . BENCH_2.json
    python3 tools/bench_json.py --run ../parent BENCH_1.json --run . BENCH_2.json
    python3 tools/bench_json.py --run . out.json --workloads verify rings --seeds 1 2 3

For each workload and seed this runs, in every checkout given by `--run`,

    python3 bench/run.py --workload <w> --seed <s> --seconds 15 --trace 0

and reads the JSON object on its last stdout line.  With several checkouts
the runs alternate between them, and the one that goes first changes from
seed to seed, so that a drift of host speed falls on all of them alike.
Each output file holds the checkout's commit, the host, every run's
end-to-end metrics, and per workload and metric the median and the
quartiles over the seeds.  The run length is fixed, so that every file
this writes is comparable with every other.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def commit_of(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    head = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"], cwd=root,
                           capture_output=True, text=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


SECONDS = 15
COMMAND = f"python3 bench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0"


def run_once(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", nargs=2, action="append", required=True, metavar=("ROOT", "OUT"),
                    help="a source checkout to run and the JSON file to write for it; repeatable")
    ap.add_argument("--workloads", nargs="+", default=["verify", "closure", "rings"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    args = ap.parse_args(argv)
    roots = [Path(root).resolve() for root, _ in args.run]
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    runs = {(k, w): [] for k in range(len(roots)) for w in args.workloads}
    for w in args.workloads:
        for i, s in enumerate(args.seeds):
            order = list(range(len(roots)))
            for k in order[i % len(order):] + order[:i % len(order)]:
                runs[k, w].append(run_once(roots[k], w, s))
                print(f"{roots[k]} {w} seed {s}: "
                      + " ".join(f"{m}={v:.4g}" for m, v in runs[k, w][-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
    for k, (root, (_, out)) in enumerate(zip(roots, args.run)):
        doc = {
            "commit": commit_of(root),
            "command": COMMAND,
            "host": host,
            "workloads": {},
        }
        for w in args.workloads:
            rs = sorted(runs[k, w], key=lambda r: r["seed"])
            doc["workloads"][w] = {
                "runs": rs,
                "summary": {m: summary([r["metrics"][m] for r in rs]) for m in rs[0]["metrics"]},
            }
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
