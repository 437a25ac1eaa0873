"""Collect end-to-end benchmark runs into one JSON file per checkout.

    python3 tools/bench_json.py --run . BENCH_2.json
    python3 tools/bench_json.py --run ../parent BENCH_1.json --run . BENCH_2.json
    python3 tools/bench_json.py --run . out.json --workloads verify rings --seeds 1 2 3
    python3 tools/bench_json.py --held-out --run ../parent HELD_1.json --run . HELD_2.json --workloads verify
    python3 tools/bench_json.py --cli --run ../parent CLI_1.json --run . CLI_2.json

For each workload and seed this runs, in every checkout given by `--run`,

    python3 bench/run.py --workload <w> --seed <s> --seconds <run_seconds> --trace 0

with `run_seconds` read from `BENCHMARK.json` in the checkout this script
lives in, and reads the JSON object on its last stdout line.  With
`--held-out` every run also gets `--held-out`, so each workload draws its
held-out pool, and the output files record that they did.  Before the
first run, each checkout's `src/` is byte-compiled into its own `__pycache__`, where
those runs read it, so that no timed run compiles the package (with
PYTHONDONTWRITEBYTECODE set, nothing else writes that bytecode before the
workload imports the package).  With several checkouts
the runs alternate between them, and the one that goes first changes from
seed to seed, so that a drift of host speed falls on all of them alike.
Each output file holds the checkout's commit, the host, every run's
end-to-end metrics, and per workload and metric the median and the
quartiles over the seeds.  With two or more checkouts it also prints to
stderr, for each workload and end-to-end metric of `BENCHMARK.json`, each
later checkout against the first (`verdict`): both medians, the first's
quartile spread, the seeds on which the later one did better (a tie counts
for neither), whether the gain rule holds (at least 9 wins in 10 and a
median gap wider than that spread) and whether the median is worse than the
first's by more than the metric's bound.  The JSON files do not record it.
The run length is the benchmark's own, so that
every file this writes is comparable with every other and with the
benchmark's runs.  `BENCH_1.json` to `BENCH_7.json` ran at 15 s: since
`peak_rss_mb` grows with the number of batches a run keeps and `item_max_ms`
is a max over all of them, those two metrics there are not comparable with
runs at 30 s.

With `--cli` it times CLI commands instead: the text-mode command list that
the goldens derive (`cases_for` in tests/test_golden_cli.py, read from the
checkout this script lives in).  Each of ROUNDS rounds runs every command once
in each checkout, as `python3 -m quivertt <argv>` from the checkout's root
with its `src/` on PYTHONPATH, and alternates which checkout goes first, as
the workload mode does.  Each checkout's `src/` is byte-compiled first,
into a temporary PYTHONPYCACHEPREFIX, so that no timed run compiles the
package and nothing is written into the checkouts.  Each output file holds
per command the exit code and the median and quartiles of wall time over
the rounds, and lists every command whose exit code or stdout differs from
the first checkout's.  The number of rounds is fixed, like the run length.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def commit_of(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    head = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"], cwd=root,
                           capture_output=True, text=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


ROUNDS = 5


def run_once(root: Path, workload: str, seed: int, held_out: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"] + ["--held-out"] * held_out
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


HERE = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((HERE / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
COMMAND = f"python3 bench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0"
CLI_COMMAND = "python3 -m quivertt <argv>"
LIST_CASES = ("import json, sys; sys.path[:0] = ['src', 'tests']\n"
              "from test_golden_cli import WORKSPACES, cases_for\n"
              "print(json.dumps([a for p in WORKSPACES for a in cases_for(p) if '--json' not in a]))")


def verdict(base: dict, new: dict, better: str, bound: float) -> dict:
    """One metric of a later checkout against the first; base and new map
    seed -> value.  A win is a seed where new is strictly better; the gain
    rule needs wins on at least 9 in 10 paired seeds and a median gap, in
    the better direction, wider than base's quartile spread; `regressed` is
    new's median worse than base's by more than bound times base's."""
    sign = 1 if better == "lower" else -1
    seeds = sorted(base.keys() & new.keys())
    wins = sum(sign * (base[s] - new[s]) > 0 for s in seeds)
    b, n = summary(list(base.values())), summary(list(new.values()))
    gap = sign * (b["median"] - n["median"])
    return {"base": b["median"], "new": n["median"], "spread": b["iqr"], "wins": wins, "pairs": len(seeds),
            "gain": bool(seeds) and 10 * wins >= 9 * len(seeds) and gap > b["iqr"],
            "regressed": -gap > bound * abs(b["median"])}


def print_verdicts(roots: list, runs: dict, workloads: list) -> None:
    """`verdict` for each later checkout, workload and end-to-end metric, on stderr."""
    for k in range(1, len(roots)):
        for w in workloads:
            for spec in BENCHMARK["end_to_end"]:
                m = spec["name"]
                base, new = ({r["seed"]: r["metrics"][m] for r in runs[j, w] if m in r["metrics"]} for j in (0, k))
                if not (base and new):
                    continue
                v = verdict(base, new, spec["better"], spec["bound"])
                print(f"{roots[k]} vs {roots[0]} {w} {m}: median {v['base']:.4g} -> {v['new']:.4g}, "
                      f"first's spread {v['spread']:.4g}, won {v['wins']}/{v['pairs']}, "
                      f"gain rule {'holds' if v['gain'] else 'fails'}, "
                      f"{'worse than' if v['regressed'] else 'within'} the {spec['bound']:.0%} bound",
                      file=sys.stderr)


def cli_commands() -> list:
    """The goldens' text-mode argv lists."""
    proc = subprocess.run([sys.executable, "-c", LIST_CASES], cwd=HERE, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"cannot list the golden commands:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compile_src(root: Path, env: dict) -> None:
    """Byte-compile a checkout's src/ where a run under env reads it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, env=env, check=True,
                   capture_output=True, timeout=600)


def writing_env() -> dict:
    """This process's environment, with bytecode writing allowed."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def cli_env(root: Path, cache: Path) -> dict:
    """The environment of a checkout's CLI runs, its bytecode compiled into cache."""
    env = writing_env()
    env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(cache))
    compile_src(root, env)
    return env


def cli_once(root: Path, env: dict, argv: list) -> tuple:
    """(wall seconds, exit code, stdout) of one CLI run in a checkout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "quivertt", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def cli_rounds(roots: list, envs: list, commands: list) -> tuple:
    """({(checkout, command): wall times}, {(checkout, command): (exit code,
    stdout) of its first run}), the first checkout alternating each round."""
    walls = {(k, i): [] for k in range(len(roots)) for i in range(len(commands))}
    seen = {}
    for rnd in range(ROUNDS):
        order = list(range(len(roots)))
        order = order[rnd % len(order):] + order[:rnd % len(order)]
        for i, argv in enumerate(commands):
            for k in order:
                wall, code, out = cli_once(roots[k], envs[k], argv)
                walls[k, i].append(wall)
                seen.setdefault((k, i), (code, out))
                print(f"{roots[k]} round {rnd}: {' '.join(argv)}: {wall:.3f} s, exit {code}",
                      file=sys.stderr, flush=True)
    return walls, seen


def cli_main(outs: list, roots: list, host: dict) -> int:
    commands = cli_commands()
    with tempfile.TemporaryDirectory() as caches:
        envs = [cli_env(root, Path(caches) / str(k)) for k, root in enumerate(roots)]
        walls, seen = cli_rounds(roots, envs, commands)
    differ = [" ".join(argv) for i, argv in enumerate(commands)
              if any(seen[k, i] != seen[0, i] for k in range(len(roots)))]
    for line in differ:
        print(f"differs between checkouts: {line}", file=sys.stderr)
    for k, (root, out) in enumerate(zip(roots, outs)):
        doc = {
            "commit": commit_of(root),
            "command": CLI_COMMAND,
            "host": host,
            "rounds": ROUNDS,
            "commands": {" ".join(argv): {"code": seen[k, i][0], "wall_s": summary(walls[k, i])}
                         for i, argv in enumerate(commands)},
            "differ": differ,
        }
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", nargs=2, action="append", required=True, metavar=("ROOT", "OUT"),
                    help="a source checkout to run and the JSON file to write for it; repeatable")
    ap.add_argument("--workloads", nargs="+", help="default: verify closure rings")
    ap.add_argument("--seeds", nargs="+", type=int, help="default: 1 2 3 4 5")
    ap.add_argument("--held-out", action="store_true", help="run each workload on its held-out pool")
    ap.add_argument("--cli", action="store_true", help="time the CLI commands instead of the workloads")
    args = ap.parse_args(argv)
    roots = [Path(root).resolve() for root, _ in args.run]
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    if args.cli:
        if args.workloads or args.seeds or args.held_out:
            ap.error("--workloads, --seeds and --held-out do not apply to --cli")
        return cli_main([out for _, out in args.run], roots, host)
    args.workloads = args.workloads or ["verify", "closure", "rings"]
    args.seeds = args.seeds or [1, 2, 3, 4, 5]
    for root in roots:
        compile_src(root, writing_env())
    runs = {(k, w): [] for k in range(len(roots)) for w in args.workloads}
    for w in args.workloads:
        for i, s in enumerate(args.seeds):
            order = list(range(len(roots)))
            for k in order[i % len(order):] + order[:i % len(order)]:
                runs[k, w].append(run_once(roots[k], w, s, args.held_out))
                print(f"{roots[k]} {w} seed {s}: "
                      + " ".join(f"{m}={v:.4g}" for m, v in runs[k, w][-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
    for k, (root, (_, out)) in enumerate(zip(roots, args.run)):
        doc = {
            "commit": commit_of(root),
            "command": COMMAND + " --held-out" * args.held_out,
            "held_out": args.held_out,
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
    print_verdicts(roots, runs, args.workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
