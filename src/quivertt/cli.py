"""Command-line front end.

Every command loads one workspace file, runs a computation, and prints a
deterministic report (plain text, or a JSON mirror with --json).  Exit
codes: 0 success, 1 unreadable/malformed input, 2 precondition violation,
3 failed verification.  Diagnostics go to stderr as one line `ERR <code>: ...`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_suite
from .complexes import box_tensor, ensure_perfect, homology_sweep, unit_complex
from .errors import BadElement, QuiverTTError, UnknownName, WorkspaceError
from .homs import chom_complex, is_rigid
from .spectrum import (
    compact_support,
    ideal_generators,
    ideal_membership,
    spc_dot,
    spc_enumerate,
)
from .tstruct import (
    aisle_membership,
    check_filtration_system,
    filtration_from_objects,
    filtration_system,
)
from .workspace import load_filtration_file, load_workspace, parse_support


def _lookup(table: dict, name: str, kind: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table)) or "none"
        raise UnknownName(f"no {kind} named {name!r} (workspace has: {known})") from None


def _naming_objects(named, run):
    """run(); if it raises BadElement and so does the support of one of the
    (name, object) pairs, the first such error is raised naming its object
    (`object T, degree 0, vertex 1: factoring ...`)."""
    try:
        return run()
    except BadElement:
        for name, x in named:
            try:
                compact_support(x)
            except BadElement as e:
                raise BadElement(f"object {name}, {e}") from None
        raise


def _sp_payload(comp):
    if comp.is_all:
        return "all"
    ring = comp.ring
    return [ring.format_elem(p.gen) for p in sorted(comp.points, key=lambda p: p.sort_key())]


def _support_payload(s) -> dict:
    return {v: _sp_payload(s.at(v)) for v in s.quiver.vertices}


def _filtration_payload(f) -> dict:
    return {
        "tail_low": _support_payload(f.tail_low),
        "levels": [[n, _support_payload(s)] for n, s in f.entries],
        "tail_high": _support_payload(f.tail_high),
    }


def _filtration_lines(f) -> list:
    lines = [f"n < {f.entries[0][0]}: {f.tail_low}"] if f.entries else []
    for n, s in f.entries:
        lines.append(f"n >= {n}: {s}")
    if not f.entries:
        lines.append(f"all n: {f.tail_low}")
    return lines


def _homology_table(x) -> dict:
    out = {}
    for n, fibers in homology_sweep(x):
        row = {v: str(fib) for v, fib in fibers.items() if not fib.is_zero_module}
        if row:
            out[n] = row
    return out


def _table_lines(table: dict) -> list:
    if not table:
        return ["  0 in every degree"]
    return [
        "  n=%d: %s" % (n, "; ".join(f"{v}: {m}" for v, m in sorted(row.items())))
        for n, row in sorted(table.items())
    ]


# ---------------------------------------------------------------------------
# one handler per command; each returns (lines, payload, exit_code)


def _cmd_spectrum(ws, args):
    win = spc_enumerate(ws.ring, ws.quiver, args.bound)
    if args.dot:
        dot = spc_dot(win)
        return [dot], {"dot": dot}, 0
    pts = [str(p) for p in win.points]
    covers = [[str(a), str(b)] for a, b in win.covers()]
    lines = [f"{len(pts)} points over {ws.ring} with bound {args.bound}"]
    lines += [f"  {p}" for p in pts]
    lines.append("covers (lower < upper):")
    lines += [f"  {a} < {b}" for a, b in covers] or ["  none"]
    payload = {
        "ring": str(ws.ring),
        "bound": args.bound,
        "points": pts,
        "covers": covers,
    }
    return lines, payload, 0


def _cmd_support(ws, args):
    x = _lookup(ws.objects, args.name, "object")
    s = _naming_objects([(args.name, x)], lambda: compact_support(x))
    lines = [f"support of {args.name}"] + [f"  {v}: {s.at(v)}" for v in ws.quiver.vertices]
    return lines, {"object": args.name, "support": _support_payload(s)}, 0


def _resolve_support(ws, args):
    if args.from_name is not None:
        x = _lookup(ws.objects, args.from_name, "object")
        return _naming_objects([(args.from_name, x)], lambda: compact_support(x))
    if args.set_spec in ws.supports:
        return ws.supports[args.set_spec]
    return parse_support(args.set_spec, ws.quiver, ws.ring, "--set")


def _cmd_ideal(ws, args):
    s = _resolve_support(ws, args)
    src = args.from_name if args.from_name is not None else args.set_spec
    if args.member is not None:
        x = _lookup(ws.objects, args.member, "object")
        verdict = _naming_objects([(args.member, x)], lambda: ideal_membership(x, s))
        sx = compact_support(x)
        lines = [
            "MEMBER" if verdict else "NOT MEMBER",
            f"  ideal support:  {s}",
            f"  object support: {sx}",
        ]
        payload = {
            "ideal": _support_payload(s),
            "member": verdict,
            "object": args.member,
            "object_support": _support_payload(sx),
        }
        return lines, payload, 0
    gens = ideal_generators(s)
    lines = [f"ideal of {src}: {len(gens)} generators"]
    gen_payload = []
    for k, g in enumerate(gens):
        sg = compact_support(g)
        lines.append(f"  g{k}: {sg}")
        gen_payload.append(_support_payload(sg))
    payload = {"ideal": _support_payload(s), "generators": gen_payload}
    return lines, payload, 0


def _cmd_aisle(ws, args):
    if args.gen:
        xs = [_lookup(ws.objects, n, "object") for n in args.gen]
        f = _naming_objects(zip(args.gen, xs), lambda: filtration_from_objects(xs))
        lines = [f"filtration generated by {', '.join(args.gen)}"] + _filtration_lines(f)
        return lines, {"generators": list(args.gen), "filtration": _filtration_payload(f)}, 0
    x = _lookup(ws.objects, args.member, "object")
    if args.filt in ws.filtrations:
        f = ws.filtrations[args.filt]
    else:
        f = load_filtration_file(args.filt, ws.quiver, ws.ring)
    verdict = aisle_membership(x, f)
    lines = ["IN AISLE" if verdict else "NOT IN AISLE"]
    return lines, {"object": args.member, "filtration": _filtration_payload(f), "member": verdict}, 0


def _cmd_rigidity(ws, args):
    x = ensure_perfect(_lookup(ws.objects, args.name, "object"))
    rigid = is_rigid(x)
    # the two sides of the evaluation map chom(x, U) tensor x -> chom(x, x)
    w = ensure_perfect(unit_complex(x.quiver, x.ring))
    left = _homology_table(box_tensor(chom_complex(x, w).complex, x))
    right = _homology_table(chom_complex(x, x).complex)
    lines = ["RIGID" if rigid else "NOT RIGID"]
    lines.append("hom against the unit, tensored back:")
    lines += _table_lines(left)
    lines.append("hom against itself:")
    lines += _table_lines(right)
    payload = {
        "object": args.name,
        "rigid": rigid,
        "unit_side": {str(n): row for n, row in left.items()},
        "self_side": {str(n): row for n, row in right.items()},
    }
    return lines, payload, 0


def _cmd_filtsys(ws, args):
    parts = [frozenset(p.split(",")) for p in args.parts]
    c = filtration_system(ws.quiver, parts)
    rep = check_filtration_system(c, ws.quiver)
    lines = [
        f"filtration system: {'yes' if rep['is_system'] else 'no'}",
        f"dynkin support:    {'yes' if rep['is_dynkin_support'] else 'no'}",
        f"witness: {rep['witness']}",
    ]
    payload = dict(rep)
    return lines, payload, 0


def _cmd_verify(ws, args):
    del ws  # the suite builds its own instances; the workspace is just the anchor
    results = run_suite(args.seed, args.cases)
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        lines.append(f"case {r.case:4d} {mark} {r.name:26s} {r.detail}")
    bad = [r for r in results if not r.ok]
    lines.append(f"{len(results) - len(bad)}/{len(results)} cases passed (seed {args.seed})")
    payload = {
        "seed": args.seed,
        "cases": [
            {"case": r.case, "name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "passed": len(results) - len(bad),
        "failed": len(bad),
    }
    return lines, payload, 3 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quivertt",
        description="Tensor-triangular geometry of quiver representation complexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, handler):
        p = sub.add_parser(name, help=help_)
        p.add_argument("workspace", help="workspace YAML file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(handler=handler)
        return p

    p = add("spectrum", "enumerate the prime-ideal window as a poset", _cmd_spectrum)
    p.add_argument("--bound", type=int, default=7, help="window bound for ring primes")
    p.add_argument("--dot", action="store_true", help="emit the poset as a DOT digraph")

    p = add("support", "support table of a named object", _cmd_support)
    p.add_argument("name")

    p = add("ideal", "generators or membership of a thick tensor-ideal", _cmd_ideal)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--from", dest="from_name", metavar="NAME", help="ideal of this object's support")
    g.add_argument("--set", dest="set_spec", metavar="SPEC", help="support name or inline '1: all; 2: [2]'")
    p.add_argument("--member", metavar="NAME", help="test this object for membership")

    p = add("aisle", "filtration of generators, or aisle membership", _cmd_aisle)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--gen", nargs="+", metavar="NAME", help="objects generating the aisle")
    g.add_argument("--member", metavar="NAME", help="object to test against --filt")
    p.add_argument("--filt", metavar="NAME_OR_FILE", help="filtration name or YAML file")

    p = add("rigidity", "rigidity verdict (every arrow map a quasi-isomorphism) with both evaluation sides",
            _cmd_rigidity)
    p.add_argument("name")

    p = add("filtsys", "check vertex sets as a filtration system of the unit", _cmd_filtsys)
    p.add_argument("parts", nargs="+", metavar="PART", help="comma-joined vertex names, one per part")

    p = add("verify", "run the seeded invariant suite", _cmd_verify)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=32)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "aisle" and args.member is not None and args.filt is None:
        print("ERR 2: aisle --member needs --filt", file=sys.stderr)
        return 2
    if args.command == "verify" and args.cases < 1:
        print("ERR 2: --cases must be at least 1", file=sys.stderr)
        return 2
    try:
        ws = load_workspace(args.workspace)
        lines, payload, code = args.handler(ws, args)
    except WorkspaceError as e:
        print(f"ERR 1: {e}", file=sys.stderr)
        return 1
    except QuiverTTError as e:
        print(f"ERR 2: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    if code == 3:
        print(f"ERR 3: {payload['failed']} of {len(payload['cases'])} cases failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
