"""The three benchmark workloads.

Each workload fixes its instance pool when it is built (untimed), then runs
one batch per `run_batch` call in a closed loop: one caller, one thread, the
next item starts when the previous one returns.  An item is one unit of
user-visible work, timed on its own, and carries a correctness verdict; an
item that raises is recorded as failed and the batch goes on.  `tick`, when
given, is called between items, outside their timings (see speed.py).

The `--seed` of the benchmark sets the order in which a batch visits its
pool.  The pools themselves are pinned (see README.md): verify and rings
time is set by rare heavy instances, so a pool drawn afresh from every seed
would swing the batch time several-fold and hide any real change.
`held_out=True` swaps in a pool no tuning has seen, for checking a claim.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from time import perf_counter


class Item:
    __slots__ = ("group", "key", "result", "ok", "seconds")

    def __init__(self, group, key, result, ok, seconds):
        self.group = group
        self.key = key
        self.result = result
        self.ok = ok
        self.seconds = seconds


def _maybe_wrap(tracer, name, fn):
    return tracer.wrap(name, fn) if tracer is not None else fn


class Verify:
    """`quivertt verify` run in-process through cli.main; one item per case."""

    name = "verify"
    seeds = (2, 3)
    held_out_seeds = (0,)
    cases = 160  # 10 per check for each of the 16 checks

    def __init__(self, root, seed, held_out=False):
        import quivertt.checks as checks
        import quivertt.cli as cli

        self.checks, self.cli = checks, cli
        self.order = list(self.held_out_seeds if held_out else self.seeds)
        random.Random(seed).shuffle(self.order)
        self.workspace = str(root / "workspaces" / "z_a3.yaml")

    def run_batch(self, tracer=None, tick=None):
        checks = self.checks
        orig = checks.run_case
        fns = {name: _maybe_wrap(tracer, f"checks.{name}", orig) for name, _ in checks.CHECKS}
        items, batch_ok = [], True

        def run_case(seed, case):
            name = checks.CHECKS[case % len(checks.CHECKS)][0]
            if tick is not None:
                tick()
            t0 = perf_counter()
            try:
                r = fns[name](seed, case)
            except Exception as e:  # an item that raises fails; the batch goes on
                r = checks.CaseResult(case, name, False, f"raised {type(e).__name__}: {e}")
            dt = perf_counter() - t0
            items.append(Item(name, (seed, case), (r.ok, r.detail), r.ok, dt))
            return r

        checks.run_case = run_case
        try:
            for s in self.order:
                first = len(items)
                out = io.StringIO()
                argv = ["verify", self.workspace, "--seed", str(s), "--cases", str(self.cases)]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(argv)
                lines = out.getvalue().splitlines()
                want = f"{self.cases}/{self.cases} cases passed (seed {s})"
                if code != 0 or not lines or lines[-1] != want or len(items) - first != self.cases:
                    batch_ok = False
                    for it in items[first:]:
                        it.ok = False
        finally:
            checks.run_case = orig
        return items, batch_ok

    def layer_counts(self):
        return {}


class Closure:
    """Acceptance criterion 02: thick closures over a 57-object F2 A2 universe.

    64 calls share one cache dict: every singleton, every pair of the four
    support-class representatives, and the empty generator list.
    """

    name = "closure"

    def __init__(self, root, seed, held_out=False):
        from quivertt import (
            build_quiver,
            direct_sum_complexes,
            homology_fingerprint,
            ideal_membership,
            parse_ring,
            projective_rep,
            q_support,
            sp_all,
            stalk_complex,
            unit_restriction,
            zero_complex,
        )
        from quivertt import spectrum
        from quivertt.spectrum import _fp_normalize, _fp_span

        self.spectrum = spectrum  # looked up per call, so a tracer's rebinding is seen
        f2 = parse_ring("Fp(2)")
        a2 = build_quiver([1, 2], ["a: 1 -> 2"])
        p1 = projective_rep(a2, f2, 1)
        u1 = unit_restriction(a2, f2, ("1",))
        u2 = unit_restriction(a2, f2, ("2",))
        slots = [(rep, off) for rep in (p1, u1, u2) for off in (0, 1)]
        universe, seen = [zero_complex(a2, f2)], {()}
        for size in range(1, len(slots) + 1):
            for combo in itertools.combinations(slots, size):
                if min(off for _, off in combo) != 0:
                    continue
                x = direct_sum_complexes([stalk_complex(rep, off) for rep, off in combo])
                fp = _fp_normalize(homology_fingerprint(x))
                if fp not in seen:
                    seen.add(fp)
                    universe.append(x)
        self.universe = universe
        self.index_of = {id(x): k for k, x in enumerate(universe)}

        def within(fp):
            # sums of shifted stalks of P1, U1 and U2, spread at most 2
            if _fp_span(fp) > 2:
                return False
            by_deg = {}
            for n, vkey, rank, _ in fp:
                by_deg.setdefault(n, {})[vkey] = rank
            for row in by_deg.values():
                r = row.get("->a", 0)
                if not (0 <= r <= 1 and 0 <= row.get("1", 0) - r <= 1 and 0 <= row.get("2", 0) - r <= 1):
                    return False
            return True

        self.within = within
        # reference answers: the support ideal of each vertex subset
        self.classes = []
        for vs in ((), ("1",), ("2",), ("1", "2")):
            s = q_support(a2, f2, {v: sp_all(f2) for v in vs})
            self.classes.append(frozenset(k for k, x in enumerate(universe) if ideal_membership(x, s)))
        reps = [min(c - set().union(*(d for d in self.classes if d < c))) for c in self.classes]
        calls = [(k,) for k in range(len(universe))]
        calls += list(itertools.combinations(reps, 2)) + [()]
        rng = random.Random(seed + 1_000_003 if held_out else seed)
        rng.shuffle(calls)
        self.calls = calls
        self.cache = {}

    def expected(self, gens):
        return min((c for c in self.classes if set(gens) <= c), key=len)

    def run_batch(self, tracer=None, tick=None):
        self.cache = cache = {}
        items = []
        for gens in self.calls:
            if tick is not None:
                tick()
            t0 = perf_counter()
            try:
                got = self.spectrum.thick_closure_bruteforce(
                    [self.universe[k] for k in gens], self.universe, within=self.within, cache=cache
                )
                res = frozenset(self.index_of[id(m)] for m in got)
                ok = res == self.expected(gens)
                result = tuple(sorted(res))
            except Exception as e:  # an item that raises fails; the batch goes on
                ok, result = False, f"raised {type(e).__name__}: {e}"
            items.append(Item("closure", gens, result, ok, perf_counter() - t0))
        found = {it.result for it in items if it.ok}
        batch_ok = found == {tuple(sorted(c)) for c in self.classes} and len(found) == 4
        return items, batch_ok

    def layer_counts(self):
        return {
            "spectrum.closure.box_products": sum(1 for k in self.cache if k[0] == "box"),
            "spectrum.closure.cone_sweeps": sum(1 for k in self.cache if k[0] == "cone"),
        }


RINGS = (("Z", "Z"), ("Q", "Q"), ("Fp(5)", "Fp"), ("Zmod(12)", "Zmod"), ("Zloc(3)", "Zloc"), ("FpX(3)", "FpX"))


class Rings:
    """supp(x box y) = supp x meet supp y on small instances over six rings."""

    name = "rings"
    per_ring = 30

    def __init__(self, root, seed, held_out=False):
        import quivertt as qt
        from quivertt import samples

        self.qt, self.samples = qt, samples
        first = self.per_ring if held_out else 0
        self.calls = [(text, label, k) for text, label in RINGS for k in range(first, first + self.per_ring)]
        random.Random(seed).shuffle(self.calls)
        self.rings = {text: qt.parse_ring(text) for text, _ in RINGS}

    def instance(self, text, k):
        qt, samples = self.qt, self.samples
        ring = self.rings[text]
        rng = random.Random(f"rings:{text}:{k}")
        q = samples.random_acyclic_quiver(rng, 3)
        if text.startswith("Zmod"):
            # Z/n is not regular: park free point complexes at every vertex
            def make():
                return qt.direct_sum_complexes(
                    [qt.i_times(samples.random_point_complex(ring, rng), q, v) for v in q.vertices]
                )
        else:
            def make():
                return samples.random_perfect_complex(q, ring, rng, pieces=1)
        x, y = make(), make()
        got = qt.compact_support(qt.box_tensor(x, y))
        want = qt.q_support_intersection(qt.compact_support(x), qt.compact_support(y))
        return got == want, str(got)

    def run_batch(self, tracer=None, tick=None):
        fns = {label: _maybe_wrap(tracer, f"rings.{label}", self.instance) for _, label in RINGS}
        items = []
        for text, label, k in self.calls:
            if tick is not None:
                tick()
            t0 = perf_counter()
            try:
                ok, result = fns[label](text, k)
            except Exception as e:  # an item that raises fails; the batch goes on
                ok, result = False, f"raised {type(e).__name__}: {e}"
            items.append(Item(label, (text, k), result, ok, perf_counter() - t0))
        return items, True

    def layer_counts(self):
        return {}


WORKLOADS = {w.name: w for w in (Verify, Closure, Rings)}
