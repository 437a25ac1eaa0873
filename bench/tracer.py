"""Outside-in tracer: wraps quivertt's public functions from the benchmark.

Nothing in the package changes.  `Tracer.install()` rebinds each target in
every `quivertt.*` module that holds it (a `from .linalg import solve` copies
the name, so patching `linalg` alone would miss those calls), and patches the
class methods `Matrix.mul`, `ComplexRQ.validate` and `ChainMapSpace.__init__`
on their classes.  `uninstall()` puts every original back.

Each call records a span (name, start, end, parent) in flat in-memory
arrays; `write_spans` dumps them when the run ends.  A span's self time is
its duration minus the full cost of its wrapped children, including the
tracer's own bookkeeping around them, so tracer overhead lands in no span's
self time.  Inclusive time is summed for the outermost active call of a name
only, so recursion (SNF over Z/n recursing through its integer lift) is not
counted twice.
"""

from __future__ import annotations

import array
import functools
import json
import sys
from fractions import Fraction
from time import perf_counter

SELF = (("calls", "calls"), ("self_s", "self"))
INCL = (("calls", "calls"), ("incl_s", "incl"))

# (span name, module, attribute path, metrics as (suffix, field))
TARGETS = (
    ("linalg.smith_normal_form", "linalg", "smith_normal_form", SELF),
    ("linalg.Matrix.mul", "linalg", "Matrix.mul", SELF),
    ("linalg.kernel_basis", "linalg", "kernel_basis", SELF),
    ("linalg.solve", "linalg", "solve", SELF),
    ("linalg.rank", "linalg", "rank", SELF),
    ("linalg.cokernel_presentation", "linalg", "cokernel_presentation", SELF),
    ("complexes.homology", "complexes", "homology", SELF),
    ("complexes.box_tensor", "complexes", "box_tensor", SELF),
    ("complexes.cone", "complexes", "cone", SELF),
    ("complexes.ensure_perfect", "complexes", "ensure_perfect", SELF),
    ("complexes.ComplexRQ.validate", "complexes", "ComplexRQ.validate", INCL),
    ("complexes.homology_fingerprint", "complexes", "homology_fingerprint", INCL),
    ("homs.ChainMapSpace", "homs", "ChainMapSpace.__init__", SELF),
    ("homs.is_rigid", "homs", "is_rigid", INCL),
    ("homs.internal_hom", "homs", "internal_hom", INCL),
    ("spectrum.thick_closure_bruteforce", "spectrum", "thick_closure_bruteforce", SELF),
    ("spectrum.compact_support", "spectrum", "compact_support", INCL),
    ("spectrum.xi_zero_test", "spectrum", "xi_zero_test", INCL),
    ("tstruct.aisle_membership", "tstruct", "aisle_membership", SELF),
    ("tstruct.filtration_from_objects", "tstruct", "filtration_from_objects", SELF),
    ("workspace.load_workspace", "workspace", "load_workspace", (("s", "incl"),)),
    ("cli.main", "cli", "main", (("self_s", "self"),)),
)

def _entry_bits(a) -> int:
    if isinstance(a, int):
        return abs(a).bit_length()
    if isinstance(a, Fraction):
        return max(abs(a.numerator).bit_length(), a.denominator.bit_length())
    if isinstance(a, tuple):  # F_p[x]: coefficient list
        return sum(_entry_bits(c) for c in a)
    return 0


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.incl_s = []
        self._active = []
        self._patches = []  # (owner, attribute, original)
        # spans: name id, parent span id (-1 for a root), start, end
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = []  # [span id, time covered by wrapped children]
        # counters measured at the linalg boundary
        self.snf_inputs = set()
        self.snf_max_dim = 0
        self.mul_nonzero = 0
        self.mul_entries = 0
        self.entry_bits_max = 0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        for acc in (self.calls, self._active):
            acc.append(0)
        for acc in (self.self_s, self.incl_s):
            acc.append(0.0)
        return len(self.names) - 1

    def _scan(self, m):
        # nonzero count and widest entry of one matrix argument
        flat = [e for row in m.entries for e in row]
        nonzero = len(flat) - flat.count(m.ring.zero())
        bits = max(map(_entry_bits, set(flat)), default=0)
        if bits > self.entry_bits_max:
            self.entry_bits_max = bits
        return nonzero, len(flat)

    def _before_snf(self, args):
        m = args[0]
        self.snf_inputs.add(hash(m))
        self.snf_max_dim = max(self.snf_max_dim, m.rows, m.cols)
        self._scan(m)

    def _before_mul(self, args):
        for m in args[:2]:
            nz, n = self._scan(m)
            self.mul_nonzero += nz
            self.mul_entries += n

    def wrap(self, name: str, fn, before=None):
        """`fn` wrapped so each call is a span named `name`."""
        nid = self._name_id(name)
        stack, calls, self_s, incl_s, active = self._stack, self.calls, self.self_s, self.incl_s, self._active
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            if before is not None:
                before(args)
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[1]
                if not active[nid]:
                    incl_s[nid] += t1 - t0
                s_start[sid] = t0
                s_end[sid] = t1
                if stack:
                    stack[-1][1] += perf_counter() - enter

        return traced

    def install(self):
        import quivertt  # noqa: F401  (loads every module the targets live in)
        import quivertt.checks  # noqa: F401
        import quivertt.cli  # noqa: F401
        import quivertt.samples  # noqa: F401

        hooks = {"linalg.smith_normal_form": self._before_snf, "linalg.Matrix.mul": self._before_mul}
        mods = [m for k, m in sorted(sys.modules.items()) if k == "quivertt" or k.startswith("quivertt.")]
        for name, mod, path, _ in TARGETS:
            owner = sys.modules[f"quivertt.{mod}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self.wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hooks.get(name))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span; returns (result, seconds)."""
        traced = self.wrap(name, fn)
        t0 = perf_counter()
        out = traced(*args)
        return out, perf_counter() - t0

    def total(self, name: str, field: str) -> float:
        acc = {"calls": self.calls, "self": self.self_s, "incl": self.incl_s}[field]
        return sum(acc[i] for i, n in enumerate(self.names) if n == name)

    def layer_self_s(self) -> dict:
        out = {}
        for i, n in enumerate(self.names):
            layer = n.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[i]
        return out

    def write_spans(self, path):
        """Spans as JSON: the name table plus four parallel columns."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
