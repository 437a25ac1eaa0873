"""Host-speed probe, so that timings taken minutes apart on a shared host compare.

The speed of a shared host swings by up to 1.6x over tens of seconds as
other tenants come and go, and a median within one run cannot remove a
swing that outlasts the run.  The probe times a fixed pure-Python
computation between items: fingerprint-style tuple sorting over a
working set of a few MB, and a dense product through ring-method calls.
That is the same kind of work as quivertt's closure oracle and generic
matrix paths.  Each batch's times are scaled by (NOMINAL_S / median probe
time seen during that batch) ** ELASTICITY.  The probe is the benchmark's
own code, so a change to quivertt moves the scaled times and leaves the
scale alone.

The probe reacts more strongly to the host than quivertt does.  Regressing
log item time on log probe time over about 100 paired one-second segments
gave slopes of 0.64 for closure calls and 0.76-0.82 for rings instances.
Full correction therefore overshoots.  ELASTICITY sits below the slopes
measured, so the correction never overshoots.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

NOMINAL_S = 0.010  # probe time at which the scale factor is 1
ELASTICITY = 0.5

_rng = random.Random(5)
_FPS = tuple(
    tuple((_rng.randint(-2, 3), _rng.choice(("1", "2", "3", "->a")), _rng.randint(0, 3), ()) for _ in range(6))
    for _ in range(6000)
)
_ORDER = _rng.sample(range(len(_FPS)), 1500)
_M = tuple(tuple(_rng.randint(-2, 2) if _rng.random() < 0.3 else 0 for _ in range(20)) for _ in range(20))


class _Ring:
    def zero(self):
        return 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


def reference() -> float:
    """Seconds taken by one run of the fixed reference computation."""
    t0 = perf_counter()
    tally = {}
    for i in _ORDER:
        fp = tuple(sorted(((n - 1, k, r, d) for n, k, r, d in _FPS[i]), key=lambda t: (t[0], str(t[1]))))
        tally[fp] = tally.get(fp, 0) + 1
    r, m, n = _Ring(), _M, len(_M)
    for i in range(n):
        for j in range(n):
            acc = r.zero()
            for k in range(n):
                acc = r.add(acc, r.mul(m[i][k], m[k][j]))
    return perf_counter() - t0


class SpeedProbe:
    """Samples `reference()` between items, at most every `every_s` seconds."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.start_batch()

    def start_batch(self):
        self.samples = []
        self.spent = 0.0  # probe time inside the batch, taken off its wall time
        self._last = float("-inf")

    def tick(self):
        now = perf_counter()
        if now - self._last < self.every_s:
            return
        self.samples.append(reference())
        self._last = perf_counter()
        self.spent += self._last - now

    def scale(self) -> float:
        """Factor taking this batch's raw times to nominal host speed."""
        return scale_for(statistics.median(self.samples))


def scale_for(probe_s: float) -> float:
    """Factor taking times measured alongside a probe of `probe_s` seconds
    to nominal host speed."""
    return (NOMINAL_S / probe_s) ** ELASTICITY
