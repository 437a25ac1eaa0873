"""Seeded sample data for property verification.

Everything here takes a random.Random and draws from it deterministically,
so a (seed, case) pair fixes the whole input.  Complexes come out perfect:
random representations are resolved and then shifted, summed, or coned.
"""

from __future__ import annotations

import random

from .complexes import (
    ComplexRQ,
    Representation,
    cone,
    direct_sum_complexes,
    ensure_perfect,
    rep_free,
    shift_complex,
    stalk_complex,
)
from .homs import ChainMapSpace
from .linalg import Matrix
from .quivers import Quiver, build_quiver, point_quiver
from .rings import Ring, enumerate_primes, sp_all, sp_empty, sp_points
from .spectrum import QSupport


def random_acyclic_quiver(rng: random.Random, max_vertices: int = 7) -> Quiver:
    """Connected acyclic quiver; arrows point down a shuffled order."""
    n = rng.randint(2, max_vertices)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arrows = []
    # a spanning arrow into each later vertex keeps the quiver connected
    for pos in range(1, n):
        src = order[rng.randrange(pos)]
        arrows.append((f"a{len(arrows)}", src, order[pos]))
    extra = rng.randint(0, n - 1)
    for _ in range(extra):
        i, j = sorted(rng.sample(range(n), 2))
        s, t = order[i], order[j]
        if any(x[1] == s and x[2] == t for x in arrows):
            continue  # no parallel arrows; keeps Dynkin checks meaningful
        arrows.append((f"a{len(arrows)}", s, t))
    return build_quiver(sorted(order), arrows)


def random_free_rep(q: Quiver, ring: Ring, rng: random.Random, max_rank: int = 2) -> Representation:
    """Free fibers, arrows with small random entries."""
    ranks = {v: rng.randint(0, max_rank) for v in q.vertices}
    if all(r == 0 for r in ranks.values()):
        ranks[rng.choice(q.vertices)] = 1
    arrows = {}
    for name, s, t in q.arrows:
        rows, cols = ranks[t], ranks[s]
        # one draw per entry, row-major, zeros included
        draws = {(i, j): ring.from_int(rng.randint(-2, 2)) for i in range(rows) for j in range(cols)}
        arrows[name] = Matrix.from_entries(ring, rows, cols, draws)
    return rep_free(q, ring, ranks, arrows)


def random_perfect_complex(q: Quiver, ring: Ring, rng: random.Random, pieces: int = 2) -> ComplexRQ:
    """Sum of shifted resolved representations, sometimes a cone on top."""
    parts = []
    for _ in range(max(1, pieces)):
        x = ensure_perfect(stalk_complex(random_free_rep(q, ring, rng)))
        parts.append(shift_complex(x, rng.randint(-2, 2)))
    out = direct_sum_complexes(parts)
    if rng.random() < 0.5:
        other = ensure_perfect(stalk_complex(random_free_rep(q, ring, rng)))
        other = shift_complex(other, rng.randint(-1, 1))
        space = ChainMapSpace(other, out)
        if space.dim:
            coeffs = [ring.from_int(rng.randint(-1, 1)) for _ in range(space.dim)]
            if any(not ring.is_zero(c) for c in coeffs):
                out = cone(space.build(coeffs))
    return out


def random_point_complex(ring: Ring, rng: random.Random) -> ComplexRQ:
    """Perfect complex over the one-vertex quiver: a small random staircase."""
    q = point_quiver()
    return random_perfect_complex(q, ring, rng, pieces=rng.randint(1, 2))


def random_q_support(q: Quiver, ring: Ring, rng: random.Random, bound: int = 13) -> QSupport:
    """Finite-type support: per vertex, everything / nothing / a few primes."""
    pool = [p for p in enumerate_primes(ring, bound) if not p.is_zero_ideal]
    comps = []
    for _ in q.vertices:
        roll = rng.random()
        if roll < 0.2:
            comps.append(sp_all(ring))
        elif roll < 0.45 or not pool:
            comps.append(sp_empty(ring))
        else:
            k = rng.randint(1, min(3, len(pool)))
            comps.append(sp_points(ring, rng.sample(pool, k)))
    return QSupport(q, ring, tuple(comps))
