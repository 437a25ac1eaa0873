"""Seeded property checks behind the `verify` command.

Each check draws one random instance from its own Random and returns
(ok, detail).  run_suite spreads the requested number of cases round-robin
over the registry; case k is seeded with "seed:k", so reports are
reproducible case by case and independent of execution order.
"""

from __future__ import annotations

import random

from .complexes import (
    box_tensor,
    cone,
    direct_sum_complexes,
    ensure_perfect,
    eval_vertex,
    homology_fingerprint,
    homology_sweep,
    i_times,
    is_acyclic,
    kan_extend,
    koszul_complex,
    rep_box,
    shift_complex,
    unit_complex,
)
from .errors import QuiverTTError
from .homs import ChainMapSpace, chom_complex, chom_rep, hom_space, is_rigid
from .quivers import build_quiver, paths, point_quiver
from .rings import Integers, PrimeField, primes_upto, sp_all
from .samples import (
    random_acyclic_quiver,
    random_free_rep,
    random_perfect_complex,
    random_point_complex,
    random_q_support,
)
from .spectrum import (
    compact_support,
    ideal_generators,
    q_support,
    q_support_all,
    q_support_intersection,
    q_support_subset,
    q_support_union,
    spc_enumerate,
    translate_classification,
    untranslate_classification,
    xi_zero_test,
)
from .tstruct import (
    aisle_membership,
    c_aisle_decompose,
    c_aisle_reassemble,
    check_filtration_system,
    filtration,
    filtration_from_objects,
    filtration_system,
    serre_translation,
    serre_untranslate,
    standard_filtration,
)

_A2 = build_quiver([1, 2], [("a", 1, 2)])
_A3 = build_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
_D4 = build_quiver([1, 2, 3, 4], [("a", 1, 2), ("b", 3, 2), ("c", 4, 2)])


def _pick_ring(rng: random.Random):
    return rng.choice((PrimeField(2), Integers()))


def _fp(x):
    return homology_fingerprint(x)


def _vertex_unit(q, ring, i):
    return i_times(unit_complex(point_quiver(), ring), q, i)


# ---------------------------------------------------------------------------
# the checks; each takes a Random and returns (ok, detail)


def check_adjunction_dim(rng):
    """dim Hom(X box Y, Z) against dim Hom(X, chom_rep(Y, Z)) over F3 A3."""
    ring = PrimeField(3)
    x = random_free_rep(_A3, ring, rng, max_rank=3)
    y = random_free_rep(_A3, ring, rng, max_rank=3)
    z = random_free_rep(_A3, ring, rng, max_rank=3)
    lhs = hom_space(rep_box(x, y), z).gens
    rhs = hom_space(x, chom_rep(y, z)).gens
    return lhs == rhs, f"dim {lhs} vs {rhs}"


def check_aisle_generators(rng):
    """Generators land in the filtration they induce, and stay after [1]."""
    ring = _pick_ring(rng)
    q = random_acyclic_quiver(rng, 3)
    xs = [random_perfect_complex(q, ring, rng) for _ in range(2)]
    f = filtration_from_objects(xs)
    for x in xs:
        if not aisle_membership(x, f):
            return False, "generator escaped its own filtration"
        if not aisle_membership(shift_complex(x, 1), f):
            return False, "filtration not closed under positive shift"
    return True, f"{len(f.entries)} change points over {ring}"


def check_aisle_standard(rng):
    """Standard-aisle membership is exactly vanishing above degree zero."""
    ring = _pick_ring(rng)
    q = random_acyclic_quiver(rng, 3)
    x = random_perfect_complex(q, ring, rng)
    f = standard_filtration(q, ring)
    direct = all(
        fib.is_zero_module
        for n, fibers in homology_sweep(x)
        if n >= 1
        for fib in fibers.values()
    )
    got = aisle_membership(x, f)
    return got == direct, f"membership {got}, homology says {direct}"


def check_component_roundtrip(rng):
    """Cutting a filtration along disjoint parts and regluing is identity."""
    ring = _pick_ring(rng)
    q = random_acyclic_quiver(rng, 5)
    c = filtration_system(q, _random_partition(q.vertices, rng))
    f = _random_filtration(q, ring, rng)
    back = c_aisle_reassemble(c_aisle_decompose(f, c), c, ring)
    return back == f, f"{len(c.parts)} parts, {len(f.entries)} change points"


def check_detecting_objects(rng):
    """Window table: D(r, i) lies in exactly the kernels off (r) at i."""
    ring = Integers()
    q = random_acyclic_quiver(rng, 3)
    win = spc_enumerate(ring, q, rng.choice((4, 5, 6, 7)))
    for r_elem, v, obj in win.detecting_objects():
        for pt in win.points:
            in_prime = not pt.prime.is_zero_ideal and ring.divide(r_elem, pt.prime.gen) is not None
            expect = pt.vertex == v and not in_prime
            if win.member(obj, pt) != expect:
                return False, f"D({ring.format_elem(r_elem)}, {v}) wrong at {pt}"
    return True, f"{len(win.detecting_objects())} objects x {len(win.points)} points"


def check_generators_roundtrip(rng):
    """ideal_generators then compact_support recovers the support."""
    ring = Integers()
    s = random_q_support(_D4, ring, rng)
    gens = ideal_generators(s)
    total = q_support(_D4, ring)
    for g in gens:
        sg = compact_support(g)
        if not q_support_subset(sg, s):
            return False, "generator support escapes the target"
        total = q_support_union(total, sg)
    return total == s, f"{len(gens)} generators"


def check_kan_formulas(rng):
    """Vertexwise fibers of both Kan extensions are path-indexed copies."""
    ring = _pick_ring(rng)
    q = random_acyclic_quiver(rng, 4)
    i = rng.choice(q.vertices)
    m = random_point_complex(ring, rng)
    for side in ("left", "right"):
        ext = kan_extend(m, q, i, side)
        for j in q.vertices:
            k = len(paths(q, i, j)) if side == "left" else len(paths(q, j, i))
            want_fp = _fp(direct_sum_complexes([m] * k)) if k else ()
            if _fp(eval_vertex(ext, j)) != want_fp:
                return False, f"{side} extension wrong at vertex {j}"
    return True, f"vertex {i} on {len(q.vertices)} vertices over {ring}"


def check_koszul_pairs(rng):
    """K((a)) tensor K((b)) has the homology of K((a, b))."""
    ring = Integers()
    a, b = rng.choice(primes_upto(13)), rng.choice(primes_upto(13))
    prod = box_tensor(koszul_complex(ring, (a,)), koszul_complex(ring, (b,)))
    pair = koszul_complex(ring, (a, b))
    if _fp(prod) != _fp(pair):
        return False, f"homology mismatch for ({a}), ({b})"
    if a != b and not (is_acyclic(prod) and is_acyclic(pair)):
        return False, f"coprime pair ({a}), ({b}) not acyclic"
    return True, f"({a}) and ({b})"


def check_kunneth_points(rng):
    """xi nonzero on both factors forces xi nonzero on the product."""
    ring = Integers()
    x = random_perfect_complex(_A2, ring, rng)
    y = random_perfect_complex(_A2, ring, rng)
    prod = box_tensor(x, y)
    for pt in spc_enumerate(ring, _A2, 7).points:
        fx = not xi_zero_test(x, pt.prime, pt.vertex)
        fy = not xi_zero_test(y, pt.prime, pt.vertex)
        fp = not xi_zero_test(prod, pt.prime, pt.vertex)
        if fx and fy and not fp:
            return False, f"xi died on the product at {pt}"
    return True, "all window points"


def check_rigidity_witness(rng):
    """The source vertex unit is the stock non-rigid object; the unit is rigid."""
    ring = _pick_ring(rng)
    u1 = _vertex_unit(_A2, ring, 1)
    r1 = ensure_perfect(u1)
    if is_rigid(r1):
        return False, "source vertex unit passed the rigidity test"
    if not is_rigid(unit_complex(_A2, ring)):
        return False, "tensor unit failed the rigidity test"
    # the targets of the evaluation maps against the unit and against r1
    if not is_acyclic(chom_complex(r1, ensure_perfect(unit_complex(_A2, ring))).complex):
        return False, "chom against the unit is not acyclic"
    if _fp(chom_complex(r1, r1).complex) != _fp(u1):
        return False, "self chom is not the object back"
    return True, f"over {ring}"


def check_serre_roundtrip(rng):
    """Field case: filtrations match chains of vertex subsets both ways."""
    ring = PrimeField(rng.choice((2, 3, 5)))
    q = random_acyclic_quiver(rng, 4)
    cut = {v: rng.randint(-2, 3) for v in q.vertices}
    levels = []
    for n in range(-2, 4):
        comp = {v: sp_all(ring) for v in q.vertices if n < cut[v]}
        levels.append((n, q_support(q, ring, comp)))
    f = filtration(q, ring, levels, q_support_all(q, ring))
    back = serre_untranslate(serre_translation(f), ring)
    return back == f, f"{len(f.entries)} change points over {ring}"


def check_support_tensor(rng):
    """Support of a box product is the intersection of the supports."""
    ring = Integers()
    q = random_acyclic_quiver(rng, 3)
    x = random_perfect_complex(q, ring, rng)
    y = random_perfect_complex(q, ring, rng)
    got = compact_support(box_tensor(x, y))
    want = q_support_intersection(compact_support(x), compact_support(y))
    return got == want, f"{got}"


def check_support_triangles(rng):
    """Supports ignore shifts and are subadditive on cones."""
    ring = _pick_ring(rng)
    q = random_acyclic_quiver(rng, 3)
    x = random_perfect_complex(q, ring, rng)
    y = random_perfect_complex(q, ring, rng)
    sx = compact_support(x)
    if compact_support(shift_complex(x, rng.randint(-2, 2))) != sx:
        return False, "support moved under shift"
    space = ChainMapSpace(x, y)
    coeffs = [ring.from_int(rng.randint(-1, 1)) for _ in range(space.dim)]
    c = cone(space.build(coeffs))
    bound = q_support_union(sx, compact_support(y))
    if not q_support_subset(compact_support(c), bound):
        return False, "cone support escaped the union"
    return True, f"map space of dim {space.dim}"


def check_translate_roundtrip(rng):
    """Both classification translations invert on random supports."""
    ring = Integers()
    s = random_q_support(_D4, ring, rng)
    for mode in ("per_vertex", "poset_map"):
        if untranslate_classification(translate_classification(s, mode)) != s:
            return False, f"{mode} failed to invert"
    return True, "both modes"


def check_unit_filtration_systems(rng):
    """Vertex singletons always filter the unit with Dynkin support."""
    q = random_acyclic_quiver(rng, 7)
    c = filtration_system(q, [frozenset((v,)) for v in q.vertices])
    rep = check_filtration_system(c, q)
    if not (rep["is_system"] and rep["is_dynkin_support"]):
        return False, f"singletons rejected: {rep['witness']}"
    if len(q.vertices) >= 2:
        v0, v1 = q.vertices[0], q.vertices[1]
        bad = filtration_system(q, [frozenset((v0,)), frozenset((v0, v1))])
        if check_filtration_system(bad, q)["is_system"]:
            return False, "overlapping parts accepted"
    return True, f"{len(q.vertices)} singleton parts"


def check_vertex_embeddings(rng):
    """Parking at a vertex: projection, tensor, and unit identities."""
    ring = _pick_ring(rng)
    q = random_acyclic_quiver(rng, 4)
    i = rng.choice(q.vertices)
    j = rng.choice(q.vertices)
    x = random_perfect_complex(q, ring, rng)
    m = random_point_complex(ring, rng)
    n = random_point_complex(ring, rng)

    lhs = i_times(eval_vertex(x, i), q, i)
    if _fp(lhs) != _fp(box_tensor(_vertex_unit(q, ring, i), x)):
        return False, "park(restrict) is not unit tensor"
    back = eval_vertex(i_times(m, q, i), j)
    want = _fp(m) if j == i else ()
    if _fp(back) != want:
        return False, f"restrict(park) wrong at {j}"
    if _fp(eval_vertex(box_tensor(x, x), i)) != _fp(box_tensor(eval_vertex(x, i), eval_vertex(x, i))):
        return False, "restriction not monoidal"
    if _fp(i_times(box_tensor(m, n), q, i)) != _fp(box_tensor(i_times(m, q, i), i_times(n, q, i))):
        return False, "parking not monoidal"
    return True, f"vertices {i}, {j} over {ring}"


# ---------------------------------------------------------------------------
# helpers shared by the checks


def _random_partition(vertices, rng):
    vs = list(vertices)
    rng.shuffle(vs)
    cuts = sorted(rng.sample(range(1, len(vs)), rng.randint(0, len(vs) - 1))) if len(vs) > 1 else []
    parts, prev = [], 0
    for c in cuts + [len(vs)]:
        parts.append(frozenset(vs[prev:c]))
        prev = c
    return parts


def _random_filtration(q, ring, rng):
    ns = sorted(rng.sample(range(-3, 5), rng.randint(1, 3)))
    cur = random_q_support(q, ring, rng)
    entries = [(ns[0], cur)]
    for n in ns[1:]:
        cur = q_support_intersection(cur, random_q_support(q, ring, rng))
        entries.append((n, cur))
    if rng.random() < 0.5:
        low = q_support_all(q, ring)
    else:
        low = q_support_union(entries[0][1], random_q_support(q, ring, rng))
    return filtration(q, ring, entries, low)


CHECKS = (
    ("adjunction_dim", check_adjunction_dim),
    ("aisle_generators", check_aisle_generators),
    ("aisle_standard", check_aisle_standard),
    ("component_roundtrip", check_component_roundtrip),
    ("detecting_objects", check_detecting_objects),
    ("generators_roundtrip", check_generators_roundtrip),
    ("kan_formulas", check_kan_formulas),
    ("koszul_pairs", check_koszul_pairs),
    ("kunneth_points", check_kunneth_points),
    ("rigidity_witness", check_rigidity_witness),
    ("serre_roundtrip", check_serre_roundtrip),
    ("support_tensor", check_support_tensor),
    ("support_triangles", check_support_triangles),
    ("translate_roundtrip", check_translate_roundtrip),
    ("unit_filtration_systems", check_unit_filtration_systems),
    ("vertex_embeddings", check_vertex_embeddings),
)


class CaseResult:
    __slots__ = ("case", "name", "ok", "detail")

    def __init__(self, case, name, ok, detail):
        self.case = case
        self.name = name
        self.ok = ok
        self.detail = detail


def run_case(seed: int, case: int) -> CaseResult:
    name, fn = CHECKS[case % len(CHECKS)]
    rng = random.Random(f"{seed}:{case}")
    try:
        ok, detail = fn(rng)
    except QuiverTTError as e:
        ok, detail = False, f"{type(e).__name__}: {e}"
    return CaseResult(case, name, ok, detail)


def run_suite(seed: int = 0, cases: int = 32) -> list:
    """All cases in case order; failures carry their detail string."""
    return [run_case(seed, k) for k in range(cases)]
