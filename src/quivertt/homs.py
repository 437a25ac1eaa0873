"""Hom modules between representations, the internal hom, evaluation maps.

A `MapSpace` is the solution space of a naturality system: one matrix
unknown per block, one constraint f_t a = b f_s per equation.  Hom(A, B) for
representations with free fibers has one block per vertex and one equation
per arrow (`hom_space`); a `ChainMapSpace` has one block per (degree,
vertex) and adds the differentials.  The internal hom against a vertex i
evaluates Hom(X tensor P(i), Y); arrows act by precomposition with the
path-prefixing inclusions P(j) -> P(i).

Rigidity is decided on the arrow maps: a perfect x is rigid exactly when
every arrow map x(a): x_s -> x_t is a quasi-isomorphism (`is_rigid` holds
the proof).  `rigidity_report` is the slow oracle it is tested against: it
builds the evaluation maps hom(x, 1) tensor y -> hom(x, y) for y the unit,
each vertex unit and x itself, and asks whether their cones are acyclic.

Everything here is assembled from explicit generator lifts.  The package's
one validation rule holds here too: `chom_rep`, `chom_complex` and
`ChainMapSpace.build` build through `_trusted` and `_complex` without
validating again (hom fibers are kernels, arrows are expressed lifts, chain
maps are kernel vectors of the chain-map equations), and so do the unit's
augmentation and `rigidity_report`'s evaluation maps.  The public
`evaluation_map` promises a validated map, so it checks its result once.
"""

from __future__ import annotations

from bisect import bisect_right

from .complexes import (
    ComplexMorphism,
    ComplexRQ,
    Representation,
    RepMorphism,
    _complex,
    _trusted,
    box_tensor,
    cone,
    ensure_perfect,
    eval_vertex,
    homology_sweep,
    is_acyclic,
    projective_rep,
    projective_resolution,
    proj_precompose,
    rep_box,
    rep_mor_identity,
    stalk_complex,
    unit_complex,
    unit_restriction,
)
from .errors import NotPerfect, ShapeMismatch, UnsupportedRing
from .linalg import Matrix, kernel_basis, solve
from .quivers import paths
from .rings import FGModule


class MapSpace:
    """Solutions of f_t * a_mat - b_mat * f_s = 0, with kmat's columns as generators.

    blocks lists (key, rows, cols) of the unknown matrices in storage order,
    each stored row-major; equations lists (a_mat, b_mat, key_t, key_s).
    Each equation gives one row per entry (rr, cc), row-major, stacked in the
    order given; over Z the kernel depends on that order.
    """

    __slots__ = ("ring", "shapes", "offsets", "kmat")

    def __init__(self, ring, blocks, equations):
        self.ring, self.shapes, self.offsets = ring, {}, {}
        n = 0
        for key, rows, cols in blocks:
            self.shapes[key], self.offsets[key] = (rows, cols), n
            n += rows * cols
        ents, top = {}, 0
        for a_mat, b_mat, key_t, key_s in equations:
            # row (rr, cc) of this equation is top + rr * s_cols + cc
            off_t, off_s = self.offsets[key_t], self.offsets[key_s]
            t_cols, s_cols = a_mat.rows, a_mat.cols
            for k, cc, val in a_mat.nonzeros():
                for rr in range(b_mat.rows):
                    ents[top + rr * s_cols + cc, off_t + rr * t_cols + k] = val
            for rr, k, val in b_mat.nonzeros():
                for cc in range(s_cols):
                    ij = (top + rr * s_cols + cc, off_s + k * s_cols + cc)
                    ents[ij] = ring.sub(ents[ij], val) if ij in ents else ring.neg(val)
            top += b_mat.rows * s_cols
        self.kmat = kernel_basis(Matrix.from_entries(ring, top, n, ents))

    @property
    def gens(self) -> int:
        return self.kmat.cols

    def blocks_of(self, col: Matrix) -> dict:
        """{key: matrix} read off a one-column matrix in storage order."""
        keys = list(self.shapes)
        starts = [self.offsets[key] for key in keys]
        ents = {key: {} for key in keys}
        for i, _, x in col.nonzeros():
            # the last block starting at or before i; empty blocks hold no i
            key = keys[bisect_right(starts, i) - 1]
            ents[key][divmod(i - self.offsets[key], self.shapes[key][1])] = x
        return {key: Matrix.from_entries(self.ring, rows, cols, ents[key])
                for key, (rows, cols) in self.shapes.items()}

    def lift(self, l: int) -> dict:
        """The l-th generator, one matrix per block."""
        return self.blocks_of(self.kmat.select_columns([l]))

    def express_cols(self, mats_list: list) -> Matrix:
        """Coordinates of several block families at once, one column each."""
        if not mats_list:
            return Matrix.zeros(self.ring, self.gens, 0)
        ents = {}
        for c, mats in enumerate(mats_list):
            for key, shape in self.shapes.items():
                m = mats[key]
                if (m.rows, m.cols) != shape:
                    raise ShapeMismatch("morphism has the wrong shape for this hom module")
                off = self.offsets[key]
                ents.update(((off + i * m.cols + j, c), x) for i, j, x in m.nonzeros())
        out = solve(self.kmat, Matrix.from_entries(self.ring, self.kmat.rows, len(mats_list), ents))
        if out is None:
            raise ShapeMismatch("matrix family is not a morphism in this hom module")
        return out


def hom_space(a: Representation, b: Representation) -> MapSpace:
    """Hom(a, b) for representations with literally free fibers."""
    if not (a.all_free() and b.all_free()):
        raise NotPerfect("hom modules are computed between free-fiber representations")
    q = a.quiver
    return MapSpace(a.ring, [(v, b.gens(v), a.gens(v)) for v in q.vertices],
                    [(a.arrows[name], b.arrows[name], t, s) for name, s, t in q.arrows])


def _induced(src: MapSpace, tgt: MapSpace, compose) -> Matrix:
    """The map src -> tgt taking f to {v: compose(v, f_v)}, in tgt's generators."""
    return tgt.express_cols([{v: compose(v, f) for v, f in src.lift(l).items()} for l in range(src.gens)])


def chom_rep(y: Representation, z: Representation) -> Representation:
    """The representation with fiber Hom(y tensor P(i), z) at vertex i.

    This is the degree-0 term of chom(y, z) for the stalk complexes, built
    by the same code as `chom_complex` without its perfect-input check: y
    and z need only free fibers.  Fibers are free: over our coefficient
    domains the kernel of an integer matrix is free, and kernel_basis hands
    back a basis.
    """
    if not y.ring.is_domain:
        raise UnsupportedRing("hom fibers need not be free over a non-domain")
    return _chom(stalk_complex(y), stalk_complex(z)).complex.term(0)


# ---------------------------------------------------------------------------
# the internal hom complex


class ChomData:
    __slots__ = ("complex", "summands", "hd", "offsets", "source")

    def __init__(self, complex_, summands, hd, offsets, source):
        self.complex = complex_
        self.summands = summands  # (i, a) -> ordered list of source degrees m
        self.hd = hd              # (i, a, m) -> MapSpace
        self.offsets = offsets    # (i, a, m) -> generator offset inside the fiber
        self.source = source


def chom_complex(x: ComplexRQ, y: ComplexRQ) -> ChomData:
    """chom(x, y) with vertex i fiber Hom(x tensor P(i), y), degreewise."""
    if not x.perfect or not y.perfect:
        raise NotPerfect("internal hom needs perfect inputs; resolve first")
    return _chom(x, y)


def _chom(x: ComplexRQ, y: ComplexRQ) -> ChomData:
    """`chom_complex` for complexes whose terms have free fibers.  A fiber's
    relations are those among its hom generators, kernel_basis of kmat;
    over a domain kmat's columns are independent, so there are none."""
    q, r = x.quiver, x.ring
    projs = {i: projective_rep(q, r, i) for i in q.vertices}
    boxed = {(i, m): rep_box(x.terms[m], projs[i]) for i in q.vertices for m in x.degrees}

    summands, hd, offsets = {}, {}, {}
    a_values = sorted({my - mx for mx in x.degrees for my in y.degrees})
    for i in q.vertices:
        for a in a_values:
            ms = [m for m in x.degrees if m + a in y.degrees]
            summands[(i, a)] = ms
            off = 0
            for m in ms:
                data = hom_space(boxed[(i, m)], y.terms[m + a])
                hd[(i, a, m)] = data
                offsets[(i, a, m)] = off
                off += data.gens

    terms = {}
    for a in a_values:
        fibers = {}
        for i in q.vertices:
            spaces = [hd[(i, a, m)] for m in summands[(i, a)]]
            if r.is_domain:
                fibers[i] = FGModule.free(r, sum(h.gens for h in spaces))
            else:
                fibers[i] = FGModule(r, Matrix.direct_sum(r, [kernel_basis(h.kmat) for h in spaces if h.gens]))
        arrows = {}
        for name, i, j in q.arrows:
            iota = proj_precompose(q, r, name)
            ms = summands[(i, a)]
            ms_j = summands[(j, a)]
            grid = [[None] * len(ms) for _ in ms_j]
            for ci, m in enumerate(ms):
                if m not in ms_j:
                    continue
                pre = {v: Matrix.identity(r, x.terms[m].gens(v)).kron(iota.mats[v]) for v in q.vertices}
                grid[ms_j.index(m)][ci] = _induced(hd[(i, a, m)], hd[(j, a, m)], lambda v, f: f.mul(pre[v]))
            rdims = [hd[(j, a, m)].gens for m in ms_j]
            cdims = [hd[(i, a, m)].gens for m in ms]
            arrows[name] = Matrix.blocks(r, grid, rdims, cdims)
        terms[a] = _trusted(Representation, q, r, fibers, arrows)

    diffs = {}
    for a in a_values:
        if a + 1 not in a_values:
            continue
        mats = {}
        for i in q.vertices:
            ms, ms_t = summands[(i, a)], summands[(i, a + 1)]
            grid = [[None] * len(ms) for _ in ms_t]
            for ci, m in enumerate(ms):
                src_hd = hd[(i, a, m)]
                # post-compose with the differential of y
                if m in ms_t and m + a + 1 in y.degrees:
                    dy = {v: y.diff(m + a, v) for v in q.vertices}
                    grid[ms_t.index(m)][ci] = _induced(src_hd, hd[(i, a + 1, m)], lambda v, f: dy[v].mul(f))
                # pre-compose with the differential of x, sign (-1)^{a+1}
                if m - 1 in ms_t:
                    pre = {v: x.diff(m - 1, v).kron(Matrix.identity(r, len(paths(q, i, v)))) for v in q.vertices}
                    if a % 2 == 0:
                        pre = {v: p.neg() for v, p in pre.items()}
                    grid[ms_t.index(m - 1)][ci] = _induced(src_hd, hd[(i, a + 1, m - 1)], lambda v, f: f.mul(pre[v]))
            rdims = [hd[(i, a + 1, m)].gens for m in ms_t]
            cdims = [hd[(i, a, m)].gens for m in ms]
            mats[i] = Matrix.blocks(r, grid, rdims, cdims)
        diffs[a] = mats
    return ChomData(_complex(q, r, terms, diffs), summands, hd, offsets, x)


def internal_hom(x: ComplexRQ, y: ComplexRQ) -> ComplexRQ:
    return chom_complex(x, y).complex


# ---------------------------------------------------------------------------
# evaluation against the unit and rigidity


def _unit_with_counit(q, ring):
    """A perfect replacement w of the unit u with its augmentation w -> u.

    u sits in degree 0 with free fibers, so w^0 is the B0 block of
    `projective_resolution`, the sum of the P(i) x u_i in vertex order (its
    B1 block comes from u^1 = 0).  The augmentation sends p x z there to the
    path action of p on z, a chain map by construction.
    """
    u = unit_complex(q, ring)
    if u.perfect:
        return u, _trusted(ComplexMorphism, u, u, {0: rep_mor_identity(u.terms[0])})
    w = projective_resolution(u)
    unit = u.terms[0]
    mats = {}
    for v in q.vertices:
        into_v = [(i, p) for i in q.vertices for p in paths(q, i, v)]
        mats[v] = Matrix.blocks(ring, [[unit.path_action(i, p) for i, p in into_v]],
                                [unit.gens(v)], [unit.gens(i) for i, _ in into_v])
    return w, _trusted(ComplexMorphism, w, u, {0: _trusted(RepMorphism, w.terms[0], unit, mats)})


def _eval_parts(cu: ChomData, y: ComplexRQ, aug: ComplexMorphism, ct: ChomData) -> ComplexMorphism:
    """chom(x, W) tensor y -> chom(x, y), f tensor z to +-(aug of f) . z."""
    x = cu.source
    q, r = x.quiver, x.ring
    s = box_tensor(cu.complex, y)
    t = ct.complex
    pairs = {}
    for a in cu.complex.degrees:
        for b in y.degrees:
            pairs.setdefault(a + b, []).append((a, b))
    parts = {}
    for n in sorted(pairs):
        ps = sorted(pairs[n])
        mats = {}
        for i in q.vertices:
            ents = {}
            ncols = 0
            for a, b in ps:
                ygens = y.terms[b].gens(i)
                for m in cu.summands[(i, a)]:
                    data = cu.hd[(i, a, m)]
                    if data.gens == 0 or ygens == 0:
                        continue
                    if m + a != 0:
                        ncols += data.gens * ygens
                        continue
                    glist = []
                    for l in range(data.gens):
                        f = data.lift(l)
                        for z in range(ygens):
                            glist.append(_eval_image(q, r, x, y, paths, aug, f, i, a, b, m, z))
                    coeffs = ct.hd[(i, n, m)].express_cols(glist)
                    off = ct.offsets[(i, n, m)]
                    ents.update(((off + w, ncols + c), e) for w, c, e in coeffs.nonzeros())
                    ncols += coeffs.cols
            mats[i] = Matrix.from_entries(r, t.term(n).gens(i), ncols, ents)
        if n in s.terms:
            parts[n] = _trusted(RepMorphism, s.terms[n], t.term(n), mats)
    return _trusted(ComplexMorphism, s, t, parts)


def _eval_image(q, r, x, y, paths, aug, f, i, a, b, m, z):
    """Image matrices of one generator f (x-degree m = -a) against y-gen z."""
    g, odd = {}, (a * b) % 2 == 1
    for v in q.vertices:
        srow = aug.part(0, v).mul(f[v])  # 1 x (xgens * paths), column xi * len(plist) + pi
        plist = paths(q, i, v)
        yg_v = y.terms[b].gens(v)
        ents = {}
        for _, c, scal in srow.nonzeros():
            act = y.terms[b].path_action(i, plist[c % len(plist)])
            for w in range(yg_v):
                e = r.mul(scal, act[w, z])
                ents[w, c] = r.neg(e) if odd else e
        g[v] = Matrix.from_entries(r, yg_v, x.terms[m].gens(v) * len(plist), ents)
    return g


def evaluation_map(x: ComplexRQ, y: ComplexRQ) -> ComplexMorphism:
    """The canonical chom(x, U) tensor y -> chom(x, y) as a validated map."""
    if not x.perfect or not y.perfect:
        raise NotPerfect("evaluation map needs perfect inputs; resolve first")
    w, aug = _unit_with_counit(x.quiver, x.ring)
    ev = _eval_parts(chom_complex(x, w), y, aug, chom_complex(x, y))
    return ComplexMorphism(ev.source, ev.target, ev.parts)


def rigidity_report(x: ComplexRQ) -> dict:
    """Check evaluation cones against the unit, vertex units, and x; "maps" holds each probe's map."""
    q, r = x.quiver, x.ring
    xr = ensure_perfect(x)
    w, aug = _unit_with_counit(q, r)
    cu = chom_complex(xr, w)
    probes = [("U", w)]
    for j in q.vertices:
        probes.append((f"U({j})", ensure_perfect(stalk_complex(unit_restriction(q, r, (j,))))))
    probes.append(("x", xr))
    maps, failures = {}, []
    for label, y in probes:
        ct = cu if label == "U" else chom_complex(xr, y)
        ev = maps[label] = _eval_parts(cu, y, aug, ct)
        if not is_acyclic(cone(ev)):
            failures.append(label)
    return {"rigid": not failures, "failures": failures, "maps": maps}


def _arrow_witness(x: ComplexRQ):
    """(arrow, n) for the first arrow a, in quiver order, whose map x(a): x_s -> x_t
    is not a quasi-isomorphism, with the first degree n where H^n(x(a)) is
    not an isomorphism; None when every arrow map is a quasi-isomorphism.

    x needs literally free fibers.  The test is the cone of x(a) over the
    point quiver.  If its first homology sits in degree m, then H^k(x(a)) is
    an isomorphism for k < m and injective for k = m; it fails at m exactly
    when it is not onto there, that is when Z^m(x_t) is not in
    x(a)(Z^m(x_s)) + B^m(x_t), and otherwise at m + 1.
    """
    for name, s, t in x.quiver.arrows:
        xs, xt = eval_vertex(x, s), eval_vertex(x, t)
        # eval_vertex drops zero terms, so the arrow matrices come from x.term(n)
        f = _trusted(ComplexMorphism, xs, xt, {
            n: _trusted(RepMorphism, xs.term(n), xt.term(n), {"pt": x.term(n).arrows[name]}) for n in x.degrees})
        for m, fibers in homology_sweep(cone(f)):
            if not fibers["pt"].is_zero_module:
                cycles_s = kernel_basis(xs.diff(m, "pt"))
                cycles_t = kernel_basis(xt.diff(m, "pt"))
                image = x.term(m).arrows[name].mul(cycles_s).hstack(xt.diff(m - 1, "pt"))
                return name, m if solve(image, cycles_t) is None else m + 1
    return None


def is_rigid(x: ComplexRQ) -> bool:
    """Whether x is rigid (dualizable), read off its arrow maps.

    A perfect x is rigid exactly when every arrow map x(a): x_s -> x_t is a
    quasi-isomorphism of complexes of R-modules (`_arrow_witness`).  The
    criterion needs x perfect: R/(2) over Z/4 on a point has no arrows, yet
    is not dualizable.  So x is resolved first, and a ring that cannot
    resolve it raises as `ensure_perfect` does.

    If every arrow map is a quasi-isomorphism, so is every path map, so
    P_i tensor x ~ P_i tensor x_i and hom(x, y)_i = Hom(P_i tensor x, y) ~
    Hom_R(x_i, y_i) ~ x_i^v tensor y_i, which is hom(x, 1)_i tensor y_i: the
    evaluation map is a quasi-isomorphism for every y.  Conversely, the
    vertex evaluations ev_s and ev_t are strong monoidal functors
    D(RQ) -> D(R), since the tensor product is taken vertexwise, and an
    arrow a gives a monoidal transformation ev_s => ev_t.  A monoidal
    transformation between strong monoidal functors is invertible at every
    dualizable object, with inverse (alpha at x^v)^v; so a rigid x has
    invertible arrow maps.

    `rigidity_report` is the oracle: it builds the evaluation maps and their
    cones.  Its self probe alone decides dualizability, since x is
    dualizable iff hom(x, 1) tensor x -> hom(x, x) is an isomorphism
    (Lewis-May-Steinberger, LNM 1213, III.1.3), and the other probes are
    isomorphisms whenever x is.  So its verdict equals this one.
    """
    return _arrow_witness(ensure_perfect(x)) is None


# ---------------------------------------------------------------------------
# chain maps between complexes (used by the brute-force closure search)


class ChainMapSpace(MapSpace):
    """Solution space of all degree-0 chain maps x -> y.

    Every term of both complexes needs literally free fibers (NotPerfect
    otherwise).  The blocks are (degree, vertex) in order; the equations
    come degree by degree: naturality at each arrow, then commutation with
    the differential at each vertex.
    """

    __slots__ = ("source", "target")

    def __init__(self, source: ComplexRQ, target: ComplexRQ):
        x, y = source, target
        if not all(rep.all_free() for c in (x, y) for rep in c.terms.values()):
            raise NotPerfect("chain-map spaces are computed between free-fiber complexes")
        q = x.quiver
        self.source, self.target = x, y
        degrees = sorted(set(x.degrees) | set(y.degrees))
        blocks = [((d, v), y.term(d).gens(v), x.term(d).gens(v)) for d in degrees for v in q.vertices]
        equations = []
        for d in degrees:
            equations += [(x.term(d).arrows[name], y.term(d).arrows[name], (d, t), (d, s))
                          for name, s, t in q.arrows]
            if d + 1 in degrees:
                equations += [(x.diff(d, v), y.diff(d, v), (d + 1, v), (d, v)) for v in q.vertices]
        super().__init__(x.ring, blocks, equations)

    dim = MapSpace.gens

    def build(self, coeffs) -> ComplexMorphism:
        """Chain map from coefficients against the kernel basis, one per generator."""
        r = self.ring
        column = {(l, 0): c for l, c in enumerate(map(r.canon, coeffs)) if c}
        mats = self.blocks_of(self.kmat.mul(Matrix.from_entries(r, len(coeffs), 1, column)))
        vertices = self.source.quiver.vertices
        parts = {d: _trusted(RepMorphism, rep, self.target.term(d), {v: mats[(d, v)] for v in vertices})
                 for d, rep in self.source.terms.items()}
        return _trusted(ComplexMorphism, self.source, self.target, parts)
