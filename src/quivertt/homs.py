"""Hom modules between representations, the internal hom, evaluation maps.

Hom(A, B) for representations with free fibers is the kernel of the
naturality constraint system, one matrix variable per vertex.  The internal
hom against a vertex i evaluates Hom(X tensor P(i), Y); arrows act by
precomposition with the path-prefixing inclusions P(j) -> P(i).

Everything here is assembled from explicit generator lifts.  `chom_rep`,
`chom_complex` and the evaluation map validate what they build (arrow maps,
naturality, d^2 = 0, the chain-map equations), so a sign error there refuses
to build rather than return garbage; the `chom_complex` differentials are
validated once, as part of the complex.  `ChainMapSpace.build` does not
validate: its maps are kernel vectors of the chain-map equations, valid by
construction.
"""

from __future__ import annotations

from .complexes import (
    ComplexMorphism,
    ComplexRQ,
    Representation,
    RepMorphism,
    _assemble,
    _complex,
    _resolution_with_counit,
    _trusted,
    box_tensor,
    cone,
    ensure_perfect,
    is_acyclic,
    projective_rep,
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


class HomData:
    """Generators of Hom(A, B) plus enough data to lift and express them."""

    __slots__ = ("ring", "quiver", "kmat", "shapes", "offsets", "module")

    def __init__(self, ring, quiver, kmat, shapes, offsets):
        self.ring = ring
        self.quiver = quiver
        self.kmat = kmat
        self.shapes = shapes
        self.offsets = offsets
        self.module = FGModule(ring, kernel_basis(kmat)) if kmat.cols else FGModule.free(ring, 0)

    @property
    def gens(self) -> int:
        return self.kmat.cols

    def lift(self, l: int) -> dict:
        """The l-th generator as one matrix per vertex."""
        out = {}
        for v in self.quiver.vertices:
            rows, cols = self.shapes[v]
            off = self.offsets[v]
            ent = tuple(tuple(self.kmat.entries[off + r * cols + c][l] for c in range(cols))
                        for r in range(rows))
            out[v] = Matrix(self.ring, rows, cols, ent)
        return out

    def _vectorize(self, mats: dict) -> list:
        vec = []
        for v in self.quiver.vertices:
            rows, cols = self.shapes[v]
            m = mats[v]
            if (m.rows, m.cols) != (rows, cols):
                raise ShapeMismatch("morphism has the wrong shape for this hom module")
            for r in range(rows):
                vec.extend(m.entries[r])
        return vec

    def express_cols(self, mats_list: list) -> Matrix:
        """Coordinates of several morphisms at once, one column each."""
        if not mats_list:
            return Matrix.zeros(self.ring, self.gens, 0)
        vecs = [self._vectorize(m) for m in mats_list]
        b = Matrix(self.ring, len(vecs[0]), len(vecs),
                   tuple(tuple(v[i] for v in vecs) for i in range(len(vecs[0]))))
        out = solve(self.kmat, b)
        if out is None:
            raise ShapeMismatch("matrix family is not a morphism in this hom module")
        return out


def _naturality_rows(r, n, a_mat, b_mat, off_t, off_s) -> list:
    """Rows, over n unknowns, of f_t * a_mat - b_mat * f_s = 0, one per entry (rr, cc).

    f_t is stored row-major from off_t with a_mat.rows columns, f_s from off_s with
    a_mat.cols columns.  Rows run row-major in (rr, cc); over Z the kernel depends on it.
    """
    t_cols, s_cols = a_mat.rows, a_mat.cols
    rows = []
    for rr in range(b_mat.rows):
        for cc in range(s_cols):
            row = [r.zero()] * n
            for k in range(t_cols):
                val = a_mat.entries[k][cc]
                if not r.is_zero(val):
                    c = off_t + rr * t_cols + k
                    row[c] = r.add(row[c], val)
            for k in range(b_mat.cols):
                val = b_mat.entries[rr][k]
                if not r.is_zero(val):
                    c = off_s + k * s_cols + cc
                    row[c] = r.sub(row[c], val)
            rows.append(tuple(row))
    return rows


def hom_space(a: Representation, b: Representation) -> HomData:
    """Hom(a, b) for representations with literally free fibers."""
    if not (a.all_free() and b.all_free()):
        raise NotPerfect("hom modules are computed between free-fiber representations")
    q, r = a.quiver, a.ring
    shapes, offsets = {}, {}
    n = 0
    for v in q.vertices:
        shapes[v] = (b.gens(v), a.gens(v))
        offsets[v] = n
        n += b.gens(v) * a.gens(v)

    rows = []
    for name, s, t in q.arrows:
        rows += _naturality_rows(r, n, a.arrows[name], b.arrows[name], offsets[t], offsets[s])
    c = Matrix(r, len(rows), n, tuple(rows))
    return HomData(r, q, kernel_basis(c), shapes, offsets)


def chom_rep(y: Representation, z: Representation) -> Representation:
    """The representation with fiber Hom(y tensor P(i), z) at vertex i.

    The arrow for a: i -> j precomposes with the path-prefixing inclusion
    P(j) -> P(i).  Fibers are free: over our coefficient domains the kernel
    of an integer matrix is free, and kernel_basis hands back a basis.
    """
    q, r = y.quiver, y.ring
    if not r.is_domain:
        raise UnsupportedRing("hom fibers need not be free over a non-domain")
    hds = {i: hom_space(rep_box(y, projective_rep(q, r, i)), z) for i in q.vertices}
    fibers = {i: FGModule.free(r, hds[i].gens) for i in q.vertices}
    arrows = {}
    for name, i, j in q.arrows:
        iota = proj_precompose(q, r, name)
        src_hd, tgt_hd = hds[i], hds[j]
        glist = []
        for l in range(src_hd.gens):
            f = src_hd.lift(l)
            g = {}
            for v in q.vertices:
                pre = Matrix.identity(r, y.gens(v)).kron(iota.mats[v])
                g[v] = f[v].mul(pre)
            glist.append(g)
        arrows[name] = tgt_hd.express_cols(glist)
    return Representation(q, r, fibers, arrows)


# ---------------------------------------------------------------------------
# the internal hom complex


class ChomData:
    __slots__ = ("complex", "summands", "hd", "offsets", "source", "target")

    def __init__(self, complex_, summands, hd, offsets, source, target):
        self.complex = complex_
        self.summands = summands  # (i, a) -> ordered list of source degrees m
        self.hd = hd              # (i, a, m) -> HomData
        self.offsets = offsets    # (i, a, m) -> generator offset inside the fiber
        self.source = source
        self.target = target


def chom_complex(x: ComplexRQ, y: ComplexRQ) -> ChomData:
    """chom(x, y) with vertex i fiber Hom(x tensor P(i), y), degreewise."""
    if not x.perfect or not y.perfect:
        raise NotPerfect("internal hom needs perfect inputs; resolve first")
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
            pres = None
            for m in summands[(i, a)]:
                p = hd[(i, a, m)].module.presentation
                pres = p if pres is None else pres.direct_sum(p)
            fibers[i] = FGModule(r, pres) if pres is not None else FGModule.free(r, 0)
        arrows = {}
        for name, i, j in q.arrows:
            iota = proj_precompose(q, r, name)
            ms = summands[(i, a)]
            ms_j = summands[(j, a)]
            grid = [[None] * len(ms) for _ in ms_j]
            for ci, m in enumerate(ms):
                if m not in ms_j:
                    continue
                src_hd, tgt_hd = hd[(i, a, m)], hd[(j, a, m)]
                glist = []
                for l in range(src_hd.gens):
                    f = src_hd.lift(l)
                    g = {}
                    for v in q.vertices:
                        pre = Matrix.identity(r, x.terms[m].gens(v)).kron(iota.mats[v])
                        g[v] = f[v].mul(pre)
                    glist.append(g)
                grid[ms_j.index(m)][ci] = tgt_hd.express_cols(glist)
            rdims = [hd[(j, a, m)].gens for m in ms_j]
            cdims = [hd[(i, a, m)].gens for m in ms]
            arrows[name] = _assemble(r, grid, rdims, cdims)
        terms[a] = Representation(q, r, fibers, arrows)

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
                    tgt_hd = hd[(i, a + 1, m)]
                    dy = y.diff(m + a)
                    glist = []
                    for l in range(src_hd.gens):
                        f = src_hd.lift(l)
                        glist.append({v: dy.mats[v].mul(f[v]) for v in q.vertices})
                    grid[ms_t.index(m)][ci] = tgt_hd.express_cols(glist)
                # pre-compose with the differential of x, sign (-1)^{a+1}
                if m - 1 in ms_t:
                    tgt_hd = hd[(i, a + 1, m - 1)]
                    dx = x.diff(m - 1)
                    glist = []
                    for l in range(src_hd.gens):
                        f = src_hd.lift(l)
                        g = {}
                        for v in q.vertices:
                            pre = dx.mats[v].kron(Matrix.identity(r, len(paths(q, i, v))))
                            comp = f[v].mul(pre)
                            g[v] = comp if a % 2 == 1 else comp.neg()
                        glist.append(g)
                    grid[ms_t.index(m - 1)][ci] = tgt_hd.express_cols(glist)
            rdims = [hd[(i, a + 1, m)].gens for m in ms_t]
            cdims = [hd[(i, a, m)].gens for m in ms]
            mats[i] = _assemble(r, grid, rdims, cdims)
        diffs[a] = mats
    cx = _complex(q, r, terms, diffs)
    cx.validate()
    return ChomData(cx, summands, hd, offsets, x, y)


def internal_hom(x: ComplexRQ, y: ComplexRQ) -> ComplexRQ:
    return chom_complex(x, y).complex


# ---------------------------------------------------------------------------
# evaluation against the unit and rigidity


def _unit_with_counit(q, ring):
    u = unit_complex(q, ring)
    if u.perfect:
        return u, _trusted(ComplexMorphism, u, u, {0: rep_mor_identity(u.terms[0])})
    return _resolution_with_counit(u)


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
            tgt_total = t.term(n).gens(i)
            out_cols = []
            for a, b in ps:
                ygens = y.terms[b].gens(i)
                for m in cu.summands[(i, a)]:
                    data = cu.hd[(i, a, m)]
                    if data.gens == 0 or ygens == 0:
                        continue
                    if m + a != 0:
                        out_cols.extend([(0, None)] * (data.gens * ygens))
                        continue
                    glist = []
                    for l in range(data.gens):
                        f = data.lift(l)
                        for z in range(ygens):
                            glist.append(_eval_image(q, r, x, y, paths, aug, f, i, a, b, m, z))
                    coeffs = ct.hd[(i, n, m)].express_cols(glist)
                    off = ct.offsets[(i, n, m)]
                    for cidx in range(coeffs.cols):
                        out_cols.append((off, tuple(coeffs.entries[w][cidx] for w in range(coeffs.rows))))
            cols = []
            for off, coeff in out_cols:
                col = [r.zero()] * tgt_total
                if coeff is not None:
                    for w, e in enumerate(coeff):
                        col[off + w] = e
                cols.append(col)
            mats[i] = Matrix(r, tgt_total, len(cols),
                             tuple(tuple(c[rr] for c in cols) for rr in range(tgt_total)))
        if n in s.terms:
            parts[n] = _trusted(RepMorphism, s.terms[n], t.term(n), mats)
    return ComplexMorphism(s, t, parts)


def _eval_image(q, r, x, y, paths, aug, f, i, a, b, m, z):
    """Image matrices of one generator f (x-degree m = -a) against y-gen z."""
    g = {}
    for v in q.vertices:
        aug_row = aug.part(0).mats[v]
        srow = aug_row.mul(f[v])  # 1 x (xgens * paths)
        xg = x.terms[m].gens(v)
        plist = paths(q, i, v)
        yg_v = y.terms[b].gens(v)
        cols = []
        for xi in range(xg):
            for pi, p in enumerate(plist):
                scal = srow.entries[0][xi * len(plist) + pi]
                act = y.terms[b].path_action(i, p)
                cols.append(tuple(r.mul(scal, act.entries[w][z]) for w in range(yg_v)))
        if (a * b) % 2 == 1:
            cols = [tuple(r.neg(e) for e in c) for c in cols]
        g[v] = Matrix(r, yg_v, len(cols), tuple(tuple(c[w] for c in cols) for w in range(yg_v)))
    return g


def evaluation_map(x: ComplexRQ, y: ComplexRQ) -> ComplexMorphism:
    """The canonical chom(x, U) tensor y -> chom(x, y) as a validated map."""
    if not x.perfect or not y.perfect:
        raise NotPerfect("evaluation map needs perfect inputs; resolve first")
    w, aug = _unit_with_counit(x.quiver, x.ring)
    cu = chom_complex(x, w)
    ct = chom_complex(x, y)
    return _eval_parts(cu, y, aug, ct)


def rigidity_report(x: ComplexRQ) -> dict:
    """Check evaluation cones against the unit, vertex units, and x itself."""
    q, r = x.quiver, x.ring
    xr = ensure_perfect(x)
    w, aug = _unit_with_counit(q, r)
    cu = chom_complex(xr, w)
    probes = [("U", w)]
    for j in q.vertices:
        probes.append((f"U({j})", ensure_perfect(stalk_complex(unit_restriction(q, r, (j,))))))
    probes.append(("x", xr))
    failures = []
    for label, y in probes:
        ct = chom_complex(xr, y)
        ev = _eval_parts(cu, y, aug, ct)
        if not is_acyclic(cone(ev)):
            failures.append(label)
    return {"rigid": not failures, "failures": failures}


def is_rigid(x: ComplexRQ) -> bool:
    return rigidity_report(x)["rigid"]


# ---------------------------------------------------------------------------
# chain maps between complexes (used by the brute-force closure search)


class ChainMapSpace:
    """Solution space of all degree-0 chain maps x -> y.

    Every term of both complexes needs literally free fibers (NotPerfect
    otherwise).  The constraint rows come degree by degree: naturality at
    each arrow, then commutation with the differential at each vertex.
    """

    __slots__ = ("source", "target", "kmat", "shapes", "offsets", "ring")

    def __init__(self, source: ComplexRQ, target: ComplexRQ):
        x, y = source, target
        if not all(rep.all_free() for c in (x, y) for rep in c.terms.values()):
            raise NotPerfect("chain-map spaces are computed between free-fiber complexes")
        q, r = x.quiver, x.ring
        self.source, self.target, self.ring = x, y, r
        degrees = sorted(set(x.degrees) | set(y.degrees))
        xt, yt = {d: x.term(d) for d in degrees}, {d: y.term(d) for d in degrees}
        shapes, offsets = {}, {}
        n = 0
        for d in degrees:
            for v in q.vertices:
                shapes[(d, v)] = (yt[d].gens(v), xt[d].gens(v))
                offsets[(d, v)] = n
                n += shapes[(d, v)][0] * shapes[(d, v)][1]
        rows = []
        for d in degrees:
            for name, s, t in q.arrows:
                rows += _naturality_rows(r, n, xt[d].arrows[name], yt[d].arrows[name],
                                         offsets[(d, t)], offsets[(d, s)])
            if d + 1 in degrees:
                dx, dy = x.diff(d), y.diff(d)
                for v in q.vertices:
                    rows += _naturality_rows(r, n, dx.mats[v], dy.mats[v], offsets[(d + 1, v)], offsets[(d, v)])
        c_mat = Matrix(r, len(rows), n, tuple(rows))
        self.kmat = kernel_basis(c_mat)
        self.shapes = shapes
        self.offsets = offsets

    @property
    def dim(self) -> int:
        return self.kmat.cols

    def build(self, coeffs) -> ComplexMorphism:
        """Chain map from coefficients against the kernel basis."""
        r = self.ring
        vec = [r.zero()] * self.kmat.rows
        for l, c in enumerate(coeffs):
            c = r.canon(c)
            if r.is_zero(c):
                continue
            for rr in range(self.kmat.rows):
                vec[rr] = r.add(vec[rr], r.mul(c, self.kmat.entries[rr][l]))
        parts = {}
        degrees = sorted(set(self.source.degrees) | set(self.target.degrees))
        for d in degrees:
            mats = {}
            for v in self.source.quiver.vertices:
                rows, cols = self.shapes[(d, v)]
                off = self.offsets[(d, v)]
                mats[v] = Matrix(r, rows, cols,
                                 tuple(tuple(vec[off + rr * cols + cc] for cc in range(cols))
                                       for rr in range(rows)))
            if d in self.source.terms:
                parts[d] = _trusted(RepMorphism, self.source.terms[d], self.target.term(d), mats)
        return _trusted(ComplexMorphism, self.source, self.target, parts)
