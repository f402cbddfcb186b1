"""Window-truncated complexes of projectives and their dg endomorphisms.

A TruncatedComplex lives in cohomological positions lo..hi (resolutions
use [-L, 0]) with differential d_i: position i -> i+1.  Chain maps carry
one module-map component per position.  EndCategory flattens each graded
Hom-space Hom^n(X, Y) = prod_i Hom(X_i, Y_{i+n}) to coefficient vectors
over per-position bases of module homomorphisms, which is where the
contraction data (i, p, H) and the transfer trees do their matrix work.

The degree convention matches the dg endomorphism algebra of a resolution:
(df)_i = d_{i+n} f_i - (-1)^n f_{i+1} d_i, and for a window [-L, 0] the
left edge -L is a truncation artifact: operator identities are asserted
on a trusted sub-window only.
"""

from .linalg import SparseMatrix, factorize, rref, solve_factored
from .quiver import (ModuleMap, Representation, pia2_indecomposables,
                     pia2_named_maps, a2_representations)
from . import symbols as sym


class TruncatedComplex:
    def __init__(self, name, reps, diffs, field):
        """reps: {pos: Representation}; diffs: {pos: ModuleMap pos -> pos+1}."""
        self.name = name
        self.field = field
        self.reps = dict(reps)
        self.diffs = dict(diffs)
        self.lo = min(self.reps)
        self.hi = max(self.reps)
        for i in range(self.lo, self.hi):
            if i not in self.reps:
                raise ValueError("positions must be contiguous")
        for i, d in self.diffs.items():
            if d.source is not self.reps[i] or d.target is not self.reps[i + 1]:
                raise ValueError(f"differential at {i} connects wrong representations")

    def positions(self):
        return range(self.lo, self.hi + 1)

    def d(self, i):
        return self.diffs.get(i)

    def check_d_squared(self):
        for i in range(self.lo, self.hi - 1):
            di, dn = self.diffs.get(i), self.diffs.get(i + 1)
            if di is not None and dn is not None and not dn.compose(di).is_zero():
                return False
        return True

    def homology_dims(self, positions=None):
        """{pos: dim ker/im} by exact rank computation."""
        out = {}
        for i in (positions if positions is not None else self.positions()):
            dim = sum(self.reps[i].dims.values())
            rk_out = self.diffs[i].rank() if i in self.diffs else 0
            rk_in = self.diffs[i - 1].rank() if i - 1 in self.diffs else 0
            out[i] = dim - rk_out - rk_in
        return out

    def __repr__(self):
        return f"Complex({self.name}, [{self.lo},{self.hi}])"


def one_position_complex(rep, name):
    return TruncatedComplex(name, {0: rep}, {}, rep.field)


def build_resolution(simple, window, field, reps=None, maps=None):
    """The 2-periodic projective resolution Q_i of S_i over the A2
    preprojective algebra, truncated to positions [-window, 0].

    Q_1 = [... -> P1 -(12)-> P2 -(21)-> P1] with P_1 in position 0, and
    labels alternating with period 2; Q_2 is the 1 <-> 2 mirror.
    """
    if window < 2:
        raise ValueError("window too small")
    if simple not in ("S1", "S2"):
        raise ValueError("resolutions are built for S1 and S2")
    reps = reps or pia2_indecomposables(field)
    maps = maps or pia2_named_maps(field, reps)
    top = 1 if simple == "S1" else 2

    def label(pos):
        # even positions carry P_top, odd carry the other projective
        return f"P{top}" if pos % 2 == 0 else f"P{3 - top}"

    cx_reps = {i: reps[label(i)] for i in range(-window, 1)}
    diffs = {}
    for i in range(-window, 0):
        # d: label(i) -> label(i+1) is the arrow out of label(i)
        src = label(i)
        diffs[i] = maps["(12)"] if src == "P1" else maps["(21)"]
    return TruncatedComplex(f"Q{top}", cx_reps, diffs, field)


class ChainMap:
    """A degree-n map of truncated complexes, one component per position."""

    def __init__(self, source, target, degree, components, cycle=False):
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {}
        for i, m in components.items():
            if m is None or m.is_zero():
                continue
            if i not in self.source.reps or i + degree not in self.target.reps:
                raise ValueError(f"component at {i} outside windows")
            if m.source is not self.source.reps[i] or m.target is not self.target.reps[i + degree]:
                raise ValueError(f"component at {i} connects wrong representations")
            self.components[i] = m
        self.cycle = cycle

    def component(self, i):
        return self.components.get(i)

    def is_zero(self):
        return not self.components

    def add(self, other):
        comps = dict(self.components)
        for i, m in other.components.items():
            comps[i] = comps[i].add(m) if i in comps else m
        return ChainMap(self.source, self.target, self.degree,
                        {i: m for i, m in comps.items() if not m.is_zero()})

    def scale(self, c):
        return ChainMap(self.source, self.target, self.degree,
                        {i: m.scale(c) for i, m in self.components.items()})


def dg_compose(g, f):
    """Componentwise composite g o f; degrees add."""
    if f.target is not g.source:
        raise ValueError("complex mismatch in dg_compose")
    comps = {}
    for i, fm in f.components.items():
        gm = g.components.get(i + f.degree)
        if gm is not None:
            m = gm.compose(fm)
            if not m.is_zero():
                comps[i] = m
    return ChainMap(f.source, g.target, f.degree + g.degree, comps)


def dg_differential(f):
    """(df)_i = d_{i+n} o f_i - (-1)^n f_{i+1} o d_i."""
    field = f.source.field
    n = f.degree
    sign = field.of(-1) if n % 2 else field.one
    comps = {}
    for i, m in f.components.items():
        dt = f.target.d(i + n)
        if dt is not None:
            comps[i] = dt.compose(m)
    for i, m in f.components.items():
        ds = f.source.d(i - 1)
        if ds is not None:
            add = m.compose(ds).scale(field.neg(sign))
            j = i - 1
            comps[j] = comps[j].add(add) if j in comps else add
    return ChainMap(f.source, f.target, n + 1,
                    {i: m for i, m in comps.items() if not m.is_zero()})


def identity_chain_map(cx):
    comps = {}
    for i in cx.positions():
        r = cx.reps[i]
        blocks = {v: SparseMatrix.identity(r.dims[v], cx.field) for v in r.dims}
        comps[i] = ModuleMap(r, r, blocks)
    return ChainMap(cx, cx, 0, comps, cycle=True)


def chain_map_to_json(cm, window=None):
    """Triplet-list export, tagged with window, degree and the resolution
    names; one block of (row, col, value) triplets per position and vertex."""
    comps = {}
    for i, m in sorted(cm.components.items()):
        comps[str(i)] = {
            str(v): [[r, c, str(val)] for (r, c), val in sorted(b.entries.items())]
            for v, b in m.blocks.items() if not b.is_zero()}
    return {"source": cm.source.name, "target": cm.target.name,
            "degree": cm.degree, "window": [cm.source.lo, cm.source.hi]
            if window is None else window,
            "field": cm.source.field.name, "components": comps}


# ---------------------------------------------------------------------------
# cones

def _direct_sum_rep(a, b, name):
    dims = {v: a.dims[v] + b.dims[v] for v in a.dims}
    field = a.field
    mats = {}
    for e, _s, _t in a.quiver.edges:
        ma, mb = a.mats[e], b.mats[e]
        ent = dict(ma.entries)
        sh_r, sh_c = ma.rows, ma.cols
        for (r, c), v in mb.entries.items():
            ent[(r + sh_r, c + sh_c)] = v
        s, t = a.quiver.start(e), a.quiver.tail(e)
        mats[e] = SparseMatrix(dims[t], dims[s], field, ent)
    return Representation(a.quiver, field, dims, mats, name)


def _block_map(src, tgt, tl, tr, bl, br, rows_split, cols_split):
    """Module map into/out of direct sums from four optional blocks."""
    field = src.field
    blocks = {}
    for v in src.dims:
        rows = tgt.dims[v]
        cols = src.dims[v]
        ent = {}
        for m, (ro, co) in ((tl, (0, 0)), (tr, (0, cols_split[v])),
                            (bl, (rows_split[v], 0)), (br, (rows_split[v], cols_split[v]))):
            if m is None:
                continue
            for (r, c), val in m.blocks[v].entries.items():
                ent[(r + ro, c + co)] = field.add(ent.get((r + ro, c + co), field.zero), val)
        blocks[v] = SparseMatrix(rows, cols, field, {k: v2 for k, v2 in ent.items()
                                                     if v2})
    return ModuleMap(src, tgt, blocks)


def cone(f):
    """Mapping cone of a degree-0 cycle f: X -> Y.

    Position i carries X_{i+1} (+) Y_i and the differential is the block
    matrix [[-d_X, 0], [f, d_Y]].
    """
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    if not dg_differential(f).is_zero():
        raise ValueError("cone needs a cycle")
    X, Y = f.source, f.target
    field = X.field
    lo = min(X.lo - 1, Y.lo)
    hi = max(X.hi - 1, Y.hi)
    zero_rep_cache = {}

    def rep_at(cx, i):
        if i in cx.reps:
            return cx.reps[i]
        key = (id(cx.reps[cx.lo].quiver),)
        if key not in zero_rep_cache:
            q = cx.reps[cx.lo].quiver
            zero_rep_cache[key] = Representation(q, field, {v: 0 for v in q.vertices},
                                                 name="0")
        return zero_rep_cache[key]

    reps = {}
    for i in range(lo, hi + 1):
        reps[i] = _direct_sum_rep(rep_at(X, i + 1), rep_at(Y, i), f"C{i}")
    diffs = {}
    for i in range(lo, hi):
        src, tgt = reps[i], reps[i + 1]
        xa, xb = rep_at(X, i + 1), rep_at(X, i + 2)
        ya, yb = rep_at(Y, i), rep_at(Y, i + 1)
        dX = X.d(i + 1) if (i + 1) in X.diffs else None
        dY = Y.d(i) if i in Y.diffs else None
        fc = f.component(i + 1)
        rows_split = {v: xb.dims[v] for v in xb.dims}
        cols_split = {v: xa.dims[v] for v in xa.dims}
        tl = dX.scale(field.of(-1)) if dX is not None else None
        blocks = _block_map(src, tgt,
                            _lift(tl, xa, xb), None,
                            _lift(fc, xa, yb), _lift(dY, ya, yb),
                            rows_split, cols_split)
        diffs[i] = blocks
    return TruncatedComplex(f"cone({X.name}->{Y.name})", reps, diffs, field)


def _lift(m, src, tgt):
    """Rebind a module map to equal-dimension rep objects (or pass None)."""
    if m is None:
        return None
    if m.source is src and m.target is tgt:
        return m
    return ModuleMap(src, tgt, m.blocks)


# ---------------------------------------------------------------------------
# the dg endomorphism category of a family of complexes

class EndCategory:
    """End*(M~) for a named family of truncated complexes.

    Flattens Hom^n(X, Y) to coefficient vectors over per-position bases of
    module homomorphisms and provides the differential and composition in
    those coordinates.  `window` is the truncation length L of the
    resolutions ([-L, 0]); 0 when no window was set.
    """

    window = 0

    def __init__(self, complexes, field):
        self.complexes = dict(complexes)
        self.field = field
        self._mod_basis = {}      # (repA name, repB name) -> [ModuleMap]
        self._mod_solver = {}     # (repA name, repB name) -> (slots, factors)
        self._flat = {}           # (src, tgt, deg) -> list[(pos, k)]
        self._flat_index = {}
        self._dmat = {}           # (src, tgt, deg) -> SparseMatrix
        self._comp_consts = {}    # structure constants for composition

    # -- module-level Hom spaces ------------------------------------------

    def mod_hom_basis(self, ra, rb):
        key = (ra.name, rb.name)
        if key in self._mod_basis:
            return self._mod_basis[key]
        q = ra.quiver
        field = self.field
        # unknowns: block entries phi_v, constraints: phi_t M(e) = N(e) phi_s
        slots = []
        offs = {}
        for v in q.vertices:
            offs[v] = len(slots)
            slots += [(v, r, c) for r in range(rb.dims[v]) for c in range(ra.dims[v])]
        rows = []
        for e, s, t in q.edges:
            Me, Ne = ra.mats[e], rb.mats[e]
            for r in range(rb.dims[t]):
                for c in range(ra.dims[s]):
                    row = {}
                    # (phi_t M)_rc = sum_k phi_t[r,k] M[k,c]
                    for k in range(ra.dims[t]):
                        v = Me.get(k, c)
                        if v:
                            idx = offs[t] + k + r * ra.dims[t]
                            row[idx] = field.add(row.get(idx, field.zero), v)
                    # -(N phi_s)_rc = -sum_k N[r,k] phi_s[k,c]
                    for k in range(rb.dims[s]):
                        v = Ne.get(r, k)
                        if v:
                            idx = offs[s] + c + k * ra.dims[s]
                            row[idx] = field.sub(row.get(idx, field.zero), v)
                    if row:
                        rows.append(row)
        mat = SparseMatrix(len(rows), len(slots), field,
                           {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})
        _rk, _piv, kernel, _t = rref(mat)
        basis = []
        for vec in kernel:
            blocks = {v: {} for v in q.vertices}
            for j, val in vec.items():
                v, r, c = slots[j]
                blocks[v][(r, c)] = val
            basis.append(ModuleMap(ra, rb, {
                v: SparseMatrix(rb.dims[v], ra.dims[v], field, blocks[v])
                for v in q.vertices}))
        self._mod_basis[key] = basis
        return basis

    def _coordinatize(self, ra, rb, mmap):
        """Coefficients of a module map in mod_hom_basis(ra, rb)."""
        key = (ra.name, rb.name)
        basis = self.mod_hom_basis(ra, rb)
        if not basis:
            if not mmap.is_zero():
                raise ValueError("map outside the (empty) hom space")
            return []
        if key not in self._mod_solver:
            cols = []
            for b in basis:
                cols.append(self._flatten_map(b))
            slots = sorted({s for col in cols for s in col})
            slot_index = {s: i for i, s in enumerate(slots)}
            mat = SparseMatrix(len(slots), len(basis), self.field,
                               {(slot_index[s], j): v for j, col in enumerate(cols)
                                for s, v in col.items()})
            self._mod_solver[key] = (slot_index, factorize(mat))
        slot_index, factors = self._mod_solver[key]
        target = {}
        flat = self._flatten_map(mmap)
        for s, v in flat.items():
            if s not in slot_index:
                raise ValueError("map outside the hom space span")
            target[slot_index[s]] = v
        solvec = solve_factored(factors, target)
        if solvec is None:
            raise ValueError("map is not in the hom-space span")
        return [(j, v) for j, v in sorted(solvec.items())]

    @staticmethod
    def _flatten_map(mmap):
        out = {}
        for v, block in mmap.blocks.items():
            for (r, c), val in block.entries.items():
                out[(v, r, c)] = val
        return out

    # -- flattened Hom complexes ------------------------------------------

    def flat_basis(self, src, tgt, deg):
        key = (src, tgt, deg)
        if key in self._flat:
            return self._flat[key]
        X, Y = self.complexes[src], self.complexes[tgt]
        basis = []
        for i in X.positions():
            j = i + deg
            if j < Y.lo or j > Y.hi:
                continue
            mb = self.mod_hom_basis(X.reps[i], Y.reps[j])
            basis += [(i, k) for k in range(len(mb))]
        self._flat[key] = basis
        self._flat_index[key] = {b: n for n, b in enumerate(basis)}
        return basis

    def flat_index(self, src, tgt, deg):
        self.flat_basis(src, tgt, deg)
        return self._flat_index[(src, tgt, deg)]

    def d_matrix(self, src, tgt, deg):
        """Matrix of d: Hom^deg -> Hom^{deg+1} in the flat bases."""
        key = (src, tgt, deg)
        if key in self._dmat:
            return self._dmat[key]
        field = self.field
        X, Y = self.complexes[src], self.complexes[tgt]
        dom = self.flat_basis(src, tgt, deg)
        cod_index = self.flat_index(src, tgt, deg + 1)
        sign = field.of(-1) if deg % 2 else field.one
        ent = {}
        for col, (i, k) in enumerate(dom):
            fm = self.mod_hom_basis(X.reps[i], Y.reps[i + deg])[k]
            dt = Y.d(i + deg)
            if dt is not None and i + deg + 1 <= Y.hi:
                m = dt.compose(fm)
                if not m.is_zero():
                    for j, v in self._coordinatize(X.reps[i], Y.reps[i + deg + 1], m):
                        r = cod_index[(i, j)]
                        ent[(r, col)] = field.add(ent.get((r, col), field.zero), v)
            ds = X.d(i - 1)
            if ds is not None:
                m = fm.compose(ds).scale(field.neg(sign))
                if not m.is_zero():
                    for j, v in self._coordinatize(X.reps[i - 1], Y.reps[i + deg], m):
                        r = cod_index[(i - 1, j)]
                        ent[(r, col)] = field.add(ent.get((r, col), field.zero), v)
        rows = len(self.flat_basis(src, tgt, deg + 1))
        mat = SparseMatrix(rows, len(dom), field,
                           {k: v for k, v in ent.items() if v})
        self._dmat[key] = mat
        return mat

    # -- elements ----------------------------------------------------------

    def zero_elem(self, src, tgt, deg):
        return HomElement(self, src, tgt, deg, {})

    def chain_map_from_elem(self, elem):
        X, Y = self.complexes[elem.src], self.complexes[elem.tgt]
        comps = {}
        for (i, k), v in elem.coeffs.items():
            mb = self.mod_hom_basis(X.reps[i], Y.reps[i + elem.deg])[k]
            add = mb.scale(v)
            comps[i] = comps[i].add(add) if i in comps else add
        return ChainMap(X, Y, elem.deg, comps)

    def compose(self, g, f):
        """g o f in flat coordinates."""
        if f.tgt != g.src:
            raise ValueError("complex mismatch")
        field = self.field
        X = self.complexes[f.src]
        Ymid = self.complexes[f.tgt]
        Z = self.complexes[g.tgt]
        deg = f.deg + g.deg
        out = {}
        for (i, k), vf in f.coeffs.items():
            for (i2, l), vg in g.coeffs.items():
                if i2 != i + f.deg:
                    continue
                consts = self._compose_consts(X.reps[i], Ymid.reps[i2], Z.reps[i2 + g.deg], l, k)
                for m, c in consts:
                    key = (i, m)
                    s = field.add(out.get(key, field.zero), field.mul(c, field.mul(vg, vf)))
                    if not s:
                        out.pop(key, None)
                    else:
                        out[key] = s
        return HomElement(self, f.src, g.tgt, deg, out)

    def _compose_consts(self, ra, rb, rc, l, k):
        key = (ra.name, rb.name, rc.name, l, k)
        if key not in self._comp_consts:
            fk = self.mod_hom_basis(ra, rb)[k]
            gl = self.mod_hom_basis(rb, rc)[l]
            m = gl.compose(fk)
            self._comp_consts[key] = (tuple(self._coordinatize(ra, rc, m))
                                      if not m.is_zero() else ())
        return self._comp_consts[key]

    def differential(self, elem):
        mat = self.d_matrix(elem.src, elem.tgt, elem.deg)
        index = self.flat_index(elem.src, elem.tgt, elem.deg)
        basis_out = self.flat_basis(elem.src, elem.tgt, elem.deg + 1)
        from .linalg import mat_vec
        vec = {index[b]: v for b, v in elem.coeffs.items()}
        img = mat_vec(mat, vec)
        return HomElement(self, elem.src, elem.tgt, elem.deg + 1,
                          {basis_out[r]: v for r, v in img.items()})

    def hom_homology_dims(self, src, tgt, degrees):
        """{deg: dim} of the flattened Hom-complex, exact via rref."""
        out = {}
        for n in degrees:
            dim = len(self.flat_basis(src, tgt, n))
            rk_out = rref(self.d_matrix(src, tgt, n))[0]
            rk_in = rref(self.d_matrix(src, tgt, n - 1))[0]
            out[n] = dim - rk_out - rk_in
        return out


class HomElement:
    """An element of Hom^deg(X, Y) as sparse coefficients over the flat basis."""

    __slots__ = ("cat", "src", "tgt", "deg", "coeffs")

    def __init__(self, cat, src, tgt, deg, coeffs):
        self.cat = cat
        self.src = src
        self.tgt = tgt
        self.deg = deg
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        if (self.src, self.tgt, self.deg) != (other.src, other.tgt, other.deg):
            raise ValueError("cannot add inhomogeneous elements")
        field = self.cat.field
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = field.add(out.get(k, field.zero), v)
            if not s:
                out.pop(k, None)
            else:
                out[k] = s
        return HomElement(self.cat, self.src, self.tgt, self.deg, out)

    def scale(self, c):
        field = self.cat.field
        if not c:
            return HomElement(self.cat, self.src, self.tgt, self.deg, {})
        return HomElement(self.cat, self.src, self.tgt, self.deg,
                          {k: field.mul(c, v) for k, v in self.coeffs.items()})

    def restrict(self, positions):
        """Zero out components whose source or target position is outside."""
        keep = {}
        for (i, k), v in self.coeffs.items():
            if i in positions and (i + self.deg) in positions:
                keep[(i, k)] = v
        return HomElement(self.cat, self.src, self.tgt, self.deg, keep)

    def eq_on(self, other, positions):
        return self.restrict(positions).coeffs == other.restrict(positions).coeffs

    def __repr__(self):
        return (f"HomElement({self.src}->{self.tgt}, deg {self.deg}, "
                f"{sorted(self.coeffs.items())})")


# ---------------------------------------------------------------------------
# the two built-in instances

def pia2_end_category(window, field):
    """End*(Q1 + P1 + P2 + Q2) for the A2 preprojective algebra."""
    reps = pia2_indecomposables(field)
    maps = pia2_named_maps(field, reps)
    q1 = build_resolution("S1", window, field, reps, maps)
    q2 = build_resolution("S2", window, field, reps, maps)
    cxs = {
        "S1": q1,
        "S2": q2,
        "P1": one_position_complex(reps["P1"], "P1"),
        "P2": one_position_complex(reps["P2"], "P2"),
    }
    cat = EndCategory(cxs, field)
    cat.window = window
    cat.trusted = range(-window + 2, -1)  # [-L+2, -2]
    cat.algebra = "pia2"
    return cat


def a2_end_category(field):
    """End*(Q + P + S2) for the A2 quiver: Q = [S2 -> P] resolves S1."""
    reps = a2_representations(field)
    one = SparseMatrix.identity(1, field)
    incl = ModuleMap(reps["S2"], reps["P"], {2: one}, "incl")
    assert incl.is_natural()
    q = TruncatedComplex("Q", {-1: reps["S2"], 0: reps["P"]}, {-1: incl}, field)
    cxs = {
        "S1": q,
        "P": one_position_complex(reps["P"], "P"),
        "S2": one_position_complex(reps["S2"], "S2"),
    }
    cat = EndCategory(cxs, field)
    cat.window = 1
    cat.trusted = range(-1, 1)
    cat.algebra = "a2"
    return cat


# ---------------------------------------------------------------------------
# canonical realizations for the preprojective instance

def realize_ext_symbol(cat, s):
    """The canonical cycle representing an Ext symbol, as a HomElement.

    Shift maps carry components sigma(i) = (-1)^{deg*(top-i)} so that the
    cycle equation holds over Q as well; the top component is always +1.
    """
    field = cat.field
    src, tgt = sym.ext_source(s), sym.ext_target(s)
    deg = sym.ext_degree(s)
    if cat.window < deg + 4:
        raise ValueError("window too small for this symbol")
    k = s[0]
    if k == "1":
        return _full_shift(cat, src, tgt, 0)
    if k == "u" or k == "g":
        return _full_shift(cat, src, tgt, deg)
    # j, p and the arrows have a single component at position 0
    basis = cat.mod_hom_basis(cat.complexes[src].reps[0], cat.complexes[tgt].reps[deg])
    if len(basis) != 1:
        raise ValueError(f"expected one-dimensional hom space for {s}")
    return HomElement(cat, src, tgt, 0, {(0, 0): field.one})


def _full_shift(cat, src, tgt, deg):
    field = cat.field
    X, Y = cat.complexes[src], cat.complexes[tgt]
    coeffs = {}
    top = min(X.hi, Y.hi - deg)
    for i in X.positions():
        if not (Y.lo <= i + deg <= Y.hi):
            continue
        mb = cat.mod_hom_basis(X.reps[i], Y.reps[i + deg])
        if len(mb) != 1:
            raise ValueError("shift map needs one-dimensional components")
        sign = field.one if (deg % 2 == 0 or (top - i) % 2 == 0) else field.of(-1)
        coeffs[(i, 0)] = sign
    return HomElement(cat, src, tgt, deg, coeffs)


_H_DEFINITION = None


def _h_defining_product(h):
    """The null-homotopic product whose H-image is h, per the homotopy
    tables (initial homotopies and their inductive extensions)."""
    _, kind, i, n = h
    o = sym.other(i)
    if kind == "sn":
        if n == 0:
            return (("p", i), ("j", i))
        return (sym.h_sym("sp", i, n), ("j", i))
    if kind == "ps":
        return (("j", i), sym.ext_g(o, n))
    if kind == "pn_t":
        if n == 0:
            return (("p", i), ("E", i))
        return (sym.h_sym("sp", i, n), ("E", i))
    if kind == "pn_s":
        return (("j", o), sym.ext_u(i, n + 1))
    if kind == "ss":
        return (sym.h_sym("pn_t", i, n - 1), ("j", o))
    if kind == "sp":
        return (sym.h_sym("pn_t", i, n - 1), ("E", o))
    raise ValueError(h)


def realize_h_symbol(cat, h, contraction=None):
    """Matrix realization of a homotopy symbol.

    Defined as H applied to its defining null-homotopic product, which
    reproduces the partial-identity diagrams exactly (all components +1
    over F2; over Q the back-substitution fixes the signs).
    """
    n = h[3]
    if cat.window < 2 * n + 6:
        raise ValueError("window too small for this homotopy symbol")
    c = contraction or tabulated_contraction(cat)
    a, b = _h_defining_product(h)
    ea = realize_h_symbol(cat, a, c) if sym.is_h(a) else realize_ext_symbol(cat, a)
    eb = realize_h_symbol(cat, b, c) if sym.is_h(b) else realize_ext_symbol(cat, b)
    return c.H(cat.compose(ea, eb))


# ---------------------------------------------------------------------------
# contraction data

class Contraction:
    """Common interface: i (include a class), p (project), H (homotopy)."""

    def __init__(self, cat):
        self.cat = cat

    def classes(self, src, tgt, deg):
        raise NotImplementedError

    def include(self, src, tgt, deg, name):
        raise NotImplementedError

    def project(self, elem):
        raise NotImplementedError

    def H(self, elem):
        raise NotImplementedError


class TabulatedContraction(Contraction):
    """The contraction of the preprojective instance dictated by the
    homotopy tables: i realizes the named basis cycles, p reads the
    coefficient at the top position of a class-carrying degree, and H
    back-substitutes the bidiagonal differential summing from the top.

    Everything p and H need besides their argument depends only on the hom
    pair and the degree, so it is derived once per (src, tgt, deg): the
    first class and its top key for p, and for H a plan of back-substitution
    steps with the pivots already inverted.

    No degree that carries a class has a plan: d does not vanish on it, so
    H is zero there, and where H back-substitutes, i(p(x)) = 0.  _plan
    raises if that ever fails.
    """

    mode = "paper"

    def __init__(self, cat):
        super().__init__(cat)
        self._tops = {}     # (src, tgt, deg) -> (first class, (top, 0)) or None
        self._plans = {}    # (src, tgt, deg) -> back-substitution steps or None

    def classes(self, src, tgt, deg):
        return [s for s in sym.hom_basis(src, tgt, max(deg, 0)) if sym.ext_degree(s) == deg]

    def include(self, src, tgt, deg, name):
        assert sym.ext_source(name) == src and sym.ext_target(name) == tgt
        return realize_ext_symbol(self.cat, name)

    def _top(self, src, tgt, deg):
        """(first class, key of the top position) of a class-carrying
        degree, None where p is zero."""
        key = (src, tgt, deg)
        if key not in self._tops:
            cls = self.classes(src, tgt, deg)
            basis = self.cat.flat_basis(src, tgt, deg)
            self._tops[key] = (cls[0], (max(i for i, _k in basis), 0)) \
                if cls and basis else None
        return self._tops[key]

    def project(self, elem):
        top = self._top(elem.src, elem.tgt, elem.deg)
        if top is None:
            return {}
        v = elem.coeffs.get(top[1])
        if v is None:
            return {}
        return {top[0]: v}

    def _plan(self, src, tgt, n):
        """The steps that solve d(c) = t on Hom^{n-1} downward from the top
        position, or None where H is zero on Hom^n (d does not vanish there,
        or nothing in degree n-1 has a boundary).

        Row i of d couples columns i and i+1 (each hom component is
        one-dimensional on this instance).  A step (j, key, inv, b) sets
        c[j] = (t[key] - b c[j+1]) inv; b is zero where no column j+1 term
        enters, and key is (j-1, 0) where column j is seen only by the row
        below.  Columns that no step covers stay zero."""
        key = (src, tgt, n)
        if key in self._plans:
            return self._plans[key]
        cat, field = self.cat, self.cat.field
        zero = field.zero
        steps = None
        dmat = cat.d_matrix(src, tgt, n - 1) \
            if cat.d_matrix(src, tgt, n).is_zero() else None
        if dmat is not None and not dmat.is_zero():
            if self._top(src, tgt, n) is not None:
                raise ValueError(f"class in a degree where d vanishes: {key}")
            row_index = cat.flat_index(src, tgt, n)
            col_index = cat.flat_index(src, tgt, n - 1)

            def entry(rp, cp):
                r, c = row_index.get((rp, 0)), col_index.get((cp, 0))
                return zero if r is None or c is None else dmat.get(r, c)

            col_pos = {i for i, _k in cat.flat_basis(src, tgt, n - 1)}
            steps = []
            for j in sorted(col_pos, reverse=True):
                a = entry(j, j)
                if a:
                    b = entry(j, j + 1)
                    steps.append((j, (j, 0), field.div(field.one, a), b))
                    continue
                # the row below is the only one seeing this column
                a2 = entry(j - 1, j)
                if a2 and (j - 1) not in col_pos:
                    steps.append((j, (j - 1, 0), field.div(field.one, a2), zero))
            steps = tuple(steps)
        self._plans[key] = steps
        return steps

    def H(self, elem):
        """Zero unless d vanishes on the degree; otherwise solve
        d(c) = elem - i(p(elem)) downward from the top position (p is zero
        on every degree with a plan)."""
        cat = self.cat
        field = cat.field
        zero = field.zero
        src, tgt, n = elem.src, elem.tgt, elem.deg
        steps = self._plan(src, tgt, n)
        if steps is None:
            return cat.zero_elem(src, tgt, n - 1)
        t = elem.coeffs
        c = {}
        for j, k, inv, b in steps:
            acc = t.get(k, zero)
            if b:
                prev = c.get(j + 1)
                if prev is not None:
                    acc = field.sub(acc, field.mul(b, prev))
            val = field.mul(acc, inv)
            if val:
                c[j] = val
        return HomElement(cat, src, tgt, n - 1, {(i, 0): v for i, v in c.items()})


class GenericContraction(Contraction):
    """Standard rref-based contraction of a windowed Hom-complex.

    Per degree splits chains = boundaries + chosen class representatives +
    a complement mapped isomorphically onto the next boundaries; H inverts
    d on boundaries and kills the rest, which enforces Hi = 0, pH = 0 and
    H^2 = 0 on the nose.

    Truncating a two-sided-infinite complex on the left creates spurious
    rank-count classes in a few degrees (their true killers live beyond
    the cut).  Extension candidates are taken left-edge first, so those
    spurious representatives localize at untrusted positions; when the
    expected class list for a degree is shorter than the computed one the
    surplus is treated as part of the complement by the projection, which
    keeps the contraction identities exact on the trusted sub-window.
    """

    mode = "generic"

    def __init__(self, cat, deg_lo, deg_hi, class_names=None):
        super().__init__(cat)
        self.deg_lo = deg_lo
        self.deg_hi = deg_hi
        self.class_names = class_names  # optional {(src,tgt,deg): [names]}
        self._split = {}

    def _decompose(self, src, tgt):
        key = (src, tgt)
        if key in self._split:
            return self._split[key]
        cat, field = self.cat, self.cat.field
        data = {}
        w_prev = {}
        for n in range(self.deg_lo, self.deg_hi + 1):
            basis = cat.flat_basis(src, tgt, n)
            dim = len(basis)
            dmat = cat.d_matrix(src, tgt, n)
            _rank, pivots, kernel, _t = rref(dmat)
            # complement of the kernel: unit vectors at pivot columns
            W = [{j: field.one} for j in pivots]
            # boundaries: d of the previous complement
            B = []
            for w in w_prev.get(n - 1, []):
                from .linalg import mat_vec
                B.append(mat_vec(cat.d_matrix(src, tgt, n - 1), w))
            # class representatives: extend B to a basis of the kernel,
            # taking left-localized candidates first
            span = _Span(dim, field)
            for b in B:
                span.add(b)
            R = []
            for z in sorted(kernel, key=lambda v: max(basis[j][0] for j in v)):
                if span.add(dict(z)):
                    R.append(dict(z))
            expected = None if self.class_names is None else \
                self.class_names.get((src, tgt, n))
            if expected is None:
                n_true = len(R)
            else:
                n_true = len(expected)
                if n_true > len(R):
                    raise ValueError(f"missing classes at {(src, tgt, n)}")
                if 0 < n_true < len(R):
                    raise ValueError(
                        f"cannot separate classes from edge artifacts at "
                        f"{(src, tgt, n)}")
            data[n] = {"B": B, "R": R, "W": W, "basis": basis,
                       "n_true": n_true}
            w_prev[n] = W
        # per-degree solver for coordinates in [B | R | W]
        for n, dd in data.items():
            cols = dd["B"] + dd["R"] + dd["W"]
            dim = len(dd["basis"])
            mat = SparseMatrix(dim, len(cols), field,
                               {(r, j): v for j, col in enumerate(cols)
                                for r, v in col.items()})
            dd["solver"] = mat
        self._split[key] = data
        return data

    def classes(self, src, tgt, deg):
        data = self._decompose(src, tgt)
        if deg not in data:
            return []
        names = None if self.class_names is None else \
            self.class_names.get((src, tgt, deg))
        if names is not None:
            return list(names)
        return [f"e({src}->{tgt})^{deg}_{k}"
                for k in range(data[deg]["n_true"])]

    def include(self, src, tgt, deg, name):
        data = self._decompose(src, tgt)[deg]
        k = self.classes(src, tgt, deg).index(name)
        basis = data["basis"]
        return HomElement(self.cat, src, tgt, deg,
                          {basis[r]: v for r, v in data["R"][k].items()})

    def _coords(self, elem):
        data = self._decompose(elem.src, elem.tgt)[elem.deg]
        index = self.cat.flat_index(elem.src, elem.tgt, elem.deg)
        target = {index[b]: v for b, v in elem.coeffs.items()}
        factors = data.get("factors")
        if factors is None:
            # factored once, on first use: most degrees are never solved in
            factors = data["factors"] = factorize(data["solver"])
        out = solve_factored(factors, target)
        if out is None:
            raise ValueError("decomposition failed")
        return data, out

    def project(self, elem):
        if elem.deg not in range(self.deg_lo, self.deg_hi + 1):
            return {}
        data, coords = self._coords(elem)
        nB = len(data["B"])
        names = self.classes(elem.src, elem.tgt, elem.deg)
        out = {}
        for k, name in enumerate(names):
            v = coords.get(nB + k)
            if v:
                out[name] = v
        return out

    def H(self, elem):
        """Inverse of d on boundaries, zero on classes and the complement."""
        if elem.is_zero() or elem.deg - 1 < self.deg_lo or elem.deg > self.deg_hi:
            return self.cat.zero_elem(elem.src, elem.tgt, elem.deg - 1)
        data, coords = self._coords(elem)
        nB = len(data["B"])
        prev = self._decompose(elem.src, elem.tgt)[elem.deg - 1]
        basis_prev = prev["basis"]
        field = self.cat.field
        out = {}
        for k in range(nB):
            v = coords.get(k)
            if not v:
                continue
            w = prev["W"][k]
            for r, val in w.items():
                key = basis_prev[r]
                s = field.add(out.get(key, field.zero), field.mul(v, val))
                if not s:
                    out.pop(key, None)
                else:
                    out[key] = s
        return HomElement(self.cat, elem.src, elem.tgt, elem.deg - 1, out)


class _Span:
    """Incremental span with exact elimination; add returns True if new."""

    def __init__(self, dim, field):
        self.dim = dim
        self.field = field
        self.rows = {}  # pivot index -> dict-vector with 1 at pivot

    def add(self, vec):
        f = self.field
        v = dict(vec)
        while v:
            piv = min(v)
            if piv in self.rows:
                coeff = v[piv]
                for j, w in self.rows[piv].items():
                    s = f.sub(v.get(j, f.zero), f.mul(coeff, w))
                    if not s:
                        v.pop(j, None)
                    else:
                        v[j] = s
            else:
                inv = f.div(f.one, v[piv])
                self.rows[piv] = {j: f.mul(inv, w) for j, w in v.items()}
                return True
        return False


def contraction_audit(cat, con):
    """Matrix audit of pi = 1, dH + Hd = 1 - ip and H^2 = 0 on the trusted
    sub-window, on every hom pair and degree |n| <= 8.

    "checked" counts the cases examined: each class (pi = 1) and each flat
    basis element inside the trusted sub-window (the other two identities).
    An audit that examined nothing reports "fail"."""
    field = cat.field
    trusted = set(cat.trusted)
    violations = []
    checked = 0
    names = sorted(cat.complexes)
    for src in names:
        for tgt in names:
            for n in range(-8, 9):
                for name in con.classes(src, tgt, n):
                    checked += 1
                    inc = con.include(src, tgt, n, name)
                    pr = con.project(inc)
                    if pr != {name: field.one}:
                        violations.append({"tuple": [src, tgt, n, "pi=1"],
                                           "expected": "1", "got": str(pr)})
                for b in cat.flat_basis(src, tgt, n):
                    if b[0] not in trusted or b[0] + n not in trusted:
                        continue
                    checked += 1
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    hx = con.H(x)
                    lhs = cat.differential(hx).add(con.H(cat.differential(x)))
                    rhs = x
                    for name, c in con.project(x).items():
                        rhs = rhs.add(con.include(src, tgt, n, name).scale(field.neg(c)))
                    if not lhs.eq_on(rhs, trusted):
                        violations.append({"tuple": [src, tgt, n, list(b)],
                                           "expected": "dH+Hd = 1-ip", "got": "mismatch"})
                    if not con.H(hx).restrict(trusted).is_zero():
                        violations.append({"tuple": [src, tgt, n, list(b)],
                                           "expected": "H^2 = 0", "got": "nonzero"})
    return {"check": "contraction",
            "status": "pass" if checked and not violations else "fail",
            "violations": violations, "checked": checked}


def tabulated_contraction(cat):
    if getattr(cat, "algebra", None) != "pia2":
        raise ValueError("the tabulated homotopies exist for the preprojective instance only")
    if getattr(cat, "_tabulated_contraction", None) is None:
        cat._tabulated_contraction = TabulatedContraction(cat)
    return cat._tabulated_contraction


def generic_contraction(cat, deg_lo=None, deg_hi=None, class_names=None):
    if deg_lo is None:
        deg_lo = -cat.window - 1
    if deg_hi is None:
        deg_hi = cat.window + 1
    if class_names is None and getattr(cat, "algebra", None) == "pia2":
        # degrees near the top of the window cannot carry faithful class
        # representatives; leave them auto-named
        class_names = pia2_class_names(deg_lo, min(deg_hi, cat.window - 4))
    return GenericContraction(cat, deg_lo, deg_hi, class_names)


def pia2_class_names(deg_lo, deg_hi):
    """Expected Ext classes per hom pair and degree, named by symbol."""
    out = {}
    for src in ("S1", "S2", "P1", "P2"):
        for tgt in ("S1", "S2", "P1", "P2"):
            basis = sym.hom_basis(src, tgt, max(deg_hi, 0))
            for n in range(deg_lo, deg_hi + 1):
                out[(src, tgt, n)] = [s for s in basis if sym.ext_degree(s) == n]
    return out


def build_contraction(window, mode, field, algebra="pia2"):
    """ContractionData for the preprojective (or A2) dg category."""
    if algebra == "pia2":
        if window < 8:
            raise ValueError("window too small")
        cat = pia2_end_category(window, field)
        if mode == "paper":
            return cat, tabulated_contraction(cat)
        if mode == "generic":
            return cat, generic_contraction(cat)
        raise ValueError(f"unknown contraction mode {mode!r}")
    if algebra == "a2":
        cat = a2_end_category(field)
        names = a2_class_names()
        return cat, generic_contraction(cat, -4, 4, names)
    raise ValueError(f"unknown algebra {algebra!r}")


def a2_class_names():
    """Ext classes of S1 + P + S2 over A2, named by the triangle they form."""
    return {
        ("S1", "S1", 0): ["1_S1"], ("P", "P", 0): ["1_P"], ("S2", "S2", 0): ["1_S2"],
        ("S2", "P", 0): ["f"],     # the inclusion S2 -> P
        ("P", "S1", 0): ["g"],     # the projection P -> S1
        ("S1", "S2", 1): ["h"],    # the connecting class, degree 1
    }
