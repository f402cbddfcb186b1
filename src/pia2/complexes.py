"""Window-truncated complexes of projectives and their dg endomorphisms.

A TruncatedComplex lives in cohomological positions lo..hi (resolutions
use [-L, 0]) with differential d_i: position i -> i+1.  EndCategory
flattens each graded Hom-space Hom^n(X, Y) = prod_i Hom(X_i, Y_{i+n}) to
scalars over positions, which is where the contraction data (i, p, H)
and the transfer trees do their matrix work.  Each Hom(X_i, Y_{i+n}) is
zero or spanned by one module map, so a flat coordinate is a position
and an element is {position: scalar}; `mod_hom_basis` is the one place
that decides this, and it refuses a space of dimension 2 or more.
Chain maps are EndCategory elements (HomElement).
The basis map comes from the kernel vector of the naturality equations,
so it is one at its free slot: the coordinate of a module map is its
entry there, and a map that entry does not give back is outside the
span (ValueError).

The degree convention matches the dg endomorphism algebra of a resolution:
(df)_i = d_{i+n} f_i - (-1)^n f_{i+1} d_i, and for a window [-L, 0] the
left edge -L is a truncation artifact: operator identities are asserted
on a trusted sub-window only.

The Hom differential is composition with each complex's own differential,
d(f) = d_Y o f - (-1)^n f o d_X, read off the same composition constants
as `compose` (the coordinate of each product of two module-hom basis
maps): each complex's differential is put in module-hom coordinates once,
so a column of d is a sum of stored constants.  The constants, like the
module-hom bases, are keyed by representation names, which must
therefore be unique within a category.

Each Hom differential is stored once, by column (`d_columns`): applying
d sums the columns at its input's support, so a call costs the size of
the input and its image, not of the window.  `d_matrix` builds the
matrix from the columns for a row reduction.  The tabulated H likewise
walks only the back-substitution steps from its input's top position
down to where nothing is left to carry below the lowest one.

A category is built with its instance facts (window, trusted sub-window,
algebra), and a contraction from its category alone, which it carries as
`con.cat` for the audit and the matrix backend.
"""

from .linalg import SparseMatrix, mat_vec, rref
from .quiver import (ModuleMap, pia2_indecomposables, pia2_named_maps,
                     a2_representations)
from . import symbols as sym
from .ainf import _report


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


# ---------------------------------------------------------------------------
# the dg endomorphism category of a family of complexes

class EndCategory:
    """End*(M~) for a named family of truncated complexes.

    Flattens Hom^n(X, Y) to scalars over the positions i where
    Hom(X_i, Y_{i+n}) is nonzero, each scaling that space's one module map
    (`mod_hom_basis`, where one map per position is decided), and provides
    the differential (stored by column) and composition in those
    coordinates.  `window` is the truncation
    length L of the resolutions ([-L, 0]), `trusted` the positions the
    contraction audit reads and `algebra` the built-in instance ("pia2",
    "a2", or None), which decides the contractions it has.
    """

    def __init__(self, complexes, field, window=0, trusted=(), algebra=None):
        self.complexes = dict(complexes)
        self.field = field
        self.window = window
        self.trusted = trusted
        self.algebra = algebra
        self._mod_basis = {}      # (repA name, repB name) -> (map, free slot)
        self._flat = {}           # (src, tgt, deg) -> [pos]
        self._flat_index = {}
        self._dcols = {}          # (src, tgt, deg) -> d_columns
        self._comp_consts = {}    # structure constants for composition
        self._dcoords = {}        # complex name -> {pos: coordinates of d}

    # -- module-level Hom spaces ------------------------------------------

    def mod_hom_basis(self, ra, rb):
        """The module map spanning Hom(ra, rb), or None where that space is
        zero.  This is where a flat coordinate is decided to carry one map
        per position: a space of dimension 2 or more raises ValueError."""
        key = (ra.name, rb.name)
        if key in self._mod_basis:
            return self._mod_basis[key][0]
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
                            field.accumulate(row, offs[t] + k + r * ra.dims[t], v)
                    # -(N phi_s)_rc = -sum_k N[r,k] phi_s[k,c]
                    for k in range(rb.dims[s]):
                        v = Ne.get(r, k)
                        if v:
                            field.accumulate(row, offs[s] + c + k * ra.dims[s],
                                             field.neg(v))
                    if row:
                        rows.append(row)
        mat = SparseMatrix(len(rows), len(slots), field,
                           {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})
        _rk, piv, kernel = rref(mat)
        if len(kernel) > 1:
            raise ValueError(f"Hom({ra.name}, {rb.name}) has dimension "
                             f"{len(kernel)}: a flat coordinate holds one "
                             f"module map per position")
        basis = free = None
        if kernel:
            # the kernel vector is one at the free column, its free slot
            free = slots[next(j for j in range(len(slots)) if j not in piv)]
            blocks = {v: {} for v in q.vertices}
            for j, val in kernel[0].items():
                v, r, c = slots[j]
                blocks[v][(r, c)] = val
            basis = ModuleMap(ra, rb, {
                v: SparseMatrix(rb.dims[v], ra.dims[v], field, blocks[v])
                for v in q.vertices})
        self._mod_basis[key] = (basis, free)
        return basis

    def _coordinatize(self, ra, rb, mmap):
        """The coordinate of a module map over mod_hom_basis(ra, rb): its
        entry at the basis map's free slot, where that map is one (zero
        where Hom(ra, rb) is).  A map outside the span raises ValueError."""
        basis = self.mod_hom_basis(ra, rb)
        if basis is None:
            coord, span = self.field.zero, ModuleMap(ra, rb, {})
        else:
            v, r, c = self._mod_basis[(ra.name, rb.name)][1]
            coord = mmap.blocks[v].get(r, c)
            span = basis.scale(coord)
        if span.blocks != mmap.blocks:
            raise ValueError("map is not in the hom-space span")
        return coord

    # -- flattened Hom complexes ------------------------------------------

    def flat_basis(self, src, tgt, deg):
        key = (src, tgt, deg)
        if key in self._flat:
            return self._flat[key]
        X, Y = self.complexes[src], self.complexes[tgt]
        basis = [i for i in X.positions() if Y.lo <= i + deg <= Y.hi
                 and self.mod_hom_basis(X.reps[i], Y.reps[i + deg]) is not None]
        self._flat[key] = basis
        self._flat_index[key] = {b: n for n, b in enumerate(basis)}
        return basis

    def flat_index(self, src, tgt, deg):
        self.flat_basis(src, tgt, deg)
        return self._flat_index[(src, tgt, deg)]

    def _d_coords(self, cx):
        """{pos: c}: the complex's differential at each position is c times
        mod_hom_basis(X_pos, X_pos+1), computed once."""
        if cx not in self._dcoords:
            X = self.complexes[cx]
            self._dcoords[cx] = {
                i: self._coordinatize(X.reps[i], X.reps[i + 1], d)
                for i, d in X.diffs.items()}
        return self._dcoords[cx]

    def d_columns(self, src, tgt, deg):
        """The one stored form of d: Hom^deg -> Hom^{deg+1}, by column:
        {position of Hom^deg: (row position, v, row position, v, ...)} over
        the nonzero columns.  Computed on first use.

        d(f) = d_Y o f - (-1)^deg f o d_X, read off the composition
        constants: column i is c consts(X_i, Y_{i+deg}, Y_{i+deg+1}) at
        row i, c the coordinate of d_Y at i + deg, plus
        -(-1)^deg c' consts(X_{i-1}, X_i, Y_{i+deg}) at row i - 1, c' that
        of d_X at i - 1."""
        key = (src, tgt, deg)
        cols = self._dcols.get(key)
        if cols is not None:
            return cols
        field = self.field
        X, Y = self.complexes[src], self.complexes[tgt]
        dX, dY = self._d_coords(src), self._d_coords(tgt)
        minus_sign = field.neg(field.sign(deg))
        cols = {}
        for i in self.flat_basis(src, tgt, deg):
            j = i + deg
            out = {}
            # d_Y o f has its component at position i
            c = dY.get(j)
            if c:
                self._add_product(out, i, X.reps[i], Y.reps[j], Y.reps[j + 1], c)
            # -(-1)^deg f o d_X has its component at position i - 1
            c = dX.get(i - 1)
            if c:
                self._add_product(out, i - 1, X.reps[i - 1], X.reps[i],
                                  Y.reps[j], field.mul(minus_sign, c))
            if out:
                col = []
                for r, v in out.items():
                    col += r, v
                cols[i] = tuple(col)
        self._dcols[key] = cols
        return cols

    def d_matrix(self, src, tgt, deg):
        """d: Hom^deg -> Hom^{deg+1} as a matrix in the flat bases, built
        from d_columns on each call (for a row reduction)."""
        rows = self.flat_index(src, tgt, deg + 1)
        cols = self.flat_index(src, tgt, deg)
        ent = {}
        for b, col in self.d_columns(src, tgt, deg).items():
            c = cols[b]
            it = iter(col)
            for r, v in zip(it, it):
                ent[(rows[r], c)] = v
        return SparseMatrix(len(rows), len(cols), self.field, ent)

    # -- elements ----------------------------------------------------------

    def zero_elem(self, src, tgt, deg):
        return HomElement(self, src, tgt, deg, {})

    def compose(self, g, f):
        """g o f in flat coordinates."""
        if f.tgt != g.src:
            raise ValueError("complex mismatch")
        field = self.field
        X = self.complexes[f.src]
        Ymid = self.complexes[f.tgt]
        Z = self.complexes[g.tgt]
        gc = g.coeffs
        out = {}
        for i, vf in f.coeffs.items():
            i2 = i + f.deg
            vg = gc.get(i2)
            if vg is not None:
                self._add_product(out, i, X.reps[i], Ymid.reps[i2],
                                  Z.reps[i2 + g.deg], field.mul(vg, vf))
        return HomElement(self, f.src, g.tgt, f.deg + g.deg, out)

    def _add_product(self, out, pos, ra, rb, rc, coeff):
        """out[pos] += coeff * c, c the coordinate of basis(rb, rc) o
        basis(ra, rb): the one place where a product of two module-hom
        basis maps enters flat coordinates."""
        c = self._compose_consts(ra, rb, rc)
        if c:
            field = self.field
            field.accumulate(out, pos, field.mul(c, coeff))

    def _compose_consts(self, ra, rb, rc):
        key = (ra.name, rb.name, rc.name)
        if key not in self._comp_consts:
            m = self.mod_hom_basis(rb, rc).compose(self.mod_hom_basis(ra, rb))
            self._comp_consts[key] = (self._coordinatize(ra, rc, m)
                                      if not m.is_zero() else self.field.zero)
        return self._comp_consts[key]

    def differential(self, elem):
        """d(elem): the sum of the columns of d at elem's support."""
        field = self.field
        cols = self.d_columns(elem.src, elem.tgt, elem.deg)
        out = {}
        for b, x in elem.coeffs.items():
            col = cols.get(b)
            if col is not None:
                it = iter(col)
                for r, v in zip(it, it):
                    field.accumulate(out, r, field.mul(v, x))
        return HomElement(self, elem.src, elem.tgt, elem.deg + 1, out)


class HomElement:
    """An element of Hom^deg(X, Y) as {position: scalar} over the flat
    basis: `coeffs` is the dict its producer built, which holds no zero
    value, stored as given (no caller mutates it afterwards)."""

    __slots__ = ("cat", "src", "tgt", "deg", "coeffs")

    def __init__(self, cat, src, tgt, deg, coeffs):
        self.cat = cat
        self.src = src
        self.tgt = tgt
        self.deg = deg
        self.coeffs = coeffs

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        if (self.src, self.tgt, self.deg) != (other.src, other.tgt, other.deg):
            raise ValueError("cannot add inhomogeneous elements")
        field = self.cat.field
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            field.accumulate(out, k, v)
        return HomElement(self.cat, self.src, self.tgt, self.deg, out)

    def scale(self, c):
        """self times c, a nonzero scalar: no coefficient becomes zero."""
        field = self.cat.field
        return HomElement(self.cat, self.src, self.tgt, self.deg,
                          {k: field.mul(c, v) for k, v in self.coeffs.items()})

    def eq_on(self, other, positions):
        """Do the two agree at every position whose source and target both
        lie in `positions`?  Compared in place."""
        a, b, deg = self.coeffs, other.coeffs, self.deg
        return all(b.get(i) == v for i, v in a.items()
                   if i in positions and i + deg in positions) and \
            all(i in a for i in b if i in positions and i + deg in positions)

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
    return EndCategory(cxs, field, window=window,
                       trusted=range(-window + 2, -1),  # [-L+2, -2]
                       algebra="pia2")


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
    return EndCategory(cxs, field, window=1, trusted=range(-1, 1), algebra="a2")


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
    if cat.mod_hom_basis(cat.complexes[src].reps[0],
                         cat.complexes[tgt].reps[deg]) is None:
        raise ValueError(f"zero hom space for {s}")
    return HomElement(cat, src, tgt, 0, {0: field.one})


def _full_shift(cat, src, tgt, deg):
    field = cat.field
    X, Y = cat.complexes[src], cat.complexes[tgt]
    coeffs = {}
    top = min(X.hi, Y.hi - deg)
    for i in X.positions():
        if not (Y.lo <= i + deg <= Y.hi):
            continue
        if cat.mod_hom_basis(X.reps[i], Y.reps[i + deg]) is None:
            raise ValueError("shift map needs nonzero components")
        coeffs[i] = field.sign(deg * (top - i))
    return HomElement(cat, src, tgt, deg, coeffs)


# ---------------------------------------------------------------------------
# contraction data: both kinds offer classes, include (i), project (p), H

class TabulatedContraction:
    """The contraction of the preprojective instance dictated by the
    homotopy tables: i realizes the named basis cycles, p reads the
    coefficient at the top position of a class-carrying degree, and H
    back-substitutes the bidiagonal differential summing from the top.

    Everything i, p and H need besides their argument depends only on the
    class or on the hom pair and the degree, so it is derived once: each
    class's realized cycle for i, kept by name, and per (src, tgt, deg)
    the first class and its top position for p, and for H a plan of
    back-substitution steps with the pivots already inverted.  Every key
    is a position: each hom component is zero or one-dimensional, as
    `EndCategory.mod_hom_basis` guarantees.

    No degree that carries a class has a plan: d does not vanish on it, so
    H is zero there, and where H back-substitutes, i(p(x)) = 0.  _plan
    raises if that ever fails.
    """

    mode = "paper"

    def __init__(self, cat):
        self.cat = cat
        self._included = {}  # class name -> its realized cycle
        self._tops = {}     # (src, tgt, deg) -> (first class, top position) or None
        self._plans = {}    # (src, tgt, deg) -> back-substitution steps or None

    def classes(self, src, tgt, deg):
        return sym.classes(src, tgt, deg)

    def include(self, src, tgt, deg, name):
        """The class's canonical cycle, realized on first use and shared
        from then on (no caller mutates a HomElement's coefficients)."""
        elem = self._included.get(name)
        if elem is None:
            e, _x, _y, _d = sym.SYMBOLS[name]
            elem = self._included[name] = realize_ext_symbol(self.cat, e)
        assert (elem.src, elem.tgt) == (src, tgt)
        return elem

    def _top(self, src, tgt, deg):
        """(first class, top position) of a class-carrying degree, None
        where p is zero."""
        key = (src, tgt, deg)
        if key not in self._tops:
            cls = self.classes(src, tgt, deg)
            basis = self.cat.flat_basis(src, tgt, deg)
            self._tops[key] = (cls[0], max(basis)) if cls and basis else None
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
        """(steps, first) solving d(c) = t on Hom^{n-1} downward from the
        top position, or None where H is zero on Hom^n (d does not vanish
        there, or nothing in degree n-1 has a boundary).

        Row i of d couples columns i and i+1.  A step (j, row, inv, b) sets
        c[j] = (t[row] - b c[j+1]) inv; b is zero where no column j+1 term
        enters, and row is j-1 where column j is seen only by the row
        below.  Columns that no step covers stay zero.  first[p] is the
        index of the first step that can see position p of Hom^n: the
        steps above it read t only above p."""
        key = (src, tgt, n)
        if key in self._plans:
            return self._plans[key]
        cat, field = self.cat, self.cat.field
        zero = field.zero
        plan = None
        dcols = cat.d_columns(src, tgt, n - 1) \
            if not cat.d_columns(src, tgt, n) else None
        if dcols:
            if self._top(src, tgt, n) is not None:
                raise ValueError(f"class in a degree where d vanishes: {key}")
            cols = {b: dict(zip(col[::2], col[1::2]))
                    for b, col in dcols.items()}

            def entry(rp, cp):
                return cols.get(cp, {}).get(rp, zero)

            col_pos = set(cat.flat_basis(src, tgt, n - 1))
            steps = []
            for j in sorted(col_pos, reverse=True):
                a = entry(j, j)
                if a:
                    b = entry(j, j + 1)
                    steps.append((j, j, field.div(field.one, a), b))
                    continue
                # the row below is the only one seeing this column
                a2 = entry(j - 1, j)
                if a2 and (j - 1) not in col_pos:
                    steps.append((j, j - 1, field.div(field.one, a2), zero))
            first, s = {}, 0
            for p in sorted(cat.flat_basis(src, tgt, n), reverse=True):
                while s < len(steps) and steps[s][0] > p + 1:
                    s += 1
                first[p] = s
            plan = (tuple(steps), first)
        self._plans[key] = plan
        return plan

    def H(self, elem):
        """Zero unless d vanishes on the degree; otherwise solve
        d(c) = elem - i(p(elem)) downward from the top position (p is zero
        on every degree with a plan).  The solve starts at the first step
        that sees elem's top position and stops below its lowest one once
        the step above left nothing to carry, so a call costs elem's span
        of positions, not the window's."""
        cat = self.cat
        src, tgt, n = elem.src, elem.tgt, elem.deg
        plan = self._plan(src, tgt, n)
        t = elem.coeffs
        if plan is None or not t:
            return cat.zero_elem(src, tgt, n - 1)
        steps, first = plan
        field = cat.field
        zero = field.zero
        lo = min(t)
        c = {}
        for s in range(first[max(t)], len(steps)):
            j, row, inv, b = steps[s]
            prev = c.get(j + 1)
            if prev is None:
                if row < lo:
                    break
                val = field.mul(t.get(row, zero), inv)
            else:
                acc = t.get(row, zero)
                if b:
                    acc = field.sub(acc, field.mul(b, prev))
                val = field.mul(acc, inv)
            if val:
                c[j] = val
        return HomElement(cat, src, tgt, n - 1, c)


class GenericContraction:
    """Standard rref-based contraction of a windowed Hom-complex.

    Per degree splits chains = boundaries + chosen class representatives +
    a complement mapped isomorphically onto the next boundaries; H inverts
    d on boundaries and kills the rest, which enforces Hi = 0, pH = 0 and
    H^2 = 0 on the nose.

    Each degree n of a hom pair is split on first use, from two memoized
    row reductions: rref(d_n) gives the kernel and the complement W_n (unit
    vectors at its pivot columns), and the pivots of rref(d_{n-1}) give
    the boundaries B_n = d(W_{n-1}).  The split keeps B_n, the class
    representatives R_n and the inverse of a free-column solver: W_n is
    zero on the free columns of rref(d_n), and a kernel vector is fixed by
    its entries there, so the B and R coordinates of any chain solve a
    square system on those columns alone, and W_n is never stored.  One
    more row reduction picks R_n and inverts that system.  H on degree n
    reads only rref(d_{n-1})'s pivots, so no other degree of the pair is
    split.
    A refusal (missing classes, or classes that cannot be told from edge
    artifacts) fires when its degree is first split, and again on every
    later use of that degree; the pair's other degrees still answer.

    Truncating a two-sided-infinite complex on the left creates spurious
    rank-count classes in a few degrees (their true killers live beyond
    the cut).  Extension candidates are taken left-edge first, so those
    spurious representatives localize at untrusted positions.  The kernel
    vectors of rref(d_n) already come in that order, so they are taken as
    they come: flat_basis lists positions in ascending order, and the kernel
    vector of free column c is supported on columns <= c (a row of the
    rref is zero left of its pivot), so the rightmost position a kernel
    vector reaches never falls from one vector to the next.  When the
    expected class list for a degree is shorter than the computed one the
    surplus is treated as part of the complement by the projection, which
    keeps the contraction identities exact on the trusted sub-window.

    `class_names` ({(src, tgt, deg): [names]}) names the classes of the
    degrees it lists; the others are auto-named.  Past the window a Hom
    space is empty: it has no class, and p and H are zero there.
    """

    mode = "generic"

    def __init__(self, cat, class_names):
        self.cat = cat
        self.class_names = class_names
        self._rrefs = {}    # (src, tgt, n) -> rref(d_n)
        self._degrees = {}  # (src, tgt, n) -> degree n's split

    def _rref(self, src, tgt, n):
        key = (src, tgt, n)
        out = self._rrefs.get(key)
        if out is None:
            out = self._rrefs[key] = rref(self.cat.d_matrix(src, tgt, n))
        return out

    def _degree(self, src, tgt, n):
        """Degree n's split of Hom(src, tgt): B, R, the flat basis, n_true,
        the row of each free column of rref(d_n) and the inverse of the
        free-column solver, built on first use."""
        key = (src, tgt, n)
        data = self._degrees.get(key)
        if data is not None:
            return data
        cat, field = self.cat, self.cat.field
        basis = cat.flat_basis(src, tgt, n)
        # an empty degree has no class and nothing to reduce
        B, R, free_row, inverse = [], [], {}, SparseMatrix(0, 0, field)
        if basis:
            _rank, pivots, kernel = self._rref(src, tgt, n)
            # boundaries: d of the unit vectors at rref(d_{n-1})'s pivot
            # columns, read off d_{n-1}'s stored columns
            cols = cat.d_columns(src, tgt, n - 1)
            basis_prev = cat.flat_basis(src, tgt, n - 1)
            index = cat.flat_index(src, tgt, n)
            for j in self._rref(src, tgt, n - 1)[1]:
                it = iter(cols[basis_prev[j]])
                B.append({index[r]: v for r, v in zip(it, it)})
            # a kernel vector is fixed by its entries on the free columns F of
            # rref(d_n), where kernel vector t is the unit vector at the t-th
            # one; so one reduction of [B | K | I] cut to the rows F, K the
            # kernel vectors (left-localized first), does the rest.  Its pivots
            # in the K block extend B greedily to a basis of ker d_n: they are
            # the class representatives R.  The solver [B | R] cut to F is then
            # its pivot block, and the kernel vector of the I block's column k
            # is minus the solver's inverse's column k at the pivot columns.
            pivot_set = set(pivots)
            free = [j for j in range(len(basis)) if j not in pivot_set]
            free_row = {j: k for k, j in enumerate(free)}
            nB, nF = len(B), len(free)
            aug = {(free_row[r], j): v for j, col in enumerate(B)
                   for r, v in col.items() if r in free_row}
            aug.update(((t, nB + t), field.one) for t in range(nF))
            aug.update(((k, nB + nF + k), field.one) for k in range(nF))
            _rank, aug_pivots, aug_kernel = rref(
                SparseMatrix(nF, nB + 2 * nF, field, aug))
            R = [dict(kernel[c - nB]) for c in aug_pivots[nB:]]
            row_of = {c: i for i, c in enumerate(aug_pivots)}
            inverse = SparseMatrix(nF, nF, field, {
                (row_of[c], k): field.neg(v)
                for k, vec in enumerate(aug_kernel[len(aug_kernel) - nF:])
                for c, v in vec.items() if c in row_of})
        expected = self.class_names.get(key)
        if expected is None:
            n_true = len(R)
        else:
            n_true = len(expected)
            if n_true > len(R):
                raise ValueError(f"missing classes at {key}")
            if 0 < n_true < len(R):
                raise ValueError(
                    f"cannot separate classes from edge artifacts at {key}")
        data = self._degrees[key] = {"B": B, "R": R, "basis": basis,
                                     "n_true": n_true, "free_row": free_row,
                                     "inverse": inverse}
        return data

    def classes(self, src, tgt, deg):
        """The class names of a degree: the expected ones where class_names
        lists the degree, read without splitting the degree, and
        otherwise e(src->tgt)^deg_k for each computed class."""
        names = self.class_names.get((src, tgt, deg))
        if names is not None:
            return list(names)
        return [f"e({src}->{tgt})^{deg}_{k}"
                for k in range(self._degree(src, tgt, deg)["n_true"])]

    def include(self, src, tgt, deg, name):
        data = self._degree(src, tgt, deg)
        k = self.classes(src, tgt, deg).index(name)
        basis = data["basis"]
        return HomElement(self.cat, src, tgt, deg,
                          {basis[r]: v for r, v in data["R"][k].items()})

    def _coords(self, elem):
        """(split data, coordinates of elem over B then R).  The complement
        W of ker d_n (unit vectors at rref(d_n)'s pivot columns) is zero on
        the free columns, so elem's entries there are those of its B + R
        part, whose coordinates the free-column solver's inverse gives."""
        data = self._degree(elem.src, elem.tgt, elem.deg)
        index = self.cat.flat_index(elem.src, elem.tgt, elem.deg)
        free_row = data["free_row"]
        target = {}
        for b, v in elem.coeffs.items():
            r = free_row.get(index[b])
            if r is not None:
                target[r] = v
        return data, mat_vec(data["inverse"], target)

    def project(self, elem):
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
        """Inverse of d on boundaries, zero on classes and the complement:
        boundary coordinate k goes to the unit vector at the k-th pivot
        column of rref(d_{deg-1})."""
        src, tgt, n = elem.src, elem.tgt, elem.deg
        if elem.is_zero():
            return self.cat.zero_elem(src, tgt, n - 1)
        data, coords = self._coords(elem)
        basis_prev = self.cat.flat_basis(src, tgt, n - 1)
        pivots_prev = self._rref(src, tgt, n - 1)[1]
        out = {}
        for k in range(len(data["B"])):
            v = coords.get(k)
            if v:
                out[basis_prev[pivots_prev[k]]] = v
        return HomElement(self.cat, src, tgt, n - 1, out)


def contraction_audit(con):
    """Matrix audit of pi = 1, dH + Hd = 1 - ip and H^2 = 0 on the trusted
    sub-window of the contraction's category, on every hom pair and degree
    |n| <= 8.

    "checked" counts the cases examined: each class (pi = 1) and each flat
    basis element inside the trusted sub-window (the other two identities).
    An audit that examined nothing reports "fail".

    On the preprojective instance p is zero on every audited basis element
    (p reads the top of the window, which lies outside the trusted
    sub-window), so there the 1 - ip term is checked only through pi = 1;
    only the A2 audit has basis elements with p(x) != 0."""
    cat = con.cat
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
                    if b not in trusted or b + n not in trusted:
                        continue
                    checked += 1
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    hx = con.H(x)
                    lhs = cat.differential(hx).add(con.H(cat.differential(x)))
                    rhs = x
                    for name, c in con.project(x).items():
                        rhs = rhs.add(con.include(src, tgt, n, name).scale(field.neg(c)))
                    if not lhs.eq_on(rhs, trusted):
                        violations.append({"tuple": [src, tgt, n, b],
                                           "expected": "dH+Hd = 1-ip", "got": "mismatch"})
                    if any(i in trusted and i + n - 2 in trusted
                           for i in con.H(hx).coeffs):
                        violations.append({"tuple": [src, tgt, n, b],
                                           "expected": "H^2 = 0", "got": "nonzero"})
    return _report("contraction", violations, checked)


def tabulated_contraction(cat):
    if cat.algebra != "pia2":
        raise ValueError("the tabulated homotopies exist for the preprojective instance only")
    return TabulatedContraction(cat)


def generic_contraction(cat):
    """The generic contraction naming pia2's classes of degrees
    -(L+1)..L-4 (higher ones have no faithful representatives and are
    auto-named), the A2 triangle, or nothing on any other category."""
    if cat.algebra == "pia2":
        names = {(src, tgt, n): sym.classes(src, tgt, n)
                 for src in sym.OBJECTS for tgt in sym.OBJECTS
                 for n in range(-cat.window - 1, cat.window - 3)}
    elif cat.algebra == "a2":
        names = A2_CLASS_NAMES
    else:
        names = {}
    return GenericContraction(cat, names)


# Ext classes of S1 + P + S2 over A2, named by the triangle they form
A2_CLASS_NAMES = {
    ("S1", "S1", 0): ["1_S1"], ("P", "P", 0): ["1_P"], ("S2", "S2", 0): ["1_S2"],
    ("S2", "P", 0): ["f"],     # the inclusion S2 -> P
    ("P", "S1", 0): ["g"],     # the projection P -> S1
    ("S1", "S2", 1): ["h"],    # the connecting class, degree 1
}


def build_contraction(window, mode, field, algebra="pia2"):
    """The contraction (on its `cat`) of the preprojective or A2 category:
    mode "paper" is the tabulated one, "generic" the rref one.  A2's
    window is fixed, so `window` is read on the preprojective instance
    only."""
    if algebra == "pia2":
        if window < 8:
            raise ValueError("window too small")
        cat = pia2_end_category(window, field)
    elif algebra == "a2":
        cat = a2_end_category(field)
    else:
        raise ValueError(f"unknown algebra {algebra!r}")
    if mode == "paper":
        return tabulated_contraction(cat)
    if mode == "generic":
        return generic_contraction(cat)
    raise ValueError(f"unknown contraction mode {mode!r}")
