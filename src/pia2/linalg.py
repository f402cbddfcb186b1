"""Exact scalar arithmetic and sparse linear algebra over QQ and F2.

Matrices are stored as dicts {(row, col): scalar} with no explicit zeros.
Everything is exact: F2 entries are ints mod 2, QQ entries are
``fractions.Fraction`` (arbitrary-precision).  A scalar is zero exactly
when it is falsy, and the matrix layer tests it that way: comparing two
Fractions with == costs an abstract-base-class check per call.
"""

from fractions import Fraction


class Field:
    """A coefficient field.  Use the singletons F2 and QQ."""

    def __init__(self, name):
        self.name = name
        # shared constants: Fraction is immutable, so one instance serves
        # every read
        self.one = Fraction(1) if name == "q" else 1
        self.zero = Fraction(0) if name == "q" else 0

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def of(self, n):
        """Coerce an integer into the field."""
        if self.name == "f2":
            return n % 2
        return Fraction(n)

    def add(self, a, b):
        return (a + b) % 2 if self.name == "f2" else a + b

    def sub(self, a, b):
        return (a - b) % 2 if self.name == "f2" else a - b

    def mul(self, a, b):
        return (a * b) % 2 if self.name == "f2" else a * b

    def neg(self, a):
        return (-a) % 2 if self.name == "f2" else -a

    def div(self, a, b):
        if self.name == "f2":
            if b % 2 == 0:
                raise ZeroDivisionError("division by zero in F2")
            return a % 2
        return Fraction(a) / b


F2 = Field("f2")
QQ = Field("q")


def field_by_name(name):
    if name in ("f2", "F2", "gf2"):
        return F2
    if name in ("q", "Q", "QQ"):
        return QQ
    raise ValueError(f"unknown field {name!r}")


class SparseMatrix:
    """Immutable-by-convention sparse matrix over a fixed field."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows, cols, field, entries=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = {}
        if entries:
            for (r, c), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                v = field.of(v) if isinstance(v, int) else v
                if v:
                    if (r, c) in self.entries:
                        raise ValueError(f"duplicate entry at ({r},{c})")
                    self.entries[(r, c)] = v

    @classmethod
    def zero(cls, rows, cols, field):
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n, field):
        return cls(n, n, field, {(i, i): field.one for i in range(n)})

    @classmethod
    def from_rows(cls, data, field):
        """Build from a list of row lists of ints/Fractions."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                v = field.of(v) if isinstance(v, int) else v
                if v:
                    ent[(r, c)] = v
        return cls(rows, cols, field, ent)

    def get(self, r, c):
        return self.entries.get((r, c), self.field.zero)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.field}, {len(self.entries)} entries)"

    def add(self, other):
        self._check_shape(other, same=True)
        f = self.field
        ent = dict(self.entries)
        for pos, v in other.entries.items():
            s = f.add(ent.get(pos, f.zero), v)
            if not s:
                ent.pop(pos, None)
            else:
                ent[pos] = s
        return SparseMatrix(self.rows, self.cols, f, ent)

    def scale(self, a):
        f = self.field
        a = f.of(a) if isinstance(a, int) else a
        if not a:
            return SparseMatrix.zero(self.rows, self.cols, f)
        return SparseMatrix(self.rows, self.cols, f,
                            {pos: f.mul(a, v) for pos, v in self.entries.items()})

    def neg(self):
        return self.scale(self.field.of(-1))

    def sub(self, other):
        return self.add(other.neg())

    def transpose(self):
        return SparseMatrix(self.cols, self.rows, self.field,
                            {(c, r): v for (r, c), v in self.entries.items()})

    def to_dense(self):
        return [[self.get(r, c) for c in range(self.cols)] for r in range(self.rows)]

    def _check_shape(self, other, same=False):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def mat_mul(a, b):
    """Exact product a*b of sparse matrices over the same field."""
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    f = a.field
    # group b by row for the sparse inner loop
    b_by_row = {}
    for (r, c), v in b.entries.items():
        b_by_row.setdefault(r, []).append((c, v))
    ent = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_by_row.get(k, ()):
            pos = (r, c)
            s = f.add(ent.get(pos, f.zero), f.mul(va, vb))
            if not s:
                ent.pop(pos, None)
            else:
                ent[pos] = s
    return SparseMatrix(a.rows, b.cols, f, ent)


def mat_vec(m, vec):
    """Apply m to a dict-vector {col: scalar}; returns {row: scalar}."""
    f = m.field
    out = {}
    for (r, c), v in m.entries.items():
        x = vec.get(c)
        if x is None:
            continue
        s = f.add(out.get(r, f.zero), f.mul(v, x))
        if not s:
            out.pop(r, None)
        else:
            out[r] = s
    return out


def rref(m):
    """Reduced row echelon form of m by exact Gauss-Jordan elimination.

    Returns (rank, pivot_cols, kernel_basis, transform) where
    transform * m is in reduced row echelon form and kernel_basis is a list
    of dict-vectors {col: scalar} spanning the null space exactly.
    """
    f = m.field
    zero = f.zero
    # dense row-major working copy; instances here are desk-scale
    work = [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]
    trans = [[f.one if i == j else zero for j in range(m.rows)] for i in range(m.rows)]
    pivot_cols = []
    piv_r = 0
    for c in range(m.cols):
        sel = None
        for r in range(piv_r, m.rows):
            if work[r][c]:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_r:
            work[piv_r], work[sel] = work[sel], work[piv_r]
            trans[piv_r], trans[sel] = trans[sel], trans[piv_r]
        inv = f.div(f.one, work[piv_r][c])
        if inv != f.one:
            work[piv_r] = [f.mul(inv, v) for v in work[piv_r]]
            trans[piv_r] = [f.mul(inv, v) for v in trans[piv_r]]
        # only the nonzero entries of the pivot row change the other rows
        work_nz = [(k, w) for k, w in enumerate(work[piv_r]) if w]
        trans_nz = [(k, w) for k, w in enumerate(trans[piv_r]) if w]
        for r in range(m.rows):
            if r != piv_r and work[r][c]:
                factor = work[r][c]
                row, trow = work[r], trans[r]
                for k, w in work_nz:
                    row[k] = f.sub(row[k], f.mul(factor, w))
                for k, w in trans_nz:
                    trow[k] = f.sub(trow[k], f.mul(factor, w))
        pivot_cols.append(c)
        piv_r += 1
        if piv_r == m.rows:
            break
    rank = len(pivot_cols)
    pivot_set = set(pivot_cols)
    kernel_basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = {free: f.one}
        for i, pc in enumerate(pivot_cols):
            v = work[i][free]
            if v:
                vec[pc] = f.neg(v)
        kernel_basis.append(vec)
    transform = SparseMatrix.from_rows(trans, f) if m.rows else SparseMatrix.zero(0, 0, f)
    return rank, pivot_cols, kernel_basis, transform


def rank(m):
    return rref(m)[0]


def factorize(m):
    """What solving against m needs, computed once: (rank, pivot columns,
    transform, transform * m) from the reduced row echelon form."""
    rk, pivot_cols, _, transform = rref(m)
    return rk, pivot_cols, transform, mat_mul(transform, m)


def solve(m, target):
    """One solution x (dict-vector) of m*x = target, or None if inconsistent."""
    return solve_factored(factorize(m), target)


def solve_factored(factors, target):
    """solve against a matrix given by factorize(m)."""
    rk, pivot_cols, transform, red = factors
    f = red.field
    t = mat_vec(transform, target)
    sol = {}
    for i, pc in enumerate(pivot_cols):
        v = t.get(i, f.zero)
        if v:
            sol[pc] = v
    # consistency: rows beyond the rank must have zero target
    for r, v in t.items():
        if r >= rk and v:
            return None
    # verify (cheap at our sizes; guards against bad pivots)
    chk = mat_vec(red, sol)
    want = {r: v for r, v in t.items() if r < rk}
    if chk != want:
        return None
    return sol
