"""Exact scalar arithmetic and sparse linear algebra over QQ and F2.

Matrices are stored as dicts {(row, col): scalar} with no explicit zeros.
Everything is exact: F2 entries are ints mod 2.  QQ entries are Python
ints while they are integral, and a ``fractions.Fraction`` comes only
from `Field.div`, reduced back to an int when its denominator is one;
an int and a Fraction of equal value compare and hash equal, and print
the same through ``str``.  A scalar is zero exactly when it is falsy,
and the package tests it that way.

Every sparse sum in the package ({key: scalar} with no explicit zeros:
matrix entries, flat Hom coordinates, formal sums of symbols) adds a
term through `Field.accumulate`, the one place that rule lives: the key
is dropped when its sum is zero.  Every sign (-1)^e (Koszul signs of
the transfer, the unit law, the differential of Hom complexes, shift
maps) is `Field.sign(e)`, which is one over F2.
"""

from fractions import Fraction


class Field:
    """A coefficient field.  Use the singletons F2 and QQ."""

    def __init__(self, name):
        self.name = name
        self.one = 1
        self.zero = 0
        self._minus_one = self.of(-1)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def of(self, n):
        """Coerce an integer into the field."""
        return n % 2 if self.name == "f2" else n

    def sign(self, e):
        """(-1)^e in the field: the field's one over F2."""
        return self._minus_one if e % 2 else self.one

    def sub(self, a, b):
        return (a - b) % 2 if self.name == "f2" else a - b

    def accumulate(self, vec, key, value):
        """vec[key] += value in place, the key dropped when the sum is
        zero."""
        s = vec.get(key, self.zero) + value
        if self.name == "f2":
            s %= 2
        if s:
            vec[key] = s
        else:
            vec.pop(key, None)

    def mul(self, a, b):
        return (a * b) % 2 if self.name == "f2" else a * b

    def neg(self, a):
        return (-a) % 2 if self.name == "f2" else -a

    def div(self, a, b):
        """a / b; over QQ an int whenever the quotient is integral."""
        if self.name == "f2":
            if b % 2 == 0:
                raise ZeroDivisionError("division by zero in F2")
            return a % 2
        if b == 1:
            return a
        if b == -1:
            return -a
        q = Fraction(a) / b
        return q.numerator if q.denominator == 1 else q


F2 = Field("f2")
QQ = Field("q")


def field_by_name(name):
    """The field named name: "f2" or "q", the names the CLI and table
    metadata use."""
    if name == "f2":
        return F2
    if name == "q":
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
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                v = field.of(v) if isinstance(v, int) else v
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def zero(cls, rows, cols, field):
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n, field):
        return cls(n, n, field, {(i, i): field.one for i in range(n)})

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

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.field}, {len(self.entries)} entries)"

    def scale(self, a):
        f = self.field
        a = f.of(a) if isinstance(a, int) else a
        if not a:
            return SparseMatrix.zero(self.rows, self.cols, f)
        return SparseMatrix(self.rows, self.cols, f,
                            {pos: f.mul(a, v) for pos, v in self.entries.items()})


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
            f.accumulate(ent, (r, c), f.mul(va, vb))
    return SparseMatrix(a.rows, b.cols, f, ent)


def mat_vec(m, vec):
    """Apply m to a dict-vector {col: scalar}; returns {row: scalar}."""
    f = m.field
    out = {}
    for (r, c), v in m.entries.items():
        x = vec.get(c)
        if x is None:
            continue
        f.accumulate(out, r, f.mul(v, x))
    return out


def rref(m):
    """Reduced row echelon form of m by exact Gauss-Jordan elimination.

    Returns (rank, pivot_cols, kernel_basis), where kernel_basis is a list
    of dict-vectors {col: scalar} spanning the null space exactly, one per
    non-pivot column c: c maps to one and each pivot column to minus the
    reduced form's entry at (its row, c).
    """
    f = m.field
    # dense row-major working copy (instances here are desk-scale): zero
    # rows with the stored entries written in
    work = [[f.zero] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        work[r][c] = v
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
        inv = f.div(f.one, work[piv_r][c])
        if inv != f.one:
            work[piv_r] = [f.mul(inv, v) for v in work[piv_r]]
        # only the nonzero entries of the pivot row change the other rows
        work_nz = [(k, w) for k, w in enumerate(work[piv_r]) if w]
        for r in range(m.rows):
            if r != piv_r and work[r][c]:
                factor = work[r][c]
                row = work[r]
                for k, w in work_nz:
                    row[k] = f.sub(row[k], f.mul(factor, w))
        pivot_cols.append(c)
        piv_r += 1
        if piv_r == m.rows:
            break
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
    return len(pivot_cols), pivot_cols, kernel_basis


def solve(m, target):
    """One solution x (dict-vector) of m*x = target, or None if
    inconsistent: one rref of [m | target].  The system is inconsistent
    exactly when the last column is a pivot; otherwise that column's
    kernel vector is one there and minus a solution at m's pivot columns
    (see `rref`)."""
    f = m.field
    n = m.cols
    aug = dict(m.entries)
    aug.update(((r, n), v) for r, v in target.items())
    _rank, pivots, kernel = rref(SparseMatrix(m.rows, n + 1, f, aug))
    if pivots and pivots[-1] == n:
        return None
    return {c: f.neg(v) for c, v in kernel[-1].items() if c != n}
