"""Homotopy transfer: sums over decorated planar binary trees.

A tree with leaves f_n .. f_1 evaluates by including each leaf, composing
at branch points, applying the homotopy H on internal edges and the
projection p at the root; m_n is the sum over all shapes.  The engine
evaluates either against the symbol tables (`SymbolicBackend`) or against
matrix contraction data (`MatrixBackend`).

Summing over shapes distributes over the root split, so the evaluator
uses the slice values A(s) = sum over splits of sign * H(mu(A(s1),
A(s2))) with a shared memo; evaluating every shape separately gives the
same answer (tested) but is exponentially slower at high arity.  A query
fills these values into an interval table, bottom-up by slice length and
by index (A[i][j] is the value of inputs[i:j]), so a slice is looked up
in the memo once and its cuts are list reads; m_n takes its root cuts from
the table's first row and last column.  Bitmasks of the nonzero slices
starting and ending at each position give every slice its live cuts, the
cuts whose two factors are both nonzero, and only those are visited: the
fill's work follows the nonzero products, not the number of cuts.

Before any fill the grading may already decide a query: m_n(f_n, ..., f_1)
is a combination of Ext classes src(f_1) -> tgt(f_n) of degree
sum |f_k| + 2 - n, so where Ext has none it is zero.  Each backend answers
`has_class(src, tgt, deg)`, and a query it decides fills nothing and
memoizes nothing.  A scan's queries below its top arity are not decided
this way: the scan reads their root slice, which only the fill gives.

A backend answers the engine through one protocol, one spelling per fact:
  field                   the scalars (`linalg.F2` or `linalg.QQ`);
  symbols                 scan symbol -> (source, target, degree), the one
                          place the engine reads those facts;
  scan_symbols(degree_max)  the identity-free symbols a scan takes;
  has_class(src, tgt, deg)  whether Ext has a class there;
  leaf(s)                 the element of a scan symbol;
  add(a, b)               the sum of two nonzero elements, None if it is 0;
  scale(e, c)             e times a sign c other than one (over Q only);
  mu_h(a, b), mu_p(a, b)  H(mu(a, b)), None when zero, and p(mu(a, b)) as
                          {class: coeff}, {} when zero.
None is zero: a slice value is None or nonzero, and no backend has an
`is_zero`.  A table also writes the backend's `name`, `window` and
`homotopy` into its metadata.

The symbolic backend reads the H and p images of a symbol pair from one
pair table, filled with one mu per distinct pair.  Its element is one
operand or None, since every slice value it has been measured to give is
a single term: a product is one pair-table read, and `add` cancels two
equal operands over F2 and refuses two distinct ones, naming the slice,
rather than carry or drop a sum.  The matrix backend is built from its
contraction alone: the category, field, window and homotopy are the
contraction's.

Both backends scan, take as leaves and output Ext basis symbols by their
canonical strings, so slice keys, table keys and outputs are strings from
the scan to the JSON.  For the symbolic backend `symbols` is a
`symbols.SymbolRecords`, the cache Pi's categories also use, which copies
each record from the symbols table (`symbols.SYMBOLS`) on first read; the
matrix backend builds its dict from its contraction's classes.

The same split makes table scans output-sensitive: a slice, or an input
tuple of m_d, is nonzero only if some cut splits it into two parts that
are each a single input (a leaf) or a nonzero slice, since a cut with a
zero part contributes nothing.  `compute_operation_table` therefore grows
its candidate tuples bottom-up by length from the nonzero slices alone
and never visits a tuple that this rule shows to be zero.

Sign convention over Q, Seidel's (2008, section 1), which
`ainf.stasheff_check` checks: a slice X of l inputs has degree |X| = (sum
of its input degrees) - (l - 1), and a split into a left (prefix) slice L
and a right slice R carries (-1)^{|L|} at an internal vertex and
(-1)^{|R|} at the root.  This is mu^2(a_2, a_1) = (-1)^{|a_1|} a_2 a_1
with the homotopy entering as (-1)^{|x|} H(x).  Over F2 every sign is +1.
"""

import functools

from .table import OperationTable
from . import symbols as sym
from .linalg import F2

_MISS = object()


class SymbolicBackend:
    """Tree evaluation in the finite symbol grammar (F2 coefficients).

    An element is one operand, an Ext symbol by canonical string (leaves,
    class reads) or an H symbol (internal edges), a grammar value this
    module only passes on; None is zero.  No slice value measured has two
    terms, so no element is a sum: `add` refuses two distinct operands
    instead of dropping one.  It has no `scale`: over F2
    every Koszul sign is +1, so the evaluators, which scale only by a sign
    other than one, never ask for it.
    """

    name = "symbolic"
    window = 0            # no resolution is truncated
    homotopy = "paper"    # the homotopy tables of the symbol grammar
    field = F2            # the symbol grammar carries F2 coefficients

    def __init__(self):
        # canonical string -> (source, target, degree)
        self.symbols = sym.SymbolRecords()
        # (a, b) -> (H image, class name) of mu(a, b), one mu per pair
        self._pair = {}
        # (src, tgt, deg) -> whether Ext has a class there
        self._has_class = {}

    # symbols -------------------------------------------------------------
    def scan_symbols(self, degree_max):
        return [s for x in sym.OBJECTS for y in sym.OBJECTS
                for s in sym.hom_names(x, y, degree_max) if s != "1_" + x]

    # src, tgt and to_str are outside the engine's protocol: they serve
    # callers that draw query tuples
    def src(self, s):
        return self.symbols[s][0]

    def tgt(self, s):
        return self.symbols[s][1]

    def to_str(self, s):
        """The canonical string of a scan symbol: the symbol itself."""
        return s

    def has_class(self, src, tgt, deg):
        """Is there an Ext class src -> tgt of degree deg (`symbols.classes`)?"""
        key = (src, tgt, deg)
        hit = self._has_class.get(key)
        if hit is None:
            hit = self._has_class[key] = bool(sym.classes(src, tgt, deg))
        return hit

    # elements ------------------------------------------------------------
    def leaf(self, s):
        return s

    def add(self, a, b):
        """a + b over F2: zero (None) is the identity and two equal
        operands cancel.  Two distinct ones would make a two-term slice,
        which this element cannot hold: ValueError, naming the operands
        (the fill adds the slice)."""
        if a is None:
            return b
        if b is None:
            return a
        if a == b:
            return None
        raise ValueError(f"two distinct terms {a!r} and {b!r}; a symbolic "
                         f"element is one operand")

    def _images(self, a, b):
        """The pair table's entry for (a, b), made on a miss: one mu
        serves both mu_h and mu_p."""
        r = self._pair[a, b] = sym.pair_images(a, b)
        return r

    def mu_h(self, a, b):
        """H(mu(a, b)): an H symbol, or None when it is zero."""
        return (self._pair.get((a, b)) or self._images(a, b))[0]

    def mu_p(self, a, b):
        """p(mu(a, b)): {class name: 1}, or {} when it is zero."""
        cls = (self._pair.get((a, b)) or self._images(a, b))[1]
        return {} if cls is None else {cls: 1}


class MatrixBackend:
    """Tree evaluation through an EndCategory and contraction data, both
    read off the contraction (`contraction.cat`).

    Scan symbols are the contraction's class names, canonical strings of
    Ext symbols on the preprojective instance; `symbols` maps each to its
    (source, target, degree), and holds every class of degree 0..degree_max
    between the category's objects, the bound a scan may ask for.
    """

    name = "matrix"

    def __init__(self, contraction, degree_max):
        cat = self.cat = contraction.cat
        self.contraction = contraction
        self.field = cat.field
        self.window = cat.window
        self.homotopy = contraction.mode
        self.degree_max = degree_max
        objs = sorted(cat.complexes)
        self.symbols = {name: (src, tgt, deg) for src in objs for tgt in objs
                        for deg in range(degree_max + 1)
                        for name in contraction.classes(src, tgt, deg)}

    @classmethod
    def for_pia2(cls, cat, contraction, degree_max):
        """The backend of a contraction on `cat`; it serves the A2 instance
        as well as the preprojective one.  ValueError when cat is not the
        contraction's own category."""
        if cat is not contraction.cat:
            raise ValueError("the contraction is built on another category")
        return cls(contraction, degree_max)

    # symbols -------------------------------------------------------------
    def scan_symbols(self, degree_max):
        if degree_max > self.degree_max:    # it would miss the classes above
            raise ValueError(f"a scan at degree {degree_max} needs classes "
                             f"past the degree {self.degree_max} this backend read")
        return [s for s, (x, _y, d) in self.symbols.items()
                if d <= degree_max and s != "1_" + x]

    def has_class(self, src, tgt, deg):
        """Is there an Ext class src -> tgt of degree deg?  Exactly where
        `project` can be nonzero: it names only the contraction's classes."""
        return bool(self.contraction.classes(src, tgt, deg))

    # elements ------------------------------------------------------------
    def leaf(self, s):
        return self.contraction.include(*self.symbols[s], s)

    def scale(self, e, c):
        return e.scale(c)

    def add(self, a, b):
        """a + b, None when the two cancel."""
        total = a.add(b)
        return None if total.is_zero() else total

    def mu_h(self, ea, eb):
        prod = self.cat.compose(ea, eb)
        if prod.is_zero():
            return None
        h = self.contraction.H(prod)
        return None if h.is_zero() else h

    def mu_p(self, ea, eb):
        prod = self.cat.compose(ea, eb)
        if prod.is_zero():
            return {}
        return self.contraction.project(prod)


@functools.lru_cache(maxsize=None)
def _spans(n, top, edges):
    """The slices (i, j) = inputs[i:j] of length 2..top that a fill of n
    inputs visits, shortest first: all of them, or with `edges` only the
    prefixes (i = 0) and suffixes (j = n)."""
    return tuple((i, i + length) for length in range(2, top + 1)
                 for i in range(n - length + 1)
                 if not edges or i == 0 or i + length == n)


class TransferEvaluator:
    """Slice-memoized evaluation of m_n over all planar shapes at once.

    A query on inputs (f_n, ..., f_1) fills an interval table A bottom-up
    by slice length: A[i][j] is the value of the slice inputs[i:j] (the
    leaf itself when j = i + 1, None when the slice is zero), computed from
    its live cuts c, those with A[i][c] and A[c][j] both nonzero, as the
    signed sum of H(mu(A[i][c], A[c][j])).  The table is
    mirrored, A[j][i] = A[i][j], so the right factors of the slices ending
    at j are read along row j, and stored as one flat list, A[i][j] at
    index i * (n + 1) + j: one allocation per query instead of n + 1 rows,
    which short warm queries (the chart scans) feel.  Each slice of length
    >= 2 that the fill visits is looked up in `memo` once, by its tuple
    key; a miss is computed and stored there, so the memo is shared across
    queries and holds every slice of every query that fills (the root
    slice only through `_A` or `_memo_root`).  A `transfer` without
    `_memo_root` whose output degree carries no class (see `transfer`)
    fills nothing, so its slices stay out of the memo.  A query whose
    longest prefix and suffix are memoized visits only its prefixes and
    suffixes (see `_fill`).

    `memo` maps a slice to its value (None when zero); an entry written
    from outside must hold the true value.  Fills keep the memo closed
    under sub-slices; where an outside write breaks that, the
    prefix-and-suffix shortcut falls back to a full fill.
    """

    def __init__(self, backend):
        self.backend = backend
        self.memo = {}

    def _prefix_degrees(self, inputs):
        """pre[c] - pre[i] is the sum of the input degrees of inputs[i:c];
        None over F2, where every sign is +1."""
        if self.backend.field.name == "f2":
            return None
        recs = self.backend.symbols
        pre = [0]
        for s in inputs:
            pre.append(pre[-1] + recs[s][2])
        return pre

    def _fill(self, inputs, top, pre, edges=None):
        """The mirrored interval table of `inputs` (flat, rows of n + 1)
        for slice lengths up to `top`, and the root's live cuts; each
        slice the fill visits is read from or written to the memo.  pre
        is `_prefix_degrees(inputs)`.

        Next to the table the fill keeps two bitmasks per position: bit c
        of nz_l[i] is set when inputs[i:c] is nonzero (a leaf or a nonzero
        slice), bit c of nz_r[j] when inputs[c:j] is.  The live cuts of a
        slice i:j are the set bits of nz_l[i] & nz_r[j], the cuts whose
        two factors are both nonzero; only those are visited, and a slice
        with none is stored as None without a loop.  The root's live cuts
        are returned as nz_l[0] & nz_r[n].

        A fill stores a slice only after all of its sub-slices, so the
        memo holds every sub-slice of a slice it holds.  When it holds the
        two longest proper slices, every prefix and suffix is there: only
        those and the root (if top reaches it) are visited, and only the
        two end leaves are built; the memo hits set the prefix and suffix
        bits the root's cuts read.  Should a prefix or suffix be missing
        after all, that shortcut gives way to a full fill."""
        n = len(inputs)
        backend, field, memo = self.backend, self.backend.field, self.memo
        mu_h, add = backend.mu_h, backend.add
        w = n + 1
        A = [None] * (w * w)
        nz_l, nz_r = [0] * w, [0] * w
        if edges is None:
            edges = (n > 2 and bool(memo)
                     and inputs[:-1] in memo and inputs[1:] in memo)
        for i in (0, n - 1) if edges else range(n):
            A[i * w + i + 1] = A[(i + 1) * w + i] = backend.leaf(inputs[i])
            nz_l[i] |= 1 << (i + 1)
            nz_r[i + 1] |= 1 << i
        for i, j in _spans(n, top, edges):
            key = inputs[i:j]
            acc = memo.get(key, _MISS)
            if acc is _MISS:
                if edges and j - i < n:
                    # its interior slices were not built: fill them all
                    return self._fill(inputs, top, pre, edges=False)
                acc = None
                live = nz_l[i] & nz_r[j]
                row_i, row_j = i * w, j * w
                while live:
                    # slice order is (f_d, ..., f_1): the left factor is
                    # the prefix
                    low = live & -live
                    live ^= low
                    c = low.bit_length() - 1
                    out = mu_h(A[row_i + c], A[row_j + c])
                    if out is None:
                        continue
                    if pre is not None:
                        sign = field.sign(pre[c] - pre[i] - (c - i - 1))
                        if sign != field.one:
                            out = backend.scale(out, sign)
                    try:
                        acc = out if acc is None else add(acc, out)
                    except ValueError as e:
                        raise ValueError(f"slice {key!r} sums {e}") from None
                memo[key] = acc
            if acc is not None:
                A[i * w + j] = A[j * w + i] = acc
                nz_l[i] |= 1 << j
                nz_r[j] |= 1 << i
        return A, nz_l[0] & nz_r[n]

    def _A(self, slice_key):
        if len(slice_key) == 1:
            return self.backend.leaf(slice_key[0])
        hit = self.memo.get(slice_key, _MISS)
        if hit is not _MISS:
            return hit
        n = len(slice_key)
        return self._fill(slice_key, n, self._prefix_degrees(slice_key))[0][n]

    def transfer(self, inputs, _memo_root=False):
        """m_d(f_d, ..., f_1) as {output symbol: coeff}, summed over the
        root's live cuts.  The root slice (all of inputs) is memoized too
        when _memo_root is set, so a later `_A(inputs)` is a lookup.

        Without _memo_root the grading answers first: m_d is a class
        src(f_1) -> tgt(f_d) of degree sum |f_k| + 2 - d, so where Ext has
        no such class it is zero, and the query returns {} without a fill
        and memoizes nothing."""
        inputs = tuple(inputs)
        n = len(inputs)
        if n < 2:
            return {}
        backend, field = self.backend, self.backend.field
        if not _memo_root:
            recs = backend.symbols
            deg = 2 - n
            for s in inputs:
                deg += recs[s][2]
            if not backend.has_class(recs[inputs[-1]][0], recs[inputs[0]][1], deg):
                return {}
        pre = self._prefix_degrees(inputs)
        A, live = self._fill(inputs, n if _memo_root else n - 1, pre)
        row_n = n * (n + 1)
        total = {}
        while live:
            low = live & -live
            live ^= low
            cut = low.bit_length() - 1
            out = backend.mu_p(A[cut], A[row_n + cut])
            sign = field.one if pre is None else \
                field.sign(pre[n] - pre[cut] - (n - cut - 1))
            for k, v in out.items():
                field.accumulate(total, k, field.mul(sign, v))
        return total


def compute_operation_table(arity_max, degree_max, backend, evaluator=None):
    """Evaluate m_d (`TransferEvaluator.transfer`) over the composable
    identity-free tuples with arity <= arity_max and per-input degree
    <= degree_max; only nonzero operations are stored.

    A tuple (f_d, ..., f_1) is visited only if some cut splits it into a
    prefix P and a suffix Q that are each a leaf or a nonzero slice, with
    P's last map starting where Q's first map ends.  Every other tuple is
    zero: m_d and the slice value A both sum over root cuts, and each term
    has a zero factor.  Candidates are built by length, from the nonzero
    slices of the shorter lengths, so the cost follows the support rather
    than the number of composable tuples.  Deterministic: entries are
    inserted in (arity, key) order.
    """
    if arity_max < 1:
        raise ValueError("arity bound must be at least 1")
    field, recs = backend.field, backend.symbols
    ev = evaluator or TransferEvaluator(backend)
    leaves = backend.scan_symbols(degree_max)

    table = OperationTable({
        "arity_max": arity_max, "degree_max": degree_max,
        "field": field.name, "backend": backend.name,
        "window": backend.window, "homotopy": backend.homotopy,
    })

    def emit(inputs, out):
        if len(out) != 1:
            raise AssertionError(f"non-monomial transfer output at {inputs}: {out}")
        (osym, coeff), = out.items()
        objects = [recs[inputs[-1]][0]]
        for s in reversed(inputs):
            objects.append(recs[s][1])
        degree = sum(recs[s][2] for s in inputs) + 2 - len(inputs)
        table.add(inputs, objects, coeff, osym, degree)

    # nonzero[n]: the leaves (n = 1) or nonzero slices of length n, keyed
    # by the target of their first map, the object a prefix must start at
    nonzero = {1: {}}
    for s in leaves:
        nonzero[1].setdefault(recs[s][1], []).append((s,))
    for k in range(2, arity_max + 1):
        candidates = set()
        for i in range(1, k):
            suffixes = nonzero[k - i]
            for group in nonzero[i].values():
                for p in group:
                    for q in suffixes.get(recs[p[-1]][0], ()):
                        candidates.add(p + q)
        grown = {}
        for inputs in sorted(candidates):
            # one fill per candidate; below arity_max it memoizes the
            # whole slice, so _A(inputs) is a lookup
            out = ev.transfer(inputs, _memo_root=k < arity_max)
            if out:
                emit(inputs, out)
            if k < arity_max and ev._A(inputs) is not None:
                grown.setdefault(recs[inputs[0]][1], []).append(inputs)
        nonzero[k] = grown
    return table
