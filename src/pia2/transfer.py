"""Homotopy transfer: sums over decorated planar binary trees.

A tree with leaves f_n .. f_1 evaluates by including each leaf, composing
at branch points, applying the homotopy H on internal edges and the
projection p at the root; m_n is the sum over all shapes.  The engine
evaluates either against the symbol tables (`SymbolicBackend`) or against
matrix contraction data (`MatrixBackend`).

Summing over shapes distributes over the root split, so the evaluator
uses the slice values A(s) = sum over splits of sign * H(mu(A(s1),
A(s2))); evaluating every shape separately gives the same answer (tested)
but is exponentially slower at high arity.  Only the live cuts count, the
cuts whose two factors are both nonzero, and each caller has one path to
them (`TransferEvaluator`): a point query grows the nonzero slices of its
inputs by length, each from its two end cuts (the side condition below),
visiting only the neighbours of the nonzero slices one shorter, sums
p(mu) over the root's live cuts and keeps nothing; a chart scan finds
each candidate's live cuts as it builds it, and memoizes the candidates'
slice values for later scans on the same evaluator.

Before it sums, the grading may already decide a query: m_n(f_n, ...,
f_1) is a combination of Ext classes src(f_1) -> tgt(f_n) of degree
sum |f_k| + 2 - n, so where Ext has none it is zero.  Each backend answers
`has_class(src, tgt, deg)`, and a query it decides fills nothing.

A backend answers the engine through one protocol, one spelling per fact:
  field                   the scalars (`linalg.F2` or `linalg.QQ`);
  symbols                 scan symbol -> (source, target, degree), the one
                          place the engine reads those facts;
  scan_symbols(degree_max)  the identity-free symbols a scan takes;
  has_class(src, tgt, deg)  whether Ext has a class there;
  leaf(s)                 the element of a scan symbol;
  scale(e, c)             e times a sign c other than one (over Q only);
  mu_h(a, b), mu_p(a, b)  H(mu(a, b)), None when zero, and p(mu(a, b)) as
                          {class: coeff}, {} when zero.
None is zero: a slice value is None or nonzero, and no backend has an
`is_zero`.  A table also writes the backend's `name`, `window` and
`homotopy` into its metadata.

A backend also meets one side condition of its contraction, H(mu(H x,
H y)) = 0: mu_h of two slice values (two H images, neither a leaf) is
None.  The grammar gives it (no `symbols.PRODUCTS` row keyed by two H
kinds names an H kind), and the tests check it on that table, on every
composable pair of H symbols within bounds and on every such product the
matrix scans form.  Under it a slice of
length >= 3 takes its value from at most two cuts, the one that splits
off its first input and the one that splits off its last, so a point
query reads only those, and a slice is nonzero only where it extends a
nonzero slice one shorter by a leaf; the root applies p, not H, and sums
every live cut.

The engine serves instances where each slice has at most one nonzero
H(mu) term, so every operation comes from one planar tree (the tests pin
this on the shipped backends): no element is ever summed, only the
root's scalars.  A slice with a second nonzero term, in a fill or in
`slice_value`, is refused with a ValueError naming the slice and both
terms, never kept as one of them.

The symbolic backend reads the H and p images of a symbol pair from one
pair table, filled with one mu per distinct pair.  Its element is one
operand or None, so a product is one pair-table read.  The matrix
backend is built from its contraction alone: the category, field, window
and homotopy are the contraction's.

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
its candidate tuples bottom-up by length from the nonzero slices alone,
never visits a tuple that this rule shows to be zero, and finds every
live cut of a candidate as it builds it.

Sign convention over Q, Seidel's (2008, section 1), which
`ainf.stasheff_check` checks: a slice X of l inputs has degree |X| = (sum
of its input degrees) - (l - 1), and a split into a left (prefix) slice L
and a right slice R carries (-1)^{|L|} at an internal vertex and
(-1)^{|R|} at the root.  This is mu^2(a_2, a_1) = (-1)^{|a_1|} a_2 a_1
with the homotopy entering as (-1)^{|x|} H(x).  Over F2 every sign is +1.
"""

from .table import OperationTable
from . import symbols as sym
from .linalg import F2

_MISS = object()


def _second_term(inputs, first, second):
    """The refusal of a slice with two nonzero H(mu) terms."""
    return ValueError(f"slice {inputs!r} has two nonzero terms, {first!r} "
                      f"and {second!r}: the engine serves instances with one "
                      f"tree per operation")


class SymbolicBackend:
    """Tree evaluation in the finite symbol grammar (F2 coefficients).

    An element is one operand, an Ext symbol by canonical string (leaves,
    class reads) or an H symbol (internal edges), a grammar value this
    module only passes on; None is zero.  No element is a sum (the
    engine refuses a slice of two terms).  It has no `scale`: over F2
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


class TransferEvaluator:
    """m_n over all planar shapes at once, from slice values.

    A point query, `transfer(inputs)`, grows its nonzero proper slices
    from their end cuts, each length from the nonzero slices of the length
    below (`_fill`), and sums p(mu) over the root's live cuts read from
    them; it reads and writes no memo.  A chart scan hands each
    candidate its live cuts instead, as (c, left, right) in ascending c:
    the cut and the nonzero values of inputs[:c] and inputs[c:].
    `transfer(inputs, cuts)` sums p(mu) over them to m_n, and
    `slice_value(inputs, cuts)` takes the one nonzero H(mu) among them as
    the candidate's own slice value.

    `memo` maps each candidate `slice_value` was asked for to its value
    (None when zero): the scans' shared cache, which a later scan on the
    same evaluator (`functors.pi_category`'s closure) reads instead of
    computing it again.  An entry written from outside must hold the true
    value.
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

    def _signed(self, out, pre, i, c):
        """out, the H(mu) at cut c of a slice that starts at input i,
        times its internal vertex's sign (-1)^|inputs[i:c]|; pre is
        `_prefix_degrees(inputs)`, not None."""
        field = self.backend.field
        sign = field.sign(pre[c] - pre[i] - (c - i - 1))
        return out if sign == field.one else self.backend.scale(out, sign)

    def _fill(self, inputs, pre):
        """The root's live cuts (c, left, right) of `inputs`, in ascending
        c, read from its nonzero proper slices; pre is
        `_prefix_degrees(inputs)`.

        A length keeps only its nonzero slices, as an ascending row of
        (i, value of inputs[i:i + l]).  A slice of length >= 3 takes its
        value from its two end cuts alone, c = i + 1 and c = j - 1: any
        other cut multiplies two slice values, and mu_h of two slice
        values is None (the side condition of the module docstring).  So
        row l grows from the neighbours of row l - 1's slices: the slice
        at i is the right factor of cut i of inputs[i - 1:], then the left
        factor of cut i + l - 1 of inputs[i:].  The two terms of one
        target arrive next to each other, and a target with two nonzero
        ones is refused (ValueError); the growth stops at the first length
        without a nonzero slice.  first[l] and last[l] keep the values of
        inputs[:l] and inputs[n - l:], the root's factors."""
        n = len(inputs)
        backend = self.backend
        mu_h = backend.mu_h
        leaves = [backend.leaf(s) for s in inputs]
        first, last = [None] * n, [None] * n
        first[1], last[1] = leaves[0], leaves[-1]
        # slice order is (f_d, ..., f_1): the left factor is the prefix.
        # Length 2 has one cut; an arity-2 query has no proper slice
        row = []
        for i in range(n - 1 if n > 2 else 0):
            out = mu_h(leaves[i], leaves[i + 1])
            if out is not None:
                row.append((i, out if pre is None else self._signed(out, pre, i, i + 1)))
        length = 2
        while row:
            if row[0][0] == 0:
                first[length] = row[0][1]
            if row[-1][0] == n - length:
                last[length] = row[-1][1]
            length += 1
            if length == n:
                break
            prev, row = row, []
            for i, v in prev:
                # cut c = i of inputs[i - 1:i - 1 + length]: leaf times slice
                if i:
                    out = mu_h(leaves[i - 1], v)
                    if out is not None:
                        if pre is not None:
                            out = self._signed(out, pre, i - 1, i)
                        if row and row[-1][0] == i - 1:
                            # the cut c = j - 1 of this target came first
                            raise _second_term(inputs[i - 1:i - 1 + length],
                                               out, row[-1][1])
                        row.append((i - 1, out))
                # cut c = i + length - 1 of inputs[i:i + length]: slice
                # times leaf
                j = i + length
                if j <= n:
                    out = mu_h(v, leaves[j - 1])
                    if out is not None:
                        row.append((i, out if pre is None
                                    else self._signed(out, pre, i, j - 1)))
        return [(c, first[c], last[n - c]) for c in range(1, n)
                if first[c] is not None and last[n - c] is not None]

    def transfer(self, inputs, cuts=None):
        """m_d(f_d, ..., f_1) as {output symbol: coeff}, the signed sum of
        p(mu(left, right)) over the root's live cuts: the scan's `cuts`
        when given (see the class), else those a fill reads.

        The grading answers first: m_d is a class src(f_1) -> tgt(f_d) of
        degree sum |f_k| + 2 - d, so where Ext has no such class it is
        zero, and the query returns {} without a sum or a fill."""
        inputs = tuple(inputs)
        n = len(inputs)
        if n < 2:
            return {}
        backend, field = self.backend, self.backend.field
        recs = backend.symbols
        deg = 2 - n
        for s in inputs:
            deg += recs[s][2]
        if not backend.has_class(recs[inputs[-1]][0], recs[inputs[0]][1], deg):
            return {}
        pre = self._prefix_degrees(inputs)
        if cuts is None:
            cuts = self._fill(inputs, pre)
        total = {}
        for c, left, right in cuts:
            sign = field.one if pre is None else \
                field.sign(pre[n] - pre[c] - (n - c - 1))
            for k, v in backend.mu_p(left, right).items():
                field.accumulate(total, k, field.mul(sign, v))
        return total

    def slice_value(self, inputs, cuts):
        """The value of the slice `inputs` (None when zero): the signed
        H(mu(left, right)) of the one live cut (see the class) where it is
        nonzero, a second such cut refused (ValueError); memoized, so a
        second call is a memo read."""
        hit = self.memo.get(inputs, _MISS)
        if hit is not _MISS:
            return hit
        backend = self.backend
        pre = self._prefix_degrees(inputs)
        value = None
        for c, left, right in cuts:
            out = backend.mu_h(left, right)
            if out is None:
                continue
            if pre is not None:
                out = self._signed(out, pre, 0, c)
            if value is not None:
                raise _second_term(inputs, value, out)
            value = out
        self.memo[inputs] = value
        return value


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
    than the number of composable tuples; each (P, Q) that builds a
    candidate is one of its live cuts, and the candidate's cuts are handed
    to `transfer` and, below arity_max, to `slice_value`.  Deterministic:
    entries are inserted in (arity, key) order.
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

    # nonzero[n]: the leaves (n = 1) or nonzero slices of length n with
    # their values, keyed by the target of their first map, the object a
    # prefix must start at
    nonzero = {1: {}}
    for s in leaves:
        nonzero[1].setdefault(recs[s][1], []).append(((s,), backend.leaf(s)))
    for k in range(2, arity_max + 1):
        # candidate -> its live cuts (c, prefix value, suffix value), by c
        candidates = {}
        for c in range(1, k):
            suffixes = nonzero[k - c]
            for group in nonzero[c].values():
                for p, left in group:
                    for q, right in suffixes.get(recs[p[-1]][0], ()):
                        candidates.setdefault(p + q, []).append((c, left, right))
        grown = {}
        for inputs, cuts in sorted(candidates.items()):
            out = ev.transfer(inputs, cuts)
            value = ev.slice_value(inputs, cuts) if k < arity_max else None
            if out:
                emit(inputs, out)
            if value is not None:
                grown.setdefault(recs[inputs[0]][1], []).append((inputs, value))
        nonzero[k] = grown
    return table
