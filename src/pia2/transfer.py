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

Both backends' mu_h returns None when the product is zero.  The symbolic
backend reads the H and p images of a symbol pair from one pair table,
filled with one mu per distinct pair, and sums terms over F2 by toggling
them in a set-like dict.

The same split makes table scans output-sensitive: a slice, or an input
tuple of m_d, is nonzero only if some cut splits it into two parts that
are each a single input (a leaf) or a nonzero slice, since a cut with a
zero part contributes nothing.  `compute_operation_table` therefore grows
its candidate tuples bottom-up by length from the nonzero slices alone
and never visits a tuple that this rule shows to be zero.

Sign convention over Q: composing tensor-product operators picks up the
Koszul sign (-1)^{|A_right| * deg(left slice)} where |A_right| is the
operator degree 1 - leaves(right subtree); over F2 all signs are +1.
"""

import functools

from .trees import LEAF, enumerate_trees, leaves
from .table import OperationTable
from . import symbols as sym
from .linalg import F2

_MISS = object()
_NO_IMAGES = (None, None)    # the H and p images of a zero product


class SymbolicBackend:
    """Tree evaluation in the finite symbol grammar (F2 coefficients).

    Elements are formal sums {operand: coeff} where an operand is an Ext
    symbol (leaves, class reads) or an H symbol (internal edges).
    """

    name = "symbolic"
    window = 0            # no resolution is truncated
    homotopy = "paper"    # the homotopy tables of the symbol grammar

    def __init__(self, field=F2):
        if field.name != "f2":
            raise ValueError("the symbolic tables carry F2 coefficients")
        self.field = field
        # (a, b) -> (h_apply(mu(a, b)), p_apply(mu(a, b))), one mu per pair
        self._pair = {}

    # symbols -------------------------------------------------------------
    def scan_symbols(self, degree_max):
        return sym.all_ext_symbols(degree_max)

    def src(self, s):
        return sym.ext_source(s)

    def tgt(self, s):
        return sym.ext_target(s)

    def deg(self, s):
        return sym.ext_degree(s)

    def to_str(self, s):
        return sym.ext_to_str(s)

    class_str = to_str     # outputs are Ext symbols too

    # elements ------------------------------------------------------------
    def leaf(self, s):
        return {s: self.field.one}

    def is_zero(self, e):
        return not e

    def scale(self, e, c):
        return {k: self.field.mul(c, v) for k, v in e.items()}

    def add(self, a, b):
        f = self.field
        out = dict(a)
        for k, v in b.items():
            s = f.add(out.get(k, f.zero), v)
            if s == f.zero:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    # products: over F2 every coefficient is one, so a formal sum is the
    # set of its terms; images are toggled in and a repeated one cancels
    def _images(self, a, b):
        """(h_apply(m), p_apply(m)) for m = mu(a, b), stored in the pair
        table: one mu per distinct pair serves both mu_h and mu_p."""
        m = sym.mu(a, b)
        r = self._pair[a, b] = (_NO_IMAGES if m is None else
                                (sym.h_apply(m), sym.p_apply(m)))
        return r

    def mu_h(self, ea, eb):
        """H(mu(ea, eb)) for formal sums; None when everything dies."""
        pair, one = self._pair, self.field.one
        out = {}
        for a in ea:
            for b in eb:
                h = (pair.get((a, b)) or self._images(a, b))[0]
                if h is None:
                    continue
                if h in out:
                    del out[h]
                else:
                    out[h] = one
        return out or None

    def mu_p(self, ea, eb):
        """p(mu(ea, eb)): {Ext symbol: coeff}."""
        pair, one = self._pair, self.field.one
        out = {}
        for a in ea:
            for b in eb:
                cls = (pair.get((a, b)) or self._images(a, b))[1]
                if cls is None:
                    continue
                if cls in out:
                    del out[cls]
                else:
                    out[cls] = one
        return out


class MatrixBackend:
    """Tree evaluation through an EndCategory and contraction data.

    Scan symbols are (name, src, tgt, degree) tuples where name is either
    an Ext symbol tuple (preprojective instance) or a class-name string
    (generic instances such as A2).
    """

    name = "matrix"

    def __init__(self, cat, contraction, symbols):
        self.cat = cat
        self.contraction = contraction
        self.field = cat.field
        self.symbols = list(symbols)
        self.window = cat.window
        self.homotopy = contraction.mode

    @classmethod
    def for_pia2(cls, cat, contraction, degree_max=None):
        degree_max = degree_max if degree_max is not None else cat.window - 4
        syms = [(s, sym.ext_source(s), sym.ext_target(s), sym.ext_degree(s))
                for s in sym.all_ext_symbols(degree_max, include_identities=True)]
        return cls(cat, contraction, syms)

    @classmethod
    def for_classes(cls, cat, contraction, deg_max):
        syms = []
        for src in sorted(cat.complexes):
            for tgt in sorted(cat.complexes):
                for deg in range(0, deg_max + 1):
                    for name in contraction.classes(src, tgt, deg):
                        syms.append((name, src, tgt, deg))
        return cls(cat, contraction, syms)

    # symbols -------------------------------------------------------------
    def scan_symbols(self, degree_max):
        return [s for s in self.symbols
                if s[3] <= degree_max and not self._is_identity(s)]

    @staticmethod
    def _is_identity(s):
        name = s[0]
        if isinstance(name, tuple):
            return sym.is_identity(name)
        return name.startswith("1_")

    def src(self, s):
        return s[1]

    def tgt(self, s):
        return s[2]

    def deg(self, s):
        return s[3]

    def to_str(self, s):
        return sym.ext_to_str(s[0]) if isinstance(s[0], tuple) else s[0]

    def class_str(self, name):
        return sym.ext_to_str(name) if isinstance(name, tuple) else name

    # elements ------------------------------------------------------------
    def leaf(self, s):
        return self.contraction.include(s[1], s[2], s[3], s[0])

    def is_zero(self, e):
        return e is None or e.is_zero()

    def scale(self, e, c):
        return e.scale(c)

    def add(self, a, b):
        return a.add(b)

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


def _koszul_sign(field, right_leaves, left_deg):
    e = (1 - right_leaves) * left_deg
    return field.one if e % 2 == 0 else field.of(-1)


def evaluate_tree(shape, inputs, backend):
    """Evaluate one decorated tree on (f_n, ..., f_1); returns the
    {output symbol: coeff} dict after the root projection."""
    inputs = tuple(inputs)
    if leaves(shape) != len(inputs):
        raise ValueError("leaf count does not match input tuple")
    if len(inputs) < 2:
        raise ValueError("need at least two inputs")
    field = backend.field
    elems = [backend.leaf(s) for s in inputs]
    degs = [backend.deg(s) for s in inputs]

    def eval_sub(node, off):
        if node == LEAF:
            return elems[off]
        left, right = node
        nl = leaves(left)
        el = eval_sub(left, off)
        er = eval_sub(right, off + nl)
        if el is None or er is None or backend.is_zero(el) or backend.is_zero(er):
            return None
        out = backend.mu_h(el, er)
        if out is None or backend.is_zero(out):
            return None
        sign = _koszul_sign(field, leaves(right), sum(degs[off:off + nl]))
        return out if sign == field.one else backend.scale(out, sign)

    left, right = shape
    nl = leaves(left)
    el = eval_sub(left, 0)
    er = eval_sub(right, nl)
    if el is None or er is None:
        return {}
    out = backend.mu_p(el, er)
    sign = _koszul_sign(field, leaves(right), sum(degs[:nl]))
    if sign != field.one:
        out = {k: field.mul(sign, v) for k, v in out.items()}
    return out


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
    queries and holds every slice of every query (the root slice only
    through `_A` or `_memo_root`).  A query whose longest prefix and
    suffix are memoized visits only its prefixes and suffixes (see
    `_fill`).

    `memo` maps a slice to its value (None when zero); an entry written
    from outside must hold the true value.  Fills keep the memo closed
    under sub-slices; where an outside write breaks that, the
    prefix-and-suffix shortcut falls back to a full fill.
    """

    def __init__(self, backend):
        self.backend = backend
        self.memo = {}

    def _prefix_degrees(self, inputs):
        """pre[c] - pre[i] is the degree of inputs[i:c], the left factor of
        a cut; None over F2, where every Koszul sign is +1."""
        if self.backend.field.name == "f2":
            return None
        pre = [0]
        for s in inputs:
            pre.append(pre[-1] + self.backend.deg(s))
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
                        sign = _koszul_sign(field, j - c, pre[c] - pre[i])
                        if sign != field.one:
                            out = backend.scale(out, sign)
                    acc = out if acc is None else add(acc, out)
                if acc is not None and backend.is_zero(acc):
                    acc = None
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
        when _memo_root is set, so a later `_A(inputs)` is a lookup."""
        inputs = tuple(inputs)
        n = len(inputs)
        if n < 2:
            return {}
        backend, field = self.backend, self.backend.field
        pre = self._prefix_degrees(inputs)
        A, live = self._fill(inputs, n if _memo_root else n - 1, pre)
        row_n = n * (n + 1)
        total = {}
        while live:
            low = live & -live
            live ^= low
            cut = low.bit_length() - 1
            out = backend.mu_p(A[cut], A[row_n + cut])
            sign = (field.one if pre is None
                    else _koszul_sign(field, n - cut, pre[cut]))
            for k, v in out.items():
                s = field.add(total.get(k, field.zero), field.mul(sign, v))
                if s == field.zero:
                    total.pop(k, None)
                else:
                    total[k] = s
        return total


def transfer_mn(inputs, backend, evaluator=None):
    """Sum over all planar rooted binary shapes (interval table of slices)."""
    ev = evaluator or TransferEvaluator(backend)
    return ev.transfer(inputs)


def transfer_mn_by_trees(inputs, backend):
    """Reference evaluation shape by shape (the literal tree sum)."""
    field = backend.field
    total = {}
    for shape in enumerate_trees(len(inputs)):
        out = evaluate_tree(shape, inputs, backend)
        for k, v in out.items():
            s = field.add(total.get(k, field.zero), v)
            if s == field.zero:
                total.pop(k, None)
            else:
                total[k] = s
    return total


def compute_operation_table(arity_max, degree_max, backend, max_tuples=None,
                            evaluator=None):
    """Evaluate transfer_mn over the composable identity-free tuples with
    arity <= arity_max and per-input degree <= degree_max; only nonzero
    operations are stored.

    A tuple (f_d, ..., f_1) is visited only if some cut splits it into a
    prefix P and a suffix Q that are each a leaf or a nonzero slice, with
    P's last map starting where Q's first map ends.  Every other tuple is
    zero: m_d and the slice value A both sum over root cuts, and each term
    has a zero factor.  Candidates are built by length, from the nonzero
    slices of the shorter lengths, so the cost follows the support rather
    than the number of composable tuples.  max_tuples bounds the number of
    candidates evaluated.  Deterministic: entries are inserted in
    (arity, key) order.
    """
    if arity_max < 1:
        raise ValueError("arity bound must be at least 1")
    field = backend.field
    ev = evaluator or TransferEvaluator(backend)
    leaves = backend.scan_symbols(degree_max)
    names = {s: backend.to_str(s) for s in leaves}

    table = OperationTable({
        "arity_max": arity_max, "degree_max": degree_max,
        "field": field.name, "backend": backend.name,
        "window": backend.window, "homotopy": backend.homotopy,
    })

    def emit(key, inputs, out):
        if len(out) != 1:
            raise AssertionError(f"non-monomial transfer output at {inputs}: {out}")
        (osym, coeff), = out.items()
        objects = [backend.src(inputs[-1])]
        for s in reversed(inputs):
            objects.append(backend.tgt(s))
        degree = sum(backend.deg(s) for s in inputs) + 2 - len(inputs)
        table.add(key, objects, coeff, backend.class_str(osym), degree)

    # nonzero[n]: the leaves (n = 1) or nonzero slices of length n, keyed
    # by the target of their first map, the object a prefix must start at
    nonzero = {1: {}}
    for s in leaves:
        nonzero[1].setdefault(backend.tgt(s), []).append((s,))
    evaluated = 0
    for k in range(2, arity_max + 1):
        candidates = {}
        for i in range(1, k):
            suffixes = nonzero[k - i]
            for group in nonzero[i].values():
                for p in group:
                    for q in suffixes.get(backend.src(p[-1]), ()):
                        c = p + q
                        if c not in candidates:
                            candidates[c] = tuple(names[s] for s in c)
        evaluated += len(candidates)
        if max_tuples is not None and evaluated > max_tuples:
            raise ResourceWarning("tuple budget exceeded")
        grown = {}
        for inputs, key in sorted(candidates.items(), key=lambda kv: kv[1]):
            # one fill per candidate; below arity_max it memoizes the
            # whole slice, so _A(inputs) is a lookup
            out = ev.transfer(inputs, _memo_root=k < arity_max)
            if out:
                emit(key, inputs, out)
            if k < arity_max and ev._A(inputs) is not None:
                grown.setdefault(backend.tgt(inputs[0]), []).append(inputs)
        nonzero[k] = grown
    return table
