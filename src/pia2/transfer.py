"""Homotopy transfer: sums over decorated planar binary trees.

A tree with leaves f_n .. f_1 evaluates by including each leaf, composing
at branch points, applying the homotopy H on internal edges and the
projection p at the root; m_n is the sum over all shapes.  The engine
evaluates either against the symbol tables (`SymbolicBackend`) or against
matrix contraction data (`MatrixBackend`).

Summing over shapes distributes over the root split, so the evaluator
uses the slice recursion A(s) = sum over splits of sign * H(mu(A(s1),
A(s2))) with a shared memo; evaluating every shape separately gives the
same answer (tested) but is exponentially slower at high arity.

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

from .trees import LEAF, enumerate_trees, leaves
from .table import OperationTable
from . import symbols as sym
from .linalg import F2

_MISS = object()


class SymbolicBackend:
    """Tree evaluation in the finite symbol grammar (F2 coefficients).

    Elements are formal sums {operand: coeff} where an operand is an Ext
    symbol (leaves, class reads) or an H symbol (internal edges).
    """

    name = "symbolic"

    def __init__(self, field=F2):
        if field.name != "f2":
            raise ValueError("the symbolic tables carry F2 coefficients")
        self.field = field
        self._mu_memo = {}

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

    def _mu(self, a, b):
        key = (a, b)
        r = self._mu_memo.get(key, _MISS)
        if r is _MISS:
            r = sym.mu(a, b)
            self._mu_memo[key] = r
        return r

    def mu_h(self, ea, eb):
        """H(mu(ea, eb)) for formal sums; {} when everything dies."""
        f = self.field
        out = {}
        for a, va in ea.items():
            for b, vb in eb.items():
                r = self._mu(a, b)
                if r is None:
                    continue
                h = sym.h_apply(r)
                if h is None:
                    continue
                s = f.add(out.get(h, f.zero), f.mul(va, vb))
                if s == f.zero:
                    out.pop(h, None)
                else:
                    out[h] = s
        return out

    def mu_p(self, ea, eb):
        """p(mu(ea, eb)): {Ext symbol: coeff}."""
        f = self.field
        out = {}
        for a, va in ea.items():
            for b, vb in eb.items():
                r = self._mu(a, b)
                if r is None:
                    continue
                cls = sym.p_apply(r)
                if cls is None:
                    continue
                s = f.add(out.get(cls, f.zero), f.mul(va, vb))
                if s == f.zero:
                    out.pop(cls, None)
                else:
                    out[cls] = s
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
    if field.name == "f2":
        return field.one
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


class TransferEvaluator:
    """Slice-memoized evaluation of m_n over all planar shapes at once."""

    def __init__(self, backend):
        self.backend = backend
        self.memo = {}
        self._deg = {}

    def _degree(self, s):
        d = self._deg.get(s)
        if d is None:
            d = self.backend.deg(s)
            self._deg[s] = d
        return d

    def _A(self, slice_key):
        if len(slice_key) == 1:
            return self.backend.leaf(slice_key[0])
        hit = self.memo.get(slice_key, _MISS)
        if hit is not _MISS:
            return hit
        backend, field = self.backend, self.backend.field
        acc = None
        for cut in range(1, len(slice_key)):
            # slice order is (f_d, ..., f_1): the left factor is the prefix
            el = self._A(slice_key[:cut])
            er = self._A(slice_key[cut:])
            if el is None or er is None:
                continue
            out = backend.mu_h(el, er)
            if out is None or backend.is_zero(out):
                continue
            sign = _koszul_sign(field, len(slice_key) - cut,
                                sum(self._degree(s) for s in slice_key[:cut]))
            if sign != field.one:
                out = backend.scale(out, sign)
            acc = out if acc is None else backend.add(acc, out)
        if acc is not None and backend.is_zero(acc):
            acc = None
        self.memo[slice_key] = acc
        return acc

    def transfer(self, inputs):
        """m_d(f_d, ..., f_1) as {output symbol: coeff}."""
        inputs = tuple(inputs)
        if len(inputs) < 2:
            return {}
        backend, field = self.backend, self.backend.field
        total = {}
        for cut in range(1, len(inputs)):
            el = self._A(inputs[:cut])
            er = self._A(inputs[cut:])
            if el is None or er is None:
                continue
            out = backend.mu_p(el, er)
            sign = _koszul_sign(field, len(inputs) - cut,
                                sum(self._degree(s) for s in inputs[:cut]))
            for k, v in out.items():
                s = field.add(total.get(k, field.zero), field.mul(sign, v))
                if s == field.zero:
                    total.pop(k, None)
                else:
                    total[k] = s
        return total


def transfer_mn(inputs, backend, evaluator=None):
    """Sum over all planar rooted binary shapes (slice recursion)."""
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

    window = getattr(getattr(backend, "cat", None), "window", 0)
    table = OperationTable({
        "arity_max": arity_max, "degree_max": degree_max,
        "field": field.name, "backend": backend.name, "window": window,
        "homotopy": getattr(getattr(backend, "contraction", None), "mode", "paper"),
    })

    def emit(key, inputs, out):
        if len(out) != 1:
            raise AssertionError(f"non-monomial transfer output at {inputs}: {out}")
        (osym, coeff), = out.items()
        objects = [backend.src(inputs[-1])]
        for s in reversed(inputs):
            objects.append(backend.tgt(s))
        degree = sum(backend.deg(s) for s in inputs) + 2 - len(inputs)
        out_name = backend.class_str(osym) if hasattr(backend, "class_str") \
            else backend.to_str(osym)
        table.add(key, objects, coeff, out_name, degree)

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
            out = ev.transfer(inputs)
            if out:
                emit(key, inputs, out)
            if k < arity_max and ev._A(inputs) is not None:
                grown.setdefault(backend.tgt(inputs[0]), []).append(inputs)
        nonzero[k] = grown
    return table
