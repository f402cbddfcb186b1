"""The interval-table evaluator against the recursive slice evaluator it
replaced, and against the literal tree sum.

`RecursiveEvaluator` is a frozen copy of the recursive evaluator: it
computes every slice as the signed sum over its cuts of H(mu(A(prefix),
A(suffix))), recursing into both parts.  The interval table must give the
same outputs and leave the same memo (keys and values), cold and warm,
in point queries and in chart scans.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from pia2 import symbols as sym
from pia2.ainf import expected_table
from pia2.complexes import (pia2_end_category, tabulated_contraction,
                            generic_contraction)
from pia2.linalg import F2, QQ
from pia2.transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                           compute_operation_table, transfer_mn_by_trees)

_MISS = object()


def _koszul_sign(field, right_leaves, left_deg):
    if field.name == "f2":
        return field.one
    e = (1 - right_leaves) * left_deg
    return field.one if e % 2 == 0 else field.of(-1)


class RecursiveEvaluator:
    """The recursive slice evaluator, kept as the oracle."""

    def __init__(self, backend):
        self.backend = backend
        self.memo = {}

    def _A(self, slice_key):
        if len(slice_key) == 1:
            return self.backend.leaf(slice_key[0])
        hit = self.memo.get(slice_key, _MISS)
        if hit is not _MISS:
            return hit
        backend, field = self.backend, self.backend.field
        acc = None
        for cut in range(1, len(slice_key)):
            el = self._A(slice_key[:cut])
            er = self._A(slice_key[cut:])
            if el is None or er is None:
                continue
            out = backend.mu_h(el, er)
            if out is None or backend.is_zero(out):
                continue
            sign = _koszul_sign(field, len(slice_key) - cut,
                                sum(backend.deg(s) for s in slice_key[:cut]))
            if sign != field.one:
                out = backend.scale(out, sign)
            acc = out if acc is None else backend.add(acc, out)
        if acc is not None and backend.is_zero(acc):
            acc = None
        self.memo[slice_key] = acc
        return acc

    def transfer(self, inputs, _memo_root=False):
        # the root slice is memoized by the scan's own _A call
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
                                sum(backend.deg(s) for s in inputs[:cut]))
            for k, v in out.items():
                s = field.add(total.get(k, field.zero), field.mul(sign, v))
                if s == field.zero:
                    total.pop(k, None)
                else:
                    total[k] = s
        return total


def _value(v):
    """A memo value in comparable form: None, a formal sum, or a
    HomElement's coordinates."""
    if v is None or isinstance(v, dict):
        return v
    return (v.src, v.tgt, v.deg, v.coeffs)


def _memo(ev):
    return {k: _value(v) for k, v in ev.memo.items()}


def _count_calls(backend, name):
    """Wrap backend.<name> on the instance; the list holds the call count."""
    calls = [0]
    inner = getattr(backend, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)
    setattr(backend, name, counted)
    return calls


def _nonzero(memo, part):
    return len(part) == 1 or memo[part] is not None


def _live_cuts(memo):
    """The cuts of every memoized slice whose two factors are nonzero (a
    leaf or a nonzero memo value): the mu_h calls that computing the
    memo takes when only live cuts are visited."""
    return sum(_nonzero(memo, key[:c]) and _nonzero(memo, key[c:])
               for key in memo for c in range(1, len(key)))


def _root_live_cuts(memo, inputs):
    """The root cuts of inputs with two nonzero factors: its mu_p calls."""
    return sum(_nonzero(memo, inputs[:c]) and _nonzero(memo, inputs[c:])
               for c in range(1, len(inputs)))


def _pia2_matrix(field, contraction, window=14, degree_max=2):
    cat = pia2_end_category(window, field)
    return MatrixBackend.for_pia2(cat, contraction(cat), degree_max=degree_max)


def _point_queries(n, arity_lo, arity_hi, degree_max, seed):
    """Seeded composable tuples: half nonzero operations of the expected
    table, half random walks."""
    rng = random.Random(seed)
    syms = sorted(SymbolicBackend().scan_symbols(degree_max), key=sym.ext_to_str)
    by_source = {}
    for s in syms:
        by_source.setdefault(sym.ext_source(s), []).append(s)
    hits = sorted(k for k in expected_table(arity_hi, degree_max).entries
                  if arity_lo <= len(k) <= arity_hi)
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(tuple(sym.ext_from_str(s) for s in rng.choice(hits)))
            continue
        chain, obj = [], rng.choice(sorted(by_source))
        for _ in range(rng.randint(arity_lo, arity_hi)):
            s = rng.choice(by_source[obj])
            chain.append(s)
            obj = sym.ext_target(s)
        out.append(tuple(reversed(chain)))
    return out


def test_cold_point_queries_match_recursion():
    """Outputs and memos equal the recursion's, and mu_h and mu_p run on
    the live cuts alone: the cuts whose two factors are nonzero."""
    backend = SymbolicBackend()
    mu_h, mu_p = _count_calls(backend, "mu_h"), _count_calls(backend, "mu_p")
    nonzero = dead = 0
    for q in _point_queries(300, 4, 6, 4, seed=7):
        new, old = TransferEvaluator(backend), RecursiveEvaluator(SymbolicBackend())
        mu_h[0] = mu_p[0] = 0
        out = new.transfer(q)
        assert out == old.transfer(q), q
        assert _memo(new) == _memo(old), q
        assert mu_h[0] == _live_cuts(old.memo), q
        assert mu_p[0] == _root_live_cuts(old.memo, q), q
        dead += sum(len(k) - 1 for k in old.memo) - mu_h[0]
        nonzero += bool(out)
    assert nonzero >= 150
    assert dead > 0


def test_warm_point_queries_match_recursion():
    """One evaluator for all queries, with each query's longest prefix
    memoized first, so fills start from partly warm memos; the memo hits
    of the prefix-and-suffix shortcut set the bits the root cuts read."""
    backend = SymbolicBackend()
    mu_h, mu_p = _count_calls(backend, "mu_h"), _count_calls(backend, "mu_p")
    new, old = TransferEvaluator(backend), RecursiveEvaluator(SymbolicBackend())
    root_cuts = 0
    for q in _point_queries(300, 4, 6, 4, seed=8):
        assert new._A(q[:-1]) == old._A(q[:-1])
        assert new.transfer(q) == old.transfer(q), q
        root_cuts += _root_live_cuts(old.memo, q)
    assert _memo(new) == _memo(old)
    assert mu_h[0] == _live_cuts(old.memo)
    assert mu_p[0] == root_cuts > 0


def test_root_slice_is_memoized_on_request():
    backend = SymbolicBackend()
    q = (sym.E12, ("j", 1), sym.ext_g(2, 1), ("p", 1), sym.E21)
    ev = TransferEvaluator(backend)
    ev.transfer(q)
    assert q not in ev.memo and q[1:] in ev.memo and q[:-1] in ev.memo
    ev.transfer(q, _memo_root=True)
    old = RecursiveEvaluator(backend)
    old.transfer(q)
    assert ev.memo[q] == old._A(q)
    assert TransferEvaluator(backend)._A(q) == old._A(q)


def test_memo_without_sub_slices_gets_a_full_fill():
    """A memo holding a query's longest prefix and suffix but not their
    sub-slices (an outside write) must not pass the missing slices off as
    zero: the fill falls back to visiting every slice."""
    backend = SymbolicBackend()
    queries = [q for q in _point_queries(100, 5, 6, 4, seed=9)
               if RecursiveEvaluator(backend).transfer(q)]
    assert len(queries) >= 20
    for q in queries:
        old = RecursiveEvaluator(backend)
        want = old.transfer(q)
        ev = TransferEvaluator(backend)
        ev.memo = {q[:-1]: old.memo[q[:-1]], q[1:]: old.memo[q[1:]]}
        assert ev.transfer(q) == want, q
        assert _memo(ev) == _memo(old), q


class FreeMagmaBackend:
    """Every tree survives: mu_h and mu_p pair their operands into a new
    bracket, so A(s) is the signed sum of all bracketings of s, each its
    own term, and any sign error shows in a coefficient."""

    name = "free-magma"
    field = QQ

    def deg(self, s):
        return s[1]

    def leaf(self, s):
        return {s: QQ.one}

    def is_zero(self, e):
        return not e

    def scale(self, e, c):
        return {k: QQ.mul(c, v) for k, v in e.items()}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = QQ.add(out.get(k, QQ.zero), v)
            if out[k] == QQ.zero:
                del out[k]
        return out

    def _pair(self, tag, ea, eb):
        return {(tag, a, b): QQ.mul(va, vb) for a, va in ea.items()
                for b, vb in eb.items()}

    def mu_h(self, ea, eb):
        return self._pair("H", ea, eb)

    def mu_p(self, ea, eb):
        return self._pair("p", ea, eb)


def test_koszul_signs_match_recursion_and_trees():
    """Over Q the Koszul sign of each cut reaches the slice values."""
    backend = FreeMagmaBackend()
    letters = [("a", 0), ("b", 1), ("c", 2), ("d", 1), ("e", 3), ("f", 1)]
    negative = 0
    for n in range(2, 7):
        inputs = tuple(letters[:n])
        new, old = TransferEvaluator(backend), RecursiveEvaluator(backend)
        mu_h = _count_calls(backend, "mu_h")
        out = new.transfer(inputs, _memo_root=True)
        del backend.mu_h
        assert out == old.transfer(inputs) == transfer_mn_by_trees(inputs, backend)
        old._A(inputs)
        assert new.memo == old.memo
        # no product vanishes in the free magma: every cut is live
        assert mu_h[0] == _live_cuts(old.memo) == sum(
            len(k) - 1 for k in old.memo)
        negative += sum(v == -1 for val in new.memo.values() for v in val.values())
    assert negative > 0


class FillCounter(TransferEvaluator):
    """Counts the interval-table fills next to the transfer calls."""

    def __init__(self, backend):
        super().__init__(backend)
        self.fills = self.transfers = 0

    def _fill(self, inputs, top, pre, edges=None):
        self.fills += 1
        return super()._fill(inputs, top, pre, edges)

    def transfer(self, inputs, _memo_root=False):
        self.transfers += 1
        return super().transfer(inputs, _memo_root=_memo_root)


SCANS = [
    (8, 4, SymbolicBackend),
    (4, 2, lambda: _pia2_matrix(F2, tabulated_contraction)),
    (4, 2, lambda: _pia2_matrix(QQ, tabulated_contraction)),
    (3, 2, lambda: _pia2_matrix(F2, generic_contraction)),
]


def test_chart_scans_match_recursion():
    for arity_max, degree_max, make_backend in SCANS:
        backend = make_backend()
        new, old = FillCounter(backend), RecursiveEvaluator(backend)
        mu_h = _count_calls(backend, "mu_h")
        table = compute_operation_table(arity_max, degree_max, backend, evaluator=new)
        del backend.mu_h
        expected = compute_operation_table(arity_max, degree_max, backend,
                                           evaluator=old)
        assert len(expected) > 0
        assert table.dumps() == expected.dumps()
        assert _memo(new) == _memo(old)
        assert mu_h[0] == _live_cuts(old.memo)
        # one fill per candidate: the root slice comes from the same fill
        assert new.fills == new.transfers > 0


# -- the symbolic pair table ---------------------------------------------------

def _direct(ea, eb, apply):
    """The image of mu on formal sums the long way: mu per term pair,
    then `apply`, summed with the field's arithmetic."""
    out = {}
    for a, va in ea.items():
        for b, vb in eb.items():
            m = sym.mu(a, b)
            x = None if m is None else apply(m)
            if x is None:
                continue
            v = F2.add(out.get(x, F2.zero), F2.mul(va, vb))
            if v == F2.zero:
                out.pop(x, None)
            else:
                out[x] = v
    return out


def _check_pair_table(backend, ea, eb, h_first):
    calls = [("mu_h", sym.h_apply), ("mu_p", sym.p_apply)]
    for name, apply in calls if h_first else calls[::-1]:
        want = _direct(ea, eb, apply)
        got = getattr(backend, name)(ea, eb)
        assert got == ((want or None) if name == "mu_h" else want), (name, ea, eb)


def test_pair_table_matches_mu_then_image(monkeypatch):
    """On single terms, in either order of the two products; one mu per
    pair serves both images."""
    want = {(a, b): (_direct({a: 1}, {b: 1}, sym.h_apply) or None,
                     _direct({a: 1}, {b: 1}, sym.p_apply))
            for a, b in sym._composable_pairs(3)}
    mu_calls = []
    mu = sym.mu
    monkeypatch.setattr(sym, "mu", lambda a, b: mu_calls.append((a, b)) or mu(a, b))
    for h_first in (True, False):
        backend = SymbolicBackend()
        for (a, b), (h, p) in want.items():
            ea, eb = {a: 1}, {b: 1}
            if h_first:
                got = backend.mu_h(ea, eb), backend.mu_p(ea, eb)
            else:
                p_got = backend.mu_p(ea, eb)
                got = backend.mu_h(ea, eb), p_got
            assert got == (h, p), (a, b)
        assert len(mu_calls) == len(want)
        mu_calls.clear()


def test_pair_table_on_two_term_sums():
    """Homogeneous two-term sums, among them every pair of products with
    the same class image, which cancel over F2."""
    pairs = list(sym._composable_pairs(3))
    images = {}
    for a, b in pairs:
        m = sym.mu(a, b)
        if m is not None and sym.p_apply(m) is not None:
            images.setdefault(sym.p_apply(m), []).append((a, b))
    sums = []
    for group in images.values():
        for n, (a1, b1) in enumerate(group):
            for a2, b2 in group[n + 1:]:
                if (a1 != a2 and b1 != b2
                        and sym.elem_source(a1) == sym.elem_source(a2)
                        and sym.elem_target(b1) == sym.elem_target(b2)):
                    sums.append(({a1: 1, a2: 1}, {b1: 1, b2: 1}))
    cancelling = len(sums)
    assert cancelling > 0
    rng = random.Random(13)
    for _ in range(500):
        (a1, b1), (a2, b2) = rng.sample(pairs, 2)
        if (sym.elem_source(a1) == sym.elem_source(a2)
                and sym.elem_target(b1) == sym.elem_target(b2)):
            sums.append(({a1: 1, a2: 1}, {b1: 1}))
            sums.append(({a1: 1}, {b1: 1, b2: 1}))
    assert len(sums) > cancelling
    backend = SymbolicBackend()
    for n, (ea, eb) in enumerate(sums):
        _check_pair_table(backend, ea, eb, h_first=n % 2 == 0)
    ea, eb = {sym.ext_u(1, 1): 1, sym.ext_u(1, 2): 1}, {sym.ext_u(1, 1): 1,
                                                         sym.ext_u(1, 2): 1}
    # u1^1 u1^2 + u1^2 u1^1 = 0: only u1^2 and u1^4 survive
    assert backend.mu_p(ea, eb) == {sym.ext_u(1, 2): 1, sym.ext_u(1, 4): 1}


# -- property: cold, warm and the literal tree sum agree ---------------------

_BACKENDS = {
    "symbolic": SymbolicBackend,
    "tabulated-f2": lambda: _pia2_matrix(F2, tabulated_contraction, degree_max=4),
}
_SHARED = {}


def _shared(name):
    """Per backend name: the backend, one warm evaluator shared across
    draws, the scan symbols of degree <= 4 by source, and the nonzero
    operations of the expected table (6,4) in the backend's symbols."""
    if name not in _SHARED:
        backend = _BACKENDS[name]()
        by_source, by_name = {}, {}
        for s in backend.scan_symbols(4):
            by_source.setdefault(backend.src(s), []).append(s)
            by_name[backend.to_str(s)] = s
        hits = [tuple(by_name[x] for x in key)
                for key in sorted(expected_table(6, 4).entries)]
        _SHARED[name] = (backend, TransferEvaluator(backend), by_source, hits)
    return _SHARED[name]


def _check_agreement(name, data):
    """A composable tuple of arity 2..6 and input degrees <= 4, either a
    random walk or a nonzero operation: the cold and the warm evaluator
    agree with the tree sum."""
    backend, warm, by_source, hits = _shared(name)
    if data.draw(st.booleans(), label="nonzero operation"):
        inputs = data.draw(st.sampled_from(hits))
    else:
        obj = data.draw(st.sampled_from(sorted(by_source)))
        chain = []
        for _ in range(data.draw(st.integers(2, 6))):
            s = data.draw(st.sampled_from(by_source[obj]))
            chain.append(s)
            obj = backend.tgt(s)
        inputs = tuple(reversed(chain))
    want = transfer_mn_by_trees(inputs, backend)
    assert TransferEvaluator(backend).transfer(inputs) == want
    assert warm.transfer(inputs) == want


_SETTINGS = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(st.data())
def test_property_symbolic_cold_warm_trees(data):
    _check_agreement("symbolic", data)


@_SETTINGS
@given(st.data())
def test_property_tabulated_f2_cold_warm_trees(data):
    _check_agreement("tabulated-f2", data)
