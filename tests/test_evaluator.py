"""The slice evaluator against the recursive slice evaluator it
replaced, and against the literal tree sum.

`RecursiveEvaluator` is a frozen copy of the recursive evaluator: it
computes every slice as the signed H(mu(A(prefix), A(suffix))) of its one
cut where that is nonzero, trying every cut and recursing into both
parts, and refuses a slice with two such cuts.  Both paths of the evaluator must
give its outputs: the point query's fill and the chart scan's cuts.  A
query the grading decides (no class in its output's degree, see
`_has_output_class`) fills nothing, and the recursion gives {} there too.
A point query memoizes nothing; a scan memoizes its candidates' slice
values, each the recursion's.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pia2 import symbols as sym
from pia2.ainf import expected_table
from pia2.complexes import (pia2_end_category, tabulated_contraction,
                            generic_contraction)
from pia2.linalg import F2, QQ
from pia2.transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                           compute_operation_table)
from helpers import composable_pairs
from tree_oracle import LEAF, enumerate_trees, evaluate_tree, transfer_mn_by_trees

_MISS = object()


def _koszul_sign(field, backend, part):
    """(-1)^|X| for a slice X of l inputs, |X| = sum of input degrees -
    (l - 1): the left slice at an internal split, the right one at the
    root."""
    if field.name == "f2":
        return field.one
    e = sum(backend.symbols[s][2] for s in part) - (len(part) - 1)
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
            if out is None:
                continue
            if acc is not None:
                raise ValueError(f"slice {slice_key!r} has two nonzero terms")
            sign = _koszul_sign(field, backend, slice_key[:cut])
            acc = out if sign == field.one else backend.scale(out, sign)
        self.memo[slice_key] = acc
        return acc

    def slice_value(self, inputs, cuts):
        return self._A(inputs)

    def transfer(self, inputs, cuts=None):
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
            sign = _koszul_sign(field, backend, inputs[cut:])
            for k, v in out.items():
                s = field.of(total.get(k, field.zero) + field.mul(sign, v))
                if s == field.zero:
                    total.pop(k, None)
                else:
                    total[k] = s
        return total


def _value(v):
    """A memo value in comparable form: None, a symbolic operand (an Ext
    symbol's string or an H tuple), or a HomElement's coordinates."""
    if v is None or isinstance(v, (str, tuple)):
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
    return len(part) == 1 or memo.get(part) is not None


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


def _proper_slices(inputs):
    """The proper slices of inputs of length >= 2, one per position: the
    slices a point query fills, a repeated sub-tuple once per place."""
    n = len(inputs)
    return [inputs[i:j] for i in range(n) for j in range(i + 2, n + 1)
            if j - i < n]


def _fill_end_cuts(memo, inputs):
    """The live end cuts of inputs' proper slices, counted by position:
    c = 1 and c = len(s) - 1, one cut at length 2, where the slice on the
    side opposite the leaf is nonzero.  These are the mu_h calls of its
    fill, with every sub-slice's value read off memo."""
    return sum(_nonzero(memo, s[:c]) and _nonzero(memo, s[c:])
               for s in _proper_slices(inputs) for c in {1, len(s) - 1})


def _pia2_matrix(field, contraction, window=14, degree_max=2):
    cat = pia2_end_category(window, field)
    return MatrixBackend.for_pia2(cat, contraction(cat), degree_max=degree_max)


def _has_output_class(backend, inputs):
    """Whether Ext has a class of m_d(inputs)'s source, target and
    degree: the test `TransferEvaluator.transfer` makes before a fill."""
    recs = backend.symbols
    return backend.has_class(recs[inputs[-1]][0], recs[inputs[0]][1],
                             sum(recs[s][2] for s in inputs) + 2 - len(inputs))


def _draw(backend, hits, n, arity_lo, arity_hi, degree_max, seed):
    """Seeded composable tuples of the backend's scan symbols of degree <=
    degree_max: half drawn from hits, half random walks of arity in
    [arity_lo, arity_hi]."""
    rng = random.Random(seed)
    recs = backend.symbols
    syms = sorted(backend.scan_symbols(degree_max))
    by_source = {}
    for s in syms:
        by_source.setdefault(recs[s][0], []).append(s)
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(rng.choice(hits))
            continue
        chain, obj = [], rng.choice(sorted(by_source))
        for _ in range(rng.randint(arity_lo, arity_hi)):
            s = rng.choice(by_source[obj])
            chain.append(s)
            obj = recs[s][1]
        out.append(tuple(reversed(chain)))
    return out


def _point_queries(n, arity_lo, arity_hi, degree_max, seed):
    """Seeded composable tuples: half nonzero operations of the expected
    table, half random walks."""
    hits = sorted(k for k in expected_table(arity_hi, degree_max).entries
                  if arity_lo <= len(k) <= arity_hi)
    return _draw(SymbolicBackend(), hits, n, arity_lo, arity_hi, degree_max, seed)


# (backend, (queries, arity range, input degree bound, seed)) ->
# (queries, decided by the grading, filled of arity 2, of arity 3,
#  nonzero, dead cuts of the filled proper slices)
_COLD = [
    ("symbolic", (300, 4, 6, 4, 7), (300, 116, 0, 0, 156, 1715)),
    ("symbolic", (100, 2, 3, 4, 11), (100, 31, 51, 18, 63, 0)),
    ("tabulated-f2", (200, 2, 5, 2, 12), (200, 76, 38, 49, 113, 115)),
    ("tabulated-q", (200, 2, 5, 2, 13), (200, 80, 42, 43, 113, 95)),
]


def test_cold_point_queries_match_recursion():
    """Outputs equal the recursion's, and no query memoizes anything.  A
    query with a class in its output degree runs mu_h on the live end cuts
    of its proper slices alone, a sub-tuple that repeats counted at each
    place, and mu_p on the root's live cuts: the cuts whose two factors are
    nonzero.  So a query of arity 2 makes no mu_h call, and one of arity 3
    makes two, the products of its two adjacent pairs of leaves.  A query
    without a class is zero in the recursion too and makes no product.
    On the symbolic backend and the tabulated matrix backends over F2 and
    Q; each case states how many queries of each sort it covered."""
    backends = {"symbolic": SymbolicBackend,
                "tabulated-f2": lambda: _pia2_matrix(F2, tabulated_contraction),
                "tabulated-q": lambda: _pia2_matrix(QQ, tabulated_contraction)}
    for name, (n, lo, hi, degree_max, seed), want in _COLD:
        backend = backends[name]()
        hits = sorted(k for k in expected_table(hi, degree_max).entries
                      if lo <= len(k) <= hi)
        queries = _draw(backend, hits, n, lo, hi, degree_max, seed)
        mu_h, mu_p = _count_calls(backend, "mu_h"), _count_calls(backend, "mu_p")
        decided = pairs = triples = nonzero = dead = 0
        for q in queries:
            old = RecursiveEvaluator(backend)
            want_out = old.transfer(q)
            new = TransferEvaluator(backend)
            mu_h[0] = mu_p[0] = 0
            out = new.transfer(q)
            assert out == want_out, (name, q)
            assert new.memo == {}, (name, q)
            if not _has_output_class(backend, q):
                assert out == {}, (name, q)
                assert mu_h[0] == mu_p[0] == 0, (name, q)
                decided += 1
                continue
            assert mu_h[0] == _fill_end_cuts(old.memo, q), (name, q)
            assert mu_p[0] == _root_live_cuts(old.memo, q), (name, q)
            if len(q) == 2:
                assert mu_h[0] == 0, (name, q)
                pairs += 1
            if len(q) == 3:
                assert mu_h[0] == 2, (name, q)
                triples += 1
            dead += sum(len(s) - 1 for s in _proper_slices(q)) - mu_h[0]
            nonzero += bool(out)
        assert (len(queries), decided, pairs, triples, nonzero, dead) == want, name


def test_point_queries_at_the_benchmark_bounds_match_recursion():
    """At arity 7..9 and input degree <= 6, the bounds of the benchmark's
    point queries, a point query gives the recursion's output and the
    expected table's entry, or zero where the table has none."""
    backend = SymbolicBackend()
    expected = expected_table(9, 6)
    nonzero = 0
    for q in _point_queries(300, 7, 9, 6, seed=10):
        e = expected.get(q)
        want = {} if e is None else {e["output"]: e["coeff"]}
        out = TransferEvaluator(backend).transfer(q)
        assert out == RecursiveEvaluator(backend).transfer(q) == want, q
        nonzero += bool(out)
    assert 150 <= nonzero < 300


def test_warm_point_queries_match_recursion():
    """Point queries on an evaluator whose memo a scan filled read none
    of it and write none: with every memo entry overwritten by a wrong
    value, they give the recursion's outputs and leave the memo as it
    was."""
    backend = SymbolicBackend()
    ev = TransferEvaluator(backend)
    compute_operation_table(6, 4, backend, evaluator=ev)
    assert len(ev.memo) > 100
    wrong = {k: None if v is not None else "u1^1" for k, v in ev.memo.items()}
    ev.memo = dict(wrong)
    nonzero = 0
    for q in _point_queries(300, 4, 6, 4, seed=8):
        out = ev.transfer(q)
        assert out == RecursiveEvaluator(backend).transfer(q), q
        nonzero += bool(out)
    assert ev.memo == wrong
    assert nonzero >= 150


def test_memo_without_sub_slices_gets_a_full_fill():
    """A memo holding a query's longest prefix and suffix but not their
    sub-slices (an outside write) must not pass the missing slices off as
    zero: the point query grows its slices itself and leaves the memo as
    it was."""
    backend = SymbolicBackend()
    queries = [q for q in _point_queries(100, 5, 6, 4, seed=9)
               if RecursiveEvaluator(backend).transfer(q)]
    assert len(queries) >= 20
    for q in queries:
        old = RecursiveEvaluator(backend)
        want = old.transfer(q)
        ev = TransferEvaluator(backend)
        partial = {q[:-1]: old.memo[q[:-1]], q[1:]: old.memo[q[1:]]}
        ev.memo = dict(partial)
        assert ev.transfer(q) == want, q
        assert ev.memo == partial, q


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
@pytest.mark.parametrize("contraction", [tabulated_contraction, generic_contraction],
                         ids=["tabulated", "generic"])
def test_has_class_agrees_across_backends(field, contraction):
    """The symbols' answer is the contraction's classes' answer, on every
    hom pair and every degree from -2 to window - 4."""
    window = 14
    symbolic = SymbolicBackend()
    matrix = _pia2_matrix(field, contraction, window=window, degree_max=window - 4)
    answers = [(x, y, d, symbolic.has_class(x, y, d))
               for x in sym.OBJECTS for y in sym.OBJECTS
               for d in range(-2, window - 3)]
    for x, y, d, yes in answers:
        assert matrix.has_class(x, y, d) == yes, (x, y, d)
    assert sum(yes for *_, yes in answers) == 30
    assert len(answers) == 208


def test_tuples_without_an_output_class_are_zero():
    """Every composable tuple of arity <= 5 and input degrees <= 3 that
    the degree test rejects is zero in the recursion."""
    backend = SymbolicBackend()
    by_source = {}
    for s in backend.scan_symbols(3):
        by_source.setdefault(backend.src(s), []).append(s)
    tuples, grown = [], [(s,) for group in by_source.values() for s in group]
    for _ in range(2, 6):
        grown = [(s,) + t for t in grown for s in by_source.get(backend.tgt(t[0]), ())]
        tuples += grown
    old = RecursiveEvaluator(backend)
    rejected = [t for t in tuples if not _has_output_class(backend, t)]
    assert all(old.transfer(t) == {} for t in rejected)
    assert (len(rejected), len(tuples)) == (1732, 2224)


def test_root_slice_is_memoized_on_request():
    """slice_value gives the recursion's value from the live cuts, zero
    or not, and a second call reads the memo without a product."""
    for q in (("(12)", "j1", "b.u1^1", "p1", "(21)"),
              ("p1", "(21)", "(12)", "(21)", "j2")):
        backend = SymbolicBackend()
        old = RecursiveEvaluator(backend)
        want = old._A(q)
        cuts = [(c, old._A(q[:c]), old._A(q[c:])) for c in range(1, len(q))
                if _nonzero(old.memo, q[:c]) and _nonzero(old.memo, q[c:])]
        assert cuts
        ev = TransferEvaluator(backend)
        mu_h = _count_calls(backend, "mu_h")
        assert ev.slice_value(q, cuts) == want
        assert mu_h[0] == len(cuts)
        assert ev.slice_value(q, cuts) == want
        assert mu_h[0] == len(cuts) and ev.memo == {q: want}
    assert want is not None


class OneTreeMagmaBackend:
    """One planar tree survives: for a shape decorated by letters, mu_h
    pairs two brackets only where their pair is a proper subtree of it,
    and mu_p only at its root.  An element is (bracket, coeff), so a slice
    value is at most one term and any sign error shows in a
    coefficient."""

    name = "one-tree-magma"
    field = QQ

    def __init__(self, shape, letters):
        # a letter -> (source, target, degree); the magma has no objects
        self.symbols = {s: (None, None, d) for s, d in letters}
        names = iter(self.symbols)

        def decorate(node):
            return next(names) if node == LEAF else (decorate(node[0]),
                                                     decorate(node[1]))

        def brackets(node):
            if node in self.symbols:
                return []
            return [node] + brackets(node[0]) + brackets(node[1])
        self.root = decorate(shape)
        self.inner = set(brackets(self.root)[1:])

    def has_class(self, src, tgt, deg):
        return True

    def leaf(self, s):
        return (s, QQ.one)

    def scale(self, e, c):
        return (e[0], QQ.mul(c, e[1]))

    def mu_h(self, ea, eb):
        pair = (ea[0], eb[0])
        return (pair, QQ.mul(ea[1], eb[1])) if pair in self.inner else None

    def mu_p(self, ea, eb):
        pair = (ea[0], eb[0])
        return {pair: QQ.mul(ea[1], eb[1])} if pair == self.root else {}


def _meets_side_condition(shape, root=True):
    """Does every vertex of the shape below its root have a leaf child?"""
    if shape == LEAF:
        return True
    if not root and LEAF not in shape:
        return False
    return all(_meets_side_condition(part, False) for part in shape)


def test_koszul_signs_match_one_tree_magma():
    """Over Q the Koszul sign of each cut reaches the slice values and the
    output.  For each of the 196 planar shapes of arity 2..7, on the magma
    where that one tree survives: a point query gives the tree's value
    (`tree_oracle.evaluate_tree`) on the 112 shapes that meet the side
    condition, with mu_h on every live end cut of its proper slices, and
    {} on the other 84, whose vertex with two inner children the fill
    never reaches; the recursion gives the tree's value on all 196.
    `slice_value`, handed all live cuts of a slice, inner ones too, gives
    the recursion's value on every slice of every shape, 882 of them
    nonzero.  102 outputs and 500 slice values carry the coefficient -1.
    In the free magma every tree is its own monomial, so a sum over all
    trees says no more than these checks tree by tree."""
    letters = [("a", 0), ("b", 1), ("c", 2), ("d", 1), ("e", 3), ("f", 1),
               ("g", 2)]
    shapes, negative = {True: 0, False: 0}, {"roots": 0, "slices": 0}
    nonzero_slices = 0
    for n in range(2, 8):
        inputs = tuple(s for s, _ in letters[:n])
        for shape in enumerate_trees(n):
            backend = OneTreeMagmaBackend(shape, letters[:n])
            want = evaluate_tree(shape, inputs, backend)
            assert list(want) == [backend.root]
            old, new = RecursiveEvaluator(backend), TransferEvaluator(backend)
            assert old.transfer(inputs) == want
            mu_h = _count_calls(backend, "mu_h")
            out = new.transfer(inputs)
            del backend.mu_h
            meets = _meets_side_condition(shape)
            shapes[meets] += 1
            if meets:
                assert out == want, shape
                assert mu_h[0] == _fill_end_cuts(old.memo, inputs), shape
            else:
                assert out == {}, shape
            assert new.memo == {}
            negative["roots"] += want[backend.root] == -1
            for i in range(n - 1):
                for j in range(i + 2, n + 1):
                    part = inputs[i:j]
                    cuts = [(c, old._A(part[:c]), old._A(part[c:]))
                            for c in range(1, len(part))
                            if _nonzero(old.memo, part[:c])
                            and _nonzero(old.memo, part[c:])]
                    value = new.slice_value(part, cuts)
                    assert value == old._A(part), (shape, part)
                    nonzero_slices += value is not None
                    negative["slices"] += value is not None and value[1] == -1
    assert shapes == {True: 112, False: 84}
    assert nonzero_slices == 882
    assert negative == {"roots": 102, "slices": 500}


class FillCounter(TransferEvaluator):
    """Counts the point-query fills, and keeps the inputs and cuts of
    each transfer call."""

    def __init__(self, backend):
        super().__init__(backend)
        self.fills = 0
        self.transfers = []

    def _fill(self, inputs, pre):
        self.fills += 1
        return super()._fill(inputs, pre)

    def transfer(self, inputs, cuts=None):
        self.transfers.append((tuple(inputs), cuts))
        return super().transfer(inputs, cuts)


SCANS = [
    (8, 4, SymbolicBackend),
    (4, 2, lambda: _pia2_matrix(F2, tabulated_contraction)),
    (4, 2, lambda: _pia2_matrix(QQ, tabulated_contraction)),
    (3, 2, lambda: _pia2_matrix(F2, generic_contraction)),
]


def test_chart_scans_match_recursion():
    """The tables are the recursion's.  The scan makes no fill: it calls
    transfer once per candidate, with the candidate's live cuts and their
    factors' values, the recursion's.  Its memo holds the recursion's
    values, of every nonzero slice below the top arity, and mu_h runs on
    the memoized slices' live cuts alone."""
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
        assert new.fills == 0
        candidates = {inputs for inputs, _ in new.transfers}
        assert len(candidates) == len(new.transfers) > 0
        for inputs, cuts in new.transfers:
            live = [c for c in range(1, len(inputs))
                    if _nonzero(old.memo, inputs[:c])
                    and _nonzero(old.memo, inputs[c:])]
            assert [c for c, _, _ in cuts] == live, inputs
            for c, left, right in cuts:
                assert _value(left) == _value(old._A(inputs[:c])), inputs
                assert _value(right) == _value(old._A(inputs[c:])), inputs
        assert set(table.entries) <= candidates
        want = _memo(old)
        got = _memo(new)
        assert all(want[k] == v for k, v in got.items())
        assert {k for k, v in want.items()
                if v is not None and len(k) < arity_max} <= set(got)
        assert {k for k in got if len(k) >= arity_max} == set()
        assert mu_h[0] == _live_cuts(new.memo)


class TermCounter(TransferEvaluator):
    """Counts the nonzero terms of each slice `slice_value` sums (H(mu)
    images) and of each root `transfer` sums (p(mu) images): slices[k]
    and roots[k] are the numbers of those with k nonzero terms."""

    def __init__(self, backend):
        super().__init__(backend)
        self.seen = 0
        self.slices, self.roots = {}, {}
        for name, nonzero in (("mu_h", lambda out: out is not None),
                              ("mu_p", bool)):
            inner = getattr(backend, name)

            def counted(a, b, inner=inner, nonzero=nonzero):
                out = inner(a, b)
                self.seen += nonzero(out)
                return out
            setattr(backend, name, counted)

    def _tally(self, histogram):
        histogram[self.seen] = histogram.get(self.seen, 0) + 1
        self.seen = 0

    def slice_value(self, inputs, cuts):
        out = super().slice_value(inputs, cuts)
        self._tally(self.slices)
        return out

    def transfer(self, inputs, cuts=None):
        out = super().transfer(inputs, cuts)
        self._tally(self.roots)
        return out


# slices and roots of the scan by their number of nonzero terms
@pytest.mark.parametrize("make, arity_max, degree_max, slices, roots", [
    (SymbolicBackend, 9, 8, {0: 1540, 1: 98}, {0: 1538, 1: 354}),
    (lambda: _pia2_matrix(F2, tabulated_contraction, window=24, degree_max=4),
     6, 4, {0: 288, 1: 36}, {0: 308, 1: 110}),
], ids=["symbolic", "tabulated-f2"])
def test_one_tree_per_operation(make, arity_max, degree_max, slices, roots):
    """On this instance every operation comes from one planar tree: in a
    scan no slice and no root has two or more nonzero terms, each entry's
    root has exactly one, and the counts are stated.  A point query on
    each entry gives the entry, so its fill, which refuses a slice with
    two nonzero terms, never meets one."""
    backend = make()
    ev = TermCounter(backend)
    table = compute_operation_table(arity_max, degree_max, backend, evaluator=ev)
    assert (ev.slices, ev.roots) == (slices, roots)
    assert roots[1] == len(table)
    for q in table.entries:
        e = table.get(q)
        assert TransferEvaluator(backend).transfer(q) == {e["output"]: e["coeff"]}


@pytest.mark.parametrize("degree_max, make_backend",
                         [(d, make) for _, d, make in SCANS[1:]],
                         ids=["tabulated-f2", "tabulated-q", "generic-f2"])
def test_matrix_scans_meet_the_side_condition(degree_max, make_backend):
    """H(mu(H x, H y)) = 0 on the values a matrix scan forms: every mu_h
    whose two operands are both slice values, neither a leaf, is None.
    The scans of SCANS stop at arity 4, and a slice of length <= 3 has
    only end cuts, so the scan here runs to arity 6, where such products
    form."""
    backend = make_backend()
    leaves, both_slices = [], []
    leaf, mu_h = backend.leaf, backend.mu_h

    def leaf_kept(s):
        leaves.append(leaf(s))
        return leaves[-1]

    def mu_h_seen(a, b):
        out = mu_h(a, b)
        if not any(a is e or b is e for e in leaves):
            both_slices.append(out)
        return out
    backend.leaf, backend.mu_h = leaf_kept, mu_h_seen
    compute_operation_table(6, degree_max, backend)
    assert len(both_slices) > 0
    assert all(out is None for out in both_slices)


@pytest.mark.parametrize("make, narrow, wide, calls", [
    (SymbolicBackend, (4, 2), (6, 4), (296, 364)),
    (lambda: _pia2_matrix(QQ, tabulated_contraction, window=16, degree_max=4),
     (3, 2), (4, 4), (122, 148)),
], ids=["symbolic", "tabulated-q"])
def test_wider_scan_reuses_the_narrower_scans_memo(make, narrow, wide, calls):
    """A wider scan on the evaluator of a narrower one, as the closure of
    `functors.pi_category` runs, gives a fresh evaluator's table and memo
    with fewer mu_h calls: it reads the narrower scan's candidates."""
    tables, memos, mu_h = [], [], []
    for bounds in ((narrow, wide), (wide,)):
        backend = make()
        ev = TransferEvaluator(backend)
        for arity_max, degree_max in bounds[:-1]:
            compute_operation_table(arity_max, degree_max, backend, evaluator=ev)
        mu_h.append(_count_calls(backend, "mu_h"))
        tables.append(compute_operation_table(*bounds[-1], backend, evaluator=ev))
        memos.append(_memo(ev))
    assert tables[0].dumps() == tables[1].dumps() and len(tables[0]) > 0
    assert memos[0] == memos[1]
    assert (mu_h[0][0], mu_h[1][0]) == calls


# -- the symbolic pair table ---------------------------------------------------

def _named(x):
    """A grammar factor as the symbolic backend takes and gives it: an Ext
    symbol by its canonical string, an H symbol as it is."""
    return x if sym.is_h(x) else sym.ext_to_str(x)


def _images(a, b):
    """The pair table's entry for (a, b) the long way: mu, then h_apply
    and p_apply, named as the backend names them; (H image or None,
    {class name: 1} or {})."""
    m = sym.mu(a, b)
    h, p = sym.h_apply(m), sym.p_apply(m)
    return (None if h is None else _named(h)), ({} if p is None else {_named(p): 1})


def test_pair_table_matches_mu_then_image(monkeypatch):
    """On single operands, in either order of the two products; one mu
    per pair serves both images."""
    want = {(a, b): _images(a, b) for a, b in composable_pairs(3)}
    mu_calls = []
    mu = sym.mu
    monkeypatch.setattr(sym, "mu", lambda a, b: mu_calls.append((a, b)) or mu(a, b))
    for h_first in (True, False):
        backend = SymbolicBackend()
        for (a, b), (h, p) in want.items():
            ea, eb = _named(a), _named(b)
            if h_first:
                got = backend.mu_h(ea, eb), backend.mu_p(ea, eb)
            else:
                p_got = backend.mu_p(ea, eb)
                got = backend.mu_h(ea, eb), p_got
            assert got == (h, p), (a, b)
        assert len(mu_calls) == len(want)
        mu_calls.clear()


# the slice (p1, j1, b.u1^0) of this query has two live end cuts, both
# zero on the instance: p1 times the value of (j1, b.u1^0), and the value
# of (p1, j1) times b.u1^0
_TWO_CUTS = ("u1^1", "p1", "j1", "b.u1^0")


@pytest.mark.parametrize("equal", [False, True], ids=["distinct", "equal"])
@pytest.mark.parametrize("make", [
    SymbolicBackend, lambda: _pia2_matrix(QQ, tabulated_contraction)],
    ids=["symbolic", "tabulated-q"])
def test_two_live_cuts_refuse_the_slice(make, equal):
    """With mu_h wrapped so that both end cuts of the slice give nonzero H
    images, the point-query fill and the scan's `slice_value` each raise,
    naming the slice and both signed terms, and memoize nothing: distinct
    images and equal ones alike (over F2 two equal terms would cancel, and
    over Q these two, of opposite signs, would), neither kept nor
    summed."""
    backend, q = make(), _TWO_CUTS
    s, field = q[1:], backend.field
    old = RecursiveEvaluator(backend)
    cuts = [(1, backend.leaf(s[0]), old._A(s[1:])),
            (2, old._A(s[:2]), backend.leaf(s[2]))]
    assert all(left is not None and right is not None for _, left, right in cuts)
    assert [backend.mu_h(left, right) for _, left, right in cuts] == [None, None]
    images = [cuts[1][1], cuts[1][1] if equal else cuts[0][2]]
    terms = []
    for (c, _, _), image in zip(cuts, images):
        sign = _koszul_sign(field, backend, s[:c])
        terms.append(image if sign == field.one else backend.scale(image, sign))
    mu_h = backend.mu_h
    wrapped = {(repr(left), repr(right)): image
               for (_, left, right), image in zip(cuts, images)}

    def doubled(a, b):
        image = wrapped.get((repr(a), repr(b)))
        return mu_h(a, b) if image is None else image
    backend.mu_h = doubled
    ev = TransferEvaluator(backend)
    with pytest.raises(ValueError) as exc:
        ev._fill(q, ev._prefix_degrees(q))
    message = str(exc.value)
    assert message.startswith(
        f"slice {s!r} has two nonzero terms, {terms[0]!r} and {terms[1]!r}")
    assert ev.memo == {}
    with pytest.raises(ValueError) as exc:
        ev.slice_value(s, cuts)
    assert str(exc.value) == message and ev.memo == {}


# -- property: a point query and the literal tree sum agree -----------------

_BACKENDS = {
    "symbolic": SymbolicBackend,
    "tabulated-f2": lambda: _pia2_matrix(F2, tabulated_contraction, degree_max=4),
}
_SHARED = {}


def _shared(name):
    """Per backend name: the backend, the scan symbols of degree <= 4 by
    source, and the nonzero operations of the expected table (6,4) in the
    backend's symbols."""
    if name not in _SHARED:
        backend = _BACKENDS[name]()
        by_source = {}
        for s in backend.scan_symbols(4):
            by_source.setdefault(backend.symbols[s][0], []).append(s)
        hits = sorted(expected_table(6, 4).entries)
        _SHARED[name] = (backend, by_source, hits)
    return _SHARED[name]


def _check_agreement(name, data):
    """A composable tuple of arity 2..6 and input degrees <= 4, either a
    random walk or a nonzero operation: a point query agrees with the
    tree sum."""
    backend, by_source, hits = _shared(name)
    if data.draw(st.booleans(), label="nonzero operation"):
        inputs = data.draw(st.sampled_from(hits))
    else:
        obj = data.draw(st.sampled_from(sorted(by_source)))
        chain = []
        for _ in range(data.draw(st.integers(2, 6))):
            s = data.draw(st.sampled_from(by_source[obj]))
            chain.append(s)
            obj = backend.symbols[s][1]
        inputs = tuple(reversed(chain))
    want = transfer_mn_by_trees(inputs, backend)
    assert TransferEvaluator(backend).transfer(inputs) == want


_SETTINGS = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(st.data())
def test_property_symbolic_point_query_is_tree_sum(data):
    _check_agreement("symbolic", data)


@_SETTINGS
@given(st.data())
def test_property_tabulated_f2_point_query_is_tree_sum(data):
    _check_agreement("tabulated-f2", data)


# -- property: scans against point queries, windows against windows ----------
# Seeded draws: a failure is reported as drawn, never re-seeded or narrowed.

_SCANS = {
    "symbolic": (SymbolicBackend, 7, 4),
    "tabulated-f2": (lambda: _pia2_matrix(F2, tabulated_contraction), 5, 2),
    "generic-q": (lambda: _pia2_matrix(QQ, generic_contraction), 4, 2),
}


@pytest.mark.parametrize("name", sorted(_SCANS))
def test_property_scan_entries_are_point_queries(name):
    """Composable tuples within the scan's bounds, half its own entries and
    half random walks: a point query through a fresh evaluator gives the
    scan's entry where it has one and zero where it has none."""
    make, arity_max, degree_max = _SCANS[name]
    backend = make()
    scan = compute_operation_table(arity_max, degree_max, backend)
    nonzero = 0
    for q in _draw(backend, sorted(scan.entries), 300, 2, arity_max,
                   degree_max, seed=25):
        e = scan.get(q)
        want = {} if e is None else {e["output"]: e["coeff"]}
        assert TransferEvaluator(backend).transfer(q) == want, q
        nonzero += bool(want)
    assert 150 <= nonzero < 300


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
@pytest.mark.parametrize("contraction", [tabulated_contraction, generic_contraction],
                         ids=["tabulated", "generic"])
def test_property_transfer_is_window_stable(field, contraction):
    """The matrix backend at windows 14 and 24 gives the same point-query
    outputs on composable tuples of arity <= 4 and input degree <= 2."""
    narrow, wide = (_pia2_matrix(field, contraction, window=w) for w in (14, 24))
    hits = sorted(compute_operation_table(4, 2, narrow).entries)
    nonzero = 0
    for q in _draw(narrow, hits, 300, 2, 4, 2, seed=26):
        out = TransferEvaluator(narrow).transfer(q)
        assert TransferEvaluator(wide).transfer(q) == out, q
        nonzero += bool(out)
    assert 150 <= nonzero < 300
