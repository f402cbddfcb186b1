"""A-infinity structure container and verification.

AInfCategory wraps an operation table with strict unitality handled
structurally: identities never appear inside stored keys, m_2 with a unit
argument follows the unit laws (with the sign (-1)^{|g|} on the left unit
over Q), and any higher operation with a unit argument vanishes.  Past
the table's bounds m is read from the category's closure: one table of
all operations at wider bounds, built on first use and cached by its
bounds, for point queries and relation checks alike.

stasheff_check evaluates the quadratic relations with the sign exponent
s_n = |f_n| + ... + |f_1| - n.  A relation term at a tuple T is nonzero
only when T = O o_j K: an outer operation's key O with slot j, which
holds the output of an inner operation's key K, replaced by the inputs
of K (the tree formula on its support).  The check enumerates these
insertion tuples (insertion_tuples) from the category's closed
operations and evaluates the relation there by dict lookups; every other
composable tuple is zero.  The remaining checks (unitality, kappa
symmetry, classification, table diff) are scans over stored entries.
"""

import functools

from .linalg import F2
from .table import OperationTable
from . import symbols as sym


class AInfCategory:
    """Objects + graded hom basis + operation table.

    A basis symbol is a string, and `symbols` maps each symbol the
    category has to its (source, target, degree): the one place the
    category, its checks and the functors read a symbol's facts.  Every
    object x has the unit 1_x of degree 0: `units` maps x to it, and its
    record (x, x, 0) is written into `symbols` here."""

    def __init__(self, name, objects, hom_basis, table, field=F2, *,
                 symbols, closure=None):
        """hom_basis: callable (x, y, degree_max) -> list of symbol strings,
        the unit 1_x among those of (x, x); symbols: a mutable mapping
        symbol -> (source, target, degree) that holds every listed symbol
        other than the units (a symbol of Pi's grammar is looked up in the
        symbols table on first use); the table is complete within its
        metadata bounds, and closure(arity_max, degree_max) ->
        OperationTable, when given, holds the operations at wider bounds
        (without it m past the bounds is zero).  A closure's table covers
        the bounds its metadata states, and a bound stated as None is no
        bound: a formal category's closure covers every arity."""
        self.name = name
        self.objects = list(objects)
        self._hom_basis = hom_basis
        self.table = table
        self.units = {x: "1_" + x for x in self.objects}
        self.field = field
        self._unit_set = set(self.units.values())
        symbols.update({u: (x, x, 0) for x, u in self.units.items()})
        self.symbols = symbols
        self._closure = closure
        self._closed = {}     # covered (arity_max, degree_max) -> past-bound operations

    def hom_basis(self, x, y, degree_max):
        return self._hom_basis(x, y, degree_max)

    def degree(self, s):
        return self.symbols[s][2]

    def is_unit(self, s):
        return s in self._unit_set

    def m(self, inputs):
        """m_d on basis symbols: list of (coeff, symbol); [] when zero."""
        inputs = tuple(inputs)
        e = self.table.entries.get(inputs)
        if e is not None:                 # stored keys never hold units
            return [(e["coeff"], e["output"])]
        d = len(inputs)
        if d < 2:
            return []  # m_1 = 0 on every built-in instance
        if not self._unit_set.isdisjoint(inputs):
            if d != 2:
                return []
            f = self.field
            a, b = inputs
            if self.is_unit(a) and self.is_unit(b):
                return [(f.one, b)]
            if self.is_unit(b):           # m_2(f, 1) = f
                return [(f.one, a)]
            return [(f.sign(self.degree(b)), b)]   # m_2(1, g) = (-1)^{|g|} g
        return self._m_fallback(inputs)

    def _m_fallback(self, inputs):
        """m on an identity-free tuple that is no stored key: read from
        the closure at (the arity, the larger of the top input degree and
        the table's degree bound), so that point queries within one such
        bound share it; zero within the table's bounds."""
        top = max(map(self.degree, inputs))
        dmax = self.table.metadata.get("degree_max")
        t = self._past_bounds(len(inputs), max(top, dmax or 0)).get(inputs)
        return [] if t is None else [t]

    def closed_operations(self, arity_max, degree_max):
        """m as {key: (coeff, output)} on every identity-free tuple of
        arity 2..arity_max with inputs of degree <= degree_max where m()
        gives a nonzero value: the stored entries (kept whatever their
        input degrees), and past the table's bounds the closure's keys
        within the requested bounds."""
        ops = {k: (e["coeff"], e["output"])
               for k, e in self.table.entries.items() if 2 <= len(k) <= arity_max}
        for k, t in self._past_bounds(arity_max, degree_max).items():
            if len(k) <= arity_max and max(map(self.degree, k)) <= degree_max:
                ops[k] = t
        return ops

    def _past_bounds(self, arity_max, degree_max):
        """The closure's operations on keys past the table's bounds, from
        the kept closure whose bounds cover (arity_max, degree_max); when
        none does, one is built there and kept under the bounds its table
        states.  {} within the table's bounds and without a closure."""
        if self._closure is None or self._in_table_bounds(arity_max, degree_max):
            return {}
        for (a, d), ops in self._closed.items():
            if (a is None or arity_max <= a) and (d is None or degree_max <= d):
                return ops
        closed = self._closure(arity_max, degree_max)
        bounds = (closed.metadata.get("arity_max", arity_max),
                  closed.metadata.get("degree_max", degree_max))
        ops = self._closed[bounds] = {
            k: (e["coeff"], e["output"]) for k, e in closed.entries.items()
            if not self._in_table_bounds(len(k), max(map(self.degree, k)))}
        return ops

    def _in_table_bounds(self, arity, degree):
        amax = self.table.metadata.get("arity_max")
        dmax = self.table.metadata.get("degree_max")
        return ((amax is None or arity <= amax)
                and (dmax is None or degree <= dmax))


# ---------------------------------------------------------------------------
# checks

def _report(check, violations, checked, nonempty=True):
    """A check's report; "checked" counts what it examined.  A report
    that examined nothing over a non-empty input fails: a pass over zero
    cases is no pass."""
    ok = not violations and (checked or not nonempty)
    return {"check": check, "status": "pass" if ok else "fail",
            "violations": violations, "checked": checked}


def sign_exponent(degrees, n):
    """The Stasheff sign exponent: |f_n| + ... + |f_1| - n."""
    return sum(degrees[:n]) - n


def stasheff_check(cat, d_max, degree_max, tuple_source=None):
    """The quadratic A-infinity relations on all composable identity-free
    tuples of length d <= d_max within the per-input degree bound.

    The relation is evaluated on the insertion tuples only
    (insertion_tuples), and every term is a lookup in the category's
    closed operations; the other tuples are zero.  Violations are listed
    by arity, then inputs (_report_order), as in the functor check.

    tuple_source, when given, is read whole and counted in place of the
    walk: every tuple of length >= 2 in it counts as checked.  The
    report's "checked" counts the composable tuples covered (a walk count,
    not an enumeration, when no source is given) and "evaluated" the
    insertion tuples.  A report that checked nothing over a non-empty
    table fails."""
    ops, insertions = insertion_tuples(cat, d_max, degree_max)
    units = cat._unit_set

    def m(key):
        t = ops.get(key)
        if t is not None:
            return (t,)
        return () if units.isdisjoint(key) else cat.m(key)   # unit laws
    if tuple_source is None:
        checked = count_composable_tuples(cat, d_max, degree_max)
    else:
        checked = sum(1 for t in tuple_source if len(t) >= 2)
    violations = []
    for inputs in sorted(insertions, key=_report_order):
        acc = _relation(cat, m, inputs)
        if acc:
            violations.append({"tuple": list(inputs), "expected": "0",
                               "got": {k: str(v) for k, v in acc.items()}})
    rep = _report("stasheff", violations, checked, bool(cat.table.entries))
    rep["evaluated"] = len(insertions)
    return rep


def _relation(cat, m, inputs):
    """The quadratic relation at inputs = (f_d, ..., f_1) as {output:
    coeff}, zero coefficients dropped; m maps a key to its terms."""
    f = cat.field
    signed = f.name != "f2"
    d = len(inputs)
    degs = None
    acc = {}
    for i in range(d - 1):
        for j in range(i + 2, d + 1):
            # the inner operation takes f_{n+l}, ..., f_{n+1} with
            # l = j - i and n = d - j
            for ci, si in m(inputs[i:j]):
                for co, so in m(inputs[:i] + (si,) + inputs[j:]):
                    coeff = f.mul(ci, co)
                    if signed:
                        if degs is None:
                            # degrees listed from f_1 upward
                            degs = [cat.degree(s) for s in reversed(inputs)]
                        if sign_exponent(degs, d - j) % 2:
                            coeff = f.neg(coeff)
                    f.accumulate(acc, so, coeff)
    return acc


def insertion_tuples(cat, d_max, degree_max):
    """(ops, tuples) for the relation check, read off the category's
    closed operations.

    The inner keys are the nonzero m on identity-free tuples of arity
    2..d_max-1 with inputs of degree <= degree_max.  The outer keys are
    the nonzero m of the same arities with inputs of degree <= D, the
    largest inner output degree (or degree_max if larger), plus the unit
    laws m_2(a, 1) and m_2(1, b) for inner outputs that are units.  tuples
    holds the composable T = O[:j] + K + O[j+1:] with O[j] the output of
    K, |T| <= d_max and every input a non-unit basis element of degree <=
    degree_max (_in_bounds); a relation term at any other tuple has a
    zero factor.  ops holds m on the inner and outer keys except the unit
    laws."""
    inner = cat.closed_operations(d_max - 1, degree_max)
    hom = _maps(cat, degree_max)
    by_output = {}
    for k, (_c, out) in inner.items():
        if all(s in hom for s in k):
            by_output.setdefault(out, []).append(k)
    if not by_output:
        return inner, set()
    top = max(max(map(cat.degree, by_output)), degree_max)
    ops = cat.closed_operations(d_max - 1, top)
    outers = list(ops)
    for x, u in cat.units.items():
        if u in by_output:
            outers += [(a, u) for a, (w, _y) in hom.items() if w == x]
            outers += [(u, b) for b, (_w, y) in hom.items() if y == x]
    keep = _in_bounds(hom, d_max)
    tuples = set()
    for o in outers:
        # T keeps every input of O but the one in slot j, and K's inputs
        # are all maps of hom, so O has at most one input outside hom,
        # which must be the slot; and K has at most room inputs (an outer
        # key has arity <= d_max - 1, so room >= 2 holds)
        room = d_max + 1 - len(o)
        outside = [j for j, s in enumerate(o) if s not in hom]
        if len(outside) > 1:
            continue
        for j in outside or range(len(o)):
            for k in by_output.get(o[j], ()):
                if len(k) <= room:
                    t = o[:j] + k + o[j + 1:]
                    if keep(t):
                        tuples.add(t)
    return ops, tuples


def _by_source(cat, degree_max):
    """{x: [(s, y)]}: the non-unit basis maps s: x -> y of degree <=
    degree_max, in hom_basis order."""
    by_source = {}
    for x in cat.objects:
        for y in cat.objects:
            for s in cat.hom_basis(x, y, degree_max):
                if not cat.is_unit(s):
                    by_source.setdefault(x, []).append((s, y))
    return by_source


def _maps(cat, degree_max):
    """{s: (x, y)}: the non-unit basis maps s: x -> y of degree <=
    degree_max, in hom_basis order."""
    return {s: (x, y) for x, maps in _by_source(cat, degree_max).items()
            for s, y in maps}


def _in_bounds(hom, arity_max):
    """The tuple test every check shares: whether a tuple (f_d, ..., f_1)
    has arity 2..arity_max and inputs that are all maps of hom ({s: (x,
    y)}, as _maps gives it) and compose."""
    return lambda t: (2 <= len(t) <= arity_max and all(s in hom for s in t)
                      and all(hom[a][0] == hom[b][1] for a, b in zip(t, t[1:])))


def _report_order(t):
    """The sort key of a check's report: a tuple's arity, then its inputs."""
    return len(t), t


def composable_tuples(cat, d_max, degree_max):
    """Identity-free composable tuples (f_d, ..., f_1), 2 <= d <= d_max.

    The order is a depth-first walk: by the start object's rank (objects
    sorted), then by each map's position among the maps out of its
    source, from f_1 on, and a walk comes before its extensions.  One
    stack of (tuple, target) pairs holds the walk; children are pushed in
    reverse so that they pop in hom_basis order, and a tuple grows at the
    front.  The tuples of length d_max, which have no children, are
    yielded in hom_basis order when their parent pops instead of pushed."""
    by_source = _by_source(cat, degree_max)
    reverse = {x: maps[::-1] for x, maps in by_source.items()}
    for x in sorted(by_source):
        stack = [((s,), y) for s, y in reverse[x]]
        while stack:
            t, y = stack.pop()
            if len(t) >= 2:
                yield t
            if len(t) < d_max - 1:
                stack += [((s,) + t, z) for s, z in reverse.get(y, ())]
            elif len(t) == d_max - 1:     # the last level has no children
                for s, _z in by_source.get(y, ()):
                    yield (s,) + t


def count_composable_tuples(cat, d_max, degree_max):
    """The number of tuples composable_tuples yields, counted as walks of
    length 2..d_max in the graph of basis maps rather than enumerated."""
    by_source = _by_source(cat, degree_max)
    ends = {x: 1 for x in by_source}      # walks of the current length ending at x
    total = 0
    for length in range(1, d_max + 1):
        nxt = {}
        for x, n in ends.items():
            for _s, y in by_source.get(x, ()):
                nxt[y] = nxt.get(y, 0) + n
        ends = nxt
        if length >= 2:
            total += sum(ends.values())
    return total


def unitality_check(cat, degree_max):
    """Unit laws and the vanishing of unit-padded higher operations.

    The container enforces these structurally, so this check exercises the
    m() accessor plus the invariant that no stored key contains a unit.
    The report's "checked" counts the unit-padded tuples evaluated and
    the stored keys scanned.
    """
    f = cat.field
    violations = []
    checked = 0
    for x in cat.objects:
        u = cat.units[x]
        for y in cat.objects:
            for s in cat.hom_basis(x, y, degree_max):
                checked += 1
                got = cat.m((s, u))  # m_2(f, 1_X) = f for f: X -> Y
                if got != [(f.one, s)]:
                    violations.append({"tuple": [s, u], "expected": s, "got": got})
            for s in cat.hom_basis(y, x, degree_max):
                checked += 1
                got = cat.m((u, s))  # (-1)^{|g|} m_2(1_X, g) = g
                if got != [(f.sign(cat.degree(s)), s)]:
                    violations.append({"tuple": [u, s], "expected": s, "got": got})
        # a unit in any slot of a higher operation gives zero
        for s in cat.hom_basis(x, x, degree_max):
            checked += 3
            if cat.m((s, u, s)) or cat.m((u, s, s)) or cat.m((s, s, u)):
                violations.append({"tuple": [s, u, s], "expected": "0", "got": "nonzero"})
    checked += len(cat.table.entries)
    for key in cat.table.entries:
        if any(cat.is_unit(s) for s in key):
            violations.append({"tuple": list(key), "expected": "identity-free key",
                               "got": "unit argument stored"})
    return _report("unitality", violations, checked, bool(cat.objects))


def kappa_symmetry_check(table):
    """Invariance of a preprojective table under the 1 <-> 2 relabeling;
    "checked" counts the entries compared with their image."""
    violations = []
    for key, v in table.entries.items():
        kkey = tuple(map(sym.kappa_str, key))
        w = table.entries.get(kkey)
        if w is None or w["output"] != sym.kappa_str(v["output"]) \
                or str(w["coeff"]) != str(v["coeff"]):
            violations.append({"tuple": list(key), "expected": "kappa image present",
                               "got": "missing or different"})
    return _report("kappa", violations, len(table.entries), bool(table.entries))


def classification_check(table):
    """Every stored operation of arity >= 3 contains one of the eight
    loop-insertion factor shapes: p_i followed by a (212)/(121) loop train
    ending in nothing, j_i, the outgoing arrow, or arrow + j_other.

    The leading p_i may be absent when the shape starts the tuple (the
    complete operation list contains families like ((12),(212)^n, j1,
    b.u1^n) = j2 where the p has been consumed by the output).  The
    shapes are built once per arity (_classified_shapes).  "checked"
    counts the entries of arity >= 3 examined, so over a table of binary
    products alone the check examines nothing and fails."""
    violations = []
    checked = 0
    for key in table.entries:
        if len(key) < 3:
            continue
        checked += 1
        if not _classified(key):
            violations.append({"tuple": list(key), "expected": "a classified factor",
                               "got": "none"})
    return _report("classification", violations, checked, bool(table.entries))


def _loops(i, n):
    """(212)^n-style loop factors as strings, for i = 1: (21),(12) pairs."""
    a, b = ("(21)", "(12)") if i == 1 else ("(12)", "(21)")
    return (a, b) * n


def _classified_patterns(i, n):
    ji, jo = f"j{i}", f"j{3 - i}"
    arrow = "(21)" if i == 1 else "(12)"
    loops = _loops(i, n)
    yield loops + (ji,)
    yield _loops(i, n + 1)
    yield loops + (arrow,)
    yield loops + (arrow, jo)


def _classified(key):
    """Whether key holds an anchored shape at one of its p_i or a bare
    shape at its start (_classified_shapes)."""
    d = len(key)
    anchored, bare = _classified_shapes(d)
    return (any(key[:e] in bare for e in range(1, d + 1))
            or any(key[q:e] in anchored for q, s in enumerate(key)
                   if s == "p1" or s == "p2" for e in range(q + 2, d + 1)))


@functools.cache
def _classified_shapes(d):
    """(anchored, bare): the sets of shapes a key of arity d is tested
    against, _classified_patterns at n = 0..d//2 that fit in d inputs,
    with a leading p_i (found anywhere in the key) and without one (found
    at its start).  They hold every shape of at most d inputs, so a key
    is tested by its slices at each p_i and at its start."""
    anchored, bare = set(), set()
    for i in (1, 2):
        for n in range(0, d // 2 + 1):
            for pat in _classified_patterns(i, n):
                if len(pat) < d:
                    anchored.add((f"p{i}",) + pat)
                if len(pat) <= d:
                    bare.add(pat)
    return frozenset(anchored), frozenset(bare)


# ---------------------------------------------------------------------------
# the expected table: the complete operation list instantiated

def expected_table(arity_max, degree_max, field=F2):
    """Instantiate the complete list of nonzero operations together with
    the composition table and all 1 <-> 2 mirror images.

    Each family is written once, in canonical strings with the i = 1
    labels, and every instance within the bounds is stored together with
    its kappa image (kappa relabels 1 <-> 2 and keeps arity, degrees and
    identities).  Families are instantiated over all parameter values with
    the written exponents nonnegative; instances whose output exponent
    would be negative are omitted (they vanish), and instances containing
    an identity input are left to strict unitality.
    """
    table = OperationTable({"arity_max": arity_max, "degree_max": degree_max,
                            "field": field.name, "backend": "expected",
                            "window": 0, "homotopy": "paper"})
    symbols, kappa = sym.SYMBOLS, sym.kappa_str
    units = {f"1_{x}" for x in sym.OBJECTS}
    kappa_object = {x: sym.kappa_object(x) for x in sym.OBJECTS}

    def store(key, objects, out, degree):
        e = table.entries.get(key)
        if e is None:
            table.add(key, objects, field.one, out, degree)
        else:
            assert e["output"] == out, f"family overlap disagrees at {key}"

    def add(inputs, output):
        if len(inputs) > arity_max:
            return
        recs = [symbols[s] for s in inputs]
        if any(r[3] > degree_max for r in recs) or not units.isdisjoint(inputs):
            return
        for a, b in zip(recs, recs[1:]):
            assert a[1] == b[2], (inputs, "not composable")
        degree = sum(r[3] for r in recs) + 2 - len(inputs)
        assert degree == symbols[output][3], (inputs, output)
        objects = [recs[-1][1]] + [r[2] for r in reversed(recs)]
        store(inputs, tuple(objects), output, degree)
        store(tuple(map(kappa, inputs)), tuple(kappa_object[x] for x in objects),
              kappa(output), degree)

    # Every family parameter is at most the exponent e of one of its
    # inputs u_i^e, a.u2^e or b.u1^e, whose degree 2e or 2e + 1 the degree
    # bound caps, so no instance lies past e = degree_max // 2.  The range
    # is tight at every degree_max >= 1: the top value is reached by the
    # composition u1^e u1^1 (degree_max >= 2) or a.u2^0 b.u1^0 (degree_max 1).
    rng = range(0, degree_max // 2 + 1)
    for n in rng:
        for k in rng:
            # m_{2n+2k+5}((12),(212)^k, j1, b.u1^{n+k+1}, p1, (212)^n, (21)) = 1_P2
            add(("(12)",) + _loops(1, k) + ("j1", f"b.u1^{n + k + 1}", "p1")
                + _loops(1, n) + ("(21)",), "1_P2")
    for n in rng:
        # m_{2n+3}((12),(212)^n, j1, b.u1^n) = j2
        add(("(12)",) + _loops(1, n) + ("j1", f"b.u1^{n}"), "j2")
    for n in rng:
        for k in range(0, n + 1):
            # m_{2n+3}((212)^k, j1, b.u1^n, p1, (212)^{n-k}) = 1_P1
            add(_loops(1, k) + ("j1", f"b.u1^{n}", "p1") + _loops(1, n - k), "1_P1")
    for n in rng:
        for k in rng:
            if k >= n + 1:
                # m_{2n+3}(u1^k, p1, (212)^n, j1) = u1^{k-n-1} a
                add((f"u1^{k}", "p1") + _loops(1, n) + ("j1",), f"a.u2^{k - n - 1}")
            if k >= n:
                # m_{2n+3}(u2^k b, p1, (212)^n, j1) = u2^{k-n}
                add((f"b.u1^{k}", "p1") + _loops(1, n) + ("j1",), _u(2, k - n))
            if k >= n + 1:
                # m_{2n+4}(u1^k, p1, (212)^n, (21), j2) = u1^{k-n-1}
                add((f"u1^{k}", "p1") + _loops(1, n) + ("(21)", "j2"), _u(1, k - n - 1))
                # m_{2n+4}(p1, (212)^n, (21), j2, u1^k) = u1^{k-n-1}
                add(("p1",) + _loops(1, n) + ("(21)", "j2", f"u1^{k}"), _u(1, k - n - 1))
                # m_{2n+4}(u2^k b, p1, (212)^n, (21), j2) = u2^{k-n-1} b
                add((f"b.u1^{k}", "p1") + _loops(1, n) + ("(21)", "j2"),
                    f"b.u1^{k - n - 1}")
    for n in rng:
        # m_{2n+3}(u2^n b, p1, (212)^n, (21)) = p2
        add((f"b.u1^{n}", "p1") + _loops(1, n) + ("(21)",), "p2")
        # m_{2n+2}(u1^n, p1, (212)^n) = p1   (n >= 1: n = 0 is the unit law)
        if n >= 1:
            add((f"u1^{n}", "p1") + _loops(1, n), "p1")
    for n in rng:
        for k in rng:
            # m_{2k+2n+4}((121)^k, j2, u1^{n+k+1}, p1, (212)^n, (21)) = 1_P2
            add(_loops(2, k) + ("j2", f"u1^{n + k + 1}", "p1") + _loops(1, n)
                + ("(21)",), "1_P2")
    for n in rng:
        # m_{2n+4}((121)^{n+1}, j2, u1^{n+1}) = j2
        add(_loops(2, n + 1) + ("j2", f"u1^{n + 1}"), "j2")
    for n in rng:
        for k in range(0, n + 1):
            # m_{2n+4}((212)^k, (21), j2, u1^{n+1}, p1, (212)^{n-k}) = 1_P1
            add(_loops(1, k) + ("(21)", "j2", f"u1^{n + 1}", "p1") + _loops(1, n - k),
                "1_P1")
    for m in rng:
        for n in rng:
            if n >= m:
                # m_{2m+3}(p2, (121)^m, j2, a.u2^n) = u2^{n-m}
                add(("p2",) + _loops(2, m) + ("j2", f"a.u2^{n}"), _u(2, n - m))
            if n >= m + 1:
                # m_{2m+3}(p2, (121)^m, j2, u1^n) = b.u1^{n-m-1}
                add(("p2",) + _loops(2, m) + ("j2", f"u1^{n}"), f"b.u1^{n - m - 1}")
            if n >= m:
                # m_{2m+4}(p1, (21), (121)^m, j2, a.u2^{n+1}) = a.u2^{n-m}
                add(("p1", "(21)") + _loops(2, m) + ("j2", f"a.u2^{n + 1}"),
                    f"a.u2^{n - m}")
    # the composition table
    add(("j1", "p2"), "(21)")
    for n in rng:
        for m in rng:
            if n >= 1 and m >= 1:
                add((f"u1^{n}", f"u1^{m}"), f"u1^{n + m}")
            if n >= 1:
                add((f"b.u1^{m}", f"u1^{n}"), f"b.u1^{n + m}")
                add((f"u2^{n}", f"b.u1^{m}"), f"b.u1^{n + m}")
            add((f"a.u2^{m}", f"b.u1^{n}"), f"u1^{n + m + 1}")
    return table


def _u(i, n):
    """u_i^n by its canonical string; u_i^0 is the identity of S_i."""
    return f"u{i}^{n}" if n else f"1_S{i}"

