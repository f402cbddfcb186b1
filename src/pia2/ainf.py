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

from .linalg import F2
from .table import OperationTable
from . import symbols as sym


class Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class AInfCategory:
    """Objects + graded hom basis + operation table + units."""

    def __init__(self, name, objects, hom_basis, table, units, field=F2,
                 degree_of=None, closure=None):
        """hom_basis: callable (x, y, degree_max) -> list of symbol strings;
        units: {object: unit symbol string}; degree_of: callable on symbol
        strings (defaults to the preprojective symbol grammar); the table
        is complete within its metadata bounds, and closure(arity_max,
        degree_max) -> OperationTable, when given, holds the operations
        at wider bounds (without it m past the bounds is zero).  A
        closure's table covers the bounds its metadata states, and a
        bound stated as None is no bound: a formal category's closure
        covers every arity."""
        self.name = name
        self.objects = list(objects)
        self._hom_basis = hom_basis
        self.table = table
        self.units = dict(units)
        self.field = field
        self._unit_set = set(units.values())
        self._degrees = Memo(degree_of or
                             (lambda s: sym.ext_degree(sym.ext_from_str(s))))
        self._closure = closure
        self._closed = {}     # covered (arity_max, degree_max) -> past-bound operations

    def hom_basis(self, x, y, degree_max):
        return self._hom_basis(x, y, degree_max)

    def degree(self, s):
        """The degree of a basis symbol; each symbol is parsed once."""
        return self._degrees[s]

    def is_unit(self, s):
        return s in self._unit_set

    def m(self, inputs):
        """m_d on basis symbols: list of (coeff, symbol); [] when zero."""
        inputs = tuple(inputs)
        e = self.table.entries.get(inputs)
        if e is not None:                 # stored keys never hold units
            return [self.stored_term(e)]
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
            # m_2(1, g) = (-1)^{|g|} g
            sign = f.one if (self.degree(b) % 2 == 0 or f.name == "f2") else f.of(-1)
            return [(sign, b)]
        return self._m_fallback(inputs)

    def _m_fallback(self, inputs):
        """m on an identity-free tuple that is no stored key: zero within
        the table's bounds, and past them read from the closure at (the
        arity, the larger of the top input degree and the table's degree
        bound), so that point queries within one such bound share it."""
        top = max(map(self.degree, inputs))
        if self._in_table_bounds(len(inputs), top):
            return []
        dmax = self.table.metadata.get("degree_max")
        t = self._past_bounds(len(inputs), max(top, dmax or 0)).get(inputs)
        return [] if t is None else [t]

    def stored_term(self, e):
        """The (coeff, symbol) term of a table entry; coefficients read
        from JSON are strings."""
        c = e["coeff"]
        return (self.field.of(int(c)) if isinstance(c, str) else c), e["output"]

    def closed_operations(self, arity_max, degree_max):
        """m as {key: (coeff, output)} on every identity-free tuple of
        arity 2..arity_max with inputs of degree <= degree_max where m()
        gives a nonzero value: the stored entries (kept whatever their
        input degrees), and past the table's bounds the closure's keys
        within the requested bounds."""
        ops = {k: self.stored_term(e) for k, e in self.table.entries.items()
               if 2 <= len(k) <= arity_max}
        if not self._in_table_bounds(arity_max, degree_max):
            for k, t in self._past_bounds(arity_max, degree_max).items():
                if len(k) <= arity_max and max(map(self.degree, k)) <= degree_max:
                    ops[k] = t
        return ops

    def _past_bounds(self, arity_max, degree_max):
        """The closure's operations on keys past the table's bounds, from
        the kept closure whose bounds cover (arity_max, degree_max); when
        none does, one is built there and kept under the bounds its table
        states.  {} without a closure."""
        if self._closure is None:
            return {}
        for (a, d), ops in self._closed.items():
            if (a is None or arity_max <= a) and (d is None or degree_max <= d):
                return ops
        closed = self._closure(arity_max, degree_max)
        bounds = (closed.metadata.get("arity_max", arity_max),
                  closed.metadata.get("degree_max", degree_max))
        ops = self._closed[bounds] = {
            k: self.stored_term(e) for k, e in closed.entries.items()
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
    (insertion_tuples), in composable_tuples order, and every term is a
    lookup in the category's closed operations; the other tuples are zero.

    tuple_source, when given, replaces the walk: all of it is read, every
    tuple of length >= 2 counts as checked, and the relation is evaluated
    on those that are insertion tuples.  The report's "checked" counts the
    composable tuples covered (a walk count, not an enumeration, when no
    source is given) and "evaluated" those whose relation was evaluated.
    A report that checked nothing over a non-empty table fails."""
    ops, insertions = insertion_tuples(cat, d_max, degree_max)
    units = cat._unit_set

    def m(key):
        t = ops.get(key)
        if t is not None:
            return (t,)
        return () if units.isdisjoint(key) else cat.m(key)   # unit laws
    if tuple_source is None:
        tuples = sorted(insertions, key=_walk_order(_by_source(cat, degree_max)))
        checked = count_composable_tuples(cat, d_max, degree_max)
    else:
        tuples, checked = tuple_source, None   # None: count the tuples read
    violations = []
    seen = evaluated = 0
    for inputs in tuples:
        if len(inputs) < 2:
            continue
        seen += 1
        if inputs not in insertions:
            continue
        evaluated += 1
        acc = _relation(cat, m, inputs)
        if acc:
            violations.append({"tuple": list(inputs), "expected": "0",
                               "got": {k: str(v) for k, v in acc.items()}})
    rep = _report("stasheff", violations, seen if checked is None else checked,
                  bool(cat.table.entries))
    rep["evaluated"] = evaluated
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
                    s = f.add(acc.get(so, f.zero), coeff)
                    if s == f.zero:
                        acc.pop(so, None)
                    else:
                        acc[so] = s
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
    degree_max; a relation term at any other tuple has a zero factor.
    ops holds m on the inner and outer keys except the unit laws."""
    inner = cat.closed_operations(d_max - 1, degree_max)
    by_source = _by_source(cat, degree_max)
    hom = {s: (x, y) for x, maps in by_source.items() for s, y in maps}
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
            outers += [(a, u) for a, _y in by_source.get(x, ())]
            outers += [(u, b) for b, (_w, y) in hom.items() if y == x]
    tuples = set()
    for o in outers:
        for j, s in enumerate(o):
            for k in by_output.get(s, ()):
                t = o[:j] + k + o[j + 1:]
                if (len(t) <= d_max and all(x in hom for x in t)
                        and all(hom[a][0] == hom[b][1] for a, b in zip(t, t[1:]))):
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


def _walk_order(by_source):
    """Sort key that puts tuples in composable_tuples order: the start
    object's rank, then each map's position among the maps out of its
    source, from f_1 on (a walk comes before its extensions)."""
    rank = {x: i for i, x in enumerate(sorted(by_source))}
    src = {s: x for x, maps in by_source.items() for s, _y in maps}
    pos = {s: i for maps in by_source.values() for i, (s, _y) in enumerate(maps)}
    return lambda t: (rank[src[t[-1]]],) + tuple(pos[s] for s in reversed(t))


def composable_tuples(cat, d_max, degree_max):
    """Identity-free composable tuples (f_d, ..., f_1), d <= d_max."""
    by_source = _by_source(cat, degree_max)

    def extend(chain, tgt):
        if len(chain) >= 2:
            yield tuple(reversed(chain))
        if len(chain) == d_max:
            return
        for s, y in by_source.get(tgt, ()):
            chain.append(s)
            yield from extend(chain, y)
            chain.pop()

    for x in sorted(by_source):
        for s, y in by_source[x]:
            yield from extend([s], y)


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


def unitality_check(cat, degree_max=6):
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
                want_sign = f.one if (cat.degree(s) % 2 == 0 or f.name == "f2") \
                    else f.of(-1)
                if got != [(want_sign, s)]:
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
        kkey = tuple(kappa_str(s) for s in key)
        w = table.entries.get(kkey)
        if w is None or w["output"] != kappa_str(v["output"]) \
                or str(w["coeff"]) != str(v["coeff"]):
            violations.append({"tuple": list(key), "expected": "kappa image present",
                               "got": "missing or different"})
    return _report("kappa", violations, len(table.entries), bool(table.entries))


def kappa_str(s):
    return sym.ext_to_str(sym.kappa_ext(sym.ext_from_str(s)))


def classification_check(table):
    """Every stored operation of arity >= 3 contains one of the eight
    loop-insertion factor shapes: p_i followed by a (212)/(121) loop train
    ending in nothing, j_i, the outgoing arrow, or arrow + j_other.

    The leading p_i may be absent when the shape starts the tuple (the
    complete operation list contains families like ((12),(212)^n, j1,
    b.u1^n) = j2 where the p has been consumed by the output).  "checked"
    counts the entries of arity >= 3 examined, so over a table of binary
    products alone the check examines nothing and fails."""
    violations = []
    checked = 0
    for key, v in table.entries.items():
        if len(key) < 3:
            continue
        checked += 1
        if not _contains_classified_factor(key):
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


def _contains_classified_factor(key):
    d = len(key)
    for i in (1, 2):
        pi = f"p{i}"
        for n in range(0, d // 2 + 1):
            for pat in _classified_patterns(i, n):
                anchored = (pi,) + pat
                if len(anchored) <= d and _has_consecutive(key, anchored):
                    return True
                if len(pat) <= d and key[:len(pat)] == pat:
                    return True
    return False


def _has_consecutive(key, pat):
    k = len(pat)
    return any(key[i:i + k] == pat for i in range(len(key) - k + 1))


# ---------------------------------------------------------------------------
# the expected table: the complete operation list instantiated

def expected_table(arity_max, degree_max, field=F2):
    """Instantiate the complete list of nonzero operations together with
    the composition table and all 1 <-> 2 mirror images.

    Families are instantiated over all parameter values with the written
    exponents nonnegative; instances whose output exponent would be
    negative are omitted (they vanish), and instances containing an
    identity input are left to strict unitality.
    """
    table = OperationTable({"arity_max": arity_max, "degree_max": degree_max,
                            "field": field.name, "backend": "expected",
                            "window": 0, "homotopy": "paper"})
    seen = {}

    def u(i, n):
        return sym.ext_u(i, n)

    def g(i, n):
        return sym.ext_g(i, n)

    def add(inputs, output):
        if len(inputs) > arity_max:
            return
        if any(sym.is_identity(s) for s in inputs):
            return
        if any(sym.ext_degree(s) > degree_max for s in inputs):
            return
        for a, b in zip(inputs, inputs[1:]):
            assert sym.ext_source(a) == sym.ext_target(b), (inputs, "not composable")
        key = tuple(sym.ext_to_str(s) for s in inputs)
        out = sym.ext_to_str(output)
        if key in seen:
            assert seen[key] == out, f"family overlap disagrees at {key}"
            return
        seen[key] = out
        objects = [sym.ext_source(inputs[-1])]
        for s in reversed(inputs):
            objects.append(sym.ext_target(s))
        degree = sum(sym.ext_degree(s) for s in inputs) + 2 - len(inputs)
        assert degree == sym.ext_degree(output), (key, out)
        table.add(key, objects, field.one, out, degree)

    def both(make):
        """Instantiate a family and its kappa image."""
        for swap in (False, True):
            def E(i):
                return ("E", 3 - i) if swap else ("E", i)

            def J(i):
                return ("j", 3 - i) if swap else ("j", i)

            def P(i):
                return ("p", 3 - i) if swap else ("p", i)

            def U(i, n):
                return u(3 - i, n) if swap else u(i, n)

            def G(i, n):
                return g(3 - i, n) if swap else g(i, n)

            make(E, J, P, U, G)

    def loops(E, i, n):
        # (212)^n for i = 1: factors (21),(12) repeated; E(i) is the arrow
        # landing at P_i
        return (E(i), E(3 - i)) * n

    nmax = arity_max // 2 + degree_max // 2 + 3
    rng = range(0, nmax + 1)

    def families(E, J, P, U, G):
        for n in rng:
            for k in rng:
                # m_{2n+2k+5}((12),(212)^k, j1, b.u1^{n+k+1}, p1, (212)^n, (21)) = 1_P2
                add((E(2),) + loops(E, 1, k) + (J(1), G(2, n + k + 1), P(1))
                    + loops(E, 1, n) + (E(1),), sym.ext_identity("P2") if not _swapped(E) else sym.ext_identity("P1"))
        for n in rng:
            # m_{2n+3}((12),(212)^n, j1, b.u1^n) = j2
            add((E(2),) + loops(E, 1, n) + (J(1), G(2, n)), J(2))
        for n in rng:
            for k in range(0, n + 1):
                # m_{2n+3}((212)^k, j1, b.u1^n, p1, (212)^{n-k}) = 1_P1
                add(loops(E, 1, k) + (J(1), G(2, n), P(1)) + loops(E, 1, n - k),
                    sym.ext_identity("P1") if not _swapped(E) else sym.ext_identity("P2"))
        for n in rng:
            for k in rng:
                if k >= n + 1:
                    # m_{2n+3}(u1^k, p1, (212)^n, j1) = u1^{k-n-1} a
                    add((U(1, k), P(1)) + loops(E, 1, n) + (J(1),), G(1, k - n - 1))
                if k >= n:
                    # m_{2n+3}(u2^k b, p1, (212)^n, j1) = u2^{k-n}
                    add((G(2, k), P(1)) + loops(E, 1, n) + (J(1),), U(2, k - n))
                if k >= n + 1:
                    # m_{2n+4}(u1^k, p1, (212)^n, (21), j2) = u1^{k-n-1}
                    add((U(1, k), P(1)) + loops(E, 1, n) + (E(1), J(2)), U(1, k - n - 1))
                    # m_{2n+4}(p1, (212)^n, (21), j2, u1^k) = u1^{k-n-1}
                    add((P(1),) + loops(E, 1, n) + (E(1), J(2), U(1, k)), U(1, k - n - 1))
                    # m_{2n+4}(u2^k b, p1, (212)^n, (21), j2) = u2^{k-n-1} b
                    add((G(2, k), P(1)) + loops(E, 1, n) + (E(1), J(2)), G(2, k - n - 1))
        for n in rng:
            # m_{2n+3}(u2^n b, p1, (212)^n, (21)) = p2
            add((G(2, n), P(1)) + loops(E, 1, n) + (E(1),), P(2))
            # m_{2n+2}(u1^n, p1, (212)^n) = p1   (n >= 1: n = 0 is the unit law)
            if n >= 1:
                add((U(1, n), P(1)) + loops(E, 1, n), P(1))
        for n in rng:
            for k in rng:
                # m_{2k+2n+4}((121)^k, j2, u1^{n+k+1}, p1, (212)^n, (21)) = 1_P2
                add(loops(E, 2, k) + (J(2), U(1, n + k + 1), P(1)) + loops(E, 1, n)
                    + (E(1),), sym.ext_identity("P2") if not _swapped(E) else sym.ext_identity("P1"))
        for n in rng:
            # m_{2n+4}((121)^{n+1}, j2, u1^{n+1}) = j2
            add(loops(E, 2, n + 1) + (J(2), U(1, n + 1)), J(2))
        for n in rng:
            for k in range(0, n + 1):
                # m_{2n+4}((212)^k, (21), j2, u1^{n+1}, p1, (212)^{n-k}) = 1_P1
                add(loops(E, 1, k) + (E(1), J(2), U(1, n + 1), P(1))
                    + loops(E, 1, n - k),
                    sym.ext_identity("P1") if not _swapped(E) else sym.ext_identity("P2"))
        for m in rng:
            for n in rng:
                if n >= m:
                    # m_{2m+3}(p2, (121)^m, j2, a.u2^n) = u2^{n-m}
                    add((P(2),) + loops(E, 2, m) + (J(2), G(1, n)), U(2, n - m))
                if n >= m + 1:
                    # m_{2m+3}(p2, (121)^m, j2, u1^n) = b.u1^{n-m-1}
                    add((P(2),) + loops(E, 2, m) + (J(2), U(1, n)), G(2, n - m - 1))
                if n >= m:
                    # m_{2m+4}(p1, (21), (121)^m, j2, a.u2^{n+1}) = a.u2^{n-m}
                    add((P(1), E(1)) + loops(E, 2, m) + (J(2), G(1, n + 1)),
                        G(1, n - m))

    def _swapped(E):
        return E(1) == ("E", 2)

    def m2_families(E, J, P, U, G):
        add((J(1), P(2)), E(1))
        for n in rng:
            for m in rng:
                if n >= 1 and m >= 1:
                    add((U(1, n), U(1, m)), U(1, n + m))
                if n >= 1:
                    add((G(2, m), U(1, n)), G(2, n + m))
                    add((U(2, n), G(2, m)), G(2, n + m))
                add((G(1, m), G(2, n)), U(1, n + m + 1))

    both(families)
    both(m2_families)
    return table


def m2_reference_table(nm_max, degree_max, field=F2):
    """The composition table alone, instantiated for n + m <= nm_max."""
    full = expected_table(2, degree_max, field)
    out = OperationTable(full.metadata)
    for key, v in full.entries.items():
        exps = [_exponent_sum(s) for s in key]
        if sum(exps) <= nm_max:
            out.entries[key] = v
    return out


def _exponent_sum(s):
    t = sym.ext_from_str(s)
    return t[2] if t[0] in ("u", "g") else 0
