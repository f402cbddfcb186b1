"""The auxiliary finite A-infinity categories and the built-in functors.

build_delta / build_fukaya / build_pants construct the three-object
categories (triangle, disk with n marked points, pair of pants);
build_pi_prime additivizes the preprojective table over P = P1 (+) P2.
verify_functor checks the strict functor equation

    m^D(F1 f_d, ..., F1 f_1) = F1(m^C(f_d, ..., f_1))

on every composable identity-free source tuple within bounds (all
built-in functors have vanishing higher components).
"""

from itertools import product as iproduct

from .linalg import F2
from .table import OperationTable
from .ainf import AInfCategory
from .transfer import SymbolicBackend, compute_operation_table
from . import symbols as sym


# ---------------------------------------------------------------------------
# Delta and the disk categories

def build_delta(field=F2):
    """The three-object category corepresenting distinguished triangles:
    adjacent compositions vanish and the three triple products are
    identities."""
    return build_fukaya(3, (0, 0, 1), field=field, name="delta",
                        object_names=("A", "B", "C"),
                        map_names=("alpha", "beta", "gamma"))


def build_fukaya(n, grading, field=F2, name=None, object_names=None,
                 map_names=None):
    """The disk with n marked boundary points: objects X1..Xn, maps
    f_i: X_i -> X_{i+1} with degrees summing to n - 2, and the cyclic
    rotations of m_n(f_n, ..., f_1) = 1_{X_1} as the only higher
    operations."""
    if n < 3:
        raise ValueError("need at least three marked points")
    grading = tuple(grading)
    if len(grading) != n or sum(grading) != n - 2:
        raise ValueError("gradings must sum to n - 2")
    objs = list(object_names) if object_names else [f"X{i}" for i in range(1, n + 1)]
    maps = list(map_names) if map_names else [f"f{i}" for i in range(1, n + 1)]
    degree = {maps[i]: grading[i] for i in range(n)}
    src = {maps[i]: objs[i] for i in range(n)}
    tgt = {maps[i]: objs[(i + 1) % n] for i in range(n)}
    units = {o: f"1_{o}" for o in objs}
    for o in objs:
        degree[units[o]] = 0

    table = OperationTable({"arity_max": n, "degree_max": max(grading),
                            "field": field.name, "backend": "builtin",
                            "window": 0, "homotopy": "paper"})
    for i in range(n):
        # rotation based at X_{i+1}: rightmost factor f_{i+1}
        idx = [(i + k) % n for k in range(n)]          # f_{i+1}, f_{i+2}, ...
        inputs = tuple(maps[j] for j in reversed(idx))
        objects = [src[inputs[-1]]]
        for s in reversed(inputs):
            objects.append(tgt[s])
        table.add(inputs, objects, field.one, units[objs[i]], 0)

    def hom_basis(x, y, degree_max):
        out = []
        if x == y:
            out.append(units[x])
        for m in maps:
            if src[m] == x and tgt[m] == y and degree[m] <= degree_max:
                out.append(m)
        return out

    cat = AInfCategory(name or f"fukaya{n}", objs, hom_basis, table, units,
                       field, degree_of=lambda s: degree[s])
    cat.symbol_hom = {m: (src[m], tgt[m]) for m in maps}
    for o in objs:
        cat.symbol_hom[units[o]] = (o, o)
    return cat


# ---------------------------------------------------------------------------
# the preprojective category and its simple-objects subcategory

def pi_category(table, evaluator=None, field=F2):
    """Wrap a computed preprojective table.  With an evaluator, operations
    past the table's bounds come from its closure, a chart scan at the
    wider bounds that reuses the evaluator's slice memo, so that point
    queries and relation checks see the genuine structure."""
    closure = None
    if evaluator is not None:
        def closure(arity_max, degree_max):
            return compute_operation_table(arity_max, degree_max,
                                           evaluator.backend, evaluator=evaluator)

    def hom_basis(x, y, degree_max):
        return [sym.ext_to_str(s) for s in sym.hom_basis(x, y, degree_max)]

    cat = AInfCategory("Pi", list(sym.OBJECTS), hom_basis, table,
                       {o: f"1_{o}" for o in sym.OBJECTS}, field, closure=closure)
    cat.symbol_hom = _PiSymbolHom()
    return cat


def _pi_endpoints(s):
    """(source, target) in Pi of the symbol named s, of any degree; None
    when s names no Ext basis symbol."""
    try:
        e = sym.ext_from_str(s)
        ends = (sym.ext_source(e), sym.ext_target(e))
        ok = sym.ext_to_str(e) == s and sym.ext_degree(e) >= 0
    except (KeyError, ValueError):
        return None
    return ends if ok and all(o in sym.OBJECTS for o in ends) else None


class _PiSymbolHom(dict):
    """symbol -> (source, target) for a category on Pi's symbols.

    Entries are read off the symbol grammar on first use, so a symbol of
    any degree has its endpoints; a string that names no symbol, or a
    symbol between objects the category leaves out, is not a key.  rename
    maps Pi's objects to the category's (Pi' joins P1 and P2 into P).
    """

    def __init__(self, rename=None):
        super().__init__()
        self.rename = rename or {o: o for o in sym.OBJECTS}

    def __missing__(self, s):
        ends = _pi_endpoints(s)
        if ends is None or not all(o in self.rename for o in ends):
            raise KeyError(s)
        out = self[s] = (self.rename[ends[0]], self.rename[ends[1]])
        return out

    def get(self, s, default=None):
        try:
            return self[s]
        except KeyError:
            return default

    def __contains__(self, s):
        return self.get(s) is not None


def build_pi_simple(field=F2, degree_max=12):
    """The full subcategory on the two simple modules; it is formal, so
    the table holds compositions only, and closing it at a higher degree
    bound builds it again there.  The closure's table states no arity
    bound: it is complete at every arity, so one build serves them all."""
    table = OperationTable({"arity_max": 2, "degree_max": degree_max,
                            "field": field.name, "backend": "builtin",
                            "window": 0, "homotopy": "paper"})

    def m2(a, b):
        r = sym.mu(a, b)
        return sym.p_apply(r)

    objs = ["S1", "S2"]
    for x in objs:
        for mid in objs:
            for y in objs:
                for b in sym.hom_basis(x, mid, degree_max):
                    for a in sym.hom_basis(mid, y, degree_max):
                        if sym.is_identity(a) or sym.is_identity(b):
                            continue
                        out = m2(a, b)
                        if out is None:
                            continue
                        key = (sym.ext_to_str(a), sym.ext_to_str(b))
                        if key in table:
                            continue
                        table.add(key, [x, mid, y], field.one,
                                  sym.ext_to_str(out), sym.ext_degree(out))

    def hom_basis(x, y, dmax):
        return [sym.ext_to_str(s) for s in sym.hom_basis(x, y, dmax)]

    def closure(arity_max, dmax):
        closed = build_pi_simple(field, dmax).table
        closed.metadata["arity_max"] = None
        return closed

    cat = AInfCategory("pi", objs, hom_basis, table,
                       {o: f"1_{o}" for o in objs}, field, closure=closure)
    cat.symbol_hom = _PiSymbolHom({o: o for o in objs})
    return cat


class MatCategory(AInfCategory):
    """Additivization over a direct sum: morphisms are the summand blocks
    of the underlying category and operations are blockwise; the table is
    empty, so m past the unit laws comes from the inner category."""

    def __init__(self, name, objects, hom_basis, units, inner, block_of,
                 field=F2):
        super().__init__(name, objects, hom_basis, OperationTable({}), units,
                         field, degree_of=inner.degree)
        self.inner = inner
        self.block_of = block_of  # symbol -> (inner source, inner target)

    def _m_fallback(self, inputs):
        # blockwise: consecutive inner endpoints must chain
        for a, b in zip(inputs, inputs[1:]):
            if self.block_of[a][0] != self.block_of[b][1]:
                return []
        return self.inner.m(inputs)

    def closed_operations(self, arity_max, degree_max):
        """The inner category's closed operations (every inner key chains
        blockwise) plus the m_2 products with a block identity such as
        1_P1: a unit law inside the inner category, but an ordinary
        morphism here."""
        ops = self.inner.closed_operations(arity_max, degree_max)
        if arity_max < 2:
            return ops
        maps = [s for x in self.objects for y in self.objects
                for s in self.hom_basis(x, y, degree_max) if not self.is_unit(s)]
        for e in filter(self.inner.is_unit, maps):
            for s in maps:
                for key in ((s, e), (e, s)):
                    for t in self.m(key):
                        ops[key] = t
        return ops


def build_pi_prime(pi_cat):
    """The full subcategory of Mat(Pi) on S1, S2 and P = P1 (+) P2.

    Morphism symbols are the underlying preprojective basis elements; each
    already names the summand it touches (j2 lands in P2, 1_P1 is the
    block identity of the P1 summand, and so on).  The unit of P is the
    formal sum of the block identities and is handled structurally.
    """
    objs = ["S1", "S2", "P"]
    expand = {"S1": ["S1"], "S2": ["S2"], "P": ["P1", "P2"]}

    def hom_basis(x, y, dmax):
        out = []
        for xi in expand[x]:
            for yi in expand[y]:
                for s in sym.hom_basis(xi, yi, dmax):
                    out.append(sym.ext_to_str(s))
        return out

    units = {"S1": "1_S1", "S2": "1_S2", "P": "1_P"}
    cat = MatCategory("PiPrime", objs, hom_basis, units, pi_cat,
                      _PiSymbolHom(), pi_cat.field)
    cat.symbol_hom = _PiSymbolHom({"S1": "S1", "S2": "S2",
                                   "P1": "P", "P2": "P"})
    cat.symbol_hom["1_P"] = ("P", "P")
    return cat


# ---------------------------------------------------------------------------
# the pants category

PANTS_DEGREE = {"x0": 0, "y0": 2, "x1": 2, "y1": 0, "x2": 0, "y2": 0,
                "u01": 1, "u12": 0, "u20": 0, "v10": 1, "v21": 0, "v02": 0}


def _pants_sym(base, k, arrow=None):
    """Canonical string: "x1^2*u01", "y0^3", "u20", "1_X0"."""
    if arrow is None:
        return f"{base}^{k}" if k else None
    return f"{base}^{k}*{arrow}" if k else arrow


def _parse_pants(s):
    """-> (loop base or None, exponent, arrow or None)."""
    if "*" in s:
        loop, arrow = s.split("*")
        base, k = loop.split("^")
        return base, int(k), arrow
    if s.startswith(("u", "v")):
        return None, 0, s
    base, k = s.split("^")
    return base, int(k), None


def pants_degree(s):
    if s.startswith("1_"):
        return 0
    base, k, arrow = _parse_pants(s)
    d = k * PANTS_DEGREE[base] if base else 0
    if arrow:
        d += PANTS_DEGREE[arrow]
    return d


def _pants_hom_data(exp_max):
    """{(x, y): [symbol strings]} for the three objects, exponent-truncated."""
    homs = {}
    for i in range(3):
        xi = f"X{i}"
        homs[(xi, xi)] = [f"1_{xi}"] + \
            [f"x{i}^{k}" for k in range(1, exp_max + 1)] + \
            [f"y{i}^{k}" for k in range(1, exp_max + 1)]
        j = (i + 1) % 3
        homs[(xi, f"X{j}")] = [_pants_sym(f"x{j}", k, f"u{i}{j}")
                               for k in range(0, exp_max + 1)]
        h = (i - 1) % 3
        homs[(xi, f"X{h}")] = [_pants_sym(f"y{h}", k, f"v{i}{h}")
                               for k in range(0, exp_max + 1)]
    return homs


def _pants_m2(a, b, exp_max):
    """Composition a o b from the algebra relations; None when zero."""
    base_a, ka, ar_a = _parse_pants(a)
    base_b, kb, ar_b = _parse_pants(b)
    if ar_a is None and ar_b is None:
        # both endomorphism loops at the same object
        if base_a != base_b:
            return None  # x y = 0
        k = ka + kb
        return f"{base_a}^{k}" if k <= exp_max else None
    if ar_a is None:
        # loop after an arrow: x_{j}^ka o (x_j^kb * arrow) etc.
        wheel = "x" if ar_b.startswith("u") else "y"
        if base_a[0] != wheel:
            return None
        k = ka + kb
        return _pants_sym(base_a, k, ar_b) if k <= exp_max else None
    if ar_b is None:
        # arrow after a loop: (x_j^ka * u_{i,j}) o y_i^kb = x_j^{ka+kb} u
        wheel = "y" if ar_a.startswith("u") else "x"
        if base_b[0] != wheel:
            return None
        k = ka + kb
        return _pants_sym(base_a or ("x" if ar_a.startswith("u") else "y")
                          + ar_a[-1], k, ar_a) if k <= exp_max else None
    # arrow after arrow
    if ar_a.startswith("u") and ar_b.startswith("v"):
        # (x_i^k u_{i-1,i}) o (y_{i-1}^l v_{i,i-1}) = x_i^{k+l+1}
        if ar_a[2] == ar_b[1] and ar_a[1] == ar_b[2]:
            k = ka + kb + 1
            return f"x{ar_a[2]}^{k}" if k <= exp_max else None
        return None
    if ar_a.startswith("v") and ar_b.startswith("u"):
        if ar_a[2] == ar_b[1] and ar_a[1] == ar_b[2]:
            k = ka + kb + 1
            return f"y{ar_a[2]}^{k}" if k <= exp_max else None
        return None
    return None


def g_dictionary():
    """The morphism assignment of the pants-to-preprojective functor,
    extended multiplicatively to the whole basis; kernel elements map to
    None."""
    def image(s):
        if s.startswith("1_"):
            return {"1_X0": "1_S1", "1_X1": "1_S2", "1_X2": "1_P"}[s]
        base, k, arrow = _parse_pants(s)
        if arrow is None:
            if base == "y0":
                return f"u1^{k}"
            if base == "x1":
                return f"u2^{k}"
            if base == "x2":
                return "(21)" if k == 1 else None
            if base == "y2":
                return "(12)" if k == 1 else None
            return None  # x0^k, y1^k
        if arrow == "u01":
            return f"b.u1^{k}"
        if arrow == "v10":
            return f"a.u2^{k}"
        if arrow == "u12":
            return "j1" if k == 0 else None
        if arrow == "v21":
            return "p2" if k == 0 else None
        if arrow == "u20":
            return "p1" if k == 0 else None
        if arrow == "v02":
            return "j2" if k == 0 else None
        raise ValueError(s)
    return image


def g_inverse_dictionary():
    """Preprojective basis string -> its unique faithful pants preimage."""
    inv = {}
    img = g_dictionary()
    for (x, y), syms in _pants_hom_data(24).items():
        for s in syms:
            t = img(s)
            if t is not None and not t.startswith("1_"):
                assert t not in inv or inv[t] == s
                inv[t] = s
    return inv


def build_pants(degree_max, pi_table=None, field=F2):
    """The wrapped-pants generating category: three objects, loop algebras
    k[x_i, y_i]/(x_i y_i), connecting arrows composing by the wheel rule,
    and the triangle products m_3(u,u,u) = 1 = m_3(v,v,v) in all three
    rotations.

    Higher operations extend the six triangle identities exactly as the
    preprojective operations extend the basic triangles: they are obtained
    by pulling the preprojective table back along the morphism dictionary
    (tuples meeting the dictionary's kernel carry no operations).  The two
    rotations valued at the identity of X2 are stored as written.
    """
    if degree_max < 1:
        raise ValueError("need degree bound >= 1")
    exp_max = degree_max
    objs = ["X0", "X1", "X2"]
    homs = _pants_hom_data(exp_max)
    units = {o: f"1_{o}" for o in objs}
    table = OperationTable({"arity_max": 9, "degree_max": degree_max,
                            "field": field.name, "backend": "builtin",
                            "window": 0, "homotopy": "paper"})

    src_tgt = {}
    for (x, y), syms in homs.items():
        for s in syms:
            src_tgt[s] = (x, y)

    # m2 from the composition rules
    for (x, y), bs in homs.items():
        for (y2, z), cs in homs.items():
            if y2 != y:
                continue
            for b in bs:
                for a in cs:
                    if a.startswith("1_") or b.startswith("1_"):
                        continue
                    out = _pants_m2(a, b, exp_max)
                    if out is None:
                        continue
                    deg = pants_degree(a) + pants_degree(b)
                    assert deg == pants_degree(out), (a, b, out)
                    table.add((a, b), [x, y, z], field.one, out, deg)

    # higher operations: pull the preprojective table back along the
    # dictionary
    if pi_table is None:
        pi_table = compute_operation_table(9, degree_max, SymbolicBackend())
    inv = g_inverse_dictionary()
    skipped_blocks = []
    for key, v in pi_table.entries.items():
        if len(key) < 3:
            continue
        pre = [inv.get(s) for s in key]
        if any(p is None for p in pre):
            continue
        if v["output"] in ("1_P1", "1_P2"):
            skipped_blocks.append(tuple(pre))
            continue
        out = ({"1_S1": "1_X0", "1_S2": "1_X1"}.get(v["output"])
               or inv.get(v["output"]))
        if out is None:
            continue
        if any(pants_degree(p) > degree_max for p in pre):
            continue
        objects = [src_tgt[pre[-1]][0]] + [src_tgt[s][1] for s in reversed(pre)]
        table.add(tuple(pre), objects, v["coeff"], out, v["degree"])

    # the two rotations valued at 1_{X2}, as the triangle list states them
    for tup in (("u12", "u01", "u20"), ("v02", "v10", "v21")):
        objects = [src_tgt[tup[-1]][0]] + [src_tgt[s][1] for s in reversed(tup)]
        table.add(tup, objects, field.one, "1_X2", 0)

    def hom_basis(x, y, dmax):
        return [s for s in homs.get((x, y), []) if pants_degree(s) <= dmax]

    cat = AInfCategory("pants", objs, hom_basis, table, units, field,
                       degree_of=pants_degree)
    cat.symbol_hom = dict(src_tgt)
    cat.block_identity_tuples = skipped_blocks
    return cat


# ---------------------------------------------------------------------------
# functor data and verification

class AInfFunctorData:
    """A strict functor description: object map plus the linear component
    on basis symbols (higher components vanish for every built-in)."""

    def __init__(self, name, source, target, object_map, f1, higher=None):
        self.name = name
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.f1 = dict(f1)  # source symbol -> target symbol string or None
        self.higher = dict(higher or {})
        if self.higher:
            raise NotImplementedError("only strict functors (F^d = 0, d >= 2) "
                                      "are supported")

    def image(self, s):
        """F1 on a basis symbol; None encodes zero."""
        if self.source.is_unit(s):
            x = self.source_object_of_unit(s)
            return self.target.units[self.object_map[x]]
        if s not in self.f1:
            raise KeyError(f"functor {self.name} undefined on {s!r}")
        return self.f1[s]

    def defined(self, s):
        """Whether F1 has a value (possibly zero) on the basis symbol s."""
        return self.source.is_unit(s) or s in self.f1

    def source_object_of_unit(self, s):
        for x, u in self.source.units.items():
            if u == s:
                return x
        raise KeyError(s)

    def to_json(self):
        return {"name": self.name,
                "source": self.source.name, "target": self.target.name,
                "object_map": dict(sorted(self.object_map.items())),
                "F1": [{"from": k, "to": v if v is not None else "0"}
                       for k, v in sorted(self.f1.items())],
                "higher": []}


def verify_functor(functor, arity_max, degree_max, exhaustive=False):
    """Check the strict functor equation on every composable identity-free
    source tuple within the bounds, plus unit and degree compatibility.
    A tuple on which F1 is undefined (an input or an output symbol the
    description leaves out) is a violation that names the symbols.

    With F^d = 0 for d >= 2 both sides vanish on every tuple that neither
    lies in the source table nor maps onto a target table key, so the
    default scan visits the support union only; exhaustive=True walks all
    composable tuples (same verdict, used to cross-check on small
    instances).  The report's "checked" counts the tuples evaluated, and
    a report that checked none fails.
    """
    from .ainf import composable_tuples, _report
    src_cat, tgt_cat = functor.source, functor.target
    f = tgt_cat.field
    violations = []

    # degree and endpoint compatibility of the linear component
    for s, t in functor.f1.items():
        if t is None:
            continue
        if src_cat.degree(s) != tgt_cat.degree(t):
            violations.append({"tuple": [s], "expected": "degree match",
                               "got": [src_cat.degree(s), tgt_cat.degree(t)]})
        if hasattr(src_cat, "symbol_hom") and hasattr(tgt_cat, "symbol_hom"):
            sx, sy = src_cat.symbol_hom[s]
            want = (functor.object_map[sx], functor.object_map[sy])
            got = tgt_cat.symbol_hom.get(t)
            if got is not None and got != want:
                violations.append({"tuple": [s], "expected": f"hom {want}",
                                   "got": f"hom {got}"})

    for x in src_cat.objects:
        u = src_cat.units[x]
        if functor.image(u) != tgt_cat.units[functor.object_map[x]]:
            violations.append({"tuple": [u], "expected": "unit to unit",
                               "got": functor.image(u)})

    def check(inputs):
        terms = src_cat.m(inputs)
        undefined = [s for s in dict.fromkeys(inputs + tuple(s for _c, s in terms))
                     if not functor.defined(s)]
        if undefined:
            violations.append({"tuple": list(inputs), "expected": "F1 defined",
                               "got": "undefined on " + ", ".join(map(repr, undefined))})
            return
        rhs = {}
        for c, s in terms:
            t = functor.image(s)
            if t is None:
                continue
            acc = f.add(rhs.get(t, f.zero), c)
            if acc == f.zero:
                rhs.pop(t, None)
            else:
                rhs[t] = acc
        images = [functor.image(s) for s in inputs]
        lhs = {}
        if all(t is not None for t in images):
            for c, t in tgt_cat.m(tuple(images)):
                acc = f.add(lhs.get(t, f.zero), c)
                if acc == f.zero:
                    lhs.pop(t, None)
                else:
                    lhs[t] = acc
        if lhs != rhs:
            violations.append({"tuple": list(inputs),
                               "expected": {k: str(v) for k, v in rhs.items()},
                               "got": {k: str(v) for k, v in lhs.items()}})

    if exhaustive:
        tuples = composable_tuples(src_cat, arity_max, degree_max)
    else:
        tuples = sorted(_support_tuples(functor, arity_max, degree_max),
                        key=lambda k: (len(k), k))
    checked = 0
    for inputs in tuples:
        check(inputs)
        checked += 1
    return _report(f"functor:{functor.name}", violations, checked)


def _support_tuples(functor, arity_max, degree_max):
    """Source tuples where either side of the functor equation could be
    nonzero: the source table keys plus all preimages of the target's
    closed operations within the bounds."""
    src_cat, tgt_cat = functor.source, functor.target

    def in_bounds(key, cat):
        return (2 <= len(key) <= arity_max
                and all(cat.degree(s) <= degree_max for s in key)
                and not any(cat.is_unit(s) for s in key))

    out = set()
    for key in src_cat.table.entries:
        if in_bounds(key, src_cat):
            out.add(key)
    reverse = {}
    for s, t in functor.f1.items():
        if t is not None:
            reverse.setdefault(t, []).append(s)
    for key in tgt_cat.closed_operations(arity_max, degree_max):
        pres = [reverse.get(t) for t in key]
        if any(p is None for p in pres):
            continue
        for combo in iproduct(*pres):
            if in_bounds(combo, src_cat) and _composable_in(src_cat, combo):
                out.add(tuple(combo))
    return out


def _composable_in(cat, key):
    hom = getattr(cat, "symbol_hom", None)
    if hom is None:
        return True
    for a, b in zip(key, key[1:]):
        if hom[a][0] != hom[b][1]:
            return False
    return True


def builtin_functors(pi_cat, degree_max=4, field=F2):
    """The six functors: the simple-objects inclusion, the two triangle
    inclusions, the two quadrilateral functors, and the pants functor."""
    out = []

    pi_s = build_pi_simple(field)
    f1 = {}
    for x in ("S1", "S2"):
        for y in ("S1", "S2"):
            for s in pi_s.hom_basis(x, y, 12):
                if not pi_s.is_unit(s):
                    f1[s] = s
    out.append(AInfFunctorData("iota", pi_s, pi_cat,
                               {"S1": "S1", "S2": "S2"}, f1))

    delta = build_delta(field)
    out.append(AInfFunctorData("iota1", delta, pi_cat,
                               {"A": "S2", "B": "P1", "C": "S1"},
                               {"alpha": "j1", "beta": "p1", "gamma": "b.u1^0"}))
    out.append(AInfFunctorData("iota2", delta, pi_cat,
                               {"A": "S1", "B": "P2", "C": "S2"},
                               {"alpha": "j2", "beta": "p2", "gamma": "a.u2^0"}))

    # quadrilaterals: the kappa2 assignment is the 1 <-> 2 image of kappa1
    f4 = build_fukaya(4, (2, 0, 0, 0), field)
    out.append(AInfFunctorData("kappa1", f4, pi_cat,
                               {"X1": "S1", "X2": "S1", "X3": "P2", "X4": "P1"},
                               {"f1": "u1^1", "f2": "j2", "f3": "(21)", "f4": "p1"}))
    f4b = build_fukaya(4, (2, 0, 0, 0), field)
    out.append(AInfFunctorData("kappa2", f4b, pi_cat,
                               {"X1": "S2", "X2": "S2", "X3": "P1", "X4": "P2"},
                               {"f1": "u2^1", "f2": "j1", "f3": "(12)", "f4": "p2"}))

    pants = build_pants(degree_max, pi_table=pi_cat.table, field=field)
    pi_prime = build_pi_prime(pi_cat)
    img = g_dictionary()
    f1g = {}
    for (x, y), syms in _pants_hom_data(degree_max).items():
        for s in syms:
            if not s.startswith("1_"):
                f1g[s] = img(s)
    out.append(AInfFunctorData("G", pants, pi_prime,
                               {"X0": "S1", "X1": "S2", "X2": "P"}, f1g))
    return out


def functor_from_json(doc, categories):
    """Build functor data from the JSON schema {source, target, object_map,
    F1: [{from, to}], higher: []}; categories maps names to instances.
    A malformed description (a missing key, an unknown category, object or
    symbol) raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a functor description is a JSON object")
    missing = [k for k in ("source", "target", "object_map", "F1") if k not in doc]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    cats = []
    for role in ("source", "target"):
        if doc[role] not in categories:
            raise ValueError(f"unknown {role} category {doc[role]!r}")
        cats.append(categories[doc[role]])
    src, tgt = cats
    omap = doc["object_map"]
    if not isinstance(omap, dict) or set(omap) != set(src.objects):
        raise ValueError(f"object_map must map exactly the objects {src.objects}")
    for x, y in omap.items():
        if y not in tgt.objects:
            raise ValueError(f"object {x!r} maps to unknown object {y!r}")
    f1 = {}
    for e in doc["F1"]:
        if not isinstance(e, dict) or "from" not in e or "to" not in e:
            raise ValueError(f"F1 entry {e!r} needs 'from' and 'to'")
        if not _is_symbol(src, e["from"]):
            raise ValueError(f"unknown source symbol {e['from']!r}")
        to = None if e["to"] in ("0", None) else e["to"]
        if to is not None and not _is_symbol(tgt, to):
            raise ValueError(f"unknown target symbol {to!r}")
        f1[e["from"]] = to
    if doc.get("higher"):
        raise ValueError("only strict functors (F^d = 0, d >= 2) are supported")
    return AInfFunctorData(doc.get("name", "user"), src, tgt, omap, f1)


def _is_symbol(cat, s):
    """Whether s names a basis element of cat: a listed symbol, or one the
    category can give a degree.  A category on Pi's symbols lists every
    symbol it has, of any degree, so there the listing decides."""
    if not isinstance(s, str):
        return False
    hom = getattr(cat, "symbol_hom", ())
    if s in hom:
        return True
    if isinstance(hom, _PiSymbolHom):
        return False
    try:
        cat.degree(s)
    except (KeyError, ValueError):
        return False
    return True
