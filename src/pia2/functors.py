"""The auxiliary finite A-infinity categories and the built-in functors.

build_delta / build_fukaya / build_pants construct the three-object
categories (triangle, disk with n marked points, pair of pants);
build_pi_prime additivizes the preprojective table over P = P1 (+) P2.
verify_functor checks the strict functor equation

    m^D(F1 f_d, ..., F1 f_1) = F1(m^C(f_d, ..., f_1))

on every composable identity-free source tuple within bounds.  A functor
here is strict: it has a linear component F1 and no higher components
(F^d = 0 for d >= 2), and a description that states higher components is
refused.
"""

from itertools import product as iproduct

from .linalg import F2, field_by_name
from .table import OperationTable
from .ainf import AInfCategory, _in_bounds, _maps, _report, _report_order
from .transfer import compute_operation_table
from . import symbols as sym


def _builtin_table(arity_max, degree_max, field):
    """An empty table of a built-in category, with its metadata."""
    return OperationTable({"arity_max": arity_max, "degree_max": degree_max,
                           "field": field.name, "backend": "builtin",
                           "window": 0, "homotopy": "paper"})


def _objects(symbols, key):
    """The object chain X0 -> ... -> Xd of a key (f_d, ..., f_1)."""
    return [symbols[key[-1]][0]] + [symbols[s][1] for s in reversed(key)]


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
    symbols = {maps[i]: (objs[i], objs[(i + 1) % n], grading[i]) for i in range(n)}

    table = _builtin_table(n, max(grading), field)
    for i in range(n):
        # rotation based at X_{i+1}: rightmost factor f_{i+1}
        idx = [(i + k) % n for k in range(n)]          # f_{i+1}, f_{i+2}, ...
        inputs = tuple(maps[j] for j in reversed(idx))
        table.add(inputs, _objects(symbols, inputs), field.one, "1_" + objs[i], 0)

    def hom_basis(x, y, degree_max):
        units = ["1_" + x] if x == y else []
        return units + [m for m in maps if symbols[m][:2] == (x, y)
                        and symbols[m][2] <= degree_max]

    return AInfCategory(name or f"fukaya{n}", objs, hom_basis, table, field,
                        symbols=symbols)


# ---------------------------------------------------------------------------
# the preprojective category and its simple-objects subcategory

def pi_category(table, evaluator):
    """Wrap a computed preprojective table with the evaluator that built
    it, over its backend's field.  Operations past the table's bounds come
    from its closure, a chart scan at the wider bounds on the same
    evaluator, which reads the slice values its earlier scans memoized
    for their candidates, so that point queries and relation checks see
    the genuine structure."""
    def closure(arity_max, degree_max):
        return compute_operation_table(arity_max, degree_max,
                                       evaluator.backend, evaluator=evaluator)

    return AInfCategory("Pi", list(sym.OBJECTS), sym.hom_names, table,
                        evaluator.backend.field, symbols=sym.SymbolRecords(),
                        closure=closure)


def build_pi_simple(field=F2, degree_max=12):
    """The full subcategory on the two simple modules; it is formal, so
    the table holds compositions only, and closing it at a higher degree
    bound builds it again there.  The closure's table states no arity
    bound: it is complete at every arity, so one build serves them all."""
    table = _builtin_table(2, degree_max, field)
    objs = ["S1", "S2"]
    for x in objs:
        for mid in objs:
            for y in objs:
                for b in sym.hom_names(x, mid, degree_max):
                    for a in sym.hom_names(mid, y, degree_max):
                        if a == "1_" + mid or b == "1_" + x:
                            continue
                        out = sym.pair_images(a, b)[1]
                        if out is None:
                            continue
                        table.add((a, b), [x, mid, y], field.one, out,
                                  sym.SYMBOLS[out][3])

    def closure(arity_max, dmax):
        closed = build_pi_simple(field, dmax).table
        closed.metadata["arity_max"] = None
        return closed

    return AInfCategory("pi", objs, sym.hom_names, table, field,
                        symbols=sym.SymbolRecords({o: o for o in objs}),
                        closure=closure)


class MatCategory(AInfCategory):
    """Additivization over a direct sum: morphisms are the summand blocks
    of the underlying category and operations are blockwise, over the
    inner category's field; the table is empty, so m past the unit laws
    comes from the inner category.  The unit 1_x of a sum x is the formal
    sum of its block identities, handled structurally like every unit."""

    def __init__(self, name, objects, hom_basis, inner, symbols):
        super().__init__(name, objects, hom_basis, OperationTable({}),
                         inner.field, symbols=symbols)
        self.inner = inner

    def _m_fallback(self, inputs):
        # blockwise: consecutive inner endpoints must chain
        block = self.inner.symbols
        for a, b in zip(inputs, inputs[1:]):
            if block[a][0] != block[b][1]:
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
        maps = _maps(self, degree_max)
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
        return [s for xi in expand[x] for yi in expand[y]
                for s in sym.hom_names(xi, yi, dmax)]

    symbols = sym.SymbolRecords({"S1": "S1", "S2": "S2", "P1": "P", "P2": "P"})
    return MatCategory("PiPrime", objs, hom_basis, pi_cat, symbols)


# ---------------------------------------------------------------------------
# the pants category

PANTS_DEGREE = {"x0": 0, "y0": 2, "x1": 2, "y1": 0, "x2": 0, "y2": 0,
                "u01": 1, "u12": 0, "u20": 0, "v10": 1, "v21": 0, "v02": 0}


def _pants_sym(base, k, arrow=None):
    """Canonical string: "x1^2*u01", "y0^3", "u20"."""
    if arrow is None:
        return f"{base}^{k}"
    return f"{base}^{k}*{arrow}" if k else arrow


def _parse_pants(s):
    """A non-unit symbol -> (loop base, exponent, arrow or None).  An
    arrow's loops sit at its target: x for a u arrow, y for a v arrow,
    so "u01" parses to ("x1", 0, "u01")."""
    if s[0] in "uv":
        return ("x" if s[0] == "u" else "y") + s[2], 0, s
    loop, _, arrow = s.partition("*")
    base, k = loop.split("^")
    return base, int(k), arrow or None


def pants_degree(s):
    if s.startswith("1_"):
        return 0
    base, k, arrow = _parse_pants(s)
    return k * PANTS_DEGREE[base] + PANTS_DEGREE.get(arrow, 0)


def _pants_hom_data(exp_max):
    """{(x, y): [symbol strings]} for the three objects, exponent-truncated."""
    homs = {}
    for i in range(3):
        x, j, h = f"X{i}", (i + 1) % 3, (i - 1) % 3
        homs[(x, x)] = [f"1_{x}"] + [f"{c}{i}^{k}" for c in "xy"
                                     for k in range(1, exp_max + 1)]
        homs[(x, f"X{j}")] = [_pants_sym(f"x{j}", k, f"u{i}{j}")
                              for k in range(exp_max + 1)]
        homs[(x, f"X{h}")] = [_pants_sym(f"y{h}", k, f"v{i}{h}")
                              for k in range(exp_max + 1)]
    return homs


def _pants_m2(a, b, exp_max):
    """The composition a o b of composable non-unit symbols by the wheel
    rule; None when zero.  It is nonzero exactly when the two loop
    letters agree if and only if a is a loop; its exponent adds the
    factors' exponents, plus one when both are arrows (u v = x, v u = y);
    its loops are a's and its arrow is the one arrow among the factors."""
    base, ka, ar_a = _parse_pants(a)
    base_b, kb, ar_b = _parse_pants(b)
    if (base[0] == base_b[0]) != (ar_a is None):
        return None
    arrows = [r for r in (ar_a, ar_b) if r]
    k = ka + kb + (len(arrows) == 2)
    if k > exp_max:
        return None
    return _pants_sym(base, k, arrows[0] if len(arrows) == 1 else None)


# G, the pants-to-preprojective functor, on the pants basis: units to
# units, and a loop power or an arrow with its loops by its loop base or
# arrow.  An image spelled with "{}" takes the exponent; a fixed one is
# the image of the generator alone (x2^1, u12), and the product of two or
# more generators lies in the kernel, as do the loops of x0 and y1.
G_UNITS = {"1_X0": "1_S1", "1_X1": "1_S2", "1_X2": "1_P"}
G_LOOPS = {"y0": "u1^{}", "x1": "u2^{}", "x2": "(21)", "y2": "(12)"}
G_ARROWS = {"u01": "b.u1^{}", "v10": "a.u2^{}", "u12": "j1", "v21": "p2",
            "u20": "p1", "v02": "j2"}


def g_image(s):
    """G on a pants basis symbol; None on the kernel."""
    if s in G_UNITS:
        return G_UNITS[s]
    base, k, arrow = _parse_pants(s)
    t = G_ARROWS[arrow] if arrow else G_LOOPS.get(base)
    if t is not None and "{}" in t:
        return t.format(k)
    return t if k + bool(arrow) == 1 else None


def g_inverse_dictionary(exp_max):
    """Preprojective basis string, units included -> its unique faithful
    pants preimage, over the pants basis of exponent at most exp_max."""
    return {t: s for syms in _pants_hom_data(exp_max).values()
            for s in syms if (t := g_image(s)) is not None}


def build_pants(degree_max, pi_table):
    """The wrapped-pants generating category: three objects X_i with loop
    algebras k[x_i, y_i]/(x_i y_i), arrows u_{i,i+1} and v_{i+1,i} (each
    a basis symbol times the loops at its target, x for u and y for v),
    and the triangle products m_3(u,u,u) = 1 = m_3(v,v,v) in all three
    rotations.

    The products are the wheel rule (_pants_m2): a o b is nonzero exactly
    when the two loop letters agree if and only if a is a loop; its
    exponent is the sum of the factors', plus one when both are arrows
    (u v = x, v u = y); its loops are a's; its arrow is the one arrow
    among the factors; and it is zero past the exponent bound degree_max.

    Higher operations extend the six triangle identities exactly as the
    preprojective operations extend the basic triangles: they are obtained
    by pulling the preprojective table pi_table back along G, the table of
    images on units, loop bases and arrows (g_image), inverted on the
    symbols outside its kernel (tuples meeting the kernel carry no
    operations), over the field and up to the arity pi_table states.  The
    two rotations valued at the identity of X2 are stored as written.
    """
    if degree_max < 1:
        raise ValueError("need degree bound >= 1")
    field = field_by_name(pi_table.metadata["field"])
    homs = _pants_hom_data(degree_max)
    table = _builtin_table(pi_table.metadata["arity_max"], degree_max, field)

    symbols = {s: (x, y, pants_degree(s)) for (x, y), syms in homs.items()
               for s in syms}

    # m2 by the wheel rule
    for (x, y), bs in homs.items():
        for (y2, z), cs in homs.items():
            if y2 != y:
                continue
            for b in bs:
                for a in cs:
                    if a.startswith("1_") or b.startswith("1_"):
                        continue
                    out = _pants_m2(a, b, degree_max)
                    if out is None:
                        continue
                    deg = pants_degree(a) + pants_degree(b)
                    assert deg == pants_degree(out), (a, b, out)
                    table.add((a, b), [x, y, z], field.one, out, deg)

    # higher operations: pull the preprojective table back along G
    inv = g_inverse_dictionary(degree_max)
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
        out = inv.get(v["output"])
        if out is None:
            continue
        if any(pants_degree(p) > degree_max for p in pre):
            continue
        table.add(tuple(pre), _objects(symbols, pre), v["coeff"], out, v["degree"])

    # the two rotations valued at 1_{X2}, as the triangle list states them
    for tup in (("u12", "u01", "u20"), ("v02", "v10", "v21")):
        table.add(tup, _objects(symbols, tup), field.one, "1_X2", 0)

    def hom_basis(x, y, dmax):
        return [s for s in homs.get((x, y), []) if symbols[s][2] <= dmax]

    cat = AInfCategory("pants", ["X0", "X1", "X2"], hom_basis, table, field,
                       symbols=symbols)
    cat.block_identity_tuples = skipped_blocks
    return cat


# ---------------------------------------------------------------------------
# functor data and verification

class AInfFunctorData:
    """A strict functor description: object map plus the linear component
    on basis symbols.  It has no higher components: F^d = 0 for d >= 2."""

    def __init__(self, name, source, target, object_map, f1):
        self.name = name
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.f1 = dict(f1)  # source symbol -> target symbol string or None

    def image(self, s):
        """F1 on a basis symbol; None encodes zero.  The unit 1_x maps to
        the unit of x's image; a symbol F1 leaves out raises KeyError."""
        if self.source.is_unit(s):
            return "1_" + self.object_map[s[2:]]
        return self.f1[s]

    def defined(self, s):
        """Whether F1 has a value (possibly zero) on the basis symbol s."""
        return self.source.is_unit(s) or s in self.f1


def verify_functor(functor, arity_max, degree_max):
    """Check the strict functor equation on every composable identity-free
    source tuple within the bounds, plus degree and endpoint compatibility
    of F1 (a unit maps to a unit by construction: see image).  A tuple on
    which F1 is undefined (an input or an output symbol the description
    leaves out) is a violation that names the symbols.

    With F^d = 0 for d >= 2 both sides vanish on every tuple that neither
    lies in the source table nor maps onto a target table key, so the
    check evaluates the support tuples (_support_tuples) only, by arity
    and then inputs, the order its violations are listed in.  The
    report's "checked" counts the tuples evaluated, and a report that
    checked none fails.
    """
    src_cat, tgt_cat = functor.source, functor.target
    f = tgt_cat.field
    violations = []

    # degree and endpoint compatibility of the linear component
    for s, t in functor.f1.items():
        if t is None:
            continue
        sx, sy, sd = src_cat.symbols[s]
        tx, ty, td = tgt_cat.symbols[t]
        if sd != td:
            violations.append({"tuple": [s], "expected": "degree match",
                               "got": [sd, td]})
        want = (functor.object_map[sx], functor.object_map[sy])
        if (tx, ty) != want:
            violations.append({"tuple": [s], "expected": f"hom {want}",
                               "got": f"hom {(tx, ty)}"})

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
            f.accumulate(rhs, t, c)
        images = [functor.image(s) for s in inputs]
        lhs = {}
        if all(t is not None for t in images):
            for c, t in tgt_cat.m(tuple(images)):
                f.accumulate(lhs, t, c)
        if lhs != rhs:
            violations.append({"tuple": list(inputs),
                               "expected": {k: str(v) for k, v in rhs.items()},
                               "got": {k: str(v) for k, v in lhs.items()}})

    tuples = sorted(_support_tuples(functor, arity_max, degree_max),
                    key=_report_order)
    for inputs in tuples:
        check(inputs)
    return _report(f"functor:{functor.name}", violations, len(tuples))


def _support_tuples(functor, arity_max, degree_max):
    """Source tuples where either side of the functor equation could be
    nonzero: the source table keys and the preimages of the target's
    closed operations that pass the relation check's tuple test
    (_in_bounds over the source's maps within the bounds)."""
    src_cat, tgt_cat = functor.source, functor.target
    keep = _in_bounds(_maps(src_cat, degree_max), arity_max)
    out = set(filter(keep, src_cat.table.entries))
    reverse = {}
    for s, t in functor.f1.items():
        if t is not None:
            reverse.setdefault(t, []).append(s)
    for key in tgt_cat.closed_operations(arity_max, degree_max):
        pres = [reverse.get(t) for t in key]
        if any(p is None for p in pres):
            continue
        out.update(filter(keep, iproduct(*pres)))
    return out


def builtin_functors(pi_cat, degree_max):
    """The six functors: the simple-objects inclusion, the two triangle
    inclusions, the two quadrilateral functors, and the pants functor,
    with their sources over Pi's field.

    A check at degree_max reads a functor on the products of its inputs,
    of degree up to 2 * degree_max, so pi-simple and iota's F1 are built
    that far, and never below their default degree 12."""
    field = pi_cat.field
    out = []

    reach = max(12, 2 * degree_max)
    pi_s = build_pi_simple(field, reach)
    out.append(AInfFunctorData("iota", pi_s, pi_cat, {"S1": "S1", "S2": "S2"},
                               {s: s for s in _maps(pi_s, reach)}))

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
    out.append(AInfFunctorData("kappa2", f4, pi_cat,
                               {"X1": "S2", "X2": "S2", "X3": "P1", "X4": "P2"},
                               {"f1": "u2^1", "f2": "j1", "f3": "(12)", "f4": "p2"}))

    pants = build_pants(degree_max, pi_table=pi_cat.table)
    pi_prime = build_pi_prime(pi_cat)
    f1g = {s: g_image(s) for syms in _pants_hom_data(degree_max).values()
           for s in syms if not s.startswith("1_")}
    out.append(AInfFunctorData("G", pants, pi_prime,
                               {"X0": "S1", "X1": "S2", "X2": "P"}, f1g))
    return out


def functor_from_json(doc, categories):
    """Build functor data from the JSON schema {source, target, object_map,
    F1: [{from, to}]}; categories maps names to instances.  A malformed
    description (a missing key, an F1 that is not a list, an unknown
    category, object or symbol) raises ValueError, and so does a non-empty
    "higher": only strict functors are supported, so "higher" may be
    absent or []."""
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
    if not isinstance(doc["F1"], list):
        raise ValueError(f"F1 must be a list of {{from, to}} entries, got {doc['F1']!r}")
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
    """Whether s names a basis element of cat: a key of its symbols."""
    try:
        return s in cat.symbols
    except TypeError:     # an unhashable JSON value
        return False
