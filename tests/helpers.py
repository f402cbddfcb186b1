"""Grammar, matrix, complex and table functions that only the tests call.

`ext_u`, `ext_g` and `h_sym` build grammar tuples; `is_identity`,
`elem_source`, `elem_target`, `kappa_h`, `h_degree`, `elem_degree`,
`all_ext_symbols`, `all_h_symbols` and `composable_pairs` read the symbol
grammar of `pia2.symbols`;
`from_rows` builds a `pia2.linalg` matrix, and `rank` and `check_exact`
read `pia2.quiver` module maps; `check_d_squared`, `homology_dims` and
`hom_homology_dims` read a `pia2.complexes` complex or category, `cone`
builds the mapping cone of a degree-0 cycle of one,
`realize_h_symbol` realizes a homotopy symbol through a contraction,
`full_back_substitution` applies a tabulated contraction's H over every
step of its plan, and `restrict` cuts a Hom element down to a set of
positions; `restrict_objects`
cuts an operation table down to a set of objects, and `table_to_json`
and `functor_to_json` give a table and a functor description as JSON
documents.
"""

from pia2 import symbols as sym
from pia2.complexes import HomElement, TruncatedComplex, realize_ext_symbol
from pia2.linalg import SparseMatrix, rref
from pia2.quiver import ModuleMap, Representation
from pia2.table import OperationTable


def ext_u(i, n):
    """u_i^n; n = 0 collapses to the identity of S_i."""
    return ("1", f"S{i}") if n == 0 else ("u", i, n)


def ext_g(i, n):
    """The odd classes: ext_g(1, n) = a.u2^n, ext_g(2, n) = b.u1^n."""
    return ("g", i, n)


def h_sym(kind, i, n):
    """The H symbol h^(n) of the given kind and index; ValueError below the
    kind's lowest n."""
    first = sym.H_KINDS[kind, i][2]
    if n < first:
        raise ValueError(f"h kind {kind} needs n >= {first}")
    return ("h", kind, i, n)


def is_identity(x):
    return x[0] == "1"


def elem_source(x):
    return sym.H_KINDS[x[1], x[2]][0] if sym.is_h(x) else sym.ext_source(x)


def elem_target(x):
    return sym.H_KINDS[x[1], x[2]][1] if sym.is_h(x) else sym.ext_target(x)


def kappa_h(h):
    """The 1 <-> 2 relabeling of the H symbol h."""
    _, kind, i, n = h
    return ("h", kind, sym.other(i), n)


def h_degree(h):
    """The degree of the H symbol h, slope * n + shift from its kind's
    `symbols.H_KINDS` row."""
    _, kind, i, n = h
    *_ends, slope, shift = sym.H_KINDS[kind, i]
    return slope * n + shift


def elem_degree(x):
    return h_degree(x) if sym.is_h(x) else sym.ext_degree(x)


def all_ext_symbols(degree_max, include_identities=False):
    out = []
    for x in sym.OBJECTS:
        for y in sym.OBJECTS:
            for s in sym.hom_basis(x, y, degree_max):
                if include_identities or not is_identity(s):
                    out.append(s)
    return out


def all_h_symbols(n_max):
    out = []
    for kind in ("ss", "sn", "sp", "pn_t", "ps", "pn_s"):
        lo = 1 if kind in ("ss", "sp") else 0
        for i in (1, 2):
            for n in range(lo, n_max + 1):
                out.append(h_sym(kind, i, n))
    return out


def composable_pairs(n_max):
    """Every composable pair (a, b), a after b, of the Ext symbols of
    degree <= 2 n_max + 1 and the H symbols of index <= n_max."""
    elems = all_ext_symbols(2 * n_max + 1) + all_h_symbols(n_max)
    for a in elems:
        for b in elems:
            if elem_source(a) == elem_target(b):
                yield a, b


def from_rows(data, field):
    """The matrix with the given list of row lists of scalars."""
    return SparseMatrix(len(data), len(data[0]) if data else 0, field,
                        {(r, c): v for r, row in enumerate(data)
                         for c, v in enumerate(row)})


def rank(f):
    """The rank of the module map f: the sum of its blocks' ranks."""
    return sum(rref(b)[0] for b in f.blocks.values())


def check_exact(maps):
    """Exactness of 0 -> A -> ... -> Z -> 0 given the inner maps.

    True iff the first map is injective, the last surjective, consecutive
    composites vanish, and rank f_i + rank f_{i+1} = dim(middle) at every
    internal spot (all computed by exact row reduction).
    """
    if not maps:
        raise ValueError("need at least one map")
    for f, g in zip(maps, maps[1:]):
        if g.source is not f.target:
            raise ValueError("maps not composable")
    first, last = maps[0], maps[-1]
    if rank(first) != sum(first.source.dims.values()):
        return False
    if rank(last) != sum(last.target.dims.values()):
        return False
    for f, g in zip(maps, maps[1:]):
        if not g.compose(f).is_zero():
            return False
        if rank(f) + rank(g) != sum(f.target.dims.values()):
            return False
    return True


def restrict_objects(table, objects):
    """The entries of table whose full object chain lies inside the given
    set."""
    objects = set(objects)
    sub = OperationTable(table.metadata)
    for k, v in table.entries.items():
        if set(v["objects"]) <= objects:
            sub.entries[k] = v
    return sub


def table_to_json(table):
    """The table as a JSON document; `OperationTable.dumps` writes exactly
    what json writes for it, indented by 2 with sorted keys."""
    entries = []
    for key in sorted(table.entries, key=lambda k: (len(k), k)):
        v = table.entries[key]
        entries.append({
            "arity": len(key),
            "objects": list(v["objects"]),
            "inputs": list(key),
            "output": {"symbol": v["output"], "coeff": str(v["coeff"])},
            "degree": v["degree"],
        })
    return {"metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
            "entries": entries}


def functor_to_json(f):
    """The functor description of f (`functors.AInfFunctorData`), in the
    form `functors.functor_from_json` reads."""
    return {"name": f.name,
            "source": f.source.name, "target": f.target.name,
            "object_map": dict(sorted(f.object_map.items())),
            "F1": [{"from": k, "to": v if v is not None else "0"}
                   for k, v in sorted(f.f1.items())]}


def check_d_squared(cx):
    """Does each pair of consecutive differentials of the complex cx
    compose to zero?"""
    for i in range(cx.lo, cx.hi - 1):
        di, dn = cx.diffs.get(i), cx.diffs.get(i + 1)
        if di is not None and dn is not None and not dn.compose(di).is_zero():
            return False
    return True


def homology_dims(cx, positions=None):
    """{pos: dim ker/im} of the complex cx by exact rank computation."""
    out = {}
    for i in (positions if positions is not None else cx.positions()):
        dim = sum(cx.reps[i].dims.values())
        rk_out = rank(cx.diffs[i]) if i in cx.diffs else 0
        rk_in = rank(cx.diffs[i - 1]) if i - 1 in cx.diffs else 0
        out[i] = dim - rk_out - rk_in
    return out


def hom_homology_dims(cat, src, tgt, degrees):
    """{deg: dim} of the category's flattened Hom-complex, exact via
    rref."""
    out = {}
    for n in degrees:
        dim = len(cat.flat_basis(src, tgt, n))
        rk_out = rref(cat.d_matrix(src, tgt, n))[0]
        rk_in = rref(cat.d_matrix(src, tgt, n - 1))[0]
        out[n] = dim - rk_out - rk_in
    return out


def _h_defining_product(h):
    """The null-homotopic product whose H-image is h, per the homotopy
    tables (initial homotopies and their inductive extensions)."""
    _, kind, i, n = h
    o = sym.other(i)
    if kind == "sn":
        if n == 0:
            return (("p", i), ("j", i))
        return (h_sym("sp", i, n), ("j", i))
    if kind == "ps":
        return (("j", i), ext_g(o, n))
    if kind == "pn_t":
        if n == 0:
            return (("p", i), ("E", i))
        return (h_sym("sp", i, n), ("E", i))
    if kind == "pn_s":
        return (("j", o), ext_u(i, n + 1))
    if kind == "ss":
        return (h_sym("pn_t", i, n - 1), ("j", o))
    if kind == "sp":
        return (h_sym("pn_t", i, n - 1), ("E", o))
    raise ValueError(h)


def realize_h_symbol(con, h):
    """Matrix realization of a homotopy symbol in the category of the
    contraction con.

    Defined as con's H applied to its defining null-homotopic product,
    which with the tabulated contraction reproduces the partial-identity
    diagrams exactly (all components +1 over F2; over Q the
    back-substitution fixes the signs).
    """
    cat = con.cat
    n = h[3]
    if cat.window < 2 * n + 6:
        raise ValueError("window too small for this homotopy symbol")
    a, b = _h_defining_product(h)
    ea = realize_h_symbol(con, a) if sym.is_h(a) else realize_ext_symbol(cat, a)
    eb = realize_h_symbol(con, b) if sym.is_h(b) else realize_ext_symbol(cat, b)
    return con.H(cat.compose(ea, eb))


def full_back_substitution(con, elem):
    """The tabulated H of `con` on elem by every step of its plan, from the
    top of the window down, whatever elem's support: the oracle for
    TabulatedContraction.H, which starts at elem's top position and stops
    below its lowest one."""
    cat = con.cat
    field = cat.field
    src, tgt, n = elem.src, elem.tgt, elem.deg
    plan = con._plan(src, tgt, n)
    if plan is None:
        return cat.zero_elem(src, tgt, n - 1)
    t = elem.coeffs
    c = {}
    for j, k, inv, b in plan[0]:
        acc = t.get(k, field.zero)
        if b:
            prev = c.get(j + 1)
            if prev is not None:
                acc = field.sub(acc, field.mul(b, prev))
        val = field.mul(acc, inv)
        if val:
            c[j] = val
    return HomElement(cat, src, tgt, n - 1, c)


def restrict(elem, positions):
    """The Hom element elem with its components whose source or target
    position lies outside `positions` zeroed out."""
    keep = {i: v for i, v in elem.coeffs.items()
            if i in positions and i + elem.deg in positions}
    return HomElement(elem.cat, elem.src, elem.tgt, elem.deg, keep)


def _module_maps(elem):
    """(X, Y, {position: module map}) of a HomElement: each coefficient
    scales its position's mod_hom_basis map."""
    cat = elem.cat
    X, Y = cat.complexes[elem.src], cat.complexes[elem.tgt]
    return X, Y, {i: cat.mod_hom_basis(X.reps[i], Y.reps[i + elem.deg]).scale(v)
                  for i, v in elem.coeffs.items()}


def _place(rows, cols, field, blocks):
    """The rows x cols matrix holding each (block, row offset, column
    offset) of `blocks` at its offset."""
    ent = {}
    for m, ro, co in blocks:
        for (r, c), v in m.entries.items():
            field.accumulate(ent, (r + ro, c + co), v)
    return SparseMatrix(rows, cols, field, ent)


def cone(f):
    """Mapping cone of a degree-0 cycle f: X -> Y of an EndCategory.

    Position i carries X_{i+1} (+) Y_i and the differential is the block
    matrix [[-d_X, 0], [f, d_Y]].
    """
    if f.deg != 0:
        raise ValueError("cone needs a degree-0 chain map")
    if not f.cat.differential(f).is_zero():
        raise ValueError("cone needs a cycle")
    X, Y, maps = _module_maps(f)
    field = X.field
    q = X.reps[X.lo].quiver
    zero = Representation(q, field, {v: 0 for v in q.vertices}, name="0")
    lo, hi = min(X.lo - 1, Y.lo), max(X.hi - 1, Y.hi)
    xs = {i: X.reps.get(i + 1, zero) for i in range(lo, hi + 1)}
    reps = {}
    for i in range(lo, hi + 1):
        x, y = xs[i], Y.reps.get(i, zero)
        dims = {v: x.dims[v] + y.dims[v] for v in q.vertices}
        reps[i] = Representation(q, field, dims, {
            e: _place(dims[t], dims[s], field,
                      ((x.mats[e], 0, 0), (y.mats[e], x.dims[t], x.dims[s])))
            for e, s, t in q.edges}, f"C{i}")
    diffs = {}
    for i in range(lo, hi):
        dX, fc, dY = X.diffs.get(i + 1), maps.get(i + 1), Y.diffs.get(i)
        blocks = {}
        for v in q.vertices:
            # the X summands come first in the rows and the columns
            rs, cs = xs[i + 1].dims[v], xs[i].dims[v]
            parts = [] if dX is None else [(dX.blocks[v].scale(field.sign(1)), 0, 0)]
            if fc is not None:
                parts.append((fc.blocks[v], rs, 0))
            if dY is not None:
                parts.append((dY.blocks[v], rs, cs))
            blocks[v] = _place(reps[i + 1].dims[v], reps[i].dims[v], field, parts)
        diffs[i] = ModuleMap(reps[i], reps[i + 1], blocks)
    return TruncatedComplex(f"cone({X.name}->{Y.name})", reps, diffs, field)
