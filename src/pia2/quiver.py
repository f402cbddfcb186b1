"""Quivers, path algebras with monomial relations, and representations.

Paths multiply by concatenation read left to right: in ``a*b`` the path
``a`` is traversed first, so ``a*b`` is nonzero only when a ends where b
starts.  The preprojective algebra of A2 then has the relations
(12)(21) = 0 and (21)(12) = 0.

Representations assign a dimension to each vertex and a matrix to each
edge; the matrix of an edge e: u -> v maps the vertex-u component to the
vertex-v component.
"""

from .linalg import SparseMatrix, mat_mul, rref, field_by_name, F2


class Quiver:
    def __init__(self, vertices, edges):
        """edges: list of (edge id, start vertex, tail vertex)."""
        self.vertices = list(vertices)
        self.edges = list(edges)
        vs = set(self.vertices)
        for name, s, t in self.edges:
            if s not in vs or t not in vs:
                raise ValueError(f"edge {name} has endpoint outside vertex set")
        self._by_name = {name: (s, t) for name, s, t in self.edges}
        if len(self._by_name) != len(self.edges):
            raise ValueError("duplicate edge ids")

    def start(self, edge):
        return self._by_name[edge][0]

    def tail(self, edge):
        return self._by_name[edge][1]

    def to_json(self):
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, doc):
        return cls(doc["vertices"], [tuple(e) for e in doc["edges"]])

    def __repr__(self):
        return f"Quiver({self.vertices}, {self.edges})"


def a_n_quiver(n):
    """The A_n quiver: vertices 1..n, one edge (i,i+1): i -> i+1."""
    verts = list(range(1, n + 1))
    edges = [(f"({i}{i+1})" if n < 10 else f"({i},{i+1})", i, i + 1) for i in range(1, n)]
    return Quiver(verts, edges)


def _star_name(name):
    # for edges named "(ij)" the formal inverse is "(ji)"; otherwise append *
    if name.startswith("(") and name.endswith(")"):
        inner = name[1:-1]
        if "," in inner:
            a, b = inner.split(",")
            return f"({b},{a})"
        if len(inner) == 2:
            return f"({inner[1]}{inner[0]})"
    return name + "*"


def double_quiver(q):
    """Add a formal inverse f*: t(f) -> s(f) for each edge f."""
    edges = list(q.edges)
    for name, s, t in q.edges:
        edges.append((_star_name(name), t, s))
    return Quiver(q.vertices, edges)


class PathAlgebraElement:
    """Scalar-linear combination of composable paths in a quiver.

    A path is a tuple of edge ids; the empty-ish paths are the vertex
    idempotents, stored as ("e", v).  Coefficients live in ``field``.
    """

    def __init__(self, quiver, field, terms=None):
        self.quiver = quiver
        self.field = field
        self.terms = {}
        if terms:
            for path, coeff in terms.items():
                coeff = field.of(coeff) if isinstance(coeff, int) else coeff
                if coeff:
                    self.terms[path] = coeff

    @classmethod
    def idempotent(cls, quiver, field, vertex):
        return cls(quiver, field, {("e", vertex): field.one})

    @classmethod
    def path(cls, quiver, field, edges):
        edges = tuple(edges)
        for a, b in zip(edges, edges[1:]):
            if quiver.tail(a) != quiver.start(b):
                return cls(quiver, field)  # non-composable: zero
        return cls(quiver, field, {edges: field.one})

    def path_endpoints(self, path):
        if path[0] == "e":
            return path[1], path[1]
        return self.quiver.start(path[0]), self.quiver.tail(path[-1])

    def is_zero(self):
        return not self.terms

    def add(self, other):
        f = self.field
        terms = dict(self.terms)
        for p, c in other.terms.items():
            f.accumulate(terms, p, c)
        return PathAlgebraElement(self.quiver, f, terms)

    def scale(self, c):
        f = self.field
        return PathAlgebraElement(self.quiver, f,
                                  {p: f.mul(f.of(c) if isinstance(c, int) else c, v)
                                   for p, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, PathAlgebraElement)
                and self.quiver is other.quiver and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items(), key=str):
            word = f"e_{p[1]}" if p[0] == "e" else "".join(p)
            bits.append(word if c == self.field.one else f"{c}*{word}")
        return " + ".join(bits)


def _concat(quiver, p, q):
    """Concatenate two basis paths (p first); None if not composable."""
    if p[0] == "e":
        return q if _path_start(quiver, q) == p[1] else None
    if q[0] == "e":
        return p if _path_tail(quiver, p) == q[1] else None
    if quiver.tail(p[-1]) != quiver.start(q[0]):
        return None
    return p + q


def _path_start(quiver, p):
    return p[1] if p[0] == "e" else quiver.start(p[0])


def _path_tail(quiver, p):
    return p[1] if p[0] == "e" else quiver.tail(p[-1])


class MonomialRelations:
    """A two-sided ideal generated by paths set to zero.

    Reduction deletes any path containing a forbidden factor; for the A2
    preprojective algebra this rewriting is confluent and the normal-form
    basis is {e1, e2, (12), (21)}.
    """

    def __init__(self, quiver, forbidden_words):
        self.quiver = quiver
        self.forbidden = [tuple(w) for w in forbidden_words]

    def reduce_path(self, path):
        if path[0] == "e":
            return path
        for w in self.forbidden:
            k = len(w)
            for i in range(len(path) - k + 1):
                if path[i:i + k] == w:
                    return None
        return path


def multiply(a, b, relations=None):
    """Product in the path algebra, reduced modulo monomial relations."""
    if a.quiver is not b.quiver:
        raise ValueError("elements live over different quivers")
    f = a.field
    terms = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            pq = _concat(a.quiver, p, q)
            if pq is None:
                continue
            if relations is not None:
                pq = relations.reduce_path(pq)
                if pq is None:
                    continue
            f.accumulate(terms, pq, f.mul(cp, cq))
    return PathAlgebraElement(a.quiver, f, terms)


def preprojective_relation(q, field=F2):
    """rho = sum over original edges f of (f f* - f* f), in the doubled quiver."""
    dq = double_quiver(q)
    rho = PathAlgebraElement(dq, field)
    for name, _s, _t in q.edges:
        star = _star_name(name)
        ff = PathAlgebraElement.path(dq, field, (name, star))
        sf = PathAlgebraElement.path(dq, field, (star, name)).scale(field.sign(1))
        rho = rho.add(ff).add(sf)
    return rho


def pia2_quiver():
    """The doubled A2 quiver underlying the preprojective algebra."""
    return double_quiver(a_n_quiver(2))


def pia2_relations():
    return MonomialRelations(pia2_quiver(), [("(12)", "(21)"), ("(21)", "(12)")])


class Representation:
    """A representation of a quiver over a field.

    dims: {vertex: dimension}; mats: {edge id: SparseMatrix} with the
    matrix of e: u -> v of shape dims[v] x dims[u].
    """

    def __init__(self, quiver, field, dims, mats=None, name=""):
        self.quiver = quiver
        self.field = field
        self.dims = dict(dims)
        self.name = name
        self.mats = {}
        for ename, s, t in quiver.edges:
            m = (mats or {}).get(ename)
            if m is None:
                m = SparseMatrix.zero(self.dims[t], self.dims[s], field)
            if (m.rows, m.cols) != (self.dims[t], self.dims[s]):
                raise ValueError(f"matrix for edge {ename} has wrong shape")
            self.mats[ename] = m

    def evaluate_path(self, path):
        """Matrix by which a basis path acts (vertex component to component)."""
        if path[0] == "e":
            return SparseMatrix.identity(self.dims[path[1]], self.field)
        m = SparseMatrix.identity(self.dims[self.quiver.start(path[0])], self.field)
        for e in path:
            m = mat_mul(self.mats[e], m)
        return m

    def evaluate(self, elem):
        """Evaluate a path-algebra element vertex-pair by vertex-pair.

        Returns {(start, tail): SparseMatrix}; zero blocks are dropped.
        A relation holds on the representation iff this comes back empty.
        """
        out = {}
        for path, coeff in elem.terms.items():
            key = elem.path_endpoints(path)
            m = self.evaluate_path(path).scale(coeff)
            out[key] = out[key].add(m) if key in out else m
        return {k: v for k, v in out.items() if not v.is_zero()}

    def satisfies(self, elem):
        return not self.evaluate(elem)

    def to_json(self):
        return {
            "name": self.name,
            "quiver": self.quiver.to_json(),
            "dims": {str(v): d for v, d in self.dims.items()},
            "mats": {e: [[r, c, str(v)] for (r, c), v in sorted(m.entries.items())]
                     for e, m in self.mats.items()},
            "field": self.field.name,
        }

    def __repr__(self):
        return f"Rep({self.name or '?'}, dims={self.dims})"


class ModuleMap:
    """A map of representations: one matrix per vertex."""

    def __init__(self, source, target, blocks, name=""):
        self.source = source
        self.target = target
        self.name = name
        self.blocks = {}
        for v in source.quiver.vertices:
            b = blocks.get(v)
            if b is None:
                b = SparseMatrix.zero(target.dims[v], source.dims[v], source.field)
            if (b.rows, b.cols) != (target.dims[v], source.dims[v]):
                raise ValueError(f"block at vertex {v} has wrong shape")
            self.blocks[v] = b

    def is_natural(self):
        for e, s, t in self.source.quiver.edges:
            lhs = mat_mul(self.target.mats[e], self.blocks[s])
            rhs = mat_mul(self.blocks[t], self.source.mats[e])
            if lhs != rhs:
                return False
        return True

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise ValueError("maps not composable")
        return ModuleMap(other.source, self.target,
                         {v: mat_mul(self.blocks[v], other.blocks[v])
                          for v in self.blocks})

    def add(self, other):
        return ModuleMap(self.source, self.target,
                         {v: self.blocks[v].add(other.blocks[v]) for v in self.blocks})

    def scale(self, c):
        return ModuleMap(self.source, self.target,
                         {v: self.blocks[v].scale(c) for v in self.blocks})

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.source is other.source
                and self.target is other.target and self.blocks == other.blocks)

    def rank(self):
        return sum(rref(b)[0] for b in self.blocks.values())

    def __repr__(self):
        return f"ModuleMap({self.name or '?'}: {self.source.name}->{self.target.name})"


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
    if first.rank() != sum(first.source.dims.values()):
        return False
    if last.rank() != sum(last.target.dims.values()):
        return False
    for f, g in zip(maps, maps[1:]):
        if not g.compose(f).is_zero():
            return False
        if f.rank() + g.rank() != sum(f.target.dims.values()):
            return False
    return True


def pia2_indecomposables(field=F2):
    """The four indecomposables S1, S2, P1, P2 of the A2 preprojective algebra.

    P_i is spanned by the paths beginning at vertex i; the basis element
    (12) of P1 sits over vertex 2, and so on.
    """
    q = pia2_quiver()
    s1 = Representation(q, field, {1: 1, 2: 0}, name="S1")
    s2 = Representation(q, field, {1: 0, 2: 1}, name="S2")
    one = SparseMatrix.identity(1, field)
    zero11 = SparseMatrix.zero(1, 1, field)
    p1 = Representation(q, field, {1: 1, 2: 1}, {"(12)": one, "(21)": zero11}, name="P1")
    p2 = Representation(q, field, {1: 1, 2: 1}, {"(12)": zero11, "(21)": one}, name="P2")
    return {"S1": s1, "S2": s2, "P1": p1, "P2": p2}


def pia2_named_maps(field=F2, reps=None):
    """The generating module maps j1, j2, p1, p2, (12), (21) as matrices."""
    M = reps or pia2_indecomposables(field)
    one = SparseMatrix.identity(1, field)

    def mm(src, tgt, blocks, name):
        f = ModuleMap(M[src], M[tgt], blocks, name)
        assert f.is_natural(), name
        return f

    return {
        "j1": mm("S2", "P1", {2: one}, "j1"),
        "j2": mm("S1", "P2", {1: one}, "j2"),
        "p1": mm("P1", "S1", {1: one}, "p1"),
        "p2": mm("P2", "S2", {2: one}, "p2"),
        "(12)": mm("P1", "P2", {1: one}, "(12)"),
        "(21)": mm("P2", "P1", {2: one}, "(21)"),
    }


def a2_representations(field=F2):
    """Indecomposables P, S1, S2 of the (undoubled) A2 quiver."""
    q = a_n_quiver(2)
    one = SparseMatrix.identity(1, field)
    p = Representation(q, field, {1: 1, 2: 1}, {"(12)": one}, name="P")
    s1 = Representation(q, field, {1: 1, 2: 0}, name="S1")
    s2 = Representation(q, field, {1: 0, 2: 1}, name="S2")
    return {"P": p, "S1": s1, "S2": s2}


def representation_from_json(doc):
    field = field_by_name(doc["field"])
    q = Quiver.from_json(doc["quiver"])
    dims = {_maybe_int(v): d for v, d in doc["dims"].items()}
    mats = {}
    for e, triplets in doc["mats"].items():
        s, t = q.start(e), q.tail(e)
        ent = {(r, c): field.parse(v) for r, c, v in triplets}
        mats[e] = SparseMatrix(dims[t], dims[s], field, ent)
    return Representation(q, field, dims, mats, doc.get("name", ""))


def _maybe_int(v):
    try:
        return int(v)
    except ValueError:
        return v
