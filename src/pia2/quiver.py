"""Quivers and their representations over a field.

Representations assign a dimension to each vertex and a matrix to each
edge; the matrix of an edge e: u -> v maps the vertex-u component to the
vertex-v component.  The preprojective algebra of A2 is the doubled A2
quiver with the relations (12)(21) = 0 and (21)(12) = 0, paths read left
to right; it enters only through its four indecomposables and the module
maps between them, written down here as matrices.
"""

from .linalg import SparseMatrix, mat_mul, F2


class Quiver:
    def __init__(self, vertices, edges):
        """edges: list of (edge id, start vertex, tail vertex)."""
        self.vertices = list(vertices)
        self.edges = list(edges)
        vs = set(self.vertices)
        for name, s, t in self.edges:
            if s not in vs or t not in vs:
                raise ValueError(f"edge {name} has endpoint outside vertex set")
        if len({name for name, _s, _t in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge ids")

    def __repr__(self):
        return f"Quiver({self.vertices}, {self.edges})"


def a_n_quiver(n):
    """The A_n quiver, n <= 9: vertices 1..n, one edge (i i+1): i -> i+1,
    named by its two digits, "(12)"."""
    if n > 9:
        raise ValueError("edge names spell each vertex with one digit: n <= 9")
    verts = list(range(1, n + 1))
    edges = [(f"({i}{i+1})", i, i + 1) for i in range(1, n)]
    return Quiver(verts, edges)


def double_quiver(q):
    """Add a formal inverse "(ji)": j -> i for each edge "(ij)": i -> j."""
    edges = list(q.edges)
    for name, s, t in q.edges:
        edges.append((f"({name[2]}{name[1]})", t, s))
    return Quiver(q.vertices, edges)


def pia2_quiver():
    """The doubled A2 quiver underlying the preprojective algebra."""
    return double_quiver(a_n_quiver(2))


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

    def scale(self, c):
        return ModuleMap(self.source, self.target,
                         {v: self.blocks[v].scale(c) for v in self.blocks})

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def __repr__(self):
        return f"ModuleMap({self.name or '?'}: {self.source.name}->{self.target.name})"


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
