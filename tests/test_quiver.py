from fractions import Fraction

import pytest

from pia2.linalg import F2, QQ, SparseMatrix
from pia2.symbols import kappa_object
from pia2.quiver import (Quiver, PathAlgebraElement, a_n_quiver, double_quiver,
                         preprojective_relation, multiply, pia2_quiver,
                         pia2_relations, pia2_indecomposables, pia2_named_maps,
                         a2_representations, check_exact,
                         ModuleMap, Representation, representation_from_json)


def test_double_quiver_a2():
    dq = double_quiver(a_n_quiver(2))
    assert sorted(dq.vertices) == [1, 2]
    names = sorted(e[0] for e in dq.edges)
    assert names == ["(12)", "(21)"]
    assert dq.start("(21)") == 2 and dq.tail("(21)") == 1


def test_double_quiver_edgeless_and_a3():
    q = Quiver([1, 2, 3], [])
    dq = double_quiver(q)
    assert dq.edges == [] and dq.vertices == [1, 2, 3]
    dq3 = double_quiver(a_n_quiver(3))
    assert len(dq3.vertices) == 3 and len(dq3.edges) == 4


def test_preprojective_relation_a2():
    rho = preprojective_relation(a_n_quiver(2), QQ)
    # (12)(21) - (21)(12): one loop at vertex 1, minus one loop at vertex 2
    assert rho.terms == {("(12)", "(21)"): QQ.of(1), ("(21)", "(12)"): QQ.of(-1)}
    parts = {rho.path_endpoints(p): c for p, c in rho.terms.items()}
    assert parts == {(1, 1): QQ.of(1), (2, 2): QQ.of(-1)}


def test_preprojective_relation_edgeless_and_an():
    assert preprojective_relation(Quiver([1], []), QQ).is_zero()
    rho = preprojective_relation(a_n_quiver(3), QQ)
    # vertex components: e1: (12)(21); e2: (23)(32) - (21)(12); e3: -(32)(23)
    by_vertex = {}
    for p, c in rho.terms.items():
        by_vertex.setdefault(rho.path_endpoints(p), {})[p] = c
    assert by_vertex[(1, 1)] == {("(12)", "(21)"): QQ.of(1)}
    assert by_vertex[(2, 2)] == {("(23)", "(32)"): QQ.of(1),
                                 ("(21)", "(12)"): QQ.of(-1)}
    assert by_vertex[(3, 3)] == {("(32)", "(23)"): QQ.of(-1)}


def test_multiply_modulo_relations():
    q = pia2_quiver()
    rel = pia2_relations()
    e12 = PathAlgebraElement.path(q, F2, ["(12)"])
    e21 = PathAlgebraElement.path(q, F2, ["(21)"])
    one1 = PathAlgebraElement.idempotent(q, F2, 1)
    assert multiply(e12, e21, rel).is_zero()
    assert multiply(e21, e12, rel).is_zero()
    assert multiply(one1, e12, rel) == e12
    assert multiply(e12, e12, rel).is_zero()  # non-composable


def test_multiply_associative_on_normal_form_basis():
    q = pia2_quiver()
    rel = pia2_relations()
    basis = [PathAlgebraElement.idempotent(q, F2, 1),
             PathAlgebraElement.idempotent(q, F2, 2),
             PathAlgebraElement.path(q, F2, ["(12)"]),
             PathAlgebraElement.path(q, F2, ["(21)"])]
    for a in basis:
        for b in basis:
            for c in basis:
                lhs = multiply(multiply(a, b, rel), c, rel)
                rhs = multiply(a, multiply(b, c, rel), rel)
                assert lhs == rhs


def test_pia2_indecomposables():
    M = pia2_indecomposables()
    assert M["S1"].dims == {1: 1, 2: 0}
    assert M["P1"].dims == {1: 1, 2: 1}
    assert M["P1"].mats["(12)"].get(0, 0) == 1
    assert M["P1"].mats["(21)"].is_zero()
    # defining relations act as zero on every indecomposable
    rho = pia2_relations()
    loops = [PathAlgebraElement.path(M["S1"].quiver, F2, w)
             for w in (("(12)", "(21)"), ("(21)", "(12)"))]
    for rep in M.values():
        for rel in loops:
            assert rep.satisfies(rel)
    assert kappa_object("S1") == "S2" and kappa_object(kappa_object("P1")) == "P1"


def test_named_maps_natural_and_composites():
    maps = pia2_named_maps()
    for f in maps.values():
        assert f.is_natural()
    # the bold arrows compose to zero through the relations
    assert maps["(21)"].compose(maps["(12)"]).is_zero()
    assert maps["(12)"].compose(maps["(21)"]).is_zero()
    # kernels and images per the two short exact sequences
    assert maps["p2"].compose(maps["j2"]).is_zero()
    assert maps["p1"].compose(maps["j1"]).is_zero()


def test_check_exact_short_exact_sequences():
    maps = pia2_named_maps()
    assert check_exact([maps["j2"], maps["p2"]])  # 0 -> S1 -> P2 -> S2 -> 0
    assert check_exact([maps["j1"], maps["p1"]])  # 0 -> S2 -> P1 -> S1 -> 0
    M = pia2_indecomposables()
    # recreate with a zero first map: not injective
    zero = ModuleMap(maps["j2"].source, maps["j2"].target, {})
    assert not check_exact([zero, maps["p2"]])
    # and the four-term exactness of a period of the resolution
    assert not check_exact([maps["(12)"], maps["(21)"]])  # ends not iso


def test_a2_universal_sequence():
    reps = a2_representations()
    one = SparseMatrix.identity(1, F2)
    incl = ModuleMap(reps["S2"], reps["P"], {2: one})
    proj = ModuleMap(reps["P"], reps["S1"], {1: one})
    assert incl.is_natural() and proj.is_natural()
    assert check_exact([incl, proj])  # 0 -> S2 -> P -> S1 -> 0


def test_representation_evaluate_against_brute_force():
    # P1 is spanned by the paths out of vertex 1; (12) acts by 1 out of
    # vertex 1 and (21) acts by 0 into it
    M = pia2_indecomposables()
    q = M["P1"].quiver
    path = PathAlgebraElement.path(q, F2, ["(12)"])
    out = M["P1"].evaluate(path)
    assert list(out) == [(1, 2)] and out[(1, 2)].get(0, 0) == 1
    two_step = PathAlgebraElement.path(q, F2, ["(12)", "(21)"])
    assert M["P1"].satisfies(two_step)


def test_representation_json_roundtrip():
    M = pia2_indecomposables()
    doc = M["P2"].to_json()
    back = representation_from_json(doc)
    assert back.dims == M["P2"].dims
    for e in back.mats:
        assert back.mats[e].entries == M["P2"].mats[e].entries


@pytest.mark.parametrize("field, text, value", [
    (F2, "1/3", 1), (QQ, "1/3", Fraction(1, 3))], ids=["f2", "q"])
def test_representation_json_reads_scalars_in_its_field(field, text, value):
    """A matrix entry "1/3" is the field's own scalar: its residue 1 over
    F2, a Fraction over Q."""
    doc = a2_representations(field)["P"].to_json()
    doc["mats"]["(12)"][0][2] = text
    entries = representation_from_json(doc).mats["(12)"].entries
    assert entries == {(0, 0): value}
    assert type(entries[(0, 0)]) is type(value)


def test_representation_shape_validation():
    q = pia2_quiver()
    with pytest.raises(ValueError):
        Representation(q, F2, {1: 1, 2: 1},
                       {"(12)": SparseMatrix.zero(2, 1, F2)})


def test_projectives_match_path_enumeration_oracle():
    """Independent derivation: enumerate paths out of each vertex in the
    quotient algebra by brute force (filtering any word containing a
    relation), grade them by endpoint, and read off the edge actions."""
    q = pia2_quiver()
    forbidden = [("(12)", "(21)"), ("(21)", "(12)")]

    def reduced(word):
        return not any(word[i:i + 2] in forbidden for i in range(len(word) - 1))

    for start in (1, 2):
        paths = [("e", start)]
        frontier = [()]
        while frontier:
            new = []
            for w in frontier:
                at = start if not w else q.tail(w[-1])
                for e, s, _t in q.edges:
                    if s == at and reduced(w + (e,)):
                        new.append(w + (e,))
            paths += new
            frontier = new
        # basis graded by end vertex
        by_vertex = {1: [], 2: []}
        for p in paths:
            end = p[1] if p[0] == "e" else q.tail(p[-1])
            by_vertex[end].append(p)
        dims = {v: len(by_vertex[v]) for v in (1, 2)}
        rep = pia2_indecomposables()[f"P{start}"]
        assert rep.dims == dims == {1: 1, 2: 1}
        # edge actions by concatenate-then-reduce
        for e, s, t in q.edges:
            expect = {}
            for c, p in enumerate(by_vertex[s]):
                w = (e,) if p[0] == "e" else p + (e,)
                if reduced(w) and w in [x for x in by_vertex[t] if x[0] != "e"]:
                    expect[(by_vertex[t].index(w), c)] = 1
            assert dict(rep.mats[e].entries) == expect, (start, e)
