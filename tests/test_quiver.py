import pytest

from helpers import check_exact
from pia2.linalg import F2, SparseMatrix, mat_mul
from pia2.symbols import kappa_object
from pia2.quiver import (Quiver, a_n_quiver, double_quiver, pia2_quiver,
                         pia2_indecomposables, pia2_named_maps,
                         a2_representations, ModuleMap, Representation)


def test_double_quiver_a2():
    dq = double_quiver(a_n_quiver(2))
    assert sorted(dq.vertices) == [1, 2]
    names = sorted(e[0] for e in dq.edges)
    assert names == ["(12)", "(21)"]
    assert ("(21)", 2, 1) in dq.edges


def test_double_quiver_edgeless_and_a3():
    q = Quiver([1, 2, 3], [])
    dq = double_quiver(q)
    assert dq.edges == [] and dq.vertices == [1, 2, 3]
    dq3 = double_quiver(a_n_quiver(3))
    assert len(dq3.vertices) == 3 and len(dq3.edges) == 4
    assert [e for e, _s, _t in dq3.edges] == ["(12)", "(23)", "(21)", "(32)"]
    # a two-digit vertex would make an edge name ambiguous
    with pytest.raises(ValueError):
        a_n_quiver(10)


def test_pia2_indecomposables():
    M = pia2_indecomposables()
    assert M["S1"].dims == {1: 1, 2: 0}
    assert M["P1"].dims == {1: 1, 2: 1}
    assert M["P1"].mats["(12)"].get(0, 0) == 1
    assert M["P1"].mats["(21)"].is_zero()
    # the defining relations (12)(21) = 0 and (21)(12) = 0 (paths read
    # left to right) act as zero on every indecomposable
    for rep in M.values():
        a, b = rep.mats["(12)"], rep.mats["(21)"]
        assert mat_mul(b, a).is_zero() and mat_mul(a, b).is_zero()
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

    tail = {e: t for e, _s, t in q.edges}

    def reduced(word):
        return not any(word[i:i + 2] in forbidden for i in range(len(word) - 1))

    for start in (1, 2):
        paths = [("e", start)]
        frontier = [()]
        while frontier:
            new = []
            for w in frontier:
                at = start if not w else tail[w[-1]]
                for e, s, _t in q.edges:
                    if s == at and reduced(w + (e,)):
                        new.append(w + (e,))
            paths += new
            frontier = new
        # basis graded by end vertex
        by_vertex = {1: [], 2: []}
        for p in paths:
            end = p[1] if p[0] == "e" else tail[p[-1]]
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
