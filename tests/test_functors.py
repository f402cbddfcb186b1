import json

import pytest

from pia2.linalg import F2
from pia2 import symbols as sym
from pia2.transfer import SymbolicBackend, TransferEvaluator, compute_operation_table
from pia2.ainf import stasheff_check, unitality_check, count_composable_tuples
from pia2.functors import (build_delta, build_fukaya, build_pants,
                           build_pi_prime, build_pi_simple, pi_category,
                           builtin_functors, verify_functor, AInfFunctorData,
                           functor_from_json, g_dictionary, pants_degree)


def make_pi(arity=6, degree=4):
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    table = compute_operation_table(arity, degree, sb, evaluator=ev)
    return pi_category(table, ev)


def test_delta_structure():
    d = build_delta()
    assert d.m(("gamma", "beta", "alpha")) == [(F2.one, "1_A")]
    assert d.m(("alpha", "gamma", "beta")) == [(F2.one, "1_B")]
    assert d.m(("beta", "alpha", "gamma")) == [(F2.one, "1_C")]
    assert d.m(("beta", "alpha")) == []
    assert d.m(("gamma", "beta")) == []
    assert d.degree("gamma") == 1 and d.degree("alpha") == 0
    assert stasheff_check(d, 6, 1)["status"] == "pass"
    assert unitality_check(d, 1)["status"] == "pass"


def test_fukaya_matches_delta_under_relabeling():
    d = build_delta()
    f3 = build_fukaya(3, (0, 0, 1))
    relabel = {"f1": "alpha", "f2": "beta", "f3": "gamma",
               "1_X1": "1_A", "1_X2": "1_B", "1_X3": "1_C"}
    lhs = {tuple(relabel[s] for s in k): relabel[v["output"]]
           for k, v in f3.table.entries.items()}
    rhs = {k: v["output"] for k, v in d.table.entries.items()}
    assert lhs == rhs


def test_fukaya_grading_constraint_and_stasheff():
    with pytest.raises(ValueError):
        build_fukaya(4, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        build_fukaya(2, (0, 0))
    f4 = build_fukaya(4, (2, 0, 0, 0))
    assert f4.m(("f4", "f3", "f2", "f1")) == [(F2.one, "1_X1")]
    assert f4.m(("f1", "f4", "f3", "f2")) == [(F2.one, "1_X2")]
    assert stasheff_check(f4, 7, 2)["status"] == "pass"


def test_pi_simple_formal():
    p = build_pi_simple()
    assert p.m(("a.u2^0", "b.u1^0")) == [(F2.one, "u1^1")]
    assert p.m(("u1^2", "a.u2^1")) == [(F2.one, "a.u2^3")]
    assert p.m(("b.u1^0", "a.u2^0", "b.u1^0")) == []
    assert stasheff_check(p, 4, 4)["status"] == "pass"


def test_pi_prime_additivization():
    pi = make_pi()
    pp = build_pi_prime(pi)
    assert pp.hom_basis("S1", "P", 4) == ["j2"]
    assert pp.hom_basis("S2", "P", 4) == ["j1"]
    assert sorted(pp.hom_basis("P", "P", 0)) == ["(12)", "(21)", "1_P1", "1_P2"]
    # blockwise composition: matching middle summand
    assert pp.m(("j1", "p2")) == [(F2.one, "(21)")]
    # block mismatch kills the composite
    assert pp.m(("p2", "j1")) == []
    assert pp.m(("p1", "j2")) == []
    # additive extension of a higher operation
    assert pp.m(("j1", "b.u1^0", "p1")) == [(F2.one, "1_P1")]
    # the unit of P is the formal sum, handled structurally
    assert pp.m(("j1", "1_P")) == [(F2.one, "j1")]
    assert pp.m(("1_P", "p2")) == [(F2.one, "p2")]
    assert pp.m(("j1", "1_P", "p2")) == []
    # block identities are ordinary morphisms, not units
    assert pp.m(("1_P1", "j1")) == [(F2.one, "j1")]
    assert pp.m(("1_P2", "j1")) == []


def test_pants_composition_rules():
    pi = make_pi()
    a = build_pants(4, pi_table=pi.table)
    # the wheel rule
    assert a.m(("x1^1*u01", "y0^2*v10")) == [(F2.one, "x1^4")]
    assert a.m(("y0^2*v10", "x1^1*u01")) == [(F2.one, "y0^4")]
    assert a.m(("u20", "v02")) == [(F2.one, "x0^1")]
    assert a.m(("v02", "u20")) == [(F2.one, "y2^1")]
    # x_i y_i = 0 and loops of different letters annihilate
    for i in range(3):
        assert a.m((f"x{i}^1", f"y{i}^1")) == []
        assert a.m((f"y{i}^1", f"x{i}^1")) == []
    # loop absorption
    assert a.m(("x1^2", "x1^1*u01")) == [(F2.one, "x1^3*u01")]
    assert a.m(("x1^1*u01", "y0^1")) == [(F2.one, "x1^2*u01")]
    assert a.m(("y1^1", "x2^1*u12")) == []
    # u o u and v o v die
    assert a.m(("u12", "u01")) == []
    assert a.m(("v10", "v21")) == []
    # degree law: only u01 and v10 carry degree one
    assert pants_degree("u01") == 1 and pants_degree("v10") == 1
    assert pants_degree("x1^2*u01") == 5 and pants_degree("y2^3") == 0
    for key, v in a.table.entries.items():
        if len(key) == 2:
            assert v["degree"] == sum(pants_degree(s) for s in key)


def test_pants_triangles():
    pi = make_pi()
    a = build_pants(4, pi_table=pi.table)
    assert a.m(("u20", "u12", "u01")) == [(F2.one, "1_X0")]
    assert a.m(("u01", "u20", "u12")) == [(F2.one, "1_X1")]
    assert a.m(("u12", "u01", "u20")) == [(F2.one, "1_X2")]
    assert a.m(("v10", "v21", "v02")) == [(F2.one, "1_X0")]
    assert a.m(("v21", "v02", "v10")) == [(F2.one, "1_X1")]
    assert a.m(("v02", "v10", "v21")) == [(F2.one, "1_X2")]
    # loop-extended products mirror the preprojective ones
    assert a.m(("y0^2", "u20", "u12")) == [(F2.one, "y0^1*v10")]
    assert a.m(("v21", "v02", "y0^1*v10")) == [(F2.one, "x1^1")]


def test_g_dictionary_relations():
    img = g_dictionary()
    assert img("x0^1") is None and img("y0^1") == "u1^1"
    assert img("x1^1") == "u2^1" and img("y1^1") is None
    assert img("x2^1") == "(21)" and img("y2^1") == "(12)"
    assert img("x2^2") is None
    assert img("x1^2*u01") == "b.u1^2"
    assert img("u20") == "p1" and img("v02") == "j2"


def test_builtin_functors_verify():
    pi = make_pi()
    fs = {f.name: f for f in builtin_functors(pi, degree_max=4)}
    assert set(fs) == {"iota", "iota1", "iota2", "kappa1", "kappa2", "G"}
    checked = {}
    for name, f in fs.items():
        rep = verify_functor(f, 6, 4)
        checked[name] = rep["checked"]
        if name != "G":
            assert rep["status"] == "pass", (name, rep["violations"][:3])
    # each report counts the support tuples it evaluated
    assert all(checked.values())
    assert sum(checked.values()) == 298


def test_functor_report_that_checked_nothing_fails():
    pi = make_pi()
    iota1 = {f.name: f for f in builtin_functors(pi, degree_max=4)}["iota1"]
    rep = verify_functor(iota1, 1, 4)
    assert rep["checked"] == 0 and not rep["violations"]
    assert rep["status"] == "fail"


def test_support_scan_matches_exhaustive():
    pi = make_pi()
    fs = builtin_functors(pi, degree_max=2)
    for f in fs:
        fast = verify_functor(f, 4, 2)
        slow = verify_functor(f, 4, 2, exhaustive=True)
        assert slow["checked"] == count_composable_tuples(f.source, 4, 2)
        assert 0 < fast["checked"] <= slow["checked"]
        assert sorted(map(str, (v["tuple"] for v in fast["violations"]))) == \
            sorted(map(str, (v["tuple"] for v in slow["violations"]))), f.name


def test_formal_closure_is_built_once_for_all_arities():
    """pi-simple is formal: its closure's table states no arity bound, so
    the exhaustive iota check past arity 2 builds it once, not once per
    arity."""
    pi = make_pi()
    iota = {f.name: f for f in builtin_functors(pi, degree_max=4)}["iota"]
    builds = []
    closure = iota.source._closure
    iota.source._closure = lambda a, d: builds.append((a, d)) or closure(a, d)
    rep = verify_functor(iota, 4, 4, exhaustive=True)
    assert rep["status"] == "pass" and rep["checked"] == 672
    assert builds == [(3, 12)]


def test_g_functor_known_block_identity_gap():
    """The pants functor satisfies the functor equation everywhere except
    on tuples whose preprojective value is a block identity of P: there
    the category side produces 1_{P_i} while the functor side can only
    produce the full identity of P (or zero).  This mismatch is intrinsic
    to the strict assignment; every other tuple passes, including all
    composition relations x_i y_i -> 0."""
    pi = make_pi()
    fs = {f.name: f for f in builtin_functors(pi, degree_max=4)}
    g = fs["G"]
    rep = verify_functor(g, 6, 4)
    assert rep["status"] == "fail"
    viols = rep["violations"]
    # every violation is a block-identity tuple...
    for v in viols:
        assert set(v["got"]) <= {"1_P1", "1_P2"}, v
    # ...and they are exactly the pullbacks of the identity-block entries
    predicted = set(map(tuple, g.source.block_identity_tuples))
    # plus the two rotations valued 1_{X2} (stored as written in the
    # triangle list, they map to 1_P, not to the block the category sees)
    predicted |= {("u12", "u01", "u20"), ("v02", "v10", "v21")}
    got = {tuple(v["tuple"]) for v in viols}
    assert got == {t for t in predicted
                   if all(pants_degree(s) <= 4 for s in t) and len(t) <= 6}


def test_g_m2_homomorphism_including_relation_images():
    """The linear component is a homomorphism for the binary products; in
    particular all six x_i y_i products map to zero through the relations
    (21)(12) = 0 = (12)(21) and p j = 0."""
    pi = make_pi()
    g = {f.name: f for f in builtin_functors(pi, degree_max=4)}["G"]
    rep = verify_functor(g, 2, 4)
    assert rep["status"] == "pass"


def test_functor_json_roundtrip():
    pi = make_pi()
    delta = build_delta()
    f = AInfFunctorData("iota1", delta, pi, {"A": "S2", "B": "P1", "C": "S1"},
                        {"alpha": "j1", "beta": "p1", "gamma": "b.u1^0"})
    doc = f.to_json()
    back = functor_from_json(json.loads(json.dumps(doc)),
                             {"delta": delta, "Pi": pi})
    assert verify_functor(back, 5, 3)["status"] == "pass"
    with pytest.raises(NotImplementedError):
        AInfFunctorData("bad", delta, pi, {}, {}, higher={2: "x"})


def test_functor_undefined_component():
    pi = make_pi()
    delta = build_delta()
    f = AInfFunctorData("partial", delta, pi, {"A": "S2", "B": "P1", "C": "S1"},
                        {"alpha": "j1"})
    with pytest.raises(KeyError):
        f.image("gamma")
    # the check reports the symbols F1 leaves out instead of crashing
    rep = verify_functor(f, 4, 2)
    assert rep["status"] == "fail"
    named = {v["got"] for v in rep["violations"] if v["expected"] == "F1 defined"}
    assert named == {"undefined on 'gamma', 'beta'", "undefined on 'beta', 'gamma'"}
