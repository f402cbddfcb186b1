import hashlib
import json
from collections import Counter

import pytest

from helpers import functor_to_json
from pia2.linalg import F2
from pia2 import symbols as sym
from pia2.transfer import SymbolicBackend, TransferEvaluator, compute_operation_table
from pia2.ainf import (expected_table, stasheff_check, unitality_check,
                       composable_tuples, count_composable_tuples)
from pia2 import functors
from pia2.functors import (build_delta, build_fukaya, build_pants,
                           build_pi_prime, build_pi_simple, pi_category,
                           builtin_functors, verify_functor, AInfFunctorData,
                           functor_from_json, g_image, g_inverse_dictionary,
                           pants_degree)


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
            assert pants_degree(v["output"]) == v["degree"]


def test_pants_pulls_back_past_exponent_24():
    """The pullback's dictionary reaches build_pants's own exponent bound:
    at degree 50 the arity-3 preprojective operations on u1^25 and u2^25
    have their pants entries on y0^25 and x1^25, and every pants entry
    keeps the degree law."""
    a = build_pants(50, pi_table=compute_operation_table(3, 50, SymbolicBackend()))
    past = sorted(k for k in a.table.entries
                  if len(k) > 2 and any(s.endswith("^25") for s in k))
    assert past == [("u20", "u12", "x1^25"), ("v21", "v02", "y0^25"),
                    ("x1^25", "v21", "v02"), ("y0^25", "u20", "u12")]
    assert len(a.table.entries) == 30_506
    for key in past:
        v = a.table.entries[key]
        assert v["degree"] == sum(pants_degree(s) for s in key) - 1
        assert pants_degree(v["output"]) == v["degree"]


def test_pants_states_the_arity_of_its_pi_table():
    """The pullback holds nothing past the arity of the Pi table it reads,
    so the pants table states that arity: from Pi at (6,6) it holds
    arities 2..6 and states 6; from Pi at (9,6) it states 9 and adds 12
    entries of arity 7 and 8 of arity 8."""
    counts = {}
    for arity in (6, 9):
        table = build_pants(6, pi_table=expected_table(arity, 6)).table
        assert table.metadata["arity_max"] == arity
        counts[arity] = Counter(map(len, table.entries))
        assert max(counts[arity]) <= arity
    assert sorted(counts[6]) == [2, 3, 4, 5, 6]
    assert counts[9] - counts[6] == Counter({7: 12, 8: 8})


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


PANTS_54_VIOLATIONS = \
    "5dae1177db92c3d9c1cc37accbd2939eebe691257a2f12017617ffb4bc59def6"


def test_builtin_categories_own_relations():
    """Each built-in category checked against its own A-infinity relations:
    delta, F4, pi-simple, pi-prime and Pi pass at (6,4).  The pants
    category, whose higher operations are Pi's table pulled back along G's
    dictionary, fails from arity 4 on: its failing set at (5,4) is pinned
    by its counts and a digest of the sorted violation tuples, and the
    report lists it by arity, then inputs."""
    pi = make_pi(6, 4)
    for cat in (build_delta(), build_fukaya(4, (2, 0, 0, 0)), build_pi_simple(),
                build_pi_prime(pi), pi):
        rep = stasheff_check(cat, 6, 4)
        assert rep["status"] == "pass", (cat.name, rep["violations"][:3])
        assert rep["evaluated"] > 0, cat.name
    rep = stasheff_check(build_pants(4, pi_table=pi.table), 5, 4)
    tuples = sorted(tuple(v["tuple"]) for v in rep["violations"])
    assert [tuple(v["tuple"]) for v in rep["violations"]] == \
        sorted(tuples, key=lambda t: (len(t), t))
    assert (rep["checked"], rep["evaluated"]) == (2_426_890, 1_010)
    assert len(tuples) == 412
    assert [len(t) for t in tuples].count(4) == 228
    assert [len(t) for t in tuples].count(5) == 184
    assert hashlib.sha256(json.dumps(tuples).encode()).hexdigest() == \
        PANTS_54_VIOLATIONS


def test_g_dictionary_relations():
    assert g_image("x0^1") is None and g_image("y0^1") == "u1^1"
    assert g_image("x1^1") == "u2^1" and g_image("y1^1") is None
    assert g_image("x2^1") == "(21)" and g_image("y2^1") == "(12)"
    assert g_image("x2^2") is None
    assert g_image("x1^2*u01") == "b.u1^2"
    assert g_image("u20") == "p1" and g_image("v02") == "j2"
    assert g_image("x0^1*u20") is None and g_image("y0^3*v10") == "a.u2^3"
    assert [g_image(f"1_X{i}") for i in range(3)] == ["1_S1", "1_S2", "1_P"]
    # G is injective off its kernel, so its inverse, units included, has
    # one entry per symbol outside the kernel
    inv = g_inverse_dictionary(8)
    assert inv["1_S1"] == "1_X0" and inv["1_S2"] == "1_X1"
    assert all(g_image(s) == t for t, s in inv.items())
    outside = [s for syms in functors._pants_hom_data(8).values()
               for s in syms if g_image(s) is not None]
    assert len(inv) == len(outside) == 43


PANTS_TABLES = {
    4: (274, "cf2a57be2a605f4780ba18a769239a332bbd0185c69e4a1f107a8734a6201035"),
    8: (986, "e5fa6ed92077c36cd12c3047579292d103584e7d686d3c021136b3ac91af9c09"),
}


def test_pants_table_bytes_are_pinned():
    """The pants table's JSON bytes, products and pullback alike, from
    the symbolic Pi at (6,4) at degree 4 and from expected_table(9, 8) at
    degree 8, by entry count and sha256."""
    for degree_max, pi_table in ((4, make_pi(6, 4).table),
                                 (8, expected_table(9, 8))):
        table = build_pants(degree_max, pi_table=pi_table).table
        digest = hashlib.sha256(table.dumps().encode()).hexdigest()
        assert (len(table.entries), digest) == PANTS_TABLES[degree_max]


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


def _check_whole_walk(monkeypatch):
    """Make verify_functor evaluate every composable tuple within the
    bounds instead of the support tuples: the oracle of the support scan."""
    monkeypatch.setattr(functors, "_support_tuples",
                        lambda f, a, d: set(composable_tuples(f.source, a, d)))


def test_functor_report_that_checked_nothing_fails(monkeypatch):
    pi = make_pi()
    iota1 = {f.name: f for f in builtin_functors(pi, degree_max=4)}["iota1"]
    rep = verify_functor(iota1, 1, 4)
    assert rep["checked"] == 0 and not rep["violations"]
    assert rep["status"] == "fail"
    # the whole walk below arity 2 is empty too: the same report
    _check_whole_walk(monkeypatch)
    for arity_max in (0, 1):
        assert verify_functor(iota1, arity_max, 4) == rep


def test_support_scan_matches_exhaustive(monkeypatch):
    pi = make_pi()
    fs = builtin_functors(pi, degree_max=2)
    support = {f.name: verify_functor(f, 4, 2) for f in fs}
    _check_whole_walk(monkeypatch)
    for f in fs:
        fast, slow = support[f.name], verify_functor(f, 4, 2)
        assert slow["checked"] == count_composable_tuples(f.source, 4, 2)
        assert 0 < fast["checked"] <= slow["checked"]
        assert sorted(map(str, (v["tuple"] for v in fast["violations"]))) == \
            sorted(map(str, (v["tuple"] for v in slow["violations"]))), f.name


def test_formal_closure_is_built_once_for_all_arities(monkeypatch):
    """pi-simple is formal: its closure's table states no arity bound, so
    the iota check over the whole walk past arity 2 builds it once, not
    once per arity."""
    pi = make_pi()
    iota = {f.name: f for f in builtin_functors(pi, degree_max=4)}["iota"]
    builds = []
    closure = iota.source._closure
    iota.source._closure = lambda a, d: builds.append((a, d)) or closure(a, d)
    _check_whole_walk(monkeypatch)
    rep = verify_functor(iota, 4, 4)
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
    doc = functor_to_json(f)
    back = functor_from_json(json.loads(json.dumps(doc)),
                             {"delta": delta, "Pi": pi})
    assert verify_functor(back, 5, 3)["status"] == "pass"


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


def test_functor_that_changes_a_degree_fails():
    """F1 must keep degrees.  Delta's maps carry degrees (0, 0, 1) and
    F3's under (1, 0, 0) carry (1, 0, 0), so the functor that matches
    them in order keeps every endpoint and the triangle products but moves
    the degrees of alpha and gamma: two "degree match" violations, and
    nothing else."""
    f = AInfFunctorData("regrade", build_delta(), build_fukaya(3, (1, 0, 0)),
                        {"A": "X1", "B": "X2", "C": "X3"},
                        {"alpha": "f1", "beta": "f2", "gamma": "f3"})
    rep = verify_functor(f, 4, 1)
    assert rep["status"] == "fail" and rep["checked"] > 0
    assert rep["violations"] == [
        {"tuple": ["alpha"], "expected": "degree match", "got": [0, 1]},
        {"tuple": ["gamma"], "expected": "degree match", "got": [1, 0]}]
