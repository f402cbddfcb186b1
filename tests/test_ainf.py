import pytest

from pia2.linalg import F2, QQ
from pia2 import symbols as sym
from pia2.table import OperationTable, diff_tables
from pia2.transfer import SymbolicBackend, TransferEvaluator, compute_operation_table
from pia2.ainf import (AInfCategory, stasheff_check, unitality_check,
                       kappa_symmetry_check, classification_check,
                       expected_table, sign_exponent, composable_tuples,
                       count_composable_tuples, insertion_tuples)
from pia2.functors import (pi_category, build_delta, build_fukaya,
                           build_pi_prime, build_pi_simple)


def make_pi(arity=6, degree=4):
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    table = compute_operation_table(arity, degree, sb, evaluator=ev)
    return pi_category(table, ev)


def test_sign_exponent():
    # |f_n| + ... + |f_1| - n, degrees listed from f_1 upward
    assert sign_exponent([1, 0, 2], 2) == -1
    assert sign_exponent([1, 0, 2], 0) == 0


def test_stasheff_trivial_formal_table():
    # an all-zero table passes
    t = OperationTable({"arity_max": 4, "degree_max": 4})

    def hom(x, y, dmax):
        return [f"1_{x}"] if x == y else (["a"] if (x, y) == ("X", "Y") else [])

    cat = AInfCategory("formal", ["X", "Y"], hom, t, {"X": "1_X", "Y": "1_Y"},
                       F2, degree_of=lambda s: 0)
    assert stasheff_check(cat, 4, 2)["status"] == "pass"


def test_stasheff_trick_instance():
    """The first relation with a triple product: m_3(a, p2, j2) = 1 and
    (12) = m_2(j2, p1) force m_3(a, p2, (12)) = p1, which the full check
    confirms on the computed table."""
    pi = make_pi()
    assert pi.m(("a.u2^0", "p2", "(12)")) == [(F2.one, "p1")]
    rep = stasheff_check(pi, 4, 2)
    assert rep["status"] == "pass"


def test_stasheff_detects_corruption():
    pi = make_pi(4, 2)
    del pi.table.entries[("a.u2^0", "p2", "(12)")]
    rep = stasheff_check(pi, 4, 2)
    assert rep["status"] == "fail"


def stasheff_reference(cat, d_max, degree_max):
    """The relation loop over every composable tuple with every term sent
    through cat.m, as the oracle for stasheff_check's insertion path.
    Returns the report and the tuples whose relation has a nonzero term."""
    f = cat.field
    violations = []
    touched = set()
    checked = 0
    for inputs in composable_tuples(cat, d_max, degree_max):
        d = len(inputs)
        checked += 1
        degs = [cat.degree(s) for s in reversed(inputs)]
        acc = {}
        for l in range(2, d + 1):
            for n in range(0, d - l + 1):
                inner = inputs[d - n - l: d - n]
                for ci, si in cat.m(inner):
                    outer = inputs[: d - n - l] + (si,) + inputs[d - n:]
                    for co, so in cat.m(outer):
                        coeff = f.mul(ci, co)
                        if coeff != f.zero:
                            touched.add(inputs)
                        if f.name != "f2" and sign_exponent(degs, n) % 2:
                            coeff = f.neg(coeff)
                        s = f.add(acc.get(so, f.zero), coeff)
                        if s == f.zero:
                            acc.pop(so, None)
                        else:
                            acc[so] = s
        if acc:
            violations.append({"tuple": list(inputs), "expected": "0",
                               "got": {k: str(v) for k, v in acc.items()}})
    return ({"check": "stasheff", "status": "fail" if violations else "pass",
             "violations": violations, "checked": checked}, touched)


def _corrupt_output(pi):
    entry = pi.table.entries[("a.u2^0", "p2", "(12)")]
    assert entry["output"] == "p1"
    entry["output"] = "j1"
    return pi


def _corrupt_coeff(pi):
    # over Q, flip the sign of m_3(a, p2, (12)) = p1
    entry = pi.table.entries[("a.u2^0", "p2", "(12)")]
    entry["coeff"] = QQ.of(-1)
    return pi


def _pi_q():
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    return pi_category(compute_operation_table(4, 2, sb, evaluator=ev), ev, QQ)


def _nonassociative():
    """m_2 alone, failing associativity on (f, g, h) through the inner
    product in the last slot only, m_2(f, m_2(g, h)), and on the mirror
    (f', g', h') through the first slot only, m_2(m_2(f', g'), h')."""
    hom = {"h": ("A", "B"), "g": ("B", "C"), "f": ("C", "D"), "k": ("A", "C"),
           "l": ("A", "D"), "h'": ("E", "F"), "g'": ("F", "G"),
           "f'": ("G", "H"), "k'": ("F", "H"), "l'": ("E", "H")}
    objects = "ABCDEFGH"
    t = OperationTable({"arity_max": 2, "degree_max": 0})
    for (a, b), out in ((("g", "h"), "k"), (("f", "k"), "l"),
                        (("f'", "g'"), "k'"), (("k'", "h'"), "l'")):
        t.add((a, b), [hom[b][0], hom[b][1], hom[a][1]], F2.one, out, 0)

    def hom_basis(x, y, dmax):
        return ([f"1_{x}"] if x == y else []) + \
            [s for s, xy in hom.items() if xy == (x, y)]

    return AInfCategory("assoc", list(objects), hom_basis, t,
                        {o: f"1_{o}" for o in objects}, F2,
                        degree_of=lambda s: 0)


STASHEFF_CASES = {
    "pi": (lambda: make_pi(4, 2), 4, 2),
    "pi-q": (_pi_q, 4, 2),
    # checked past the table's arity and degree bounds: the closure
    "pi-past-bounds": (lambda: make_pi(3, 2), 4, 3),
    "pi-simple": (build_pi_simple, 4, 4),
    "delta": (build_delta, 5, 1),
    "fukaya4": (lambda: build_fukaya(4, (2, 0, 0, 0)), 5, 2),
    "pi-prime": (lambda: build_pi_prime(make_pi(4, 2)), 4, 2),
    "pi-bad-output": (lambda: _corrupt_output(make_pi(4, 2)), 4, 2),
    "pi-q-bad-coeff": (lambda: _corrupt_coeff(_pi_q()), 4, 2),
    "toy-bad-assoc": (_nonassociative, 3, 0),
}


@pytest.mark.parametrize("case", sorted(STASHEFF_CASES))
def test_stasheff_lookup_path_matches_reference(case):
    make, d_max, degree_max = STASHEFF_CASES[case]
    cat = make()
    rep = stasheff_check(cat, d_max, degree_max)
    ref, touched = stasheff_reference(cat, d_max, degree_max)
    evaluated = rep.pop("evaluated")
    assert rep == ref
    assert rep["checked"] > 0
    _ops, tuples = insertion_tuples(cat, d_max, degree_max)
    assert 0 < evaluated == len(tuples) < rep["checked"]
    # every tuple with a nonzero relation term, so every violation, is an
    # insertion tuple and was evaluated
    assert touched <= tuples
    assert {tuple(v["tuple"]) for v in ref["violations"]} <= touched
    if "bad" in case:
        assert rep["violations"]


def test_past_bound_m_reads_one_cached_closure():
    """Past the table's bounds m reads the closure: each arity-4 point
    query on a table built at arity 3 equals a fresh transfer, all of them
    share one closure, the per-point entry point sees every such call, and
    a repeated check builds no closure."""
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    pi = pi_category(compute_operation_table(3, 2, sb, evaluator=ev), ev)
    builds = []
    closure = pi._closure
    pi._closure = lambda a, d: builds.append((a, d)) or closure(a, d)
    calls = []
    fallback = pi._m_fallback
    pi._m_fallback = lambda inputs: calls.append(inputs) or fallback(inputs)
    rep = stasheff_check(pi, 4, 2)
    assert rep["status"] == "pass" and not calls
    closed = list(builds)
    assert closed and all(a == 3 for a, _d in closed)
    tuples = [t for t in composable_tuples(pi, 4, 2) if len(t) == 4]
    nonzero = 0
    for t in tuples:
        out = TransferEvaluator(sb).transfer(tuple(map(sym.ext_from_str, t)))
        want = [(v, sym.ext_to_str(k)) for k, v in out.items()]
        assert pi.m(t) == want, t
        nonzero += bool(want)
    assert nonzero > 0
    assert builds == closed + [(4, 2)]
    assert calls == tuples
    assert stasheff_check(pi, 4, 2) == rep
    # a request inside a kept closure reads it, filtered to its own bounds
    assert closed[0][1] > 3
    fresh = pi_category(pi.table, TransferEvaluator(sb))
    assert pi.closed_operations(3, 3) == fresh.closed_operations(3, 3)
    assert builds == closed + [(4, 2)]


def test_stasheff_report_counts_tuples_checked():
    pi = make_pi(4, 2)
    rep = stasheff_check(pi, 4, 2)
    n = len(list(composable_tuples(pi, 4, 2)))
    assert n > 0
    assert rep["checked"] == n == count_composable_tuples(pi, 4, 2)


def test_stasheff_reads_the_whole_tuple_source():
    pi = make_pi(5, 4)
    tuples = list(composable_tuples(pi, 5, 4))
    source = iter(tuples)
    rep = stasheff_check(pi, 5, 4, tuple_source=source)
    assert next(source, None) is None
    assert rep["checked"] == len(tuples) == count_composable_tuples(pi, 5, 4)
    assert rep == stasheff_check(pi, 5, 4)
    assert 0 < rep["evaluated"] < rep["checked"]


def test_stasheff_fails_when_nothing_was_checked():
    pi = make_pi(4, 2)
    rep = stasheff_check(pi, 1, 2)
    assert rep["checked"] == 0 and not rep["violations"]
    assert rep["status"] == "fail"


def test_unitality_laws_f2_and_q():
    pi = make_pi(4, 2)
    assert unitality_check(pi, 4)["status"] == "pass"
    # over Q the left unit law carries the sign (-1)^{|g|}
    t = OperationTable({"arity_max": 2, "degree_max": 2})

    def hom(x, y, dmax):
        out = ["1_X"] if x == y else []
        if (x, y) == ("X", "X") and dmax >= 1:
            out.append("g")
        return out

    cat = AInfCategory("toy", ["X"], hom, t, {"X": "1_X"}, QQ,
                       degree_of=lambda s: 1 if s == "g" else 0)
    assert cat.m(("g", "1_X")) == [(QQ.one, "g")]
    assert cat.m(("1_X", "g")) == [(QQ.of(-1), "g")]
    assert cat.m(("g", "1_X", "g")) == []
    assert unitality_check(cat, 2)["status"] == "pass"


def test_expected_table_instances():
    exp = expected_table(6, 4)
    # basic triangles
    assert exp.get(("a.u2^0", "p2", "j2"))["output"] == "1_S1"
    assert exp.get(("j1", "b.u1^0", "p1"))["output"] == "1_P1"
    # quadrilateral families, as instantiated from the complete list
    assert exp.get(("u1^1", "p1", "(21)", "(12)"))["output"] == "p1"
    assert exp.get(("p2", "j2", "a.u2^0"))["output"] == "1_S2"
    # kappa image present
    assert exp.get(("u2^1", "p2", "(12)", "(21)"))["output"] == "p2"
    # the unit-law instance m_2(u1^0, p1) is left to strict unitality
    assert ("1_S1", "p1") not in exp
    # every entry satisfies the degree law
    for key, v in exp.entries.items():
        degs = [sym.ext_degree(sym.ext_from_str(s)) for s in key]
        assert v["degree"] == sum(degs) + 2 - len(key)


def test_expected_equals_computed_small():
    sb = SymbolicBackend()
    computed = compute_operation_table(5, 4, sb)
    exp = expected_table(5, 4)
    rep = diff_tables(computed, exp)
    assert rep["identical"], rep


def test_diff_tables_reports():
    exp = expected_table(4, 4)
    assert diff_tables(exp, exp)["identical"]
    smaller = expected_table(4, 2)
    rep = diff_tables(exp, smaller, check_bounds=False)
    assert not rep["identical"]
    assert rep["only_in_a"] and not rep["only_in_b"]
    with pytest.raises(ValueError):
        diff_tables(exp, smaller)


def test_kappa_symmetry():
    exp = expected_table(5, 4)
    assert kappa_symmetry_check(exp)["status"] == "pass"
    single = OperationTable({})
    single.add(("j1", "p2"), ["P2", "S2", "P1"], 1, "(21)", 0)
    assert kappa_symmetry_check(single)["status"] == "fail"
    assert kappa_symmetry_check(OperationTable({}))["status"] == "pass"


def test_classification():
    exp = expected_table(7, 4)
    assert classification_check(exp)["status"] == "pass"
    bogus = OperationTable({})
    bogus.add(("u1^1", "u1^1", "u1^1"), ["S1"] * 4, 1, "u1^2", 2)
    assert classification_check(bogus)["status"] == "fail"


def test_scan_reports_count_what_they_checked():
    pi = make_pi(6, 4)
    for rep in (unitality_check(pi, 4), kappa_symmetry_check(pi.table),
                classification_check(pi.table)):
        assert rep["status"] == "pass" and rep["checked"] > 0, rep["check"]


def test_scan_report_that_checked_nothing_fails():
    """Classification examines operations of arity >= 3; over a table of
    binary products alone it examines nothing, and that is no pass."""
    rep = classification_check(expected_table(2, 4))
    assert rep["checked"] == 0 and not rep["violations"]
    assert rep["status"] == "fail"
    assert kappa_symmetry_check(OperationTable({}))["checked"] == 0


def test_restriction_to_simples_is_formal():
    pi = make_pi(7, 4)
    sub = pi.table.restrict_objects({"S1", "S2"})
    assert set(sub.arities()) == {2}


def test_composable_tuples_are_composable_and_identity_free():
    delta = build_delta()
    seen = set()
    for tup in composable_tuples(delta, 4, 1):
        assert not any(s.startswith("1_") for s in tup)
        seen.add(tup)
    assert ("beta", "alpha") in seen
    assert ("gamma", "beta", "alpha") in seen
    assert ("alpha", "beta") not in seen  # not composable


def test_triangle_morphism_restriction():
    """Restricting the table to the morphisms {j1, p1, b} reproduces the
    distinguished-triangle pattern: the adjacent binary products vanish
    and the three rotations of the triple product are identities."""
    pi = make_pi(7, 4)
    allowed = {"j1", "p1", "b.u1^0"}
    sub = {k: v for k, v in pi.table.entries.items() if set(k) <= allowed}
    assert {k: v["output"] for k, v in sub.items()} == {
        ("b.u1^0", "p1", "j1"): "1_S2",
        ("p1", "j1", "b.u1^0"): "1_S1",
        ("j1", "b.u1^0", "p1"): "1_P1",
    }
