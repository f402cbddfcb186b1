import random

import pytest

from pia2.linalg import F2, QQ
from pia2 import symbols as sym
from pia2.table import OperationTable, diff_tables
from helpers import restrict_objects
from pia2.transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                           compute_operation_table)
from pia2.complexes import pia2_end_category, tabulated_contraction
from pia2.ainf import (AInfCategory, stasheff_check, unitality_check,
                       kappa_symmetry_check, classification_check,
                       expected_table, sign_exponent, composable_tuples,
                       count_composable_tuples, insertion_tuples, _by_source,
                       _classified, _classified_patterns, _in_bounds, _maps)
from pia2.functors import (pi_category, build_delta, build_fukaya,
                           build_pants, build_pi_prime, build_pi_simple)


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

    cat = AInfCategory("formal", ["X", "Y"], hom, t, F2,
                       symbols={"a": ("X", "Y", 0)})
    # the category derives its units and their records
    assert cat.units == {"X": "1_X", "Y": "1_Y"}
    assert cat.symbols["1_Y"] == ("Y", "Y", 0)
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
                        s = f.of(acc.get(so, f.zero) + coeff)
                        if s == f.zero:
                            acc.pop(so, None)
                        else:
                            acc[so] = s
        if acc:
            violations.append({"tuple": list(inputs), "expected": "0",
                               "got": {k: str(v) for k, v in acc.items()}})
    violations.sort(key=lambda v: (len(v["tuple"]), v["tuple"]))
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
    entry["coeff"] = QQ.neg(entry["coeff"])
    return pi


def _pi_q():
    """Pi over Q: the matrix backend's table with the tabulated homotopy
    at window 16, its classes read to degree 4 for the closure."""
    cat = pia2_end_category(16, QQ)
    backend = MatrixBackend.for_pia2(cat, tabulated_contraction(cat), 4)
    ev = TransferEvaluator(backend)
    return pi_category(compute_operation_table(4, 2, backend, evaluator=ev), ev)


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

    return AInfCategory("assoc", list(objects), hom_basis, t, F2,
                        symbols={s: (x, y, 0) for s, (x, y) in hom.items()})


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
        out = TransferEvaluator(sb).transfer(t)
        want = [(v, k) for k, v in out.items()]
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

    cat = AInfCategory("toy", ["X"], hom, t, QQ, symbols={"g": ("X", "X", 1)})
    assert cat.m(("g", "1_X")) == [(QQ.one, "g")]
    assert cat.m(("1_X", "g")) == [(QQ.of(-1), "g")]
    assert cat.m(("g", "1_X", "g")) == []
    assert unitality_check(cat, 2)["status"] == "pass"


def test_unitality_fails_on_stored_unit_keys():
    """A table that stores unit-padded keys breaks the unit laws: the
    right and left unit laws and the unit-padded triple each give a
    violation, and every stored key with a unit in it gives one more."""
    t = OperationTable({"arity_max": 3, "degree_max": 1})
    stored = [("g", "1_X"), ("1_X", "g"), ("g", "1_X", "g")]
    for key in stored:
        t.add(key, ["X"] * (len(key) + 1), F2.one, "1_X", 0)

    def hom(x, y, dmax):
        return ["1_X", "g"] if dmax >= 1 else ["1_X"]

    cat = AInfCategory("toy", ["X"], hom, t, F2, symbols={"g": ("X", "X", 1)})
    got = [(F2.one, "1_X")]
    rep = unitality_check(cat, 1)
    assert rep["status"] == "fail"
    assert rep["violations"] == [
        {"tuple": ["g", "1_X"], "expected": "g", "got": got},
        {"tuple": ["1_X", "g"], "expected": "g", "got": got},
        {"tuple": ["g", "1_X", "g"], "expected": "0", "got": "nonzero"},
    ] + [{"tuple": list(key), "expected": "identity-free key",
          "got": "unit argument stored"} for key in stored]
    assert rep["checked"] == 2 + 2 + 3 * 2 + len(stored)


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
        degs = [sym.SYMBOLS[s][3] for s in key]
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
    rep = diff_tables(smaller, exp, check_bounds=False)
    assert not rep["identical"]
    assert rep["only_in_b"] and not rep["only_in_a"]
    assert len(rep["only_in_b"]) == len(exp.entries) - len(smaller.entries)


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


def test_kappa_symmetry_compares_output_and_coefficient():
    """An entry whose kappa image is stored with another output, or with
    another coefficient, fails the check along with its image."""
    def table(out, coeff):
        t = OperationTable({})
        t.add(("j1", "p2"), ["P2", "S2", "P1"], QQ.one, "(21)", 0)
        t.add(("j2", "p1"), ["P1", "S1", "P2"], coeff, out, 0)
        return t
    assert kappa_symmetry_check(table("(12)", QQ.one))["status"] == "pass"
    for bad in (table("j1", QQ.one), table("(12)", QQ.neg(QQ.one))):
        rep = kappa_symmetry_check(bad)
        assert rep["status"] == "fail" and rep["checked"] == 2
        assert [v["tuple"] for v in rep["violations"]] == [["j1", "p2"], ["j2", "p1"]]


def contains_classified_factor_oracle(key):
    """A frozen copy of the shape search classification_check replaced:
    the oracle for its verdict.  Each shape of _classified_patterns at n
    = 0..d//2 is tried in turn, after p_i at every position of the key
    and bare at its start."""
    d = len(key)
    for i in (1, 2):
        pi = f"p{i}"
        for n in range(0, d // 2 + 1):
            for pat in _classified_patterns(i, n):
                anchored = (pi,) + pat
                if len(anchored) <= d and _has_consecutive(key, anchored):
                    return True
                if len(pat) <= d and key[:len(pat)] == pat:
                    return True
    return False


def _has_consecutive(key, pat):
    k = len(pat)
    return any(key[i:i + k] == pat for i in range(len(key) - k + 1))


def _verdicts(keys):
    """{key: classified} for keys of arity >= 3, read off one
    classification_check over a table that stores them all."""
    t = OperationTable({})
    for k in keys:
        t.add(k, ["S1"] * (len(k) + 1), 1, "u1^1", 0)
    rep = classification_check(t)
    assert rep["checked"] == len(keys)
    failed = {tuple(v["tuple"]) for v in rep["violations"]}
    return {k: k not in failed for k in keys}


def test_classification_shape_by_shape():
    """Each of the eight shapes, at loop counts 0..2, classifies a key
    when it follows p_i anywhere in it, also behind a p_i or two that
    start no shape, and when it starts the key bare; bare anywhere else it
    does not.  u1^1, the filler, is in no shape."""
    fill = "u1^1"
    yes, no = set(), set()
    for n in range(3):
        for i in (1, 2):
            for pat in _classified_patterns(i, n):
                anchored = (f"p{i}",) + pat
                for lead in ((), ("p2", fill), ("p1", fill, "p2", fill)):
                    for before in range(3):
                        for after in range(3):
                            pad = (fill,) * before
                            yes.add(lead + pad + anchored + (fill,) * after)
                            yes.add(pat + lead + pad + (fill,) * after)
                            if before:
                                no.add(pad + pat + (fill,) * after)
    yes = {k for k in yes if len(k) >= 3}
    no = {k for k in no if len(k) >= 3}
    assert yes and no
    verdicts = _verdicts(yes | no)
    assert {k for k, ok in verdicts.items() if ok} == yes
    for k in yes | no:
        assert contains_classified_factor_oracle(k) == (k in yes), k


def test_classification_matches_frozen_oracle():
    """The shape sets built per arity give the frozen search's verdict on
    every key of arity >= 3 of the expected table at (11,10), and on
    seeded random keys of arity 1..9 over the symbols the shapes use, p_i
    and two that are in no shape."""
    exp = [k for k in expected_table(11, 10).entries if len(k) >= 3]
    assert len(exp) == 342
    assert all(_verdicts(exp).values())
    assert all(map(contains_classified_factor_oracle, exp))
    letters = ("p1", "p2", "(12)", "(21)", "j1", "j2", "u1^1", "b.u1^0")
    rng = random.Random(1)
    keys = {tuple(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            for _ in range(4000)}
    want = {k: contains_classified_factor_oracle(k) for k in keys}
    assert 500 < sum(want.values()) < len(keys) - 500
    assert {k: _classified(k) for k in keys} == want
    assert _verdicts([k for k in keys if len(k) >= 3]) == \
        {k: ok for k, ok in want.items() if len(k) >= 3}


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
    sub = restrict_objects(pi.table, {"S1", "S2"})
    assert set(sub.arities()) == {2}


def composable_tuples_recursive(cat, d_max, degree_max):
    """A frozen copy of the recursive walk composable_tuples replaced: the
    oracle for its order.  Each tuple is built from a chain of maps f_1,
    f_2, ... and passed up one nested generator per map."""
    by_source = _by_source(cat, degree_max)

    def extend(chain, tgt):
        if len(chain) >= 2:
            yield tuple(reversed(chain))
        if len(chain) == d_max:
            return
        for s, y in by_source.get(tgt, ()):
            chain.append(s)
            yield from extend(chain, y)
            chain.pop()

    for x in sorted(by_source):
        for s, y in by_source[x]:
            yield from extend([s], y)


def insertion_tuples_unpruned(cat, d_max, degree_max):
    """A frozen copy of insertion_tuples before it pruned its candidates:
    the oracle for its (ops, tuples).  Every O o_j K, at every slot j of
    every outer key O, is built and sent through _in_bounds."""
    inner = cat.closed_operations(d_max - 1, degree_max)
    hom = _maps(cat, degree_max)
    by_output = {}
    for k, (_c, out) in inner.items():
        if all(s in hom for s in k):
            by_output.setdefault(out, []).append(k)
    if not by_output:
        return inner, set()
    top = max(max(map(cat.degree, by_output)), degree_max)
    ops = cat.closed_operations(d_max - 1, top)
    outers = list(ops)
    for x, u in cat.units.items():
        if u in by_output:
            outers += [(a, u) for a, (w, _y) in hom.items() if w == x]
            outers += [(u, b) for b, (_w, y) in hom.items() if y == x]
    keep = _in_bounds(hom, d_max)
    tuples = set()
    for o in outers:
        for j, s in enumerate(o):
            for k in by_output.get(s, ()):
                t = o[:j] + k + o[j + 1:]
                if keep(t):
                    tuples.add(t)
    return ops, tuples


def test_insertion_tuples_match_unpruned_oracle():
    """Pruning outer keys and slots before the tuple test admits the same
    tuples: Pi at the benchmark's (6,4)/(6,4) and (6,6)/(5,6), and the
    formal and pants categories at (5,4)."""
    cases = [("pi-64", make_pi(6, 4), 6, 4, 562),
             ("pi-66", make_pi(6, 6), 5, 6, 940),
             ("pi-simple", build_pi_simple(), 5, 4, None),
             ("delta", build_delta(), 5, 4, None),
             ("pants", build_pants(4, pi_table=make_pi(5, 4).table), 5, 4, None)]
    for name, cat, d_max, degree_max, n in cases:
        ops, tuples = insertion_tuples(cat, d_max, degree_max)
        want_ops, want = insertion_tuples_unpruned(cat, d_max, degree_max)
        assert ops == want_ops and tuples == want, name
        assert want and n in (None, len(want)), name


def _pi_walk_cases():
    """Pi as the benchmark builds it, tables at (6,4) and (6,6), walked on
    the grid (2..6) x (0..6): its hom bases do not depend on the table, so
    the grid is walked once, on the (6,6) table, and the benchmark's walks
    (6,4) and (5,6) each on the table it reads them from."""
    pi64, pi66 = make_pi(6, 4), make_pi(6, 6)
    yield pi64, 6, 4
    yield pi66, 5, 6
    for d_max in range(2, 7):
        for degree_max in range(7):
            yield pi66, d_max, degree_max


def _other_walk_cases():
    pi = make_pi(4, 4)
    yield build_pi_simple(), 4, 4
    yield build_delta(), 5, 1
    yield build_pi_prime(pi), 4, 2
    yield build_pants(4, pi_table=pi.table), 4, 4


def test_walk_matches_recursive_oracle():
    """The explicit-stack walk yields the recursive walk's tuples in the
    same order, and its length is the walk count."""
    for cat, d_max, degree_max in list(_pi_walk_cases()) + list(_other_walk_cases()):
        walk = list(composable_tuples(cat, d_max, degree_max))
        assert walk == list(composable_tuples_recursive(cat, d_max, degree_max)), \
            (cat.name, d_max, degree_max)
        assert len(walk) == count_composable_tuples(cat, d_max, degree_max)


def test_walk_below_arity_two_yields_nothing():
    """No tuple has fewer than two maps: the walk yields nothing and the
    count agrees.  The recursive walk never stopped below d_max = 1."""
    for cat in (make_pi(4, 2), build_delta()):
        for d_max in (-1, 0, 1):
            assert list(composable_tuples(cat, d_max, 2)) == []
            assert count_composable_tuples(cat, d_max, 2) == 0


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


@pytest.mark.parametrize("make", [build_delta, lambda: make_pi(4, 4)],
                         ids=["delta", "pi"])
def test_unitality_counts_what_it_checked(make):
    """"checked" is each hom_basis symbol out of and into every object
    (the two unit laws), three unit-padded triples per endomorphism, and
    every stored key."""
    cat = make()
    want = len(cat.table.entries)
    for x in cat.objects:
        for y in cat.objects:
            want += len(cat.hom_basis(x, y, 4)) + len(cat.hom_basis(y, x, 4))
        want += 3 * len(cat.hom_basis(x, x, 4))
    rep = unitality_check(cat, 4)
    assert rep["status"] == "pass"
    assert rep["checked"] == want > len(cat.table.entries)


@pytest.mark.parametrize("arity_max", [2, 3, 4, 5])
def test_expected_equals_computed_on_a_grid(arity_max):
    """expected_table's family range is tight: the paper's list matches
    the transferred table at every degree bound 0..14, among them arity
    2 and 3, where a family range shorter by one loses instances."""
    for degree_max in range(0, 15):
        computed = compute_operation_table(arity_max, degree_max, SymbolicBackend())
        rep = diff_tables(computed, expected_table(arity_max, degree_max))
        assert rep["identical"], (arity_max, degree_max, rep)
