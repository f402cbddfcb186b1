"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
results.  Criterion 8's pants-functor case is a documented upstream
defect: the block identities 1_{P1}, 1_{P2} are not in the image of the
strict assignment, so the functor equation cannot hold on the twenty
identity-valued tuples; the xfail test records it precisely and the
companion test locks the exact violation set.
"""

import json
import random
import time

import pytest

from pia2.linalg import F2, QQ
from pia2 import symbols as sym
from pia2.table import OperationTable, diff_tables
from helpers import (check_d_squared, check_exact, cone, ext_g, ext_u, h_sym,
                     is_identity, realize_h_symbol, restrict_objects,
                     table_to_json)
from tree_oracle import enumerate_trees, catalan
from pia2.transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                           compute_operation_table)
from pia2.complexes import (pia2_end_category, a2_end_category,
                            tabulated_contraction, generic_contraction,
                            realize_ext_symbol,
                            contraction_audit, HomElement,
                            build_contraction)
from pia2.ainf import (stasheff_check, kappa_symmetry_check,
                       expected_table, insertion_tuples)
from pia2.functors import pi_category, builtin_functors, verify_functor
from pia2.quiver import pia2_named_maps, a2_representations, ModuleMap
from pia2.linalg import SparseMatrix


def report(num, label, elapsed=None):
    tail = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num}: PASS - {label}{tail}")


@pytest.fixture(scope="module")
def engine():
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    t0 = time.time()
    table9 = compute_operation_table(9, 4, sb, evaluator=ev)
    build_time = time.time() - t0
    pi = pi_category(table9, ev)
    return {"sb": sb, "ev": ev, "table9": table9, "pi": pi,
            "build_time": build_time}


def _strip_provenance(table):
    doc = table_to_json(table)
    doc["metadata"] = {k: v for k, v in doc["metadata"].items()
                       if k in ("arity_max", "degree_max", "field")}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def m2_reference_table(nm_max, degree_max, field=F2):
    """The composition table alone, instantiated for n + m <= nm_max: a
    symbol's exponent is n for u^n, a.u2^n and b.u1^n (half its degree,
    rounded down) and 0 otherwise."""
    full = expected_table(2, degree_max, field)
    out = OperationTable(full.metadata)
    for key, v in full.entries.items():
        if sum(sym.SYMBOLS[s][3] // 2 for s in key) <= nm_max:
            out.entries[key] = v
    return out


def test_criterion_1_m2_reproduction():
    t0 = time.time()
    sb = SymbolicBackend()
    sym_table = compute_operation_table(2, 6, sb)
    cat = pia2_end_category(24, F2)
    mb = MatrixBackend.for_pia2(cat, tabulated_contraction(cat), degree_max=6)
    mat_table = compute_operation_table(2, 6, mb)
    # both backends produce byte-identical JSON (matching bounds recorded;
    # provenance fields necessarily differ and are normalized)
    assert _strip_provenance(sym_table) == _strip_provenance(mat_table)
    # the entries with exponent sum <= 3 are exactly the instantiated
    # composition table, about forty entries including the mirror images
    ref = m2_reference_table(3, 6)
    small = m2_reference_table(3, 6)
    small.entries = {k: v for k, v in sym_table.entries.items()
                     if _expsum(k) <= 3}
    rep = diff_tables(small, ref, check_bounds=False)
    assert rep["identical"], rep
    assert 35 <= len(ref) <= 60
    # and nothing outside the instantiated families appears at all
    full_ref = expected_table(2, 6)
    rep = diff_tables(sym_table, full_ref, check_bounds=False)
    assert rep["identical"], rep
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"m2 table reproduced by both backends ({len(ref)} entries "
              f"with exponent sum <= 3, byte-identical JSON)", elapsed)


def _expsum(key):
    out = 0
    for s in key:
        t = sym.SYMBOLS[s][0]
        out += t[2] if t[0] in ("u", "g") else 0
    return out


def _swap(s):
    return sym.ext_to_str(sym.kappa_ext(sym.SYMBOLS[s][0]))


def test_criterion_2_m3_m4_reproduction():
    t0 = time.time()
    sb = SymbolicBackend()
    table = compute_operation_table(4, 7, sb)

    def present(key, out):
        e = table.get(key)
        assert e is not None, (key, "missing")
        assert e["output"] == out and e["coeff"] == F2.one, (key, e)
        kk = tuple(_swap(s) for s in key)
        ke = table.get(kk)
        assert ke is not None and ke["output"] == _swap(out), (kk, "kappa image")

    # the six triangle identities (three + mirrors)
    tri = [(("a.u2^0", "p2", "j2"), "1_S1"),
           (("p2", "j2", "a.u2^0"), "1_S2"),
           (("j2", "a.u2^0", "p2"), "1_P2")]
    for k, v in tri:
        present(k, v)
    # twelve derived triple-product families with n <= 3 (six + mirrors)
    count3 = 0
    present(("a.u2^0", "p2", "(12)"), "p1")
    count3 += 1
    for n in range(1, 4):
        present((f"u2^{n}", "p2", "j2"), f"b.u1^{n-1}")
        present(("p2", "j2", f"u1^{n}"), f"b.u1^{n-1}")
        count3 += 2
    for n in range(0, 4):
        present((f"a.u2^{n}", "p2", "j2"), f"u1^{n}" if n else "1_S1")
        present(("p2", "j2", f"a.u2^{n}"), f"u2^{n}" if n else "1_S2")
        count3 += 2
    present(("(21)", "j2", "a.u2^0"), "j1")
    count3 += 1
    # the eight quadrilateral identities (four + mirrors)
    quad = [(("p1", "(21)", "j2", "u1^1"), "1_S1"),
            (("u1^1", "p1", "(21)", "j2"), "1_S1"),
            (("j2", "u1^1", "p1", "(21)"), "1_P2"),
            (("(21)", "j2", "u1^1", "p1"), "1_P1")]
    for k, v in quad:
        present(k, v)
    # twelve derived quadruple-product families with n <= 2 (six + mirrors)
    for n in range(0, 3):
        present(("p1", "(21)", "j2", f"u1^{n+1}"), f"u1^{n}" if n else "1_S1")
        present(("p1", "(21)", "j2", f"a.u2^{n+1}"), f"a.u2^{n}")
        present((f"u1^{n+1}", "p1", "(21)", "j2"), f"u1^{n}" if n else "1_S1")
        present((f"b.u1^{n+1}", "p1", "(21)", "j2"), f"b.u1^{n}")
    present(("(12)", "(21)", "j2", "u1^1"), "j2")
    present(("u1^1", "p1", "(21)", "(12)"), "p1")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, "triangle and quadrilateral products with all derived "
              "families present at coefficient 1", elapsed)


def test_criterion_3_operation_list_completeness(engine):
    t0 = time.time()
    computed = engine["table9"]
    exp = expected_table(9, 4)
    rep = diff_tables(computed, exp)
    assert rep["identical"], {k: v[:4] for k, v in rep.items() if v and k != "identical"}
    elapsed = engine["build_time"] + (time.time() - t0)
    assert elapsed < 300.0
    report(3, f"complete operation list reproduced both directions at "
              f"arity <= 9 ({len(computed)} operations)", elapsed)


def test_criterion_3_arity_coverage_at_degree_8():
    """At degree <= 4 no operation of arity 7-9 exists, so criterion 3 says
    nothing about those arities; degree 8 gives each of them entries."""
    t0 = time.time()
    computed = compute_operation_table(9, 8, SymbolicBackend())
    exp = expected_table(9, 8)
    rep = diff_tables(computed, exp)
    assert rep["identical"], {k: v[:4] for k, v in rep.items() if v and k != "identical"}
    arities = computed.arities()
    assert {a: arities.get(a) for a in (7, 8, 9)} == {7: 30, 8: 28, 9: 26}
    report(3, f"complete operation list reproduced both directions at "
              f"arity <= 9, degree <= 8 ({len(computed)} operations, "
              f"{arities[7] + arities[8] + arities[9]} at arity 7-9)",
           time.time() - t0)


def test_criterion_3_frontier_at_13_12():
    """The complete operation list against the transfer at arity <= 13 and
    degree <= 12: the only test that reaches arities 10-13."""
    t0 = time.time()
    computed = compute_operation_table(13, 12, SymbolicBackend())
    rep = diff_tables(computed, expected_table(13, 12))
    assert rep["identical"], {k: v[:4] for k, v in rep.items() if v and k != "identical"}
    assert len(computed) == 774
    arities = computed.arities()
    assert all(arities.get(a) for a in range(10, 14)), arities
    report(3, f"complete operation list reproduced both directions at "
              f"arity <= 13, degree <= 12 ({len(computed)} operations)",
           time.time() - t0)


def test_criterion_4_stasheff_suite(engine):
    t0 = time.time()
    rep = stasheff_check(engine["pi"], 7, 4)
    assert rep["status"] == "pass", rep["violations"][:3]
    report(4, "quadratic relations hold for d <= 7, per-input degree <= 4",
           time.time() - t0)


def test_criterion_4_stasheff_at_9_8():
    """The relations at arity <= 9 and degree <= 8, where arities 7-9 have
    operations: 456,054,738 composable tuples, covered by evaluating the
    insertion tuples only."""
    t0 = time.time()
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    pi = pi_category(compute_operation_table(9, 8, sb, evaluator=ev), ev)
    rep = stasheff_check(pi, 9, 8)
    assert rep["status"] == "pass", rep["violations"][:3]
    assert rep["checked"] == 456_054_738
    assert rep["evaluated"] > 0
    # the enumeration is complete only if the closed outer table is: it
    # must equal the complete operation list at its own bounds
    top = max(pi.degree(v["output"]) for k, v in pi.table.entries.items()
              if len(k) <= 8)
    ops, _tuples = insertion_tuples(pi, 9, 8)
    exp = expected_table(8, top)
    assert {k: out for k, (_c, out) in ops.items()} == \
        {k: v["output"] for k, v in exp.entries.items()}
    report(4, f"quadratic relations hold for d <= 9, per-input degree <= 8 "
              f"({rep['evaluated']} of {rep['checked']} tuples evaluated, "
              f"outer table closed at degree {top})", time.time() - t0)


def test_criterion_4_stasheff_at_11_10():
    """The relations at arity <= 11 and degree <= 10, on Pi's table at the
    same bounds: 304,568,294,658 composable tuples covered, 8,464 of them
    evaluated."""
    t0 = time.time()
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    pi = pi_category(compute_operation_table(11, 10, sb, evaluator=ev), ev)
    rep = stasheff_check(pi, 11, 10)
    assert rep["status"] == "pass", rep["violations"][:3]
    assert rep["checked"] == 304_568_294_658
    assert rep["evaluated"] == 8_464
    report(4, f"quadratic relations hold for d <= 11, per-input degree <= 10 "
              f"({rep['evaluated']} of {rep['checked']} tuples evaluated)",
           time.time() - t0)


def _matrix_table(field, homotopy, arity_max, degree_max, window):
    con = build_contraction(window, homotopy, field)
    return compute_operation_table(arity_max, degree_max,
                                   MatrixBackend.for_pia2(con.cat, con, degree_max))


def _assert_same_entries(a, b):
    rep = diff_tables(a, b)
    assert rep["identical"], {k: v[:4] for k, v in rep.items() if v and k != "identical"}


def test_criterion_1_backends_agree_at_9_8_over_f2():
    """The tabulated and the generic homotopy on the matrix backend and
    the symbolic backend give the same F2 table at (9,8), window 29:
    keys, outputs and coefficients."""
    t0 = time.time()
    symbolic = compute_operation_table(9, 8, SymbolicBackend())
    assert len(symbolic) == 354
    for homotopy in ("paper", "generic"):
        _assert_same_entries(_matrix_table(F2, homotopy, 9, 8, 29), symbolic)
    report(1, f"tabulated F2 = generic F2 = symbolic at arity <= 9, degree <= 8 "
              f"({len(symbolic)} operations)", time.time() - t0)


def test_criterion_1_backends_agree_at_13_12_over_f2():
    """At the frontier (13,12) the tabulated and the generic homotopy on
    the matrix backend, window 28, give the symbolic F2 table: a check of
    arities 10-13 that does not rest on the paper's operation list, which
    `test_criterion_3_frontier_at_13_12` compares against."""
    t0 = time.time()
    symbolic = compute_operation_table(13, 12, SymbolicBackend())
    assert len(symbolic) == 774
    for homotopy in ("paper", "generic"):
        _assert_same_entries(_matrix_table(F2, homotopy, 13, 12, 28), symbolic)
    report(1, f"tabulated F2 = generic F2 = symbolic at arity <= 13, degree <= 12 "
              f"({len(symbolic)} operations)", time.time() - t0)


def test_criterion_1_homotopies_agree_at_9_8_over_q():
    """Over Q the tabulated and the generic homotopy give the same table
    at (9,8), window 29, signs included; the symbolic backend carries F2
    coefficients only."""
    t0 = time.time()
    tabulated = _matrix_table(QQ, "paper", 9, 8, 29)
    generic = _matrix_table(QQ, "generic", 9, 8, 29)
    _assert_same_entries(tabulated, generic)
    assert len(tabulated) == 354
    assert any(str(e["coeff"]) == "-1" for e in tabulated.entries.values())
    report(1, f"tabulated Q = generic Q at arity <= 9, degree <= 8 "
              f"({len(tabulated)} operations)", time.time() - t0)


@pytest.mark.parametrize("homotopy", ["paper", "generic"])
def test_criterion_4_stasheff_over_q(homotopy):
    """Over Q the matrix tables satisfy the relations in the sign
    convention the check uses: Pi on the (9,10) table at window 37, its
    closure reading classes to degree 10, checked at (7,3)."""
    t0 = time.time()
    con = build_contraction(37, homotopy, QQ)
    backend = MatrixBackend.for_pia2(con.cat, con, 10)
    ev = TransferEvaluator(backend)
    pi = pi_category(compute_operation_table(9, 10, backend, evaluator=ev), ev)
    rep = stasheff_check(pi, 7, 3)
    assert rep["status"] == "pass", rep["violations"][:3]
    assert (rep["checked"], rep["evaluated"]) == (26_096, 416)
    report(4, f"quadratic relations hold over Q ({homotopy} homotopy) for "
              f"d <= 7, per-input degree <= 3 ({rep['evaluated']} of "
              f"{rep['checked']} tuples evaluated)", time.time() - t0)


def test_criterion_5_contraction_audit():
    t0 = time.time()
    results = {}
    for L in (24, 26):
        cat = pia2_end_category(L, F2)
        con = tabulated_contraction(cat)
        audit = contraction_audit(con)
        assert audit["status"] == "pass", (L, audit["violations"][:5])
        assert audit["checked"] > 0
        # homotopy-composition identities with parameters <= 3
        results[L] = _homotopy_composition_audit(cat, con)
    # identical results at both windows, restricted to the smaller trusted
    trusted24 = set(range(-22, -1))
    for key in results[24]:
        a = {k: v for k, v in results[24][key].items() if k in trusted24}
        b = {k: v for k, v in results[26][key].items() if k in trusted24}
        assert a == b, key
    report(5, "contraction identities hold on the trusted sub-window at "
              "window 24 and agree with window 26", time.time() - t0)


def _homotopy_composition_audit(cat, con):
    """Matrix checks of every homotopy-composition identity, n, m, k <= 3;
    returns the H-images of the tabulated products for cross-window
    comparison."""
    out = {}

    def R(s):
        return realize_h_symbol(con, s) if sym.is_h(s) \
            else realize_ext_symbol(cat, s)

    for i in (1, 2):
        o = 3 - i
        for n in range(0, 4):
            for m in range(0, 4):
                checks = [
                    (ext_u(i, n), h_sym("sn", i, m),
                     ext_g(i, n - m - 1) if n >= m + 1 else None),
                    (ext_g(i, n), h_sym("sn", o, m),
                     ext_u(i, n - m) if n >= m else None),
                    (ext_g(o, n), h_sym("pn_t", i, m),
                     ("p", o) if n == m else None),
                    (ext_u(i, n) if n else None, h_sym("ss", i, m) if m else None,
                     ext_u(i, n - m) if n >= m else None),
                    (h_sym("pn_s", i, n), h_sym("pn_t", i, m),
                     ("1", f"P{o}") if n == m else None),
                    (h_sym("ps", i, n), h_sym("sp", i, m) if m else None,
                     ("1", f"P{i}") if n == m else None),
                ]
                for a, b, want in checks:
                    if a is None or b is None:
                        continue
                    if is_identity(a):
                        continue
                    prod = cat.compose(R(a), R(b))
                    got = con.project(prod)
                    expect = {} if want is None else {sym.ext_to_str(want): F2.one}
                    assert got == expect, (a, b, got, expect)
        # the four identity-producing compositions
        assert con.project(cat.compose(R(h_sym("ps", i, 0)), R(("p", i)))) \
            == {f"1_P{i}": F2.one}
        assert con.project(cat.compose(R(("E", o)), R(h_sym("ps", i, 0)))) \
            == {f"j{o}": F2.one}
        # retain the homotopy images of the initial products for the
        # window-stability comparison
        for n in range(0, 3):
            prod = cat.compose(R(("j", i)), R(ext_g(o, n)))
            out[("H", "j.g", i, n)] = con.H(prod).coeffs
        prod = cat.compose(R(("p", i)), R(("j", i)))
        out[("H", "p.j", i)] = con.H(prod).coeffs
    return out


def test_criterion_6_a2_oracle():
    t0 = time.time()
    cat = a2_end_category(F2)
    con = generic_contraction(cat)
    mb = MatrixBackend.for_pia2(cat, con, 2)
    table = compute_operation_table(6, 2, mb)
    entries = {k: (v["coeff"], v["output"]) for k, v in table.entries.items()}
    # exactly the triangle category: identity triple products, nothing else
    assert entries == {
        ("h", "g", "f"): (F2.one, "1_S2"),
        ("f", "h", "g"): (F2.one, "1_P"),
        ("g", "f", "h"): (F2.one, "1_S1"),
    }
    report(6, "the A2 minimal model is the triangle category on the nose "
              "(adjacent products vanish, triple rotations are identities)",
           time.time() - t0)


def test_criterion_7_formality(engine):
    sub = restrict_objects(engine["table9"], {"S1", "S2"})
    arities = sub.arities()
    assert set(arities) <= {2}, arities
    report(7, "restriction to the simple objects carries no operation of "
              "arity 3..9")


def test_criterion_8_functor_suite_strict_part(engine):
    t0 = time.time()
    fs = {f.name: f for f in builtin_functors(engine["pi"], degree_max=4)}
    assert set(fs) == {"iota", "iota1", "iota2", "kappa1", "kappa2", "G"}
    for name in ("iota", "iota1", "iota2", "kappa1", "kappa2"):
        rep = verify_functor(fs[name], 6, 4)
        assert rep["status"] == "pass", (name, rep["violations"][:3])
    # the pants functor's linear component respects every binary product,
    # in particular all six x_i y_i |-> 0 relation images
    rep2 = verify_functor(fs["G"], 2, 4)
    assert rep2["status"] == "pass", rep2["violations"][:3]
    report(8, "five functors pass in full; the pants functor passes all "
              "binary relations incl. x_i y_i -> 0 (higher gap recorded "
              "separately)", time.time() - t0)


@pytest.mark.xfail(strict=True,
                   reason="upstream defect: the block identities 1_P1, 1_P2 "
                          "are outside the image of the strict pants "
                          "assignment, so the functor equation fails on the "
                          "identity-valued tuples; see notes in the README")
def test_criterion_8_pants_functor_higher_operations(engine):
    fs = {f.name: f for f in builtin_functors(engine["pi"], degree_max=4)}
    rep = verify_functor(fs["G"], 6, 4)
    assert rep["status"] == "pass", rep["violations"][:3]


def test_criterion_8_pants_gap_is_exactly_the_block_identities(engine):
    from pia2.functors import pants_degree
    fs = {f.name: f for f in builtin_functors(engine["pi"], degree_max=4)}
    g = fs["G"]
    rep = verify_functor(g, 6, 4)
    got = {tuple(v["tuple"]) for v in rep["violations"]}
    predicted = set(map(tuple, g.source.block_identity_tuples))
    predicted |= {("u12", "u01", "u20"), ("v02", "v10", "v21")}
    predicted = {t for t in predicted
                 if len(t) <= 6 and all(pants_degree(s) <= 4 for s in t)}
    assert got == predicted
    for v in rep["violations"]:
        assert set(v["got"]) <= {"1_P1", "1_P2"}


def test_criterion_9_kappa_symmetry(engine):
    rep = kappa_symmetry_check(engine["table9"])
    assert rep["status"] == "pass"
    report(9, "the computed table is exactly invariant under the 1 <-> 2 "
              "relabeling")


def test_criterion_10_combinatorics():
    t0 = time.time()
    for n in range(2, 13):
        assert len(enumerate_trees(n)) == catalan(n - 1)
    assert len(enumerate_trees(12)) == 58786
    # d^2 = 0 for cones over 100 randomized cycles
    cat = pia2_end_category(8, F2)
    rng = random.Random(23)
    pairs = [("S1", "S2"), ("S2", "S1"), ("S1", "S1"), ("P1", "S1"),
             ("S1", "P2")]
    built = 0
    from pia2.linalg import rref
    while built < 100:
        src, tgt = pairs[built % len(pairs)]
        mat = cat.d_matrix(src, tgt, 0)
        _rk, _p, kernel = rref(mat)
        basis = cat.flat_basis(src, tgt, 0)
        coeffs = {}
        for vec in kernel:
            if rng.random() < 0.5:
                for j, v in vec.items():
                    F2.accumulate(coeffs, basis[j], v)
        elem = HomElement(cat, src, tgt, 0, coeffs)
        if elem.is_zero():
            continue
        c = cone(elem)
        assert check_d_squared(c)
        built += 1
    # the two short exact sequences and the universal A2 sequence
    maps = pia2_named_maps(F2)
    assert check_exact([maps["j2"], maps["p2"]])
    assert check_exact([maps["j1"], maps["p1"]])
    reps = a2_representations(F2)
    one = SparseMatrix.identity(1, F2)
    incl = ModuleMap(reps["S2"], reps["P"], {2: one})
    proj = ModuleMap(reps["P"], reps["S1"], {1: one})
    assert check_exact([incl, proj])
    report(10, "Catalan counts through 58786 shapes, 100 cone squares, and "
               "the exactness checks", time.time() - t0)
