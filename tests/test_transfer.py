import pytest

from pia2.linalg import F2, QQ
from pia2 import symbols as sym
from pia2.transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                           transfer_mn, transfer_mn_by_trees, evaluate_tree,
                           compute_operation_table)
from pia2.table import OperationTable
from pia2.trees import enumerate_trees
from pia2.complexes import (pia2_end_category, tabulated_contraction,
                            generic_contraction, a2_end_category,
                            a2_class_names)

U, G = sym.ext_u, sym.ext_g
J1, J2, P1, P2 = ("j", 1), ("j", 2), ("p", 1), ("p", 2)
E12, E21 = sym.E12, sym.E21
AL, BE = G(1, 0), G(2, 0)


def named(out):
    return {sym.ext_to_str(k): v for k, v in out.items()}


def m(*inputs):
    return named(transfer_mn(inputs, SymbolicBackend()))


def test_m2_matches_composition():
    assert m(J1, P2) == {"(21)": 1}
    assert m(AL, BE) == {"u1^1": 1}
    assert m(U(1, 2), U(1, 1)) == {"u1^3": 1}
    assert m(P1, J1) == {}
    assert m(E12, E21) == {}


def test_basic_triangles():
    assert m(AL, P2, J2) == {"1_S1": 1}
    assert m(BE, P1, J1) == {"1_S2": 1}
    assert m(P2, J2, AL) == {"1_S2": 1}
    assert m(P1, J1, BE) == {"1_S1": 1}
    assert m(J2, AL, P2) == {"1_P2": 1}
    assert m(J1, BE, P1) == {"1_P1": 1}


def test_derived_triple_products():
    assert m(AL, P2, E12) == {"p1": 1}
    assert m(BE, P1, E21) == {"p2": 1}
    assert m(U(2, 3), P2, J2) == {"b.u1^2": 1}
    assert m(G(1, 2), P2, J2) == {"u1^2": 1}
    assert m(E21, J2, AL) == {"j1": 1}
    assert m(E12, J1, BE) == {"j2": 1}
    assert m(P2, J2, U(1, 3)) == {"b.u1^2": 1}
    assert m(P2, J2, G(1, 2)) == {"u2^2": 1}
    assert m(P1, J1, G(2, 2)) == {"u1^2": 1}


def test_quadrilaterals():
    assert m(P1, E21, J2, U(1, 1)) == {"1_S1": 1}
    assert m(U(1, 1), P1, E21, J2) == {"1_S1": 1}
    assert m(J2, U(1, 1), P1, E21) == {"1_P2": 1}
    assert m(E21, J2, U(1, 1), P1) == {"1_P1": 1}
    assert m(P2, E12, J1, U(2, 1)) == {"1_S2": 1}
    assert m(P1, E21, J2, U(1, 2)) == {"u1^1": 1}
    assert m(P1, E21, J2, G(1, 2)) == {"a.u2^1": 1}
    assert m(E12, E21, J2, U(1, 1)) == {"j2": 1}
    assert m(U(1, 2), P1, E21, J2) == {"u1^1": 1}
    assert m(G(2, 2), P1, E21, J2) == {"b.u1^1": 1}
    assert m(U(1, 1), P1, E21, E12) == {"p1": 1}


def test_complete_family_list_at_higher_parameters():
    # loop extensions of every family, one or two parameter steps in
    assert m(E12, J1, G(2, 1), P1, E21) == {"1_P2": 1}
    assert m(E12, E21, E12, J1, G(2, 2), P1, E21) == {"1_P2": 1}
    assert m(E12, E21, E12, J1, G(2, 1)) == {"j2": 1}
    assert m(E21, E12, J1, G(2, 1), P1) == {"1_P1": 1}
    assert m(U(1, 3), P1, E21, E12, J1) == {"a.u2^1": 1}
    assert m(G(2, 2), P1, E21, E12, J1) == {"u2^1": 1}
    assert m(U(1, 2), P1, E21, E12, E21, J2) == {"1_S1": 1}
    assert m(P1, E21, E12, E21, J2, U(1, 2)) == {"1_S1": 1}
    assert m(G(2, 2), P1, E21, E12, E21, J2) == {"b.u1^0": 1}
    assert m(G(2, 1), P1, E21, E12, E21) == {"p2": 1}
    assert m(U(1, 2), P1, E21, E12, E21, E12) == {"p1": 1}
    assert m(E12, E21, J2, U(1, 2), P1, E21) == {"1_P2": 1}
    assert m(J2, U(1, 1), P1, E21) == {"1_P2": 1}
    assert m(E12, E21, E12, E21, J2, U(1, 2)) == {"j2": 1}
    assert m(E21, E12, E21, J2, U(1, 2), P1) == {"1_P1": 1}
    assert m(P2, E12, E21, J2, G(1, 2)) == {"u2^1": 1}
    assert m(P2, E12, E21, J2, U(1, 2)) == {"b.u1^0": 1}
    assert m(P1, E21, E12, E21, J2, G(1, 2)) == {"a.u2^0": 1}


def test_formality_of_the_simple_part():
    assert m(BE, AL, BE) == {}
    assert m(AL, BE, AL) == {}
    assert m(U(1, 1), AL, U(2, 1), BE) == {}


def test_evaluate_tree_shapes():
    # inputs are read (f_3, f_2, f_1) left to right; the tree joining
    # (p2, j2) first carries the triple product, the other shape dies
    sb = SymbolicBackend()
    joins_right = ("*", ("*", "*"))
    out = evaluate_tree(joins_right, (AL, P2, J2), sb)
    assert named(out) == {"1_S1": 1}
    joins_left = (("*", "*"), "*")
    assert evaluate_tree(joins_left, (AL, P2, J2), sb) == {}
    with pytest.raises(ValueError):
        evaluate_tree(joins_left, (AL, P2), sb)


def test_tree_sum_equals_slice_recursion():
    sb = SymbolicBackend()
    tuples = [
        (AL, P2, J2),
        (P1, E21, J2, U(1, 1)),
        (E12, J1, G(2, 1), P1, E21),
        (U(1, 2), P1, E21, E12, J1),
        (J2, U(1, 1), P1, E21),
        (BE, AL, BE, AL),
    ]
    for tup in tuples:
        assert transfer_mn(tup, sb) == transfer_mn_by_trees(tup, sb)


def test_symbolic_backend_rejects_q():
    with pytest.raises(ValueError):
        SymbolicBackend(QQ)


def test_compute_table_metadata_and_degree_law():
    sb = SymbolicBackend()
    table = compute_operation_table(4, 4, sb)
    assert table.metadata["backend"] == "symbolic"
    assert table.metadata["field"] == "f2"
    for key, v in table.entries.items():
        degs = [sym.ext_degree(sym.ext_from_str(s)) for s in key]
        assert v["degree"] == sum(degs) + 2 - len(key)
        assert v["degree"] == sym.ext_degree(sym.ext_from_str(v["output"]))
        assert all(not s.startswith("1_") for s in key)
    # arity 1 produces an empty table: the minimal model has m_1 = 0
    assert len(compute_operation_table(1, 4, sb)) == 0


def exhaustive_table(arity_max, degree_max, backend):
    """Reference scan: a depth-first walk over every composable
    identity-free tuple within the bounds, each fed to the evaluator."""
    ev = TransferEvaluator(backend)
    table = OperationTable({
        "arity_max": arity_max, "degree_max": degree_max,
        "field": backend.field.name, "backend": backend.name,
        "window": backend.window, "homotopy": backend.homotopy,
    })
    by_source = {}
    for s in backend.scan_symbols(degree_max):
        by_source.setdefault(backend.src(s), []).append(s)

    def walk(chain):
        if len(chain) >= 2:
            inputs = tuple(reversed(chain))
            out = ev.transfer(inputs)
            if out:
                (osym, coeff), = out.items()
                objects = [backend.src(chain[0])] + [backend.tgt(s) for s in chain]
                table.add([backend.to_str(s) for s in inputs], objects, coeff,
                          backend.class_str(osym),
                          sum(backend.deg(s) for s in inputs) + 2 - len(inputs))
        if len(chain) < arity_max:
            for s in by_source.get(backend.tgt(chain[-1]), ()):
                walk(chain + [s])

    for group in by_source.values():
        for s in group:
            walk([s])
    return table


def _pia2_matrix(field, contraction):
    cat = pia2_end_category(14, field)
    return MatrixBackend.for_pia2(cat, contraction(cat), degree_max=2)


def _a2_matrix():
    cat = a2_end_category(F2)
    return MatrixBackend.for_classes(
        cat, generic_contraction(cat, -4, 4, a2_class_names()), 2)


@pytest.mark.parametrize("arity_max, degree_max, make_backend", [
    (5, 4, SymbolicBackend),
    (4, 8, SymbolicBackend),
    (4, 2, lambda: _pia2_matrix(F2, tabulated_contraction)),
    (4, 2, lambda: _pia2_matrix(QQ, tabulated_contraction)),
    (3, 2, lambda: _pia2_matrix(F2, generic_contraction)),
    (5, 2, _a2_matrix),
], ids=["symbolic-5-4", "symbolic-4-8", "tabulated-f2", "tabulated-q",
        "generic-f2", "a2-classes"])
def test_chart_scan_matches_exhaustive_walk(arity_max, degree_max, make_backend):
    """The scan visits only tuples built from nonzero slices; every tuple
    it skips must be zero, so its table equals the exhaustive walk's."""
    backend = make_backend()
    expected = exhaustive_table(arity_max, degree_max, backend)
    assert len(expected) > 0
    table = compute_operation_table(arity_max, degree_max, backend)
    assert table.dumps() == expected.dumps()


def test_scan_inserts_entries_in_arity_key_order():
    t = compute_operation_table(6, 6, SymbolicBackend())
    assert len(t.arities()) == 5
    assert list(t.entries) == sorted(t.entries, key=lambda k: (len(k), k))


def test_tuple_budget():
    sb = SymbolicBackend()
    with pytest.raises(ResourceWarning):
        compute_operation_table(4, 4, sb, max_tuples=10)


def test_matrix_backend_agreement():
    """Symbolic and matrix tabulated-mode evaluations agree on every tuple of
    arity <= 5 and total degree <= 6."""
    sb = SymbolicBackend()
    cat = pia2_end_category(24, F2)
    mb = MatrixBackend.for_pia2(cat, tabulated_contraction(cat))
    sev, mev = TransferEvaluator(sb), TransferEvaluator(mb)
    by_source = {}
    for s in sb.scan_symbols(6):
        by_source.setdefault(sym.ext_source(s), []).append(s)
    count = 0

    def scan(chain, tgt, totdeg):
        nonlocal count
        if len(chain) >= 2:
            inputs = tuple(reversed(chain))
            a = sev.transfer(inputs)
            b = mev.transfer(tuple(
                (s, sym.ext_source(s), sym.ext_target(s), sym.ext_degree(s))
                for s in inputs))
            assert named(a) == {sym.ext_to_str(k): v for k, v in b.items()}, inputs
            count += 1
        if len(chain) == 5:
            return
        for s in by_source.get(tgt, ()):
            d = sym.ext_degree(s)
            if totdeg + d > 6:
                continue
            chain.append(s)
            scan(chain, sym.ext_target(s), totdeg + d)
            chain.pop()

    for start in sorted(by_source):
        for s in by_source[start]:
            scan([s], sym.ext_target(s), sym.ext_degree(s))
    assert count > 1500


def test_generic_homotopy_reproduces_compositions():
    """Any valid contraction induces the same m_2, and the generic
    homotopy's higher operations agree with the tabulated ones too: at
    (6,4) every key, output and coefficient of the generic-mode table
    equals the symbolic table's."""
    cat = pia2_end_category(16, F2)
    mb = MatrixBackend.for_pia2(cat, generic_contraction(cat), degree_max=4)
    sb = SymbolicBackend()
    t_gen = compute_operation_table(2, 4, mb)
    t_sym = compute_operation_table(2, 4, sb)
    assert {k: v["output"] for k, v in t_gen.entries.items()} == \
        {k: v["output"] for k, v in t_sym.entries.items()}
    cat = pia2_end_category(24, F2)
    mb = MatrixBackend.for_pia2(cat, generic_contraction(cat), degree_max=4)
    t_gen = compute_operation_table(6, 4, mb)
    t_sym = compute_operation_table(6, 4, sb)
    assert max(map(len, t_gen.entries)) == 6
    assert {k: (str(v["coeff"]), v["output"]) for k, v in t_gen.entries.items()} == \
        {k: (str(v["coeff"]), v["output"]) for k, v in t_sym.entries.items()}


def test_a2_minimal_model_is_the_triangle_category():
    cat = a2_end_category(F2)
    con = generic_contraction(cat, -4, 4, a2_class_names())
    mb = MatrixBackend.for_classes(cat, con, 2)
    table = compute_operation_table(5, 2, mb)
    entries = {k: (str(v["coeff"]), v["output"]) for k, v in table.entries.items()}
    assert entries == {
        ("h", "g", "f"): ("1", "1_S2"),
        ("f", "h", "g"): ("1", "1_P"),
        ("g", "f", "h"): ("1", "1_S1"),
    }


def test_q_mode_support_equality():
    """Over Q with the Koszul sign convention the support of the matrix table
    matches the F2 table (coefficients are compared up to sign only)."""
    catq = pia2_end_category(14, QQ)
    mbq = MatrixBackend.for_pia2(catq, tabulated_contraction(catq), degree_max=2)
    tq = compute_operation_table(4, 2, mbq)
    sb = SymbolicBackend()
    tf = compute_operation_table(4, 2, sb)
    assert {k: v["output"] for k, v in tq.entries.items()} == \
        {k: v["output"] for k, v in tf.entries.items()}
    assert all(str(v["coeff"]) in ("1", "-1") for v in tq.entries.values())


def test_matrix_table_window_stability():
    """The matrix-backend table is identical when recomputed at a larger
    window (entries compared verbatim)."""
    tables = {}
    for L in (12, 14):
        cat = pia2_end_category(L, F2)
        mb = MatrixBackend.for_pia2(cat, tabulated_contraction(cat), degree_max=2)
        tables[L] = compute_operation_table(3, 2, mb)
    assert {k: (v["output"], str(v["coeff"])) for k, v in tables[12].entries.items()} == \
        {k: (v["output"], str(v["coeff"])) for k, v in tables[14].entries.items()}


def test_evaluate_tree_matrix_backend_matches_symbolic():
    cat = pia2_end_category(12, F2)
    mb = MatrixBackend.for_pia2(cat, tabulated_contraction(cat), degree_max=2)
    sb = SymbolicBackend()
    for shape in enumerate_trees(3):
        tup_s = (AL, P2, J2)
        tup_m = tuple((s, sym.ext_source(s), sym.ext_target(s), sym.ext_degree(s))
                      for s in tup_s)
        out_s = {sym.ext_to_str(k): v for k, v in evaluate_tree(shape, tup_s, sb).items()}
        out_m = {sym.ext_to_str(k): v for k, v in evaluate_tree(shape, tup_m, mb).items()}
        assert out_s == out_m, shape
