import random
from collections import Counter

import pytest

from pia2.linalg import F2, QQ, SparseMatrix, mat_mul, mat_vec, rref, solve
from pia2.quiver import ModuleMap, Representation, pia2_indecomposables
from pia2 import symbols as sym
from pia2.complexes import (build_resolution, pia2_end_category,
                            a2_end_category, tabulated_contraction,
                            generic_contraction, realize_ext_symbol,
                            build_contraction, contraction_audit, HomElement,
                            EndCategory, TabulatedContraction,
                            GenericContraction, TruncatedComplex,
                            one_position_complex)
from pia2 import complexes
from pia2.transfer import MatrixBackend, compute_operation_table

from helpers import (all_ext_symbols, all_h_symbols, check_d_squared, cone,
                     elem_source, elem_target, ext_g, ext_u,
                     full_back_substitution, h_sym, hom_homology_dims,
                     homology_dims, realize_h_symbol, restrict)


def test_build_resolution_pattern():
    q1 = build_resolution("S1", 3, F2)
    assert [q1.reps[i].name for i in range(-3, 1)] == ["P2", "P1", "P2", "P1"]
    q2 = build_resolution("S2", 3, F2)
    assert [q2.reps[i].name for i in range(-3, 1)] == ["P1", "P2", "P1", "P2"]
    assert check_d_squared(q1) and check_d_squared(q2)
    # consecutive differentials compose to zero through (12)(21) = 0
    assert q1.diffs[-1].compose(q1.diffs[-2]).is_zero()
    with pytest.raises(ValueError):
        build_resolution("S1", 1, F2)


def test_resolution_homology_is_the_simple_module():
    q1 = build_resolution("S1", 8, F2)
    dims = homology_dims(q1)
    assert dims[0] == 1  # the augmentation S1 survives at position 0
    assert all(dims[i] == 0 for i in range(-7, 0))


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_hom_complexes_square_to_zero(field):
    """d^2 = 0 on every Hom complex of the window-10 category, |n| <= 10.

    On this instance each Hom complex's d vanishes in every other degree,
    so one factor of each product is zero.  A wrong sign in d passes
    here; the graded Leibniz test below over Q is the one it fails."""
    cat = pia2_end_category(10, field)
    products = 0
    for src in sym.OBJECTS:
        for tgt in sym.OBJECTS:
            nonzero = 0
            for n in range(-10, 11):
                d0, d1 = cat.d_matrix(src, tgt, n), cat.d_matrix(src, tgt, n + 1)
                assert mat_mul(d1, d0).is_zero(), (src, tgt, n)
                products += 1
                nonzero += not d0.is_zero()
            # only Hom(P_i, P_j) is concentrated in one position
            assert nonzero or src[0] == tgt[0] == "P", (src, tgt)
    assert products == 16 * 21


def _random_element(cat, rng, src, tgt):
    """A seeded random element of Hom^n(src, tgt), |n| <= 4, with about
    half of its flat coordinates set to 1, -1 or 3."""
    field = cat.field
    deg = rng.choice([n for n in range(-4, 5) if cat.flat_basis(src, tgt, n)])
    return HomElement(cat, src, tgt, deg,
                      {b: field.of(rng.choice((1, -1, 3)))
                       for b in cat.flat_basis(src, tgt, deg)
                       if rng.random() < 0.5})


def d_matrix_reference(cat, src, tgt, deg):
    """The Hom differential column by column, by module maps: each basis
    map f is composed with the complexes' differentials as module maps,
    d_Y o f - (-1)^deg f o d_X, and each product is put in coordinates by
    _coordinatize.  Shares only the bases and _coordinatize with
    EndCategory.d_matrix, which reads the composition constants."""
    field = cat.field
    X, Y = cat.complexes[src], cat.complexes[tgt]
    dom = cat.flat_basis(src, tgt, deg)
    cod_index = cat.flat_index(src, tgt, deg + 1)
    sign = field.sign(deg)
    ent = {}
    for col, i in enumerate(dom):
        fm = cat.mod_hom_basis(X.reps[i], Y.reps[i + deg])
        dt = Y.diffs.get(i + deg)
        if dt is not None:
            m = dt.compose(fm)
            if not m.is_zero():
                v = cat._coordinatize(X.reps[i], Y.reps[i + deg + 1], m)
                field.accumulate(ent, (cod_index[i], col), v)
        ds = X.diffs.get(i - 1)
        if ds is not None:
            m = fm.compose(ds).scale(field.neg(sign))
            if not m.is_zero():
                v = cat._coordinatize(X.reps[i - 1], Y.reps[i + deg], m)
                field.accumulate(ent, (cod_index[i - 1], col), v)
    rows = len(cat.flat_basis(src, tgt, deg + 1))
    return SparseMatrix(rows, len(dom), field, ent)


def compose_reference(cat, g, f):
    """g o f over every pair of coefficients, the pairs whose positions do
    not meet skipped one by one."""
    field = cat.field
    X, Y, Z = (cat.complexes[c] for c in (f.src, f.tgt, g.tgt))
    out = {}
    for i, vf in f.coeffs.items():
        for i2, vg in g.coeffs.items():
            if i2 != i + f.deg:
                continue
            c = cat._compose_consts(X.reps[i], Y.reps[i2], Z.reps[i2 + g.deg])
            if c:
                field.accumulate(out, i, field.mul(c, field.mul(vg, vf)))
    return HomElement(cat, f.src, g.tgt, f.deg + g.deg, out)


def _typed(coeffs):
    return {k: (v, type(v)) for k, v in coeffs.items()}


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_coordinatize_refuses_a_map_outside_the_span(field):
    """A module map's coordinate is its entry at the basis map's free
    slot.  The non-natural map P1 -> P1 that is one at vertex 1 and zero
    at vertex 2 is zero at the free slot of End(P1)'s basis map, so only
    the give-back check can refuse it."""
    cat = pia2_end_category(8, field)
    p1 = cat.complexes["P1"].reps[0]
    one, zero = SparseMatrix.identity(1, field), SparseMatrix.zero(1, 1, field)
    assert cat._coordinatize(p1, p1, ModuleMap(p1, p1, {1: one, 2: one})) == 1
    with pytest.raises(ValueError, match="not in the hom-space span"):
        cat._coordinatize(p1, p1, ModuleMap(p1, p1, {1: one, 2: zero}))


def test_flat_basis_refuses_a_two_dimensional_hom_space():
    """A flat coordinate holds one module map per position: Hom(S1 + S1,
    S1) has dimension 2, so mod_hom_basis, and flat_basis through it,
    refuse the pair instead of indexing two maps."""
    s1 = pia2_indecomposables(F2)["S1"]
    s1s1 = Representation(s1.quiver, F2, {1: 2, 2: 0}, name="S1+S1")
    cat = EndCategory({"X": one_position_complex(s1s1, "X"),
                       "S1": one_position_complex(s1, "S1")}, F2)
    assert cat.flat_basis("S1", "S1", 0) == [0]
    with pytest.raises(ValueError, match="dimension 2"):
        cat.flat_basis("X", "S1", 0)


def test_generic_audit_reduces_no_empty_degree(monkeypatch):
    """The generic contraction splits an empty degree without a row
    reduction: the A2 contraction audit, which asks every degree |n| <= 8
    of each hom pair for its classes, makes at most 34 rref calls (319
    when each empty degree was reduced) and still passes with 18 cases."""
    calls = []

    def counted(m):
        calls.append(m)
        return rref(m)

    monkeypatch.setattr(complexes, "rref", counted)
    rep = contraction_audit(build_contraction(14, "generic", F2, algebra="a2"))
    assert rep["status"] == "pass" and rep["checked"] == 18
    assert 0 < len(calls) <= 34


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_d_matrix_matches_module_map_reference(field):
    """d_matrix, read off the composition constants, equals the module-map
    construction on every hom pair and degree of the windows 8 and 14 and
    of the A2 instance: the same entries with the same scalar types."""
    checked = nonzero = 0
    for cat in (pia2_end_category(8, field), pia2_end_category(14, field),
                a2_end_category(field)):
        names = sorted(cat.complexes)
        for src in names:
            for tgt in names:
                for n in range(-cat.window - 2, cat.window + 3):
                    got = cat.d_matrix(src, tgt, n)
                    want = d_matrix_reference(cat, src, tgt, n)
                    assert (got.rows, got.cols) == (want.rows, want.cols)
                    assert _typed(got.entries) == _typed(want.entries), \
                        (cat.window, src, tgt, n)
                    checked += 1
                    nonzero += not want.is_zero()
    assert checked == 16 * 21 + 16 * 33 + 9 * 7
    assert nonzero == 179


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_differential_matches_d_matrix(field):
    """differential, which sums the stored columns of d at its input's
    support, equals mat_vec of d_matrix, which walks every entry, with the
    same scalar types: on every flat basis element and on five seeded
    elements of two to five terms per hom pair and degree |n| <= 8 at
    window 24."""
    cat = pia2_end_category(24, field)
    rng = random.Random(3)
    scalars = [field.of(k) for k in (1, -1, 2, -3)] if field is QQ else [F2.one]
    checked = nonzero = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            for n in range(-8, 9):
                basis = cat.flat_basis(src, tgt, n)
                if not basis:
                    continue
                mat = cat.d_matrix(src, tgt, n)
                index = cat.flat_index(src, tgt, n)
                cod = cat.flat_basis(src, tgt, n + 1)
                inputs = [{b: field.one} for b in basis]
                for _ in range(5):
                    picks = rng.sample(basis, min(len(basis), rng.randint(2, 5)))
                    inputs.append({b: rng.choice(scalars) for b in picks})
                for coeffs in inputs:
                    x = HomElement(cat, src, tgt, n, coeffs)
                    img = mat_vec(mat, {index[b]: v for b, v in x.coeffs.items()})
                    got = cat.differential(x)
                    assert got.deg == n + 1
                    assert _typed(got.coeffs) == \
                        _typed({cod[r]: v for r, v in img.items()}), (src, tgt, n, coeffs)
                    checked += 1
                    nonzero += not got.is_zero()
    assert checked == 2208 and nonzero > 1000


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_compose_matches_all_pairs_reference(field):
    """compose, which meets each coefficient of f only with those of g at
    its target position, equals the all-pairs loop on seeded random
    elements, including pairs whose positions never meet."""
    cat = pia2_end_category(10, field)
    rng = random.Random(11)
    nonzero = 0
    for _ in range(300):
        x, y, z = (rng.choice(sym.OBJECTS) for _ in range(3))
        f = _random_element(cat, rng, x, y)
        g = _random_element(cat, rng, y, z)
        got, want = cat.compose(g, f), compose_reference(cat, g, f)
        assert (got.src, got.tgt, got.deg) == (want.src, want.tgt, want.deg)
        assert _typed(got.coeffs) == _typed(want.coeffs), (x, y, z, f.deg, g.deg)
        nonzero += not want.is_zero()
    assert nonzero > 20


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_hom_differential_graded_leibniz(field):
    """d(g o f) = dg o f + (-1)^|g| g o df on seeded random composable
    elements; "checked" counts the triples where some term is nonzero.

    d_matrix is read off the same composition constants as compose, so a
    fault in those constants can show on both sides of this identity and
    cancel: Leibniz no longer checks d independently of compose.
    test_d_matrix_matches_module_map_reference, which builds d from module
    maps, carries that weight."""
    cat = pia2_end_category(10, field)
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        x, y, z = (rng.choice(sym.OBJECTS) for _ in range(3))
        f, g = _random_element(cat, rng, x, y), _random_element(cat, rng, y, z)
        lhs = cat.differential(cat.compose(g, f))
        dg_f = cat.compose(cat.differential(g), f)
        g_df = cat.compose(g, cat.differential(f))
        sign = field.of(-1) if g.deg % 2 else field.one
        assert lhs.coeffs == dg_f.add(g_df.scale(sign)).coeffs, (x, y, z, f.deg, g.deg)
        checked += not (lhs.is_zero() and dg_f.is_zero() and g_df.is_zero())
    assert checked > 20


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_identity_realizations_are_cycles(field):
    cat = pia2_end_category(10, field)
    for obj in sym.OBJECTS:
        one = realize_ext_symbol(cat, ("1", obj))
        assert not one.is_zero()
        assert cat.differential(one).is_zero(), obj


def test_compose_realizations():
    cat = pia2_end_category(12, F2)
    con = tabulated_contraction(cat)
    e = {s: realize_ext_symbol(cat, sym.SYMBOLS[s][0])
         for s in ("j1", "p2", "p1", "j2", "(12)", "(21)", "a.u2^0", "b.u1^0")}
    # m2(j1, p2) = (21) holds on the nose at chain level
    prod = cat.compose(e["j1"], e["p2"])
    want = realize_ext_symbol(cat, sym.E21)
    assert prod.coeffs == want.coeffs
    # 1 o f = f
    one = realize_ext_symbol(cat, ("1", "S1"))
    u1 = realize_ext_symbol(cat, ext_u(1, 1))
    assert cat.compose(one, u1).coeffs == u1.coeffs
    # p1 o j1 is nonzero but null-homotopic
    prod = cat.compose(e["p1"], e["j1"])
    assert not prod.is_zero()
    assert con.project(prod) == {}
    assert not con.H(prod).is_zero()


def test_realize_u_is_shift_and_multiplicative():
    cat = pia2_end_category(12, F2)
    con = tabulated_contraction(cat)
    u1 = realize_ext_symbol(cat, ext_u(1, 1))
    assert cat.differential(u1).is_zero()
    assert set(u1.coeffs) == set(range(-12, -1))
    sq = cat.compose(u1, u1)
    assert con.project(sq) == {"u1^2": F2.one}
    # alpha o beta represents u1
    al = realize_ext_symbol(cat, ext_g(1, 0))
    be = realize_ext_symbol(cat, ext_g(2, 0))
    assert con.project(cat.compose(al, be)) == {"u1^1": F2.one}
    with pytest.raises(ValueError):
        realize_ext_symbol(cat, ext_u(1, 5))  # window too small


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_tabulated_include_realizes_each_class_once(field, monkeypatch):
    """TabulatedContraction.include gives realize_ext_symbol's cycle for
    every class of degree <= window - 4, realizes each class once however
    often it is asked, and a table build leaves the kept cycles as they
    were."""
    cat = pia2_end_category(14, field)
    con = TabulatedContraction(cat)
    realize = complexes.realize_ext_symbol
    calls = []

    def counted(c, s):
        calls.append(s)
        return realize(c, s)

    monkeypatch.setattr(complexes, "realize_ext_symbol", counted)
    classes = [(src, tgt, n, name) for src in sym.OBJECTS
               for tgt in sym.OBJECTS for n in range(cat.window - 3)
               for name in con.classes(src, tgt, n)]
    assert len(classes) == 30    # degrees 0..10, identities included
    kept = {}
    for _ in range(2):
        for src, tgt, n, name in classes:
            got = con.include(src, tgt, n, name)
            want = realize(cat, sym.SYMBOLS[name][0])
            assert (got.src, got.tgt, got.deg) == (want.src, want.tgt, want.deg)
            assert got.coeffs == want.coeffs, (field, name)
            kept[name] = dict(got.coeffs)
    assert sorted(calls) == sorted(sym.SYMBOLS[c[3]][0] for c in classes)
    table = compute_operation_table(
        4, 2, MatrixBackend.for_pia2(cat, con, 2))
    assert len(table) > 0
    assert len(calls) == len(classes)
    for src, tgt, n, name in classes:
        assert con.include(src, tgt, n, name).coeffs == kept[name], name


def test_realize_h_shapes_over_f2():
    con = tabulated_contraction(pia2_end_category(12, F2))
    # h(S1,S2)^n: the full shift with unit components
    h = realize_h_symbol(con, h_sym("sn", 1, 1))
    assert all(v == F2.one for v in h.coeffs.values())
    assert set(h.coeffs) == set(range(-9, 1))
    # h(P1,S1)^n: a single unit component at position -2n
    h2 = realize_h_symbol(con, h_sym("ps", 1, 2))
    assert h2.coeffs == {-4: F2.one}
    # h(S1,P2)^0: a single unit component mapping onto position -1
    h3 = realize_h_symbol(con, h_sym("pn_t", 1, 0))
    assert h3.coeffs == {0: F2.one} and h3.deg == -1
    with pytest.raises(ValueError):
        realize_h_symbol(con, h_sym("ps", 1, 4))


def test_h_kind_rows_match_the_realized_homotopies():
    """Each H_KINDS row's source, target and degree are those of the
    matrix realization of its symbols, at every index n <= 3 of both
    indices i."""
    con = tabulated_contraction(pia2_end_category(12, F2))
    checked = 0
    for (kind, i), (x, y, first, slope, shift) in sym.H_KINDS.items():
        for n in range(first, 4):
            h = realize_h_symbol(con, h_sym(kind, i, n))
            assert (h.src, h.tgt, h.deg) == (x, y, slope * n + shift), (kind, i, n)
            checked += 1
    assert checked == 44


def test_initial_homotopies_as_matrix_identities():
    for field in (F2, QQ):
        cat = pia2_end_category(14, field)
        con = tabulated_contraction(cat)

        def R(s):
            return realize_ext_symbol(cat, sym.SYMBOLS[s][0])

        def H_of(a, b):
            return con.H(cat.compose(R(a), R(b)))

        checks = [
            (("p1", "j1"), h_sym("sn", 1, 0)),
            (("p2", "j2"), h_sym("sn", 2, 0)),
            (("j1", "b.u1^1"), h_sym("ps", 1, 1)),
            (("j2", "a.u2^2"), h_sym("ps", 2, 2)),
            (("p1", "(21)"), h_sym("pn_t", 1, 0)),
            (("p2", "(12)"), h_sym("pn_t", 2, 0)),
            (("j2", "u1^2"), h_sym("pn_s", 1, 1)),
            (("j1", "u2^1"), h_sym("pn_s", 2, 0)),
        ]
        for (a, b), h in checks:
            got = H_of(a, b)
            want = realize_h_symbol(con, h)
            assert got.coeffs == want.coeffs, (field, a, b, h)


def test_d_of_initial_homotopy_is_one_minus_ip():
    # d(H(p1 j1)) = p1 j1 - i p(p1 j1) on the trusted sub-window
    for field in (F2, QQ):
        cat = pia2_end_category(14, field)
        con = tabulated_contraction(cat)
        x = cat.compose(realize_ext_symbol(cat, ("p", 1)),
                        realize_ext_symbol(cat, ("j", 1)))
        h = con.H(x)
        assert dg_like_eq(cat, cat.differential(h), x)


def dg_like_eq(cat, a, b):
    return a.eq_on(b, set(cat.trusted))


def test_contraction_axioms_trusted_and_window_stable():
    for field in (F2, QQ):
        cats = {L: pia2_end_category(L, field) for L in (10, 12)}
        cons = {L: tabulated_contraction(cats[L]) for L in cats}
        trusted_small = set(cats[10].trusted)
        for src in ("S1", "S2", "P1", "P2"):
            for tgt in ("S1", "S2", "P1", "P2"):
                for n in range(-5, 6):
                    for b in cats[10].flat_basis(src, tgt, n):
                        if b not in trusted_small or b + n not in trusted_small:
                            continue
                        results = {}
                        for L, cat in cats.items():
                            con = cons[L]
                            x = HomElement(cat, src, tgt, n, {b: field.one})
                            lhs = cat.differential(con.H(x)).add(
                                con.H(cat.differential(x)))
                            rhs = x
                            for name, c in con.project(x).items():
                                rhs = rhs.add(con.include(src, tgt, n, name)
                                              .scale(field.neg(c)))
                            assert lhs.eq_on(rhs, set(cat.trusted)), (field, src, tgt, n, b)
                            assert restrict(con.H(con.H(x)), set(cat.trusted)).is_zero()
                            results[L] = restrict(con.H(x), trusted_small).coeffs
                        # window stability of the homotopy itself
                        assert results[10] == results[12], (field, src, tgt, n, b)


def _reference_H(con, elem):
    """The tabulated homotopy derived afresh on every call, as it was before
    the per-degree plans: the oracle for TabulatedContraction.H."""
    cat = con.cat
    field = cat.field
    src, tgt, n = elem.src, elem.tgt, elem.deg
    if not cat.d_matrix(src, tgt, n).is_zero():
        return cat.zero_elem(src, tgt, n - 1)
    dmat = cat.d_matrix(src, tgt, n - 1)
    if dmat.is_zero():
        return cat.zero_elem(src, tgt, n - 1)
    t = dict(elem.coeffs)
    cls = [s for s in sym.hom_basis(src, tgt, max(n, 0)) if sym.ext_degree(s) == n]
    basis = cat.flat_basis(src, tgt, n)
    if cls and basis:
        coeff = elem.coeffs.get(max(basis))
        if coeff is not None:
            for k, v in realize_ext_symbol(cat, cls[0]).coeffs.items():
                s = field.sub(t.get(k, field.zero), field.mul(coeff, v))
                if s == field.zero:
                    t.pop(k, None)
                else:
                    t[k] = s
    row_index = cat.flat_index(src, tgt, n)
    row_pos = set(cat.flat_basis(src, tgt, n))
    col_index = cat.flat_index(src, tgt, n - 1)
    col_pos = set(cat.flat_basis(src, tgt, n - 1))

    def entry(rp, cp):
        if rp not in row_pos or cp not in col_pos:
            return field.zero
        return dmat.get(row_index[rp], col_index[cp])

    c = {}
    for j in sorted(col_pos, reverse=True):
        a = entry(j, j)
        if a != field.zero:
            acc = t.get(j, field.zero)
            b = entry(j, j + 1)
            if b != field.zero and (j + 1) in c:
                acc = field.sub(acc, field.mul(b, c[j + 1]))
            val = field.div(acc, a)
        else:
            a2 = entry(j - 1, j)
            if a2 == field.zero or (j - 1) in col_pos:
                continue
            val = field.div(t.get(j - 1, field.zero), a2)
        if val != field.zero:
            c[j] = val
    return HomElement(cat, src, tgt, n - 1, c)


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_compiled_H_matches_reference(field):
    """The per-degree plans give the same H as deriving everything afresh,
    on every flat basis vector and on one seeded sparse combination per
    hom pair and degree |n| <= 8 (which also checks linearity)."""
    cat = pia2_end_category(14, field)
    con = tabulated_contraction(cat)
    rng = random.Random(11)
    scalars = [field.of(k) for k in (1, -1, 2, -3)] if field is QQ else [F2.one]
    checked = nonzero = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            for n in range(-8, 9):
                images = {}
                for b in cat.flat_basis(src, tgt, n):
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    got = con.H(x)
                    assert got.deg == n - 1
                    assert got.coeffs == _reference_H(con, x).coeffs, (src, tgt, n, b)
                    images[b] = got
                    checked += 1
                    nonzero += not got.is_zero()
                if not images:
                    continue
                picks = rng.sample(sorted(images), min(3, len(images)))
                coeffs = {b: rng.choice(scalars) for b in picks}
                x = HomElement(cat, src, tgt, n, coeffs)
                got = con.H(x)
                assert got.coeffs == _reference_H(con, x).coeffs, (src, tgt, n, coeffs)
                want = cat.zero_elem(src, tgt, n - 1)
                for b, c in coeffs.items():
                    want = want.add(images[b].scale(c))
                assert got.coeffs == want.coeffs, (src, tgt, n, coeffs)
    assert checked == 808 and nonzero > 300


def _gapped_category(field):
    """S1's resolution at window 10 without its differential at -5, and
    S2's.  The columns of Hom(S1, S1) and Hom(S2, S1) that only the
    missing differential would see get no step, so those plans' step
    lists have gaps.  No class is named, so every degree where d vanishes
    and d of the degree below does not has a plan."""
    q1 = build_resolution("S1", 10, field)
    gapped = TruncatedComplex("Q1", q1.reps, {i: d for i, d in q1.diffs.items()
                                              if i != -5}, field)
    cat = EndCategory({"S1": gapped, "S2": build_resolution("S2", 10, field)},
                      field)
    con = TabulatedContraction(cat)
    con.classes = lambda src, tgt, deg: []
    return cat, con


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_tabulated_H_matches_full_back_substitution(field):
    """H starts at the first step that sees its input's top position and
    stops below the lowest one; it equals the back-substitution over every
    step of the plan (helpers.full_back_substitution) on seeded inputs of
    several terms, on every plan of degrees |n| <= 8 of the window-24
    category and of a category whose step lists have gaps.  Each plan's
    inputs include entries at the top and the bottom position of its
    degree, and each gap's inputs entries at the positions the steps on
    both of its sides read."""
    rng = random.Random(7)
    scalars = [field.of(k) for k in (1, -1, 2, -3)] if field is QQ else [F2.one]
    pia2 = pia2_end_category(24, field)
    checked = nonzero = gaps = 0
    for cat, con in ((pia2, tabulated_contraction(pia2)), _gapped_category(field)):
        for src in sorted(cat.complexes):
            for tgt in sorted(cat.complexes):
                for n in range(-8, 9):
                    plan = con._plan(src, tgt, n)
                    if plan is None:
                        continue
                    steps = plan[0]
                    basis = cat.flat_basis(src, tgt, n)
                    sides = [(a[1], b[1]) for a, b in zip(steps, steps[1:])
                             if a[0] - b[0] > 1]
                    gaps += len(sides)
                    musts = [(basis[-1], basis[0]), (basis[-1],), (basis[0],)]
                    inputs = []
                    for keys in musts + sides + [()] * 4:
                        extra = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
                        inputs.append({b: rng.choice(scalars) for b in (*keys, *extra)})
                    for coeffs in inputs:
                        x = HomElement(cat, src, tgt, n, coeffs)
                        got = con.H(x)
                        assert got.deg == n - 1
                        assert _typed(got.coeffs) == \
                            _typed(full_back_substitution(con, x).coeffs), \
                            (src, tgt, n, coeffs)
                        checked += 1
                        nonzero += not got.is_zero()
    assert gaps == 9 and checked == 723 and nonzero > 700


def test_compiled_H_refuses_a_class_where_d_vanishes():
    """H back-substitutes without subtracting i(p(x)) because no degree with
    a plan carries a class; a class there is refused, not ignored."""
    cat = pia2_end_category(14, F2)
    con = tabulated_contraction(cat)
    key = next((s, t, n) for s in sorted(cat.complexes) for t in sorted(cat.complexes)
               for n in range(-8, 9) if con._plan(s, t, n))
    fresh = TabulatedContraction(cat)
    fresh.classes = lambda src, tgt, deg: ["x"] if (src, tgt, deg) == key else []
    with pytest.raises(ValueError):
        fresh._plan(*key)


def test_contraction_audit_counts_cases():
    """The audit reports how many cases it examined: every class plus every
    flat basis element inside the trusted sub-window.  A pass over nothing
    is impossible: an audit of a category with no objects fails."""
    cat = pia2_end_category(14, F2)
    con = tabulated_contraction(cat)
    rep = contraction_audit(con)
    trusted = set(cat.trusted)
    want = 0
    for src in cat.complexes:
        for tgt in cat.complexes:
            for n in range(-8, 9):
                want += len(con.classes(src, tgt, n))
                want += sum(1 for i in cat.flat_basis(src, tgt, n)
                            if i in trusted and i + n in trusted)
    assert rep["status"] == "pass" and rep["violations"] == []
    assert rep["checked"] == want > 0
    nothing = EndCategory({}, F2, trusted=cat.trusted)
    empty = contraction_audit(generic_contraction(nothing))
    assert empty["checked"] == 0 and empty["status"] == "fail"


def test_contraction_audit_fails_on_broken_contractions():
    """Each identity of the audit fails on a contraction broken to break
    it, and only that one: a project that drops every class breaks pi = 1
    on each class; an H that is zero breaks dH + Hd = 1 - ip on each
    trusted basis element (p is zero there on this instance); H plus
    precomposition with a degree -1 cycle e, which keeps dH + Hd but not
    H^2 = 0, breaks the latter."""
    cat = pia2_end_category(14, F2)
    con = tabulated_contraction(cat)
    classes = sum(len(con.classes(src, tgt, n)) for src in cat.complexes
                  for tgt in cat.complexes for n in range(-8, 9))
    checked = contraction_audit(con)["checked"]

    def kinds(con):
        rep = contraction_audit(con)
        assert rep["status"] == "fail" and rep["checked"] == checked
        return Counter(v["expected"] for v in rep["violations"])

    con = tabulated_contraction(cat)
    con.project = lambda elem: {}
    assert kinds(con) == {"1": classes}

    con = tabulated_contraction(cat)
    con.H = lambda elem: cat.zero_elem(elem.src, elem.tgt, elem.deg - 1)
    assert kinds(con) == {"dH+Hd = 1-ip": checked - classes}

    con = tabulated_contraction(cat)
    H = con.H
    e = {x: HomElement(cat, x, x, -1, {b: F2.one for b in cat.flat_basis(x, x, -1)})
         for x in cat.complexes}
    assert all(cat.differential(c).is_zero() for c in e.values())
    con.H = lambda elem: H(elem).add(cat.compose(elem, e[elem.src]))
    assert set(kinds(con)) == {"H^2 = 0"}


def test_no_producer_hands_a_zero_coefficient(monkeypatch):
    """HomElement stores the dict its producer built, so no producer may
    put a zero in it: checked on every element the window-24 contraction
    audits (paper and generic, F2 and Q) and the Q (5,4) tables of both
    homotopies build."""
    init = HomElement.__init__
    built = []

    def checked(self, cat, src, tgt, deg, coeffs):
        assert all(coeffs.values()), (src, tgt, deg, coeffs)
        built.append(len(coeffs))
        init(self, cat, src, tgt, deg, coeffs)

    monkeypatch.setattr(HomElement, "__init__", checked)
    for field in (F2, QQ):
        for mode in ("paper", "generic"):
            rep = contraction_audit(build_contraction(24, mode, field))
            assert rep["status"] == "pass" and rep["checked"] == 1166
    tables = []
    for mode in ("paper", "generic"):
        con = build_contraction(24, mode, QQ)
        tables.append(compute_operation_table(
            5, 4, MatrixBackend.for_pia2(con.cat, con, 4)))
    assert len(tables[0]) == len(tables[1]) > 0
    # the audits compare in place, so they build no restricted copies
    assert len(built) > 30_000 and max(built) > 1


@pytest.mark.parametrize("instance", ["f2", "q", "a2"])
def test_generic_contraction_is_zero_past_the_window(instance):
    """Past degree +-(window + 1) a Hom space is empty, so the generic
    contraction, which takes no degree range, has no class there, p = {}
    and H = 0, and the matrix backend sees no class: degrees
    +-(window + 2)..+-(window + 7) at window 14 over F2 and Q, and on the
    A2 instance (window 1)."""
    cat = a2_end_category(F2) if instance == "a2" \
        else pia2_end_category(14, QQ if instance == "q" else F2)
    con = generic_contraction(cat)
    backend = MatrixBackend.for_pia2(cat, con, 2)
    w = cat.window
    degrees = [n for k in range(w + 2, w + 8) for n in (k, -k)]
    checked = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            for n in degrees:
                assert cat.flat_basis(src, tgt, n) == []
                assert con.classes(src, tgt, n) == []
                assert not backend.has_class(src, tgt, n)
                x = cat.zero_elem(src, tgt, n)
                assert con.project(x) == {}
                assert con.H(x).is_zero() and con.H(x).deg == n - 1
                checked += 1
    assert checked == len(cat.complexes) ** 2 * 12


def test_generic_contraction_axioms_and_side_conditions():
    for field in (F2, QQ):
        cat = pia2_end_category(10, field)
        con = generic_contraction(cat)
        trusted = set(cat.trusted)
        for src, tgt in (("S1", "S1"), ("S1", "S2"), ("P1", "S1"), ("S2", "P1")):
            for n in range(-3, 5):
                for b in cat.flat_basis(src, tgt, n):
                    if b not in trusted or b + n not in trusted:
                        continue
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    lhs = cat.differential(con.H(x)).add(con.H(cat.differential(x)))
                    rhs = x
                    for name, c in con.project(x).items():
                        rhs = rhs.add(con.include(src, tgt, n, name).scale(field.neg(c)))
                    assert lhs.eq_on(rhs, trusted), (field, src, tgt, n, b)
                    # the side conditions hold exactly, not just on trusted
                    assert con.H(con.H(x)).is_zero()
                    assert con.project(con.H(x)) == {}
                for name in con.classes(src, tgt, n):
                    inc = con.include(src, tgt, n, name)
                    assert con.project(inc) == {name: field.one}
                    assert con.H(inc).is_zero()


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_tabulated_contraction_side_conditions(field):
    """The tabulated contraction's side conditions hold exactly at window
    24, on every hom pair and degree |n| <= 8: H(i(c)) = 0 for each class
    c and p(H(x)) = 0 for each flat basis element x."""
    cat = pia2_end_category(24, field)
    con = tabulated_contraction(cat)
    classes = basis = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            for n in range(-8, 9):
                for name in con.classes(src, tgt, n):
                    assert con.H(con.include(src, tgt, n, name)).is_zero(), name
                    classes += 1
                for b in cat.flat_basis(src, tgt, n):
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    assert con.project(con.H(x)) == {}, (src, tgt, n, b)
                    basis += 1
    assert (classes, basis) == (26, 1488)


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_generic_coords_match_solve(field):
    """The generic contraction solves for B and R coordinates on d_n's
    free columns only; they equal the B and R coordinates of a fresh
    linalg.solve against the whole [B | R | W] basis of the whole-pair
    split, on every basis vector."""
    cat = pia2_end_category(14, field)
    con = generic_contraction(cat)
    checked = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            split = whole_pair_split(con, src, tgt)
            for n in _degrees(cat):
                old = split[n]
                cols = old["B"] + old["R"] + old["W"]
                solver = SparseMatrix(
                    len(old["basis"]), len(cols), field,
                    {(r, j): v for j, col in enumerate(cols)
                     for r, v in col.items()})
                n_kernel = len(old["B"]) + len(old["R"])
                index = cat.flat_index(src, tgt, n)
                for b in cat.flat_basis(src, tgt, n):
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    want = solve(solver, {index[b]: field.one})
                    assert want is not None
                    want = {k: v for k, v in want.items() if k < n_kernel}
                    assert con._coords(x)[1] == want, (src, tgt, n, b)
                    checked += 1
    # every basis vector of every hom pair in degrees -15..15
    assert checked == 1024


def _degrees(cat):
    """The degrees the generic contraction tests walk: -(L+1)..L+1 at
    window L, and -4..4 on the A2 instance."""
    if cat.algebra == "a2":
        return range(-4, 5)
    return range(-cat.window - 1, cat.window + 2)


def _column_rank(cols, dim, field):
    """The rank of the dim-row matrix with the given dict-vector columns."""
    return rref(SparseMatrix(dim, len(cols), field,
                             {(r, j): v for j, col in enumerate(cols)
                              for r, v in col.items()}))[0]


def whole_pair_split(con, src, tgt):
    """Every degree's split of a hom pair at once, {n: {B, R, W, basis,
    n_true}}, computed degree after degree as the generic contraction did
    before it split each degree on first use, W being the unit vectors at
    rref(d_n)'s pivot columns.  Frozen here as the oracle for
    GenericContraction._degree."""
    cat, field = con.cat, con.cat.field
    data = {}
    w_prev = {}
    for n in _degrees(cat):
        basis = cat.flat_basis(src, tgt, n)
        dim = len(basis)
        dmat = cat.d_matrix(src, tgt, n)
        _rank, pivots, kernel = rref(dmat)
        W = [{j: field.one} for j in pivots]
        B = []
        for w in w_prev.get(n - 1, []):
            B.append(mat_vec(cat.d_matrix(src, tgt, n - 1), w))
        # class representatives: each left-localized kernel vector that
        # raises the rank of B and the representatives taken so far
        R = []
        rank = _column_rank(B, dim, field)
        for z in sorted(kernel, key=lambda v: max(basis[j] for j in v)):
            grown = _column_rank(B + R + [z], dim, field)
            if grown > rank:
                R.append(dict(z))
                rank = grown
        expected = con.class_names.get((src, tgt, n))
        if expected is None:
            n_true = len(R)
        else:
            n_true = len(expected)
            if n_true > len(R):
                raise ValueError(f"missing classes at {(src, tgt, n)}")
            if 0 < n_true < len(R):
                raise ValueError(
                    f"cannot separate classes from edge artifacts at "
                    f"{(src, tgt, n)}")
        data[n] = {"B": B, "R": R, "W": W, "basis": basis,
                   "n_true": n_true}
        w_prev[n] = W
    return data


@pytest.mark.parametrize("instance", ["f2", "q", "a2-f2", "a2-q"])
def test_degree_split_matches_whole_pair_split(instance):
    """Each degree split on first use equals the whole-pair split's entry
    for it: the same boundaries, class representatives, flat basis and
    class count, and the inverse of its free-column solver is square on
    exactly the columns where no complement vector W is one and inverts
    [B | R] cut to them, on every hom pair and degree of _degrees
    (window 14, and -4..4 on the A2 instance)."""
    field = QQ if instance.endswith("q") else F2
    cat = a2_end_category(field) if instance.startswith("a2") \
        else pia2_end_category(14, field)
    con = generic_contraction(cat)
    checked = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            want = whole_pair_split(con, src, tgt)
            assert sorted(want) == list(_degrees(cat))
            for n, old in want.items():
                new = con._degree(src, tgt, n)
                for key in ("B", "R", "basis", "n_true"):
                    assert new[key] == old[key], (src, tgt, n, key)
                w_cols = {j for w in old["W"] for j in w}
                free = [j for j in range(len(old["basis"])) if j not in w_cols]
                assert list(new["free_row"]) == free, (src, tgt, n)
                # the stored inverse is |F| x |F| and inverts [B | R] cut
                # to the free columns
                inverse = new["inverse"]
                assert inverse.rows == inverse.cols == len(free)
                rows = new["free_row"]
                solver = SparseMatrix(len(free), len(free), field, {
                    (rows[r], j): v for j, col in enumerate(old["B"] + old["R"])
                    for r, v in col.items() if r in rows})
                assert mat_mul(solver, inverse) == \
                    SparseMatrix.identity(len(free), field), (src, tgt, n)
                checked += 1
    assert checked == len(cat.complexes) ** 2 * len(_degrees(cat))


@pytest.mark.parametrize("instance", ["f2", "q", "a2-f2", "a2-q"])
def test_kernel_vectors_come_left_localized(instance):
    """The split takes rref(d_n)'s kernel vectors, left-localized first, in
    their own order, on two premises checked here on every split (window
    24, and the A2 instance): flat_basis lists keys by ascending position,
    and the kernel vector of free column c is supported on columns <= c.
    So the rightmost position each kernel vector reaches never falls
    along the list."""
    field = QQ if instance.endswith("q") else F2
    cat = a2_end_category(field) if instance.startswith("a2") \
        else pia2_end_category(24, field)
    con = generic_contraction(cat)
    splits = rising = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            for n in _degrees(cat):
                basis = cat.flat_basis(src, tgt, n)
                positions = [i for i in basis]
                assert positions == sorted(positions), (src, tgt, n)
                _rank, pivots, kernel = con._rref(src, tgt, n)
                pivot_set = set(pivots)
                free = [j for j in range(len(basis)) if j not in pivot_set]
                assert [max(vec) for vec in kernel] == free, (src, tgt, n)
                reach = [max(basis[j] for j in vec) for vec in kernel]
                assert reach == sorted(reach), (src, tgt, n)
                splits += 1
                rising += len(set(reach)) > 1
    assert splits == len(cat.complexes) ** 2 * len(_degrees(cat))
    # no A2 kernel holds two vectors that reach different positions
    assert rising == (0 if instance.startswith("a2") else 94)


def test_generic_refuses_missing_classes_at_their_degree():
    """One expected class too many at (S1, S1, 2): include, project and H
    at that degree refuse, each time they are asked, while the pair's
    other degrees still answer, H at degree 3 too (it reads only
    rref(d_2), not degree 2's split)."""
    cat = pia2_end_category(14, F2)
    names = dict(generic_contraction(cat).class_names)
    key = ("S1", "S1", 2)
    names[key] = names[key] + ["extra"]
    con = GenericContraction(cat, names)
    assert con.classes(*key) == names[key]
    x = HomElement(cat, "S1", "S1", 2, {cat.flat_basis(*key)[0]: F2.one})
    msg = r"missing classes at \('S1', 'S1', 2\)"
    for _ in range(2):
        with pytest.raises(ValueError, match=msg):
            con.include(*key, "extra")
        with pytest.raises(ValueError, match=msg):
            con.project(x)
        with pytest.raises(ValueError, match=msg):
            con.H(x)
    assert key not in con._degrees
    [u] = con.classes("S1", "S1", 4)
    assert con.project(con.include("S1", "S1", 4, u)) == {u: F2.one}
    y = HomElement(cat, "S1", "S1", 3, {cat.flat_basis("S1", "S1", 3)[0]: F2.one})
    assert not con.H(y).is_zero()


def test_generic_refuses_classes_it_cannot_separate_at_their_degree():
    """X = P1 in positions 0 and 1 with zero differential has two classes
    in degree 0 and one in degree 1.  Naming one class in degree 0 leaves
    a surplus the contraction cannot tell from an edge artifact: include,
    project and H refuse at degree 0 and answer at degree 1."""
    p1 = pia2_indecomposables(F2)["P1"]
    cat = EndCategory({"X": TruncatedComplex("X", {0: p1, 1: p1}, {}, F2)}, F2)
    con = GenericContraction(cat, {("X", "X", 0): ["a"], ("X", "X", 1): ["b"]})
    x = HomElement(cat, "X", "X", 0, {cat.flat_basis("X", "X", 0)[0]: F2.one})
    msg = r"cannot separate classes from edge artifacts at \('X', 'X', 0\)"
    for _ in range(2):
        with pytest.raises(ValueError, match=msg):
            con.include("X", "X", 0, "a")
        with pytest.raises(ValueError, match=msg):
            con.project(x)
        with pytest.raises(ValueError, match=msg):
            con.H(x)
    b = con.include("X", "X", 1, "b")
    assert con.project(b) == {"b": F2.one}
    assert con.H(b).is_zero()


def test_build_contraction_entry_point():
    con = build_contraction(8, "paper", F2)
    assert con.mode == "paper" and con.cat.algebra == "pia2"
    con = build_contraction(8, "generic", F2)
    assert con.mode == "generic" and con.cat.window == 8
    with pytest.raises(ValueError):
        build_contraction(4, "paper", F2)
    con = build_contraction(8, "generic", F2, algebra="a2")
    assert con.cat.algebra == "a2"
    assert con.classes("S2", "P", 0) == ["f"]


def test_hom_homology_dims_and_window_stability():
    for L in (10, 12):
        cat = pia2_end_category(L, F2)
        assert hom_homology_dims(cat, "S1", "S1", range(0, 5)) == \
            {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        assert hom_homology_dims(cat, "S1", "S2", range(1, 5)) == \
            {1: 1, 2: 0, 3: 1, 4: 0}
        assert hom_homology_dims(cat, "S1", "P1", range(0, 5)) == \
            {n: 0 for n in range(0, 5)}
        assert hom_homology_dims(cat, "S2", "P1", range(0, 4)) == \
            {0: 1, 1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_cone_of_zero_identity_and_random_cycles(field):
    """Over Q the cone's -d_X block carries a sign that F2 cannot see: with
    +d_X the identity cones of S1 and S2 fail d^2 = 0."""
    cat = pia2_end_category(8, field)
    # cone of the zero map: block diagonal differential, d^2 = 0
    zero = cat.zero_elem("S1", "S2", 0)
    c0 = cone(zero)
    assert check_d_squared(c0)
    # cone of the identity is acyclic everywhere, on every object
    for obj in sym.OBJECTS:
        cid = cone(realize_ext_symbol(cat, ("1", obj)))
        assert check_d_squared(cid)
        assert all(v == 0 for v in homology_dims(cid).values()), obj
    # d^2 = 0 for cones on randomized cycles
    rng = random.Random(17)
    count = 0
    pairs = [("S1", "S2"), ("S1", "S1"), ("S2", "S1"), ("P1", "S1"), ("S1", "P2")]
    while count < 100:
        src, tgt = pairs[count % len(pairs)]
        f = random_cycle(cat, src, tgt, rng)
        if f is None:
            pairs.append(pairs.pop(0))
            continue
        c = cone(f)
        assert check_d_squared(c)
        count += 1
    # a non-cycle is rejected
    bad = HomElement(cat, "S1", "S1", 0, {-3: field.one})
    with pytest.raises(ValueError):
        cone(bad)


def random_cycle(cat, src, tgt, rng):
    """A random exact cycle of degree zero in the windowed Hom complex: the
    sum of a random subset of the kernel vectors of d."""
    from pia2.linalg import rref
    mat = cat.d_matrix(src, tgt, 0)
    _rk, _piv, kernel = rref(mat)
    if not kernel:
        return None
    basis = cat.flat_basis(src, tgt, 0)
    coeffs = {}
    for vec in kernel:
        if rng.random() < 0.5:
            for j, v in vec.items():
                cat.field.accumulate(coeffs, basis[j], v)
    elem = HomElement(cat, src, tgt, 0, coeffs)
    if elem.is_zero():
        return None
    return elem


def test_homotopy_composition_identities_as_matrices():
    """Every homotopy-composition identity with parameters <= 3 holds as a
    matrix equation on the trusted sub-window."""
    cat = pia2_end_category(24, F2)
    con = tabulated_contraction(cat)
    trusted = set(cat.trusted)

    def R(s):
        return realize_ext_symbol(cat, s) if not sym.is_h(s) \
            else realize_h_symbol(con, s)

    for i in (1, 2):
        o = 3 - i
        for n in range(0, 4):
            for m in range(0, 4):
                # u_i^n o h(S_i,S_o)^m = (g-class)^{n-m-1}
                if n >= 1:
                    prod = cat.compose(R(ext_u(i, n)), R(h_sym("sn", i, m)))
                    want = {} if n < m + 1 else {sym.ext_to_str(ext_g(i, n - m - 1)): F2.one}
                    assert con.project(prod) == want, (i, n, m)
                # g o h(S_i,S_i)^m
                if m >= 1:
                    prod = cat.compose(R(ext_g(o, n)), R(h_sym("ss", i, m)))
                    want = {} if n < m else {sym.ext_to_str(ext_g(o, n - m)): F2.one}
                    assert con.project(prod) == want
                # u^n o h(S_i,P_i)^m = delta p_i
                if m >= 1 and n >= 1:
                    prod = cat.compose(R(ext_u(i, n)), R(h_sym("sp", i, m)))
                    want = {f"p{i}": F2.one} if n == m else {}
                    assert con.project(prod) == want
                # g o h(S_i,P_o)^m = delta p_o
                prod = cat.compose(R(ext_g(o, n)), R(h_sym("pn_t", i, m)))
                want = {f"p{o}": F2.one} if n == m else {}
                assert con.project(prod) == want
                # h(P_o,S_i)^n o h(S_i,P_o)^m = delta 1_{P_o}
                prod = cat.compose(R(h_sym("pn_s", i, n)), R(h_sym("pn_t", i, m)))
                want = {f"1_P{o}": F2.one} if n == m else {}
                assert con.project(prod) == want
            # h(P_i,S_i)^0 o p_i = identity
            prod = cat.compose(R(h_sym("ps", i, 0)), R(("p", i)))
            assert con.project(prod) == {f"1_P{i}": F2.one}
            # arrow o h(P_i,S_i)^0 = j_o
            prod = cat.compose(R(("E", o)), R(h_sym("ps", i, 0)))
            assert con.project(prod) == {f"j{o}": F2.one}


def test_mu_matrix_coherence_audit():
    """The symbol tables agree with the matrix backend on every composable
    pair with parameters <= 3: class reads match realizations, boundary
    H-images match the homotopy realizations, terminating non-cycles are
    H- and p-invisible but not closed, and default-zero entries are
    p- and H-invisible."""
    cat = pia2_end_category(24, F2)
    con = tabulated_contraction(cat)
    trusted = set(cat.trusted)
    elems = all_ext_symbols(7) + all_h_symbols(3)
    reali = {}

    def R(s):
        if s not in reali:
            reali[s] = realize_ext_symbol(cat, s) if not sym.is_h(s) \
                else realize_h_symbol(con, s)
        return reali[s]

    checked = 0
    for a in elems:
        for b in elems:
            if elem_source(a) != elem_target(b):
                continue
            r = sym.mu(a, b)
            m = cat.compose(R(a), R(b))
            hm = con.H(m)
            pm = con.project(m)
            if r is sym.ZERO:
                assert pm == {}, (a, b)
                assert restrict(hm, trusted).is_zero(), (a, b)
            elif r[0] == "E":
                assert pm == {sym.ext_to_str(r[1]): F2.one}, (a, b, r, pm)
                assert restrict(hm, trusted).is_zero(), (a, b)
            elif r[0] == "B":
                assert pm == {}, (a, b)
                assert hm.eq_on(R(r[1]), trusted), (a, b, r)
            elif r[0] == "N":
                assert pm == {}, (a, b)
                assert restrict(hm, trusted).is_zero(), (a, b)
                # the failure of closedness may sit at the right window
                # edge, which is real (only the left edge is truncated)
                interior = set(range(-cat.window + 2, 1))
                assert not restrict(cat.differential(m), interior).is_zero(), \
                    ("terminating composite should not be closed", a, b)
            checked += 1
    assert checked > 800


def test_a2_category_and_classes():
    cat = a2_end_category(F2)
    q = cat.complexes["S1"]
    assert check_d_squared(q)
    assert hom_homology_dims(cat, "S1", "S1", range(0, 2)) == {0: 1, 1: 0}
    assert hom_homology_dims(cat, "S1", "S2", range(0, 3)) == {0: 0, 1: 1, 2: 0}
    assert hom_homology_dims(cat, "S2", "S1", range(0, 2)) == {0: 0, 1: 0}
    con = generic_contraction(cat)
    assert con.classes("P", "S1", 0) == ["g"]
    assert con.classes("S1", "S2", 1) == ["h"]
    assert con.classes("S2", "S2", 0) == ["1_S2"]


def test_for_pia2_reads_classes_without_decomposing():
    """The matrix backend's symbols are its contraction's classes: on the
    preprojective instance both contractions give the symbols table's
    entries.  Where the expected names list a degree, the generic
    contraction answers without splitting it, so building the backend
    solves nothing; a degree above window - 4 lists no names, is split
    alone (from rref(d_n) and rref(d_{n-1})), and its classes are
    auto-named."""
    want = {s: sym.SYMBOLS[s][1:] for x in sym.OBJECTS for y in sym.OBJECTS
            for s in sym.hom_names(x, y, 4)}
    cat = pia2_end_category(10, F2)
    assert MatrixBackend.for_pia2(cat, tabulated_contraction(cat), 4).symbols == want
    con = generic_contraction(cat)
    assert MatrixBackend.for_pia2(cat, con, 4).symbols == want
    assert con._degrees == {} and con._rrefs == {}
    assert con.classes("S1", "S1", 8) == ["e(S1->S1)^8_0"]
    assert con.classes("S1", "S2", 7) == ["e(S1->S2)^7_0"]
    assert set(con._degrees) == {("S1", "S1", 8), ("S1", "S2", 7)}
    assert set(con._rrefs) == {("S1", "S1", 7), ("S1", "S1", 8),
                               ("S1", "S2", 6), ("S1", "S2", 7)}
