import random

import pytest

from pia2.linalg import F2, QQ, solve
from pia2 import symbols as sym
from pia2.complexes import (build_resolution, cone,
                            ChainMap, dg_compose, dg_differential,
                            identity_chain_map, pia2_end_category,
                            a2_end_category, tabulated_contraction,
                            generic_contraction, a2_class_names,
                            realize_ext_symbol, realize_h_symbol,
                            build_contraction, contraction_audit, HomElement,
                            EndCategory, TabulatedContraction)
from pia2.quiver import pia2_indecomposables


def test_build_resolution_pattern():
    q1 = build_resolution("S1", 3, F2)
    assert [q1.reps[i].name for i in range(-3, 1)] == ["P2", "P1", "P2", "P1"]
    q2 = build_resolution("S2", 3, F2)
    assert [q2.reps[i].name for i in range(-3, 1)] == ["P1", "P2", "P1", "P2"]
    assert q1.check_d_squared() and q2.check_d_squared()
    # consecutive differentials compose to zero through (12)(21) = 0
    assert q1.d(-1).compose(q1.d(-2)).is_zero()
    with pytest.raises(ValueError):
        build_resolution("S1", 1, F2)


def test_resolution_homology_is_the_simple_module():
    q1 = build_resolution("S1", 8, F2)
    dims = q1.homology_dims()
    assert dims[0] == 1  # the augmentation S1 survives at position 0
    assert all(dims[i] == 0 for i in range(-7, 0))


def test_dg_differential_leibniz_and_identity():
    cat = pia2_end_category(10, QQ)
    q1 = cat.complexes["S1"]
    assert dg_differential(identity_chain_map(q1)).is_zero()
    rng = random.Random(3)
    reps = pia2_indecomposables(QQ)
    for _ in range(10):
        comps = {}
        for i in q1.positions():
            if rng.random() < 0.5 and i - 1 >= q1.lo:
                from pia2.quiver import ModuleMap
                from pia2.linalg import SparseMatrix
                src, tgt = q1.reps[i], q1.reps[i - 1]
                blocks = {v: SparseMatrix(tgt.dims[v], src.dims[v], QQ,
                                          {(0, 0): QQ.of(rng.randint(-2, 2))})
                          for v in src.dims if src.dims[v] and tgt.dims[v]}
                comps[i] = ModuleMap(src, tgt, blocks)
        f = ChainMap(q1, q1, -1, comps)
        assert dg_differential(dg_differential(f)).is_zero()


def test_dg_compose_realizations():
    cat = pia2_end_category(12, F2)
    con = tabulated_contraction(cat)
    e = {s: realize_ext_symbol(cat, sym.ext_from_str(s))
         for s in ("j1", "p2", "p1", "j2", "(12)", "(21)", "a.u2^0", "b.u1^0")}
    # m2(j1, p2) = (21) holds on the nose at chain level
    prod = cat.compose(e["j1"], e["p2"])
    want = realize_ext_symbol(cat, sym.E21)
    assert prod.coeffs == want.coeffs
    # 1 o f = f
    one = realize_ext_symbol(cat, ("1", "S1"))
    u1 = realize_ext_symbol(cat, sym.ext_u(1, 1))
    assert cat.compose(one, u1).coeffs == u1.coeffs
    # p1 o j1 is nonzero but null-homotopic
    prod = cat.compose(e["p1"], e["j1"])
    assert not prod.is_zero()
    assert con.project(prod) == {}
    assert not con.H(prod).is_zero()


def test_realize_u_is_shift_and_multiplicative():
    cat = pia2_end_category(12, F2)
    con = tabulated_contraction(cat)
    u1 = realize_ext_symbol(cat, sym.ext_u(1, 1))
    assert cat.differential(u1).is_zero()
    assert set(u1.coeffs) == {(i, 0) for i in range(-12, -1)}
    sq = cat.compose(u1, u1)
    assert con.project(sq) == {sym.ext_u(1, 2): F2.one}
    # alpha o beta represents u1
    al = realize_ext_symbol(cat, sym.ext_g(1, 0))
    be = realize_ext_symbol(cat, sym.ext_g(2, 0))
    assert con.project(cat.compose(al, be)) == {sym.ext_u(1, 1): F2.one}
    with pytest.raises(ValueError):
        realize_ext_symbol(cat, sym.ext_u(1, 5))  # window too small


def test_realize_h_shapes_over_f2():
    cat = pia2_end_category(12, F2)
    # h(S1,S2)^n: the full shift with unit components
    h = realize_h_symbol(cat, sym.h_sym("sn", 1, 1))
    assert all(v == F2.one for v in h.coeffs.values())
    assert set(h.coeffs) == {(i, 0) for i in range(-9, 1)}
    # h(P1,S1)^n: a single unit component at position -2n
    h2 = realize_h_symbol(cat, sym.h_sym("ps", 1, 2))
    assert h2.coeffs == {(-4, 0): F2.one}
    # h(S1,P2)^0: a single unit component mapping onto position -1
    h3 = realize_h_symbol(cat, sym.h_sym("pn_t", 1, 0))
    assert h3.coeffs == {(0, 0): F2.one} and h3.deg == -1
    with pytest.raises(ValueError):
        realize_h_symbol(cat, sym.h_sym("ps", 1, 4))


def test_initial_homotopies_as_matrix_identities():
    for field in (F2, QQ):
        cat = pia2_end_category(14, field)
        con = tabulated_contraction(cat)

        def R(s):
            return realize_ext_symbol(cat, sym.ext_from_str(s))

        def H_of(a, b):
            return con.H(cat.compose(R(a), R(b)))

        checks = [
            (("p1", "j1"), sym.h_sym("sn", 1, 0)),
            (("p2", "j2"), sym.h_sym("sn", 2, 0)),
            (("j1", "b.u1^1"), sym.h_sym("ps", 1, 1)),
            (("j2", "a.u2^2"), sym.h_sym("ps", 2, 2)),
            (("p1", "(21)"), sym.h_sym("pn_t", 1, 0)),
            (("p2", "(12)"), sym.h_sym("pn_t", 2, 0)),
            (("j2", "u1^2"), sym.h_sym("pn_s", 1, 1)),
            (("j1", "u2^1"), sym.h_sym("pn_s", 2, 0)),
        ]
        for (a, b), h in checks:
            got = H_of(a, b)
            want = realize_h_symbol(cat, h, con)
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
                        if b[0] not in trusted_small or b[0] + n not in trusted_small:
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
                            assert con.H(con.H(x)).restrict(set(cat.trusted)).is_zero()
                            results[L] = con.H(x).restrict(trusted_small).coeffs
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
        coeff = elem.coeffs.get((max(i for i, _k in basis), 0))
        if coeff is not None:
            for k, v in realize_ext_symbol(cat, cls[0]).coeffs.items():
                s = field.sub(t.get(k, field.zero), field.mul(coeff, v))
                if s == field.zero:
                    t.pop(k, None)
                else:
                    t[k] = s
    row_index = cat.flat_index(src, tgt, n)
    row_pos = {i for i, _k in cat.flat_basis(src, tgt, n)}
    col_index = cat.flat_index(src, tgt, n - 1)
    col_pos = {i for i, _k in cat.flat_basis(src, tgt, n - 1)}

    def entry(rp, cp):
        if rp not in row_pos or cp not in col_pos:
            return field.zero
        return dmat.get(row_index[(rp, 0)], col_index[(cp, 0)])

    c = {}
    for j in sorted(col_pos, reverse=True):
        a = entry(j, j)
        if a != field.zero:
            acc = t.get((j, 0), field.zero)
            b = entry(j, j + 1)
            if b != field.zero and (j + 1) in c:
                acc = field.sub(acc, field.mul(b, c[j + 1]))
            val = field.div(acc, a)
        else:
            a2 = entry(j - 1, j)
            if a2 == field.zero or (j - 1) in col_pos:
                continue
            val = field.div(t.get((j - 1, 0), field.zero), a2)
        if val != field.zero:
            c[j] = val
    return HomElement(cat, src, tgt, n - 1, {(i, 0): v for i, v in c.items()})


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
    rep = contraction_audit(cat, con)
    trusted = set(cat.trusted)
    want = 0
    for src in cat.complexes:
        for tgt in cat.complexes:
            for n in range(-8, 9):
                want += len(con.classes(src, tgt, n))
                want += sum(1 for i, _k in cat.flat_basis(src, tgt, n)
                            if i in trusted and i + n in trusted)
    assert rep["status"] == "pass" and rep["violations"] == []
    assert rep["checked"] == want > 0
    nothing = EndCategory({}, F2)
    nothing.trusted = cat.trusted
    empty = contraction_audit(nothing, con)
    assert empty["checked"] == 0 and empty["status"] == "fail"


def test_generic_contraction_axioms_and_side_conditions():
    for field in (F2, QQ):
        cat = pia2_end_category(10, field)
        con = generic_contraction(cat)
        trusted = set(cat.trusted)
        for src, tgt in (("S1", "S1"), ("S1", "S2"), ("P1", "S1"), ("S2", "P1")):
            for n in range(-3, 5):
                for b in cat.flat_basis(src, tgt, n):
                    if b[0] not in trusted or b[0] + n not in trusted:
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
def test_generic_coords_match_solve(field):
    """The generic contraction factors each [B | R | W] solver once; its
    coordinates equal a fresh linalg.solve on every basis vector."""
    cat = pia2_end_category(14, field)
    con = generic_contraction(cat)
    checked = 0
    for src in sorted(cat.complexes):
        for tgt in sorted(cat.complexes):
            for n, data in con._decompose(src, tgt).items():
                index = cat.flat_index(src, tgt, n)
                for b in cat.flat_basis(src, tgt, n):
                    x = HomElement(cat, src, tgt, n, {b: field.one})
                    want = solve(data["solver"], {index[b]: field.one})
                    assert want is not None
                    assert con._coords(x)[1] == want, (src, tgt, n, b)
                    checked += 1
    assert checked > 0


def test_build_contraction_entry_point():
    cat, con = build_contraction(8, "paper", F2)
    assert con.mode == "paper"
    cat, con = build_contraction(8, "generic", F2)
    assert con.mode == "generic"
    with pytest.raises(ValueError):
        build_contraction(4, "paper", F2)
    cat, con = build_contraction(8, "generic", F2, algebra="a2")
    assert con.classes("S2", "P", 0) == ["f"]


def test_hom_homology_dims_and_window_stability():
    for L in (10, 12):
        cat = pia2_end_category(L, F2)
        assert cat.hom_homology_dims("S1", "S1", range(0, 5)) == \
            {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        assert cat.hom_homology_dims("S1", "S2", range(1, 5)) == \
            {1: 1, 2: 0, 3: 1, 4: 0}
        assert cat.hom_homology_dims("S1", "P1", range(0, 5)) == \
            {n: 0 for n in range(0, 5)}
        assert cat.hom_homology_dims("S2", "P1", range(0, 4)) == \
            {0: 1, 1: 0, 2: 0, 3: 0}


def test_cone_of_zero_identity_and_random_cycles():
    cat = pia2_end_category(8, F2)
    q1 = cat.complexes["S1"]
    q2 = cat.complexes["S2"]
    # cone of the zero map: block diagonal differential, d^2 = 0
    zero = ChainMap(q1, q2, 0, {})
    c0 = cone(zero)
    assert c0.check_d_squared()
    # cone of the identity is acyclic everywhere
    cid = cone(identity_chain_map(q1))
    assert cid.check_d_squared()
    assert all(v == 0 for v in cid.homology_dims().values())
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
        assert c.check_d_squared()
        count += 1
    # a non-cycle is rejected
    bad = HomElement(cat, "S1", "S1", 0, {(-3, 0): F2.one})
    with pytest.raises(ValueError):
        cone(cat.chain_map_from_elem(bad))


def random_cycle(cat, src, tgt, rng):
    """A random exact cycle of degree zero in the windowed Hom complex."""
    from pia2.linalg import rref
    mat = cat.d_matrix(src, tgt, 0)
    _rk, _piv, kernel, _t = rref(mat)
    if not kernel:
        return None
    basis = cat.flat_basis(src, tgt, 0)
    coeffs = {}
    for vec in kernel:
        if rng.random() < 0.5:
            for j, v in vec.items():
                key = basis[j]
                coeffs[key] = F2.add(coeffs.get(key, 0), v)
    elem = HomElement(cat, src, tgt, 0, coeffs)
    if elem.is_zero():
        return None
    return cat.chain_map_from_elem(elem)


def test_homotopy_composition_identities_as_matrices():
    """Every homotopy-composition identity with parameters <= 3 holds as a
    matrix equation on the trusted sub-window."""
    cat = pia2_end_category(24, F2)
    con = tabulated_contraction(cat)
    trusted = set(cat.trusted)

    def R(s):
        return realize_ext_symbol(cat, s) if not sym.is_h(s) \
            else realize_h_symbol(cat, s, con)

    for i in (1, 2):
        o = 3 - i
        for n in range(0, 4):
            for m in range(0, 4):
                # u_i^n o h(S_i,S_o)^m = (g-class)^{n-m-1}
                if n >= 1:
                    prod = cat.compose(R(sym.ext_u(i, n)), R(sym.h_sym("sn", i, m)))
                    want = {} if n < m + 1 else {sym.ext_g(i, n - m - 1): F2.one}
                    assert con.project(prod) == want, (i, n, m)
                # g o h(S_i,S_i)^m
                if m >= 1:
                    prod = cat.compose(R(sym.ext_g(o, n)), R(sym.h_sym("ss", i, m)))
                    want = {} if n < m else {sym.ext_g(o, n - m): F2.one}
                    assert con.project(prod) == want
                # u^n o h(S_i,P_i)^m = delta p_i
                if m >= 1 and n >= 1:
                    prod = cat.compose(R(sym.ext_u(i, n)), R(sym.h_sym("sp", i, m)))
                    want = {("p", i): F2.one} if n == m else {}
                    assert con.project(prod) == want
                # g o h(S_i,P_o)^m = delta p_o
                prod = cat.compose(R(sym.ext_g(o, n)), R(sym.h_sym("pn_t", i, m)))
                want = {("p", o): F2.one} if n == m else {}
                assert con.project(prod) == want
                # h(P_o,S_i)^n o h(S_i,P_o)^m = delta 1_{P_o}
                prod = cat.compose(R(sym.h_sym("pn_s", i, n)), R(sym.h_sym("pn_t", i, m)))
                want = {("1", f"P{o}"): F2.one} if n == m else {}
                assert con.project(prod) == want
            # h(P_i,S_i)^0 o p_i = identity
            prod = cat.compose(R(sym.h_sym("ps", i, 0)), R(("p", i)))
            assert con.project(prod) == {("1", f"P{i}"): F2.one}
            # arrow o h(P_i,S_i)^0 = j_o
            prod = cat.compose(R(("E", o)), R(sym.h_sym("ps", i, 0)))
            assert con.project(prod) == {("j", o): F2.one}


def test_mu_matrix_coherence_audit():
    """The symbol tables agree with the matrix backend on every composable
    pair with parameters <= 3: class reads match realizations, boundary
    H-images match the homotopy realizations, terminating non-cycles are
    H- and p-invisible but not closed, and default-zero entries are
    p- and H-invisible."""
    cat = pia2_end_category(24, F2)
    con = tabulated_contraction(cat)
    trusted = set(cat.trusted)
    elems = sym.all_ext_symbols(7) + sym.all_h_symbols(3)
    reali = {}

    def R(s):
        if s not in reali:
            reali[s] = realize_ext_symbol(cat, s) if not sym.is_h(s) \
                else realize_h_symbol(cat, s, con)
        return reali[s]

    checked = 0
    for a in elems:
        for b in elems:
            if sym.elem_source(a) != sym.elem_target(b):
                continue
            r = sym.mu(a, b)
            m = cat.compose(R(a), R(b))
            hm = con.H(m)
            pm = con.project(m)
            if r is sym.ZERO:
                assert pm == {}, (a, b)
                assert hm.restrict(trusted).is_zero(), (a, b)
            elif r[0] == "E":
                assert pm == {r[1]: F2.one}, (a, b, r, pm)
                assert hm.restrict(trusted).is_zero(), (a, b)
            elif r[0] == "B":
                assert pm == {}, (a, b)
                assert hm.eq_on(R(r[1]), trusted), (a, b, r)
            elif r[0] == "N":
                assert pm == {}, (a, b)
                assert hm.restrict(trusted).is_zero(), (a, b)
                # the failure of closedness may sit at the right window
                # edge, which is real (only the left edge is truncated)
                interior = set(range(-cat.window + 2, 1))
                assert not cat.differential(m).restrict(interior).is_zero(), \
                    ("terminating composite should not be closed", a, b)
            checked += 1
    assert checked > 800


def test_a2_category_and_classes():
    cat = a2_end_category(F2)
    q = cat.complexes["S1"]
    assert q.check_d_squared()
    assert cat.hom_homology_dims("S1", "S1", range(0, 2)) == {0: 1, 1: 0}
    assert cat.hom_homology_dims("S1", "S2", range(0, 3)) == {0: 0, 1: 1, 2: 0}
    assert cat.hom_homology_dims("S2", "S1", range(0, 2)) == {0: 0, 1: 0}
    con = generic_contraction(cat, -4, 4, a2_class_names())
    assert con.classes("P", "S1", 0) == ["g"]
    assert con.classes("S1", "S2", 1) == ["h"]
    assert con.classes("S2", "S2", 0) == ["1_S2"]


def test_chain_map_json_export():
    from pia2.complexes import chain_map_to_json, realize_ext_symbol
    import json
    cat = pia2_end_category(8, F2)
    e = realize_ext_symbol(cat, ("j", 1))
    doc = chain_map_to_json(cat.chain_map_from_elem(e))
    assert doc["source"] == "Q2" and doc["target"] == "P1"
    assert doc["degree"] == 0 and doc["window"] == [-8, 0]
    assert doc["components"]["0"]["2"] == [[0, 0, "1"]]
    json.dumps(doc)  # serializable
