import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pia2 import symbols as sym
from helpers import (all_ext_symbols, all_h_symbols, composable_pairs,
                     elem_degree, elem_source, elem_target, ext_g, ext_u,
                     h_degree, h_sym, is_identity, kappa_h)


def test_degrees_and_endpoints():
    assert sym.ext_degree(("j", 1)) == 0
    assert sym.ext_degree(ext_u(1, 3)) == 6
    assert sym.ext_degree(ext_g(2, 2)) == 5
    assert sym.ext_source(("j", 1)) == "S2" and sym.ext_target(("j", 1)) == "P1"
    assert sym.ext_source(sym.E12) == "P1" and sym.ext_target(sym.E12) == "P2"
    assert sym.ext_source(ext_g(1, 0)) == "S2"  # alpha: S2 -> S1
    assert ext_u(1, 0) == ("1", "S1")


def test_fact_functions_refuse_what_is_not_a_symbol_of_their_grammar():
    """Each Ext fact function raises ValueError on a tuple that names no
    row of the Ext kind table (an H symbol, an unknown kind, an index or
    object out of range), and mu on an H-tagged tuple that names no row
    of the H kind table."""
    for x in (h_sym("ss", 1, 1), ("x", 1), ("j", 3), ("1", "S3"), ()):
        for f in (sym.ext_source, sym.ext_target, sym.ext_degree,
                  sym.ext_to_str, sym.kappa_ext):
            with pytest.raises(ValueError, match="not an Ext symbol"):
                f(x)
    for h in (("h", "sx", 1, 0), ("h", "ss", 3, 1), ("h",)):
        for a, b in ((h, ("j", 1)), (("p", 1), h)):
            with pytest.raises(ValueError, match="not an H symbol"):
                sym.mu(a, b)


def test_h_degrees_match_contraction_bookkeeping():
    # H lowers degree by one: each table entry drops the degree of its
    # defining product by exactly one
    assert h_degree(h_sym("sn", 1, 0)) == -1          # H(p1 j1)
    assert h_degree(h_sym("ps", 1, 2)) == 4           # H(j1 b.u1^2)
    assert h_degree(h_sym("pn_s", 1, 1)) == 3         # H(j2 u1^2)
    assert h_degree(h_sym("ss", 1, 2)) == -4
    assert h_degree(h_sym("sp", 2, 1)) == -2
    assert h_degree(h_sym("pn_t", 2, 0)) == -1
    with pytest.raises(ValueError):
        h_sym("ss", 1, 0)


def test_hom_basis_examples():
    assert sym.hom_names("P1", "P2", 5) == ["(12)"]
    assert sym.hom_names("S1", "S1", 4) == ["1_S1", "u1^1", "u1^2"]
    assert sym.hom_basis("S1", "P1", 4) == []
    assert sym.hom_names("S2", "S1", 5) == ["a.u2^0", "a.u2^1", "a.u2^2"]
    assert sym.hom_names("P2", "P2", 0) == ["1_P2"]


def test_classes_are_the_hom_basis_of_one_degree():
    """classes(x, y, d) is the hom basis up to max(d, 0) by string, cut to
    the symbols of degree d (none below 0), on every object pair."""
    found = 0
    for x in sym.OBJECTS:
        for y in sym.OBJECTS:
            for d in range(-2, 15):
                want = [s for s in sym.hom_names(x, y, max(d, 0))
                        if sym.SYMBOLS[s][3] == d]
                assert sym.classes(x, y, d) == want, (x, y, d)
                found += len(want)
    assert found == 38


def test_symbols_table():
    """Each canonical string gives its grammar tuple, source, target and
    degree, at any degree; anything else is no key and is not stored."""
    for x in sym.OBJECTS:
        for y in sym.OBJECTS:
            for s, e in zip(sym.hom_names(x, y, 9), sym.hom_basis(x, y, 9)):
                assert sym.SYMBOLS[s] == (e, x, y, sym.ext_degree(e))
    assert sym.SYMBOLS["u1^37"] == (("u", 1, 37), "S1", "S1", 74)
    for bad in ("u1^0", "u1^-1", "a.u2^-1", "u1^02", "1_P", "j3", "zz", 5,
                ("j", 1), "(12)^1", "j1^2", "p12", "a.u1^0", "b.u2^0", "(11)",
                "u1", "u1^1^2", b"j1"):
        with pytest.raises(KeyError):
            sym.SYMBOLS[bad]
        assert bad not in sym.SYMBOLS


def test_grammar_facts_are_pinned():
    """Every symbol's record and kappa image up to degree 30, and the hom
    bases of all 16 object pairs in their order, hash to the digest the
    per-kind if-chains gave before the kind tables replaced them."""
    lines = []
    for x in sym.OBJECTS:
        for y in sym.OBJECTS:
            names = sym.hom_names(x, y, 30)
            lines.append(f"{x} {y} {' '.join(names)}")
            lines += [f"{s} {sym.SYMBOLS[s]!r} {sym.kappa_str(s)}" for s in names]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        86, "186fd8b066ea8451ed282a3657b7183b340cecad7cff8b886b4c52fe3fa6e8bc")


def test_kappa_str_is_a_memoized_involution():
    """kappa_str relabels 1 <-> 2 and keeps its image: on every hom_names
    symbol of degree <= 12 the image lies between the relabeled objects,
    is the grammar's relabeling, is stored, and maps back.  A string that
    names no symbol raises KeyError and leaves the memo as it was."""
    for x in sym.OBJECTS:
        for y in sym.OBJECTS:
            kx, ky = sym.kappa_object(x), sym.kappa_object(y)
            for s in sym.hom_names(x, y, 12):
                k = sym.kappa_str(s)
                assert k in sym.hom_names(kx, ky, 12) and k != s
                assert k == sym.ext_to_str(sym.kappa_ext(sym.SYMBOLS[s][0]))
                assert sym._KAPPA[s] == k
                assert sym.kappa_str(k) == s
    before = dict(sym._KAPPA)
    for bad in ("u1^0", "u1^02", "1_P", "j3", "zz", 5, ("j", 1), "b.u2^0", b"j1"):
        with pytest.raises(KeyError):
            sym.kappa_str(bad)
        assert bad not in sym._KAPPA
    assert sym._KAPPA == before


def test_importing_the_package_fills_no_table():
    """The symbols table and the kappa images are filled on first use:
    importing the package stores no string."""
    src = str(Path(sym.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import pia2.cli, pia2.symbols as s; print(len(s.SYMBOLS), len(s._KAPPA))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "0 0"


def test_string_roundtrip():
    for s in all_ext_symbols(7, include_identities=True):
        assert sym.ext_from_str(sym.ext_to_str(s)) == s


def test_mu_table_entries():
    # composition rules
    assert sym.mu(ext_g(1, 1), ext_g(2, 2)) == ("E", ext_u(1, 4))
    assert sym.mu(("j", 1), ("p", 2)) == ("E", sym.E21)
    assert sym.mu(ext_u(2, 1), ext_g(2, 1)) == ("E", ext_g(2, 2))
    # Kronecker delta collapses at lookup time
    h = h_sym("pn_t", 1, 2)  # h(S1,P2)^2
    assert sym.mu(h_sym("pn_s", 1, 2), h) == ("E", ("1", "P2"))
    assert sym.mu(h_sym("pn_s", 1, 1), h) is sym.ZERO
    # terminating non-cycles carry their constructor name
    r = sym.mu(h_sym("ss", 1, 2), ext_u(1, 1))
    assert r[0] == "N" and r[1] == "h_ss.u"
    # everything not listed is zero
    assert sym.mu(sym.E12, sym.E21) is sym.ZERO
    assert sym.mu(sym.E12, ("j", 1)) is sym.ZERO
    assert sym.mu(ext_u(1, 2), ("p", 1)) is sym.ZERO


def test_products_are_pinned():
    """Every product over composable_pairs(8), as its factors, its tag and
    its output (an N tag by name), hashes to the digest the per-rule case
    analysis gave before the product table replaced it."""
    lines = []
    for a, b in composable_pairs(8):
        r = sym.mu(a, b)
        lines.append(f"{a} {b} " + ("0" if r is sym.ZERO else f"{r[0]} {r[1]}"))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        6272, "196326166de2601438a12f21cd2d3e26c359da7d872a32a941e3fbd7825801e8")


def test_mu_requires_composability():
    with pytest.raises(ValueError):
        sym.mu(("j", 1), ("p", 1))


def test_mu_refuses_identity_factors():
    """The unit laws are applied before any product is looked up, so an
    identity factor on either side is refused, not read as a zero product
    (1 o u1^1 would otherwise fall through to ZERO)."""
    for a, b in ((("1", "S1"), ext_u(1, 1)),
                 (ext_u(1, 1), ("1", "S1")),
                 (("1", "P1"), ("j", 1)),
                 (h_sym("pn_s", 1, 0), ("1", "S1"))):
        with pytest.raises(ValueError, match="identity factor"):
            sym.mu(a, b)


def test_h_apply_tables():
    # initial homotopies
    assert sym.h_apply(sym.mu(("p", 1), ("j", 1))) == h_sym("sn", 1, 0)
    assert sym.h_apply(sym.mu(("j", 1), ext_g(2, 2))) == h_sym("ps", 1, 2)
    assert sym.h_apply(sym.mu(("p", 2), sym.E12)) == h_sym("pn_t", 2, 0)
    assert sym.h_apply(sym.mu(("j", 2), ext_u(1, 3))) == h_sym("pn_s", 1, 2)
    # inductive extensions
    assert sym.h_apply(sym.mu(h_sym("pn_t", 1, 1), ("j", 2))) == \
        h_sym("ss", 1, 2)
    assert sym.h_apply(sym.mu(h_sym("pn_t", 1, 1), sym.E12)) == \
        h_sym("sp", 1, 2)
    assert sym.h_apply(sym.mu(sym.E21, h_sym("pn_s", 1, 0))) == \
        h_sym("ps", 1, 0)
    # zero on anything representing a cycle
    assert sym.h_apply(("E", ext_u(1, 2))) is sym.ZERO
    assert sym.h_apply(sym.ZERO) is sym.ZERO
    r = sym.mu(h_sym("sn", 1, 1), ext_u(2, 1))
    assert sym.h_apply(r) is sym.ZERO


def test_h_of_a_product_of_two_h_symbols_is_zero():
    """The side condition H(mu(H x, H y)) = 0, on every composable pair of
    H symbols of index <= 7: a product of two H symbols is an identity, a
    terminating non-cycle or zero, never an H image, so a point query sums
    only the end cuts of a slice.  Some of the products are nonzero."""
    hs = all_h_symbols(7)
    pairs = [(a, b) for a in hs for b in hs
             if elem_source(a) == elem_target(b)]
    assert len(pairs) == 2340
    products = [sym.mu(a, b) for a, b in pairs]
    assert [p for p, m in zip(pairs, products)
            if sym.h_apply(m) is not sym.ZERO] == []
    assert {m[0] for m in products if m is not sym.ZERO} == {"E", "N"}


def test_no_product_of_two_h_kinds_names_an_h_kind():
    """The side condition H(mu(H x, H y)) = 0 at every index, read off the
    table: no PRODUCTS row keyed by two H kinds names an H kind, so no
    product of two H symbols is a B tag."""
    h_kinds = {k for k, _i in sym.H_KINDS}
    rows = {pair: outs for pair, outs in sym.PRODUCTS.items()
            if set(pair) <= h_kinds}
    assert len(rows) == 6
    assert [pair for pair, outs in rows.items() if h_kinds & set(outs)] == []


def test_class_reads():
    # compositions of homotopies with algebra elements land on classes
    assert sym.p_apply(sym.mu(ext_u(1, 3), h_sym("sn", 1, 1))) == \
        ext_g(1, 1)
    assert sym.p_apply(sym.mu(ext_u(1, 1), h_sym("sn", 1, 1))) is sym.ZERO
    assert sym.p_apply(sym.mu(ext_g(2, 2), h_sym("ss", 1, 2))) == \
        ext_g(2, 0)
    assert sym.p_apply(sym.mu(("p", 1), h_sym("ps", 1, 2))) == ext_u(1, 2)
    assert sym.p_apply(sym.mu(("p", 2), h_sym("pn_s", 1, 1))) == ext_g(2, 1)
    assert sym.p_apply(sym.mu(h_sym("ps", 1, 0), ("p", 1))) == ("1", "P1")
    assert sym.p_apply(sym.mu(h_sym("ps", 1, 2), ("p", 1))) is sym.ZERO


def test_kappa_equivariance_and_degree_additivity():
    elems = all_ext_symbols(5) + all_h_symbols(2)
    for a in elems:
        for b in elems:
            if elem_source(a) != elem_target(b):
                continue
            r = sym.mu(a, b)
            ka = kappa_h(a) if sym.is_h(a) else sym.kappa_ext(a)
            kb = kappa_h(b) if sym.is_h(b) else sym.kappa_ext(b)
            kr = sym.mu(ka, kb)
            # mirror symmetry of the whole table
            if r is sym.ZERO:
                assert kr is sym.ZERO
            elif r[0] == "E":
                assert kr == ("E", sym.kappa_ext(r[1]))
            elif r[0] == "B":
                assert kr == ("B", kappa_h(r[1]))
            else:
                assert kr[0] == r[0] and kr[1] == r[1]
            # degree bookkeeping
            if r is not sym.ZERO and r[0] == "E" and not is_identity(r[1]):
                assert sym.ext_degree(r[1]) == elem_degree(a) + elem_degree(b)
            if r is not sym.ZERO and r[0] == "B":
                assert h_degree(r[1]) == \
                    elem_degree(a) + elem_degree(b) - 1

