import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import from_rows
from pia2.linalg import (F2, QQ, SparseMatrix, field_by_name, mat_mul, mat_vec,
                         rref, solve)


def test_field_arithmetic_exact():
    assert F2.of(1 + 1) == 0
    assert QQ.of(1) + QQ.of(-1) == 0
    assert QQ.div(Fraction(1), Fraction(3)) * 3 == 1
    with pytest.raises(ZeroDivisionError):
        F2.div(1, 0)


@pytest.mark.parametrize("field, half", [(F2, 1), (QQ, Fraction(1, 2))],
                         ids=["f2", "q"])
def test_accumulate_drops_zero_sums(field, half):
    """vec[key] += value, and a key whose sum is zero is removed: 1 + 1
    over F2, 1/2 + (-1/2) over Q."""
    vec = {"a": field.one}
    field.accumulate(vec, "k", half)
    assert vec == {"a": field.one, "k": half}
    field.accumulate(vec, "k", field.neg(half))
    assert vec == {"a": field.one}
    # zero added to an absent key stores nothing
    field.accumulate(vec, "z", field.zero)
    assert vec == {"a": field.one}
    # a sum that stays nonzero is stored in the field's own scalar type
    field.accumulate(vec, "a", field.one)
    field.accumulate(vec, "a", field.one)
    want = field.one if field is F2 else Fraction(3)
    assert vec == {"a": want}
    assert type(vec["a"]) is type(field.one)


def test_field_by_name_reads_the_two_names_in_use():
    """The CLI's --field choices and table metadata name a field "f2" or
    "q"; any other name is refused."""
    assert field_by_name("f2") is F2 and field_by_name("q") is QQ
    for name in ("F2", "gf2", "Q", "QQ", "f3", ""):
        with pytest.raises(ValueError, match="unknown field"):
            field_by_name(name)


def test_accumulate_sums_match_field_add():
    """A run of accumulations holds what repeated addition in the field
    (`field.of(a + b)`) gives, with exactly the zero sums left out."""
    rng = random.Random(7)
    for field in (F2, QQ):
        vec, ref = {}, {}
        for _ in range(400):
            key, value = rng.randrange(6), field.of(rng.randrange(-2, 3))
            field.accumulate(vec, key, value)
            ref[key] = field.of(ref.get(key, field.zero) + value)
        assert vec == {k: v for k, v in ref.items() if v}
        assert all(type(v) is type(field.one) for v in vec.values())


def test_matmul_identity_and_zero():
    m = from_rows([[1, 2], [0, 3], [4, 0]], QQ)
    assert mat_mul(SparseMatrix.identity(3, QQ), m) == m
    assert mat_mul(m, SparseMatrix.identity(2, QQ)) == m
    z = SparseMatrix.zero(5, 3, QQ)
    assert mat_mul(z, m).is_zero()


def test_matmul_characteristic_two_cancellation():
    a = from_rows([[1, 1], [1, 1]], F2)
    b = from_rows([[1], [1]], F2)
    assert mat_mul(a, b).is_zero()


def test_matmul_shape_and_field_errors():
    a = SparseMatrix.zero(2, 3, F2)
    with pytest.raises(ValueError):
        mat_mul(a, SparseMatrix.zero(2, 2, F2))
    with pytest.raises(ValueError):
        mat_mul(a, SparseMatrix.zero(3, 1, QQ))


def test_no_stored_zeros_and_duplicates():
    m = SparseMatrix(2, 2, QQ, {(0, 0): Fraction(0), (1, 1): Fraction(2)})
    assert (0, 0) not in m.entries
    with pytest.raises(IndexError):
        SparseMatrix(2, 2, F2, {(2, 0): 1})


def test_rref_identity_and_zero():
    rank, piv, ker = rref(SparseMatrix.identity(4, QQ))
    assert rank == 4 and piv == [0, 1, 2, 3] and ker == []
    rank, piv, ker = rref(SparseMatrix.zero(3, 3, F2))
    assert rank == 0 and len(ker) == 3


def test_rref_rank_one_symmetric():
    m = from_rows([[1, 1], [1, 1]], QQ)
    rank, _piv, ker = rref(m)
    assert rank == 1
    assert len(ker) == 1
    v = ker[0]
    # kernel spanned by (1, -1)
    assert v[0] == -v[1]


def _random_matrix(rng, rows, cols, field):
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.5:
                v = rng.randint(-3, 3)
                if v:
                    ent[(r, c)] = field.of(v)
    return SparseMatrix(rows, cols, field, ent)


@pytest.mark.parametrize("field", [F2, QQ])
def test_rank_nullity_on_random_matrices(field):
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, field)
        rank, _piv, ker = rref(m)
        assert rank + len(ker) == cols
        for v in ker:
            assert mat_vec(m, v) == {}


@pytest.mark.parametrize("field", [F2, QQ])
def test_matmul_associative_on_random_triples(field):
    rng = random.Random(11)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 4), 3, field)
        b = _random_matrix(rng, 3, rng.randint(1, 4), field)
        c = _random_matrix(rng, b.cols, rng.randint(1, 4), field)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_solve_consistency(rows):
    m = from_rows(rows, QQ)
    rank, _piv, ker = rref(m)
    # any image vector is solvable and the solution reproduces it
    x = {c: QQ.of(c + 1) for c in range(3)}
    target = mat_vec(m, x)
    sol = solve(m, target)
    assert sol is not None
    assert mat_vec(m, sol) == target


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_solve_returns_none_when_inconsistent_and_a_solution_otherwise(field):
    """The third row is the sum of the first two over either field, so
    m*x = t is consistent exactly when t_2 = t_0 + t_1: (1, 0, 0) has no
    solution, and the solution for (1, 3, 4) gives that target back."""
    m = from_rows([[1, 1, 0], [0, 1, 1], [1, 2, 1]], field)
    assert solve(m, {0: field.one}) is None
    target = {r: field.of(v) for r, v in ((0, 1), (1, 3), (2, 4)) if field.of(v)}
    sol = solve(m, target)
    assert sol is not None
    assert mat_vec(m, sol) == target


def test_qq_scalars_are_ints_until_a_division_needs_a_fraction():
    """QQ's constants and coercions are ints; a quotient is an int when it
    is integral and a Fraction only when it is not."""
    assert all(type(x) is int for x in (QQ.one, QQ.zero, QQ.of(3), QQ.sign(1)))
    for a, b, want in ((3, 3, 1), (-6, 3, -2), (5, -1, -5),
                       (Fraction(2, 3), Fraction(1, 3), 2)):
        q = QQ.div(a, b)
        assert q == want and type(q) is int
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
