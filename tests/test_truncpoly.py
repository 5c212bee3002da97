import random
from fractions import Fraction

import pytest

from ybrack.linalg import SparseMat, invert_rational
from ybrack.truncpoly import PolyMat, TruncPoly

F = Fraction


def test_truncation_drops_high_degrees():
    h = TruncPoly.from_coeffs([0, 1], 3)
    assert (h * h * h).is_zero()
    assert (h * h) == TruncPoly.from_coeffs([0, 0, 1], 3)


def test_product_example():
    a = TruncPoly.from_coeffs([1, 1], 3)       # 1 + h
    b = TruncPoly.from_coeffs([1, -1], 3)      # 1 - h
    assert a * b == TruncPoly.from_coeffs([1, 0, -1], 3)


def test_geometric_inverse():
    a = TruncPoly.from_coeffs([1, 1], 4)  # 1 + h
    inv = a.inverse()
    assert inv == TruncPoly.from_coeffs([1, -1, 1, -1], 4)
    assert a * inv == TruncPoly.one(4)


def test_inverse_random_round_trip():
    rng = random.Random(9)
    for order in range(1, 7):
        for _ in range(20):
            const = F(rng.choice([-1, 1]) * rng.randint(1, 5),
                      rng.randint(1, 4))
            coeffs = [const] + [F(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(order - 1)]
            p = TruncPoly.from_coeffs(coeffs, order)
            assert p * p.inverse() == TruncPoly.one(order)


def test_inverse_requires_unit_constant():
    with pytest.raises(ZeroDivisionError):
        TruncPoly.from_coeffs([0, 1], 2).inverse()


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError):
        TruncPoly.one(2) + TruncPoly.one(3)


def test_scalar_promotion_and_order_one():
    p = TruncPoly.const(F(1, 2), 1)
    assert p + 1 == TruncPoly.const(F(3, 2), 1)
    assert 2 * p == TruncPoly.one(1)


def test_lift_and_coeff():
    p = TruncPoly.from_coeffs([1, 2], 2)
    q = p.lift(4)
    assert q.order == 4 and q.coeff(1) == 2 and q.coeff(3) == 0
    assert q.lift(2) == p


def test_json_round_trip():
    p = TruncPoly.from_coeffs([F(1, 2), F(-3), 0], 3)
    assert TruncPoly.from_json(p.to_json(), 3) == p


# -- matrices over the truncated ring -------------------------------------

def _rand_polymat(n, order, rng, unit_constant=True):
    m = PolyMat.identity(n, order) if unit_constant else PolyMat(n, order)
    cells = {(r, c): v for r, c, v in m.entries()}
    for k in range(0 if not unit_constant else 1, order):
        for _ in range(2 * n):
            r, c = rng.randrange(n), rng.randrange(n)
            cur = cells.get((r, c), TruncPoly.zero(order))
            cells[(r, c)] = cur + TruncPoly.from_coeffs(
                [0] * k + [F(rng.randint(-3, 3), rng.randint(1, 3))], order)
    return PolyMat.from_entries(n, order, ((r, c, v)
                                           for (r, c), v in cells.items()))


def test_polymat_inverse_round_trip():
    rng = random.Random(12)
    for _ in range(10):
        m = _rand_polymat(4, 3, rng)
        ident = PolyMat.identity(4, 3)
        assert m.compose(m.inverse()) == ident
        assert m.inverse().compose(m) == ident


def test_polymat_inverse_rejects_singular_constant():
    m = PolyMat.from_rational(SparseMat.from_dense([[1, 1], [1, 1]]), 2)
    with pytest.raises(ZeroDivisionError):
        m.inverse()


def test_polymat_tensor_shape_and_entries():
    a = PolyMat.from_rational(SparseMat.from_dense([[2, 0], [0, 3]]), 1)
    b = PolyMat.from_rational(SparseMat.from_dense([[1, 1], [0, 1]]), 1)
    t = a.tensor(b)
    assert t.dim == 4
    assert t.get(0, 1) == TruncPoly.const(2, 1)     # a[0,0]*b[0,1]
    assert t.get(2, 2) == TruncPoly.const(3, 1)     # a[1,1]*b[0,0]


def test_polymat_power_and_trace():
    m = PolyMat.from_rational(SparseMat.from_dense([[0, 1], [1, 0]]), 1)
    assert m.power(2) == PolyMat.identity(2, 1)
    assert m.trace() == TruncPoly.zero(1)
    assert m.power(0) == PolyMat.identity(2, 1)


def test_polymat_coefficient_matrix_and_lift():
    base = SparseMat.from_dense([[1, 2], [0, 1]])
    m = PolyMat.from_rational(base, 3, h_degree=2)
    assert m.coefficient_matrix(2) == base
    assert m.coefficient_matrix(0).is_zero()
    assert m.lift(5).coefficient_matrix(2) == base


def test_polymat_json_round_trip():
    rng = random.Random(13)
    m = _rand_polymat(3, 2, rng)
    assert PolyMat.from_json(m.to_json()) == m


def test_invert_rational():
    m = SparseMat.from_dense([[2, 1], [1, 1]])
    inv = invert_rational(m)
    assert m.matmul(inv) == SparseMat.identity(2)
    with pytest.raises(ZeroDivisionError):
        invert_rational(SparseMat.from_dense([[1, 2], [2, 4]]))
