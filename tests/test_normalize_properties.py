"""Property tests: the normalization round trip on generated racks, and
the slot-kernel conjugation against the dense tensor-square formula.

An entropic deformation s(h) c_Q (g tensor g), with g = I plus h-multiples
of degree-1 entropic cochains, satisfies the Yang-Baxter equation.  It is
conjugated by alpha = I + h^j m for a random rational m; the degrees below
j stay entropic, so normalization meets both the zero-g and the
conjugating branch.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from test_cohomology_properties import fractions, racks
from test_polymat_properties import from_parts
from ybrack.cohomology import entropic_basis
from ybrack.deformations import (Equivalence, normalize_to_entropic,
                                 poly_mat_is_entropic)
from ybrack.linalg import DimensionMismatch, SparseMat
from ybrack.racks import dihedral_rack
from ybrack.truncpoly import PolyMat, TruncPoly, _int_blocks
from ybrack.yangbaxter import YBOperator, build_cq, conjugate


@st.composite
def conjugated_deformations(draw):
    rack = draw(racks())
    n = rack.size
    trunc = draw(st.integers(3, 4))
    g = PolyMat.identity(n, trunc)
    for cochain in entropic_basis(rack, 1).cochains():
        for k in range(1, trunc):
            g = g.add(PolyMat.from_rational(cochain, trunc, k)
                      .scaled(draw(fractions)))
    scalar = TruncPoly.from_coeffs(
        [1] + [draw(fractions) for _ in range(trunc - 1)], trunc)
    origin = build_cq(rack, trunc).mat.compose(g.tensor(g)).scaled(scalar)
    j = draw(st.integers(1, trunc - 1))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    m = draw(st.dictionaries(cells, fractions, min_size=n, max_size=2 * n))
    alpha = PolyMat.identity(n, trunc).add(PolyMat.from_rational(
        SparseMat(n, n, {k: v for k, v in m.items() if v}), trunc, j))
    aa = alpha.tensor(alpha)
    return rack, YBOperator(n, aa.inverse().compose(origin).compose(aa))


@settings(max_examples=30)
@given(conjugated_deformations())
def test_normalize_round_trip_on_generated_racks(rack_op):
    rack, op = rack_op
    alpha, out = normalize_to_entropic(op, rack)
    assert alpha.conjugate(op) == out
    cq = build_cq(rack, op.trunc)
    residual = cq.mat.inverse().compose(out.mat).sub(
        PolyMat.identity(op.dim, op.trunc))
    assert poly_mat_is_entropic(rack, residual)


# large, coprime-ish denominators, so the common u = h/D and d0 matter
wide_fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                           st.sampled_from([1, 3, 7, 97, 1024, 65537,
                                            10 ** 9 + 7]))


@st.composite
def poly_mats(draw, dim, trunc, constant):
    """A dim x dim matrix over Q[h]/(h^trunc): the given constant term
    (drawn when None) plus random sparse h^k coefficients."""
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    parts = []
    for k in range(trunc):
        if k == 0 and constant is not None:
            parts.append(constant)
            continue
        m = draw(st.dictionaries(cells, wide_fractions, max_size=dim * dim))
        parts.append(SparseMat(dim, dim, {c: v for c, v in m.items() if v}))
    return from_parts(dim, trunc, parts)


@st.composite
def conjugation_cases(draw):
    n = draw(st.integers(1, 3))
    trunc = draw(st.integers(1, 4))
    alpha = draw(poly_mats(n, trunc, SparseMat.identity(n)))
    # the constant term is drawn too, so that d0(op) > 1 occurs
    op = draw(poly_mats(n * n, trunc, None))
    return Equivalence(alpha), YBOperator(n, op)


@st.composite
def invertible_constants(draw, n):
    """An invertible n x n rational matrix with a denominator > 1: a
    lower triangle with nonzero diagonal, its columns permuted."""
    cells = {(r, c): draw(wide_fractions)
             for r in range(n) for c in range(r)}
    cells.update({(i, i): draw(wide_fractions.filter(bool))
                  for i in range(n)})
    cells[(0, 0)] = draw(wide_fractions.filter(lambda v: v.denominator > 1))
    perm = draw(st.permutations(range(n)))
    return SparseMat(n, n, {(r, perm[c]): v for (r, c), v in cells.items()
                            if v})


@st.composite
def general_conjugation_cases(draw):
    """(alpha, op) with d0(alpha) > 1: alpha's constant term invertible
    and not the identity."""
    n = draw(st.integers(1, 3))
    trunc = draw(st.integers(1, 4))
    alpha = draw(poly_mats(n, trunc, draw(invertible_constants(n))))
    return alpha, YBOperator(n, draw(poly_mats(n * n, trunc, None)))


def dense_conjugate(alpha, op):
    """The tensor-square formula (alpha^-1 x alpha^-1) c (alpha x alpha)."""
    inv = alpha.inverse()
    return inv.tensor(inv).compose(op.mat).compose(alpha.tensor(alpha))


# denominators in d0(c), in D(c) and in D(alpha), on every power of h
SCALED = (
    Equivalence(from_parts(2, 3, [
        SparseMat.identity(2), SparseMat(2, 2, {(0, 1): Fraction(1, 5)}),
        SparseMat(2, 2, {(1, 0): Fraction(-7, 9), (1, 1): Fraction(2)})])),
    YBOperator(2, from_parts(4, 3, [
        SparseMat(4, 4, {(0, 0): Fraction(1, 2), (3, 1): Fraction(-2, 3),
                         (1, 3): Fraction(5, 7), (2, 2): Fraction(1)}),
        SparseMat(4, 4, {(1, 2): Fraction(3, 11)}),
        SparseMat(4, 4, {(0, 3): Fraction(1, 13), (2, 0): Fraction(4)})])))


@settings(max_examples=60, deadline=None)
@given(conjugation_cases())
@example(SCALED)
def test_conjugate_matches_the_tensor_square_formula(case):
    alpha, op = case
    out = alpha.conjugate(op)
    want = dense_conjugate(alpha.mat, op)
    assert out.rack_size == op.rack_size
    assert (out.mat.dim, out.mat.order) == (want.dim, want.order)
    for k in range(op.trunc):
        assert out.mat.coefficient_matrix(k) == want.coefficient_matrix(k)


@settings(max_examples=40, deadline=None)
@given(general_conjugation_cases())
@example((SCALED[0].mat.add(PolyMat.from_rational(
    SparseMat(2, 2, {(0, 0): Fraction(-2, 3), (1, 0): Fraction(5)}), 3)),
    SCALED[1]))
def test_conjugate_by_a_general_alpha_matches_the_formula(case):
    alpha, op = case
    # d0 > 1: the constant term of alpha has a denominator
    assert _int_blocks([alpha])[1][0] > 1
    out = conjugate(op, alpha)
    assert out.rack_size == op.rack_size
    assert out.mat == dense_conjugate(alpha, op)


def test_conjugate_rejects_a_rack_size_mismatch():
    alpha = Equivalence(PolyMat.identity(2, 3))
    with pytest.raises(DimensionMismatch):
        alpha.conjugate(build_cq(dihedral_rack(3), 3))


def test_conjugate_rejects_a_trunc_mismatch():
    alpha = Equivalence(PolyMat.identity(3, 3))
    with pytest.raises(DimensionMismatch):
        alpha.conjugate(build_cq(dihedral_rack(3), 4))
