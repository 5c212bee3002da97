"""Property test: the normalization round trip on generated racks.

An entropic deformation s(h) c_Q (g tensor g), with g = I plus h-multiples
of degree-1 entropic cochains, satisfies the Yang-Baxter equation.  It is
conjugated by alpha = I + h^j m for a random rational m; the degrees below
j stay entropic, so normalization meets both the zero-g and the
conjugating branch.
"""

from hypothesis import given, settings, strategies as st

from test_cohomology_properties import fractions, racks
from ybrack.cohomology import entropic_basis
from ybrack.deformations import normalize_to_entropic, poly_mat_is_entropic
from ybrack.linalg import SparseMat
from ybrack.truncpoly import PolyMat, TruncPoly
from ybrack.yangbaxter import YBOperator, build_cq


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
