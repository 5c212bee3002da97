"""Property tests: JSON round trips of racks, operators and entropic
bases on generated inputs, through json.dumps and json.loads."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from test_cohomology_properties import racks
from ybrack.cohomology import entropic_basis
from ybrack.racks import rack_from_json
from ybrack.truncpoly import PolyMat, TruncPoly

PROPS = settings(max_examples=50)

BIG = 10 ** 40
# mostly zero, so that whole h-parts of a matrix come out empty, and
# otherwise small or with numerators and denominators far past 64 bits
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


def through_json(data):
    return json.loads(json.dumps(data))


@st.composite
def truncpolys(draw, order=None):
    if order is None:
        order = draw(st.integers(1, 5))
    return TruncPoly.from_coeffs(
        draw(st.lists(coefficients, min_size=order, max_size=order)), order)


@st.composite
def polymats(draw):
    dim = draw(st.integers(0, 4))
    order = draw(st.integers(1, 5))
    if not dim:
        return PolyMat(0, order)
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    entries = draw(st.dictionaries(cells, truncpolys(order), max_size=8))
    return PolyMat.from_entries(dim, order,
                                ((r, c, v) for (r, c), v in entries.items()))


@PROPS
@given(racks(max_size=6))
def test_rack_json_round_trip(rack):
    assert rack_from_json(through_json(rack.to_json())) == rack


@PROPS
@given(polymats())
def test_polymat_json_round_trip(m):
    assert PolyMat.from_json(through_json(m.to_json())) == m


@PROPS
@given(truncpolys(), st.integers(0, 3))
def test_truncpoly_json_round_trip(t, pad):
    data = through_json(t.to_json())
    assert TruncPoly.from_json(data, t.order) == t
    assert TruncPoly.from_json(data, t.order + pad) == t.lift(t.order + pad)


@PROPS
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(racks(max_size=4 if d < 3 else 3), st.just(d))))
def test_entropic_basis_json_round_trip(rack_degree):
    basis = entropic_basis(*rack_degree)
    data = through_json(basis.to_json())
    assert (data["rack_size"], data["degree"]) == (rack_degree[0].size,
                                                   rack_degree[1])
    assert tuple(tuple((tuple(x), tuple(y)) for x, y in orbit)
                 for orbit in data["orbits"]) == basis.orbits


def test_polymat_reads_a_float_coefficient_from_its_decimal_text():
    m = PolyMat.from_json({"dim": 1, "trunc": 2,
                           "entries": [[0, 0, [0.1, 2]]]})
    assert list(m.entries()) == [(0, 0, TruncPoly.from_coeffs(
        [Fraction(1, 10), Fraction(2)], 2))]
