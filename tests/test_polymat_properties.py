"""Property tests: PolyMat against a dense per-entry TruncPoly oracle.

The oracle holds a matrix over Q[h]/(h^N) as a list of rows of TruncPoly
and does every operation entry by entry, so it shares nothing with
PolyMat's coefficient-major storage but the scalar type.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ybrack.truncpoly import PolyMat, TruncPoly

PROPS = settings(max_examples=40)

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def polys(order, unit=False):
    """TruncPolys of the given order, half of them zero; unit ones have
    a nonzero constant term."""
    coeffs = st.lists(fractions, min_size=order, max_size=order)
    if unit:
        coeffs = st.tuples(fractions.filter(bool), coeffs).map(
            lambda t: [t[0]] + t[1][1:])
    else:
        coeffs = st.one_of(st.just([0] * order), coeffs)
    return coeffs.map(lambda c: TruncPoly.from_coeffs(c, order))


@st.composite
def dense_mats(draw, dim, order):
    return [[draw(polys(order)) for _ in range(dim)] for _ in range(dim)]


@st.composite
def invertible_dense(draw, dim, order):
    """Unit diagonal entries and zero constants above the diagonal give
    an invertible constant term; the columns are then permuted."""
    rows = draw(dense_mats(dim, order))
    for i in range(dim):
        rows[i][i] = draw(polys(order, unit=True))
        for j in range(i + 1, dim):
            rows[i][j] = rows[i][j] - rows[i][j].constant
    perm = draw(st.permutations(range(dim)))
    return [[row[perm[j]] for j in range(dim)] for row in rows]


sizes = st.tuples(st.integers(1, 4), st.integers(1, 4))


def to_polymat(rows):
    order = rows[0][0].order
    return PolyMat.from_entries(len(rows), order,
                                [(r, c, v) for r, row in enumerate(rows)
                                 for c, v in enumerate(row)])


def to_dense(m):
    return [[m.get(r, c) for c in range(m.dim)] for r in range(m.dim)]


def d_mul(a, b):
    n, order = len(a), a[0][0].order
    return [[sum((a[i][k] * b[k][j] for k in range(n)),
                 TruncPoly.zero(order)) for j in range(n)] for i in range(n)]


def d_identity(n, order):
    return [[TruncPoly.const(int(i == j), order) for j in range(n)]
            for i in range(n)]


@PROPS
@given(sizes.flatmap(lambda s: st.tuples(dense_mats(*s), dense_mats(*s))))
def test_compose_add_sub_match_oracle(pair):
    a, b = pair
    pa, pb = to_polymat(a), to_polymat(b)
    n = len(a)
    assert to_dense(pa.compose(pb)) == d_mul(a, b)
    assert to_dense(pa.add(pb)) == [[a[i][j] + b[i][j] for j in range(n)]
                                    for i in range(n)]
    assert to_dense(pa.sub(pb)) == [[a[i][j] - b[i][j] for j in range(n)]
                                    for i in range(n)]


@PROPS
@given(sizes.flatmap(lambda s: st.tuples(
    dense_mats(*s), polys(s[1]), fractions)))
def test_scaled_matches_oracle(case):
    a, s, q = case
    pa = to_polymat(a)
    assert to_dense(pa.scaled(s)) == [[v * s for v in row] for row in a]
    assert to_dense(pa.scaled(q)) == [[v * q for v in row] for row in a]


@PROPS
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
       .flatmap(lambda s: st.tuples(dense_mats(s[0], s[2]),
                                    dense_mats(s[1], s[2]))))
def test_tensor_matches_oracle(pair):
    a, b = pair
    n, m = len(a), len(b)
    want = [[a[i // m][j // m] * b[i % m][j % m] for j in range(n * m)]
            for i in range(n * m)]
    assert to_dense(to_polymat(a).tensor(to_polymat(b))) == want


@PROPS
@given(sizes.flatmap(lambda s: invertible_dense(*s)))
def test_inverse_is_oracle_inverse(a):
    inv = to_dense(to_polymat(a).inverse())
    ident = d_identity(len(a), a[0][0].order)
    assert d_mul(a, inv) == ident
    assert d_mul(inv, a) == ident


@PROPS
@given(sizes.flatmap(lambda s: dense_mats(*s)))
def test_trace_matches_oracle(a):
    want = sum((a[i][i] for i in range(len(a))), TruncPoly.zero(a[0][0].order))
    assert to_polymat(a).trace() == want


@PROPS
@given(sizes.flatmap(lambda s: st.tuples(dense_mats(*s), st.integers(1, 5))))
def test_lift_matches_oracle(case):
    a, order = case
    assert to_dense(to_polymat(a).lift(order)) \
        == [[v.lift(order) for v in row] for row in a]


@PROPS
@given(sizes.flatmap(lambda s: dense_mats(*s)))
def test_json_round_trip_and_entries(a):
    m = to_polymat(a)
    data = m.to_json()
    assert data["entries"] == [[r, c, v.to_json()]
                               for r, row in enumerate(a)
                               for c, v in enumerate(row) if not v.is_zero()]
    assert PolyMat.from_json(data) == m
    assert [(r, c, v) for r, c, v in m.entries()] \
        == [(r, c, v) for r, row in enumerate(a)
            for c, v in enumerate(row) if not v.is_zero()]
