"""Property tests: PolyMat against a dense per-entry TruncPoly oracle.

The oracle holds a matrix over Q[h]/(h^N) as a list of rows of TruncPoly
and does every operation entry by entry, so it shares nothing with
PolyMat's coefficient-major storage but the scalar type.  compose and
inverse, which run on the integer slot kernel, are also checked against
the rational convolution and the order-by-order recurrence they replaced.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from ybrack.linalg import SparseMat
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


def from_parts(dim, order, parts):
    """The PolyMat whose h^k coefficient is the rational matrix parts[k],
    built by from_entries."""
    coeffs = {}
    for k, part in enumerate(parts):
        for key, v in part.entries.items():
            coeffs.setdefault(key, [0] * order)[k] = v
    return PolyMat.from_entries(dim, order, [
        (r, c, TruncPoly.from_coeffs(v)) for (r, c), v in coeffs.items()])


def gauss_jordan_inverse(m):
    """The inverse of an invertible rational SparseMat, by Gauss-Jordan
    elimination on dense rows of Fractions."""
    n = m.rows
    rows = [[m.get(r, c) for c in range(n)] + [Fraction(int(r == c))
                                               for c in range(n)]
            for r in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        pivot = [v / rows[p][c] for v in rows[p]]
        rows[p] = rows[c]
        rows[c] = pivot
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return SparseMat.from_dense([row[n:] for row in rows])


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


def fixed_dense(dim, order):
    """A fixed dense matrix over Q[h]/(h^order) with zero and fractional
    coefficients, for explicit examples."""
    return [[TruncPoly.from_coeffs(
        [Fraction((3 * r + 5 * c + 7 * k) % 9 - 4, 1 + (r + 2 * c + k) % 4)
         for k in range(order)], order) for c in range(dim)]
        for r in range(dim)]


def unipotent_dense(dim, order):
    """I plus the h-terms of fixed_dense: an alpha of the shape that
    bench/workloads.py _conjugated_operator conjugates by."""
    return [[v - v.constant + int(r == c) for c, v in enumerate(row)]
            for r, row in enumerate(fixed_dense(dim, order))]


@PROPS
@given(sizes.flatmap(lambda s: st.tuples(
    dense_mats(*s), polys(s[1]), fractions)))
@example((fixed_dense(3, 3), TruncPoly.zero(3), Fraction(0)))
@example((fixed_dense(3, 3), TruncPoly.from_coeffs([0, Fraction(2, 3), -1], 3),
          Fraction(5, 3)))
@example((fixed_dense(3, 3), TruncPoly.const(Fraction(-7, 4), 3),
          Fraction(-5, 6)))
def test_scaled_matches_oracle(case):
    a, s, q = case
    pa = to_polymat(a)
    assert to_dense(pa.scaled(s)) == [[v * s for v in row] for row in a]
    assert to_dense(pa.scaled(q)) == [[v * q for v in row] for row in a]


@PROPS
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
       .flatmap(lambda s: st.tuples(dense_mats(s[0], s[2]),
                                    dense_mats(s[1], s[2]))))
@example((unipotent_dense(5, 3), d_identity(5, 3)))
@example((d_identity(5, 3), unipotent_dense(5, 3)))
@example((unipotent_dense(6, 4), d_identity(6, 4)))
@example((d_identity(6, 4), unipotent_dense(6, 4)))
@example((unipotent_dense(7, 5), d_identity(7, 5)))
@example((d_identity(7, 5), unipotent_dense(7, 5)))
@example((fixed_dense(1, 3), fixed_dense(3, 3)))
@example((fixed_dense(3, 3), fixed_dense(1, 3)))
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


def convolution_compose(a, b):
    """The rational product compose ran before the slot kernel, kept as
    its oracle: coefficient k of a @ b sums the products of coefficient
    i of a and coefficient k - i of b as Fraction sparse matrices."""
    parts = []
    for k in range(a.order):
        acc = SparseMat(a.dim, a.dim)
        for i in range(k + 1):
            acc = acc.add(a.coefficient_matrix(i).matmul(
                b.coefficient_matrix(k - i)))
        parts.append(acc)
    return from_parts(a.dim, a.order, parts)


def dens_fractions(dens):
    return st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens))


@st.composite
def sparse_polymats(draw, dim, order, const_dens, high_dens):
    """Matrices whose constant term has denominators from const_dens and
    whose h-coefficients have them from high_dens; zero operands and
    empty parts are drawn as well."""
    if dim == 0 or draw(st.integers(0, 9)) == 0:
        return PolyMat(dim, order)
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    parts = []
    for k in range(order):
        values = dens_fractions(const_dens if k == 0 else high_dens)
        entries = draw(st.dictionaries(cells, values, max_size=dim * dim))
        parts.append(SparseMat(dim, dim,
                               {key: v for key, v in entries.items() if v}))
    return from_parts(dim, order, parts)


# denominators shared by both, the constant term apart from the rest
# (then d0 = lcm(2, 3, 4) and D picks up 5, 7, 25), and the reverse,
# where D divides out the factors d0 already holds
DENOMINATORS = st.sampled_from([
    ((1, 2, 3), (1, 2, 3)),
    ((1, 2, 3, 4), (5, 7, 25)),
    ((5, 9), (1, 3, 5, 45)),
    ((1,), (2, 4, 8)),
])


@st.composite
def compose_pairs(draw):
    dim, order = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    dens = draw(DENOMINATORS)
    return (draw(sparse_polymats(dim, order, *dens)),
            draw(sparse_polymats(dim, order, *dens)))


@settings(max_examples=120)
@given(compose_pairs())
def test_compose_matches_rational_convolution(pair):
    a, b = pair
    assert a.compose(b) == convolution_compose(a, b)
    assert b.compose(a) == convolution_compose(b, a)


@given(st.integers(0, 6), st.integers(1, 5))
def test_compose_with_zero_and_empty_operands(dim, order):
    zero = PolyMat(dim, order)
    ident = PolyMat.identity(dim, order)
    assert zero.compose(zero) == zero
    assert zero.compose(ident) == zero == ident.compose(zero)
    assert ident.compose(ident) == ident


@PROPS
@given(sizes.flatmap(lambda s: st.tuples(invertible_dense(*s),
                                         st.integers(-2, 4))))
def test_power_matches_repeated_oracle_products(case):
    a, k = case
    m = to_polymat(a)
    n, order = len(a), a[0][0].order
    if k < 0:
        ident = PolyMat.identity(n, order)
        assert m.power(k).compose(m.power(-k)) == ident
        assert m.power(-k).compose(m.power(k)) == ident
        return
    want = d_identity(n, order)
    for _ in range(k):
        want = d_mul(want, a)
    assert to_dense(m.power(k)) == want


def recurrence_inverse(m):
    """The rational inverse PolyMat.inverse ran before the slot kernel,
    kept as its oracle: invert the constant term, then lift order by
    order, X_k = -inv0 sum_{j=1..k} M_j X_{k-j}, in Fraction sparse
    matrix products, the constant term inverted by gauss_jordan_inverse."""
    unipotent = m.constant == SparseMat.identity(m.dim)
    inv0 = m.constant if unipotent else gauss_jordan_inverse(m.constant)
    x = [inv0]
    for k in range(1, m.order):
        acc = SparseMat(m.dim, m.dim)
        for j in range(1, k + 1):
            acc = acc.add(m.coefficient_matrix(j).matmul(x[k - j]))
        x.append((acc if unipotent else inv0.matmul(acc)).scaled(-1))
    return from_parts(m.dim, m.order, x)


@st.composite
def permutation_consts(draw, dim):
    perm = draw(st.permutations(range(dim)))
    return SparseMat(dim, dim, {(perm[i], i): Fraction(1) for i in range(dim)})


@st.composite
def rational_consts(draw, dim, dens):
    """P L U with L unit lower and U upper triangular with a nonzero
    diagonal, all with denominators from dens: invertible and, in
    general, dense."""
    values = dens_fractions(dens)
    lower, upper = {}, {}
    for i in range(dim):
        lower[(i, i)] = Fraction(1)
        upper[(i, i)] = draw(values.filter(bool))
        for j in range(i):
            lower[(i, j)] = draw(values)
            upper[(j, i)] = draw(values)
    lu = SparseMat(dim, dim, {k: v for k, v in lower.items() if v}).matmul(
        SparseMat(dim, dim, {k: v for k, v in upper.items() if v}))
    return draw(permutation_consts(dim)).matmul(lu)


@st.composite
def invertible_polymats(draw):
    """Invertible sparse matrices over Q[h]/(h^N): a unipotent,
    permutation or rational constant term under sparse h-coefficients,
    or I + h^k g with k >= 2, where the series ends early (I itself
    when k >= N)."""
    dim, order = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    dens = draw(DENOMINATORS)
    drawn = draw(sparse_polymats(dim, order, *dens))
    higher = [drawn.coefficient_matrix(k) for k in range(1, order)]
    kind = draw(st.sampled_from(["unipotent", "permutation", "rational",
                                 "step"]))
    if kind == "step":
        k = draw(st.integers(2, max(2, order - 1)))
        g = draw(sparse_polymats(dim, k + 1, *dens)).coefficient_matrix(k)
        return PolyMat.identity(dim, order).add(
            PolyMat.from_rational(g, order, k))
    const = {"unipotent": st.just(SparseMat.identity(dim)),
             "permutation": permutation_consts(dim),
             "rational": rational_consts(dim, dens[0])}[kind]
    return from_parts(dim, order, [draw(const)] + higher)


@settings(max_examples=150)
@given(invertible_polymats())
def test_inverse_matches_recurrence(m):
    inv = m.inverse()
    assert inv == recurrence_inverse(m)
    ident = PolyMat.identity(m.dim, m.order)
    assert m.compose(inv) == ident
    assert inv.compose(m) == ident


@PROPS
@given(invertible_polymats(), st.integers(1, 3))
def test_negative_power_is_power_of_inverse(m, k):
    assert m.power(-k) == recurrence_inverse(m).power(k)
    assert m.power(-k).compose(m.power(k)) == PolyMat.identity(m.dim, m.order)


@pytest.mark.parametrize("dim,order", [(0, 1), (0, 3), (1, 1), (1, 4)])
def test_inverse_of_small_shapes(dim, order):
    ident = PolyMat.identity(dim, order)
    assert ident.inverse() == ident
    m = PolyMat.from_entries(dim, order, [
        (i, i, TruncPoly.from_coeffs([Fraction(2, 3), 5, Fraction(-1, 7)],
                                     order)) for i in range(dim)])
    assert m.inverse() == recurrence_inverse(m)


@PROPS
@given(st.integers(1, 5), st.integers(1, 4), DENOMINATORS, st.data())
def test_singular_constant_raises(dim, order, dens, data):
    m = data.draw(sparse_polymats(dim, order, *dens))
    col = data.draw(st.integers(0, dim - 1))
    const = SparseMat(dim, dim, {(r, c): v for (r, c), v
                                 in m.constant.entries.items() if c != col})
    with pytest.raises(ZeroDivisionError):
        from_parts(dim, order, [const] + [m.coefficient_matrix(k)
                                          for k in range(1, order)]).inverse()


# -- the canonical state: one matrix, one (dim, order, dens, block) ---------

def state(m):
    return m.dim, m.order, m.dens, m.block


def assert_reduced(m):
    """Every degree holds nonzero ints over a positive denominator with
    no factor common to all of them."""
    assert len(m.block) == len(m.dens) == m.order
    for part, den in zip(m.block, m.dens):
        assert type(den) is int and den >= 1
        assert all(type(a) is int and a for a in part.values())
        assert gcd(den, *part.values()) == 1


nonzero_scalars = st.builds(Fraction, st.integers(-60, 60).filter(bool),
                            st.sampled_from([1, 2, 9, 35, 64]))


@st.composite
def canonical_cases(draw):
    """(m, s, p): a sparse matrix, a nonzero scalar and a unit TruncPoly
    of its order."""
    dim, order = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    m = draw(sparse_polymats(dim, order, *draw(DENOMINATORS)))
    return m, draw(nonzero_scalars), draw(polys(order, unit=True))


@settings(max_examples=80)
@given(canonical_cases())
def test_every_route_to_a_matrix_holds_one_reduced_state(case):
    m, s, p = case
    ident = PolyMat.identity(m.dim, m.order)
    routes = [PolyMat.from_entries(m.dim, m.order, m.entries()),
              PolyMat.from_json(m.to_json()),
              ident.compose(m), m.compose(ident),
              m.scaled(s).scaled(1 / s), m.scaled(p).scaled(p.inverse())]
    assert_reduced(m)
    for other in routes:
        assert other == m
        assert state(other) == state(m)
        assert_reduced(other)


@settings(max_examples=60)
@given(invertible_polymats())
def test_double_inverse_holds_the_same_reduced_state(m):
    twice = m.inverse().inverse()
    assert twice == m
    assert state(twice) == state(m)
    assert_reduced(m.inverse())
    assert_reduced(twice)


@PROPS
@given(compose_pairs(), nonzero_scalars)
def test_products_and_sums_are_reduced(pair, s):
    a, b = pair
    for m in (a.compose(b), a.tensor(b), a.add(b), a.sub(a), a.scaled(s),
              a.power(2), a.lift(a.order + 1), a.lift(1)):
        assert_reduced(m)
