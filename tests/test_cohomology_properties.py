"""Property tests: the cochain complex on generated racks.

Alexander quandles x*y = t*x + (1-t)*y mod n (t a unit mod n) and
permutation racks x*y = sigma(x) satisfy the rack axioms by
construction, so they reach beyond the hand-picked corpus.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import given, settings, strategies as st

from test_cohomology import naive_partial_coboundary
from ybrack import linalg
from ybrack.cohomology import (Cochain, _alternating, _columns, _kills,
                               _matrix_rows, classify, coboundary,
                               coboundary_i, coboundary_matrix,
                               coboundary_space, cocycle_space, decode,
                               encode, entropic_basis, is_entropic,
                               partial_coboundary_matrix, span_columns,
                               split_solver, symmetrize)
from ybrack.racks import inner_group, validate_rack

PROPS = settings(max_examples=50)

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
degrees = st.sampled_from([1, 2])


@st.composite
def racks(draw, max_size=4, min_size=1):
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        t = draw(st.sampled_from([t for t in range(n) if gcd(t, n) == 1]))
        table = [[(t * x + (1 - t) * y) % n for y in range(n)]
                 for x in range(n)]
    else:
        sigma = draw(st.permutations(range(n)))
        table = [[sigma[x]] * n for x in range(n)]
    return validate_rack(table)


@st.composite
def cochains(draw, rack, degree):
    dim = rack.size ** degree
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    entries = draw(st.dictionaries(cells, fractions, max_size=12))
    return Cochain(rack.size, degree,
                   {k: v for k, v in entries.items() if v})


@st.composite
def rack_cochains(draw):
    rack = draw(racks())
    return rack, draw(cochains(rack, draw(degrees)))


@PROPS
@given(rack_cochains())
def test_coboundary_squared_is_zero(rf):
    rack, f = rf
    assert coboundary(rack, coboundary(rack, f)).is_zero()


@PROPS
@given(rack_cochains())
def test_coboundary_matrix_applies_the_coboundary(rf):
    rack, f = rf
    m = coboundary_matrix(rack, f.degree)
    assert m.apply(f.to_vector()) == coboundary(rack, f).to_vector()


@PROPS
@given(racks(), degrees)
def test_coboundary_matrix_is_the_alternating_sum_of_partials(rack, degree):
    parts = [partial_coboundary_matrix(rack, degree, i).scaled((-1) ** i)
             for i in range(degree + 1)]
    total = parts[0]
    for p in parts[1:]:
        total = total.add(p)
    assert total == coboundary_matrix(rack, degree)


@PROPS
@given(rack_cochains())
def test_coboundary_i_matches_naive_oracle(rf):
    rack, f = rf
    for i in range(f.degree + 1):
        assert coboundary_i(rack, f, i) == naive_partial_coboundary(rack, f, i)


@PROPS
@given(racks(), degrees)
def test_entropic_basis_cochains_are_entropic(rack, degree):
    assert all(is_entropic(rack, c)
               for c in entropic_basis(rack, degree).cochains())


def average_over_inner_group(rack, f):
    """The Inn(Q) average of f by enumeration: each entry of f is moved
    by every alpha in inner_group(rack), (u -> v) to (u^alpha -> v^alpha),
    and the sum is divided by the group's order."""
    n, d = rack.size, f.degree
    group = inner_group(rack)
    acc = {}
    for alpha in group.elements:
        for (yc, xc), v in f.entries.items():
            x = tuple(alpha(t) for t in decode(xc, d, n))
            y = tuple(alpha(t) for t in decode(yc, d, n))
            key = (encode(y, n), encode(x, n))
            acc[key] = acc.get(key, 0) + v
    return Cochain(n, d, {k: v / group.order for k, v in acc.items() if v})


@PROPS
@given(rack_cochains())
def test_symmetrize_is_the_average_over_the_inner_group(rf):
    rack, f = rf
    assert symmetrize(rack, f) == average_over_inner_group(rack, f)


def combination(n, degree, coeffs, cochains):
    """sum of coeffs[k] * cochains[k] as a degree-d cochain."""
    total = Cochain(n, degree)
    for a, c in zip(coeffs, cochains):
        total = total.add(c.scaled(a))
    return total


@settings(max_examples=40)
@given(st.sampled_from([2, 2, 3]).flatmap(
    lambda d: st.tuples(racks(min_size=3), st.just(d))), st.data())
def test_split_solver_recovers_entropic_part_and_coboundary(rack_degree,
                                                           data):
    rack, degree = rack_degree
    n = rack.size
    split = split_solver(rack, degree)
    indicators = entropic_basis(rack, degree).cochains()
    a = data.draw(st.lists(fractions, min_size=len(indicators),
                           max_size=len(indicators)))
    g = data.draw(cochains(rack, degree - 1))
    dg = coboundary(rack, g)
    v = combination(n, degree, a, indicators).add(dg)
    got = split(v.to_vector())
    assert got is not None
    coeffs, preimage = got
    assert coeffs == {k: x for k, x in enumerate(a) if x}
    assert coboundary(rack, Cochain.from_vector(n, degree - 1, preimage)) \
        == dg
    # an integer vector of span_columns splits as its Fraction copy does
    ind, cols = span_columns(rack, degree)
    j = data.draw(st.integers(0, len(ind) - 1))
    w = dict(ind[j])
    for i, t in data.draw(st.sampled_from(cols)).items():
        w[i] = w.get(i, 0) + t
    w = {i: t for i, t in w.items() if t}
    got = split(w)
    assert got is not None and got[0] == {j: 1}
    assert split({i: Fraction(t) for i, t in w.items()}) == got
    # one planted entry: None exactly when it leaves Z^d
    idx = data.draw(st.integers(0, n ** (2 * degree) - 1))
    unit = Cochain.from_vector(n, degree, {idx: Fraction(1)})
    planted = v.to_vector()
    planted[idx] = planted.get(idx, 0) + 1
    planted = {i: x for i, x in planted.items() if x}
    assert (split(planted) is None) \
        == (not coboundary(rack, unit).is_zero())


def partials_vanish(rack, f):
    """The definition: every partial coboundary of f is zero."""
    return all(coboundary_i(rack, f, i).is_zero()
               for i in range(f.degree + 1))


@settings(max_examples=60)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(racks(max_size=4 if d < 3 else 3, min_size=2),
                        st.just(d))),
    st.data())
def test_is_entropic_matches_partial_coboundaries(rack_degree, data):
    rack, degree = rack_degree
    n = rack.size
    assert is_entropic(rack, Cochain(n, degree))
    indicators = entropic_basis(rack, degree).cochains()
    a = data.draw(st.lists(fractions, min_size=len(indicators),
                           max_size=len(indicators)))
    f = combination(n, degree, a, indicators)
    assert is_entropic(rack, f) and partials_vanish(rack, f)
    # E^d is a subspace: perturbing f at one index leaves it entropic
    # exactly when that index's unit cochain is
    dim = n ** degree
    cell = data.draw(st.tuples(st.integers(0, dim - 1),
                               st.integers(0, dim - 1)))
    bump = data.draw(fractions.filter(bool))
    unit = Cochain(n, degree, {cell: bump})
    perturbed = f.add(unit)
    assert is_entropic(rack, perturbed) == partials_vanish(rack, perturbed) \
        == partials_vanish(rack, unit)
    g = data.draw(cochains(rack, degree))
    assert is_entropic(rack, g) == partials_vanish(rack, g)


@settings(max_examples=60)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(racks(max_size=4 if d < 3 else 3), st.just(d))))
def test_h2_splits_as_entropic_plus_coboundaries(rack_degree):
    rack, degree = rack_degree
    rep = classify(rack, degree)
    assert rep.verified
    assert rep.dim_h == rep.dim_e
    # the rank certificate against the reference spaces
    assert (rep.dim_z, rep.dim_b, rep.dim_e) == (
        cocycle_space(rack, degree).dim, coboundary_space(rack, degree).dim,
        entropic_basis(rack, degree).dim)


@settings(max_examples=30)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(racks(min_size=2), st.just(d))), st.data())
def test_flat_images_match_the_chunked_coboundary_matrix(rack_degree, data):
    # _columns and _kills apply d^d to vectors in one flat pass;
    # coboundary_matrix is assembled from the blocks of rows of _row_sums
    rack, degree = rack_degree
    m = coboundary_matrix(rack, degree)
    assert _columns(rack, degree) == [{r: int(v) for r, v in col.items()}
                                      for col in m.col_vectors()]
    assert all(v.denominator == 1 for v in m.entries.values())

    def killed(v):
        return not m.apply({i: Fraction(a) for i, a in v.items()})

    size = m.cols
    values = st.integers(1, 4).flatmap(lambda a: st.sampled_from([a, -a]))
    drawn = data.draw(st.lists(st.dictionaries(
        st.integers(0, size - 1), values, min_size=1, max_size=6),
        max_size=3))
    assert _kills(rack, degree, drawn) == all(map(killed, drawn))
    # integer combinations of E^d + B^d lie in Z^d; one planted entry
    # leaves it exactly when d^d does not kill its unit vector
    indicators, columns = span_columns(rack, degree)
    span = indicators + columns
    picks = data.draw(st.lists(st.tuples(
        st.integers(0, len(span) - 1), values), min_size=1, max_size=4))
    v: dict = {}
    for k, a in picks:
        for i, x in span[k].items():
            v[i] = v.get(i, 0) + a * x
    v = {i: x for i, x in v.items() if x}
    assert killed(v) and _kills(rack, degree, [v, *span])
    idx = data.draw(st.integers(0, size - 1))
    bump = data.draw(values)
    planted = dict(v)
    planted[idx] = planted.get(idx, 0) + bump
    planted = {i: x for i, x in planted.items() if x}
    assert _kills(rack, degree, [v, planted]) == killed({idx: bump})


def naive_coboundary(rack, f):
    """The alternating sum of the naive partial coboundaries."""
    total = Cochain(rack.size, f.degree + 1)
    for i in range(f.degree + 1):
        total = total.add(naive_partial_coboundary(rack, f, i)
                          .scaled((-1) ** i))
    return total


def up_to_sign(row):
    """An integer row, a {col: value} dict or a flat (col, value, ...)
    tuple, as sorted (col, value) pairs, leading value > 0."""
    if isinstance(row, tuple):
        row = dict(zip(row[::2], row[1::2]))
    key = sorted(row.items())
    if key[0][1] < 0:
        key = [(c, -a) for c, a in key]
    return tuple(key)


def last_slots(block, n, degree):
    """The set of (x_last, y_last) of the rows of a block of
    _matrix_rows."""
    return {(r // n ** (degree + 1) % n, r % n) for r in block}


@settings(max_examples=30)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(racks(max_size=3 if d < 3 else 2), st.just(d))),
    st.data())
def test_coboundary_matrix_and_eliminated_rows_match_naive_oracle(
        rack_degree, data):
    rack, degree = rack_degree
    n = rack.size
    m = coboundary_matrix(rack, degree)
    cols = m.col_vectors()
    # the naive oracle visits every output index pair, so a few columns
    js = data.draw(st.lists(st.integers(0, m.cols - 1), min_size=1,
                            max_size=6, unique=True))
    # the assembly's blocks: block (t, s) holds only rows whose x ends in
    # t and y in s, each t's blocks come by increasing s with (t, t)
    # last, no row is in two blocks, and together they are the oracle's
    # rows
    blocks = list(_matrix_rows(rack, degree, _alternating(degree)))
    assert len(blocks) == n * n
    pairs = [last_slots(block, n, degree) for block in blocks]
    ts = [min(p)[0] for p in pairs[::n]]
    assert pairs == [{(t, s)} for t in ts
                     for s in [*range(t), *range(t + 1, n), t]]
    union = {r: row for block in blocks for r, row in block.items()}
    assert len(union) == sum(map(len, blocks))
    for j in js:
        indicator = Cochain.from_vector(n, degree, {j: Fraction(1)})
        want = naive_coboundary(rack, indicator).to_vector()
        assert cols[j] == want
        assert {r: Fraction(dict(zip(row[::2], row[1::2]))[j])
                for r, row in union.items() if j in row[::2]} == want
    assert {r: {c: Fraction(t) for c, t in zip(row[::2], row[1::2])}
            for r, row in union.items() if row} \
        == {r: v for r, v in enumerate(m.row_vectors()) if v}

    seen = []
    row_kernel = linalg.row_kernel

    def spy(ncols, rows):
        seen.append(rows)
        return row_kernel(ncols, rows)

    with mock.patch.object(linalg, "row_kernel", spy):
        cocycle_space(rack, degree)
    [rows] = seen
    assert all(v.denominator == 1 for v in m.entries.values())
    want = {up_to_sign({c: int(v) for c, v in r.items()})
            for r in m.row_vectors() if r}
    assert sorted(map(up_to_sign, rows)) == sorted(want)


@settings(max_examples=40)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.tuples(racks(max_size=4 if d < 3 else 3), st.just(d))),
    st.randoms(use_true_random=False))
def test_blocks_meet_every_inner_orbit_first_and_labels_do_not_matter(
        rack_degree, rng):
    rack, degree = rack_degree
    n = rack.size
    blocks = list(_matrix_rows(rack, degree, _alternating(degree)))
    pairs = [pair for block in blocks for pair in last_slots(block, n, degree)]
    assert len(pairs) == len(blocks)
    assert sorted(pairs) == [(t, s) for t in range(n) for s in range(n)]
    ts = [t for t, _ in pairs[::n]]
    # the first ts lie one in each Inn(Q)-orbit, by enumeration of Inn(Q)
    group = inner_group(rack).elements
    orbits = {frozenset(g(x) for g in group) for x in range(n)}
    k = len(orbits)
    assert {o for o in orbits for t in ts[:k] if t in o} == orbits
    # a relabeling x -> sigma[x] changes no dimension and no verdict
    sigma = list(range(n))
    rng.shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[rack.table[x][y]]
    assert classify(validate_rack(table), degree) == classify(rack, degree)
