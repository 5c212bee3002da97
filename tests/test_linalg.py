import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ybrack.linalg import (P, DimensionMismatch, SparseMat, Subspace,
                           _mod_p, distinct_rows, image_basis, kernel_basis,
                           rank, rank_reaches, rref, solver,
                           sum_and_intersection_dims, vec_axpy)

F = Fraction


def test_kernel_zero_matrix():
    assert kernel_basis(SparseMat(3, 3, {})).dim == 3


def test_kernel_identity():
    assert kernel_basis(SparseMat.identity(4)).dim == 0


def test_kernel_rank_one_2x2():
    m = SparseMat.from_dense([[1, 2], [2, 4]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    # spanned by (2, -1) up to scale
    assert ker.contains_vec({0: F(2), 1: F(-1)})
    assert not ker.contains_vec({0: F(1)})


def test_image_examples():
    assert image_basis(SparseMat.identity(4)).dim == 4
    assert image_basis(SparseMat(5, 2, {})).dim == 0
    assert image_basis(SparseMat.from_dense([[1, 2], [2, 4]])).dim == 1


def test_contains_examples():
    line = Subspace.from_vectors(2, [{0: F(1)}])
    assert line.contains_vec({0: F(3)})
    assert not line.contains_vec({1: F(1)})
    plane = Subspace.from_vectors(2, [{0: F(1), 1: F(2)}, {1: F(1)}])
    assert plane.contains_vec({0: F(5), 1: F(7)})


def test_contains_dimension_mismatch():
    line = Subspace.from_vectors(2, [{0: F(1)}])
    with pytest.raises(DimensionMismatch):
        line.contains_vec({5: F(1)})


def test_sum_and_intersection_examples():
    a = Subspace.from_vectors(2, [{0: F(1)}])
    assert sum_and_intersection_dims(a, a) == (1, 1)
    b = Subspace.from_vectors(2, [{1: F(1)}])
    assert sum_and_intersection_dims(a, b) == (2, 0)
    c = Subspace.from_vectors(2, [{0: F(1), 1: F(1)}])
    d = Subspace.from_vectors(2, [{0: F(1), 1: F(-1)}])
    assert sum_and_intersection_dims(c, d) == (2, 0)


def test_sum_and_intersection_mismatch():
    a = Subspace.from_vectors(2, [{0: F(1)}])
    b = Subspace.from_vectors(3, [{0: F(1)}])
    with pytest.raises(DimensionMismatch):
        sum_and_intersection_dims(a, b)


def _dims_by_nullity(a, b):
    """Oracle: dim(a+b) from the stacked bases, and dim(a∩b) as the
    nullity of the two bases side by side as columns, since a kernel
    vector (u, -w) means u.a = w.b, a common vector."""
    stacked = list(a.basis) + list(b.basis)
    side_by_side = SparseMat(a.ambient_dim, len(stacked), {
        (i, j): v for j, vec in enumerate(stacked) for i, v in vec.items()})
    return (Subspace.from_vectors(a.ambient_dim, stacked).dim,
            kernel_basis(side_by_side).dim)


@st.composite
def subspace_pairs(draw):
    """Two subspaces spanned by combinations p + c q of vectors from one
    pool, so that they often meet."""
    dim = draw(st.integers(1, 6))
    values = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    vectors = st.dictionaries(st.integers(0, dim - 1), values,
                              min_size=1, max_size=dim)
    pool = draw(st.lists(vectors, min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    combos = st.lists(st.tuples(index, st.integers(-1, 1), index),
                      min_size=1, max_size=4)
    a, b = ([vec_axpy(pool[p], F(c), pool[q]) for p, c, q in draw(combos)]
            for _ in range(2))
    return Subspace.from_vectors(dim, a), Subspace.from_vectors(dim, b)


@settings(max_examples=200)
@given(subspace_pairs())
def test_sum_and_intersection_match_nullity_oracle(ab):
    a, b = ab
    assert sum_and_intersection_dims(a, b) == _dims_by_nullity(a, b)


def _reduce_by_every_pivot(s, v):
    """Oracle: eliminate v against every basis row, in pivot order."""
    r = dict(v)
    for pc, row in zip(s.pivots, s.basis):
        if r.get(pc):
            r = vec_axpy(r, -r[pc], row)
    return r


@settings(max_examples=100)
@given(subspace_pairs())
def test_reduce_matches_reduction_by_every_pivot(ab):
    # same residual values, inserted in the same order
    a, b = ab
    for v in b.basis:
        assert list(a.reduce(v).items()) == \
            list(_reduce_by_every_pivot(a, v).items())


def test_distinct_rows_up_to_sign_fewest_nonzeros_first():
    rows = [(0, 2, 3, -1), (), (1, -5), (0, -2, 3, 1), (1, 5),
            (2, 1, 4, 1, 5, 1), (0, 1)]
    assert distinct_rows(rows) == [(1, 5), (0, 1), (0, 2, 3, -1),
                                   (2, 1, 4, 1, 5, 1)]


@st.composite
def integer_rows(draw):
    """Flat integer rows (col, value, ...) in increasing col with no zero
    value; some values are multiples of P, and some rows repeat earlier
    ones, so the rank mod P has both dependent and vanishing rows."""
    value = st.one_of(st.integers(-4, 4), st.integers(-2, 2).map(
        lambda k: k * P + 1), st.sampled_from([P, -P, 2 * P]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
            continue
        entries = draw(st.dictionaries(st.integers(0, 5), value, max_size=4))
        rows.append(tuple(x for c in sorted(entries) if entries[c]
                          for x in (c, entries[c])))
    return rows


def _rank_p(rows):
    return len(rref(({c: a % P for c, a in zip(r[::2], r[1::2]) if a % P}
                     for r in rows), P)[1])


class _Reads:
    """An iterator over rows that counts how many were read."""

    def __init__(self, rows):
        self.rows, self.read = iter(rows), 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.read += 1
        return row


@settings(max_examples=200)
@given(integer_rows(), st.integers(0, 8))
def test_rank_reaches_matches_rref_rank_mod_p(rows, target):
    rank_p = _rank_p(rows)
    reads = _Reads(rows)
    assert rank_reaches(reads, target) == (target <= rank_p)
    if target == 0:
        assert reads.read == 0
    elif target <= rank_p:
        # reading stops at the shortest prefix of full enough rank
        assert _rank_p(rows[:reads.read]) == target
        assert _rank_p(rows[:reads.read - 1]) == target - 1


def test_rank_reaches_drops_values_divisible_by_p():
    # (P, 1) is e_1 mod P, which does not raise the rank of (0, 0, 1, 1)
    assert not rank_reaches([(0, P, 1, 1), (1, 1)], 2)
    assert rank_reaches([(0, P + 1, 1, 1), (1, 1)], 2)
    assert not rank_reaches([(0, 2 * P, 3, -P)], 1)


def _oracle_axpy(a, s, b, p):
    """a + s*b mod p on a copy, every value reduced into [0, p)."""
    out = dict(a)
    for i, v in b.items():
        w = (out.get(i, 0) + s * v) % p
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def _oracle_eliminate(vectors, pivots, p):
    """The copy-per-step forward elimination over F_p on ints in [0, p)
    that the signed in-place kernel replaced, kept as its oracle; yields
    after each new pivot."""
    for row in vectors:
        r = dict(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                if r[lead] != 1:
                    inv = pow(r[lead], -1, p)
                    r = {i: v * inv % p for i, v in r.items()}
                pivots[lead] = r
                yield
                break
            r = _oracle_axpy(r, -r[lead], piv, p)


def _oracle_rref(vectors, p):
    pivots = {}
    for _ in _oracle_eliminate(vectors, pivots, p):
        pass
    cols = sorted(pivots)
    for pc in reversed(cols):
        r = pivots[pc]
        for c in [c for c in r if c != pc and c in pivots]:
            r = _oracle_axpy(r, -r[c], pivots[c], p)
        pivots[pc] = r
    return [pivots[c] for c in cols], cols


def _oracle_mod_p(rows):
    return ({c: a % P for c, a in zip(r[::2], r[1::2]) if a % P}
            for r in rows)


def _oracle_rank_reaches(rows, target):
    if target <= 0:
        return True
    steps = _oracle_eliminate(_oracle_mod_p(rows), {}, P)
    return any(k >= target for k, _ in enumerate(steps, 1))


def _items(result):
    rows, pivots = result
    return [list(r.items()) for r in rows], pivots


@st.composite
def wide_integer_rows(draw):
    """Flat integer rows with values in +-3P: small values, multiples of
    P, values near +-P/2 and anything in between; some rows repeat."""
    near = st.integers(-2, 2)
    value = st.one_of(
        st.integers(-4, 4), st.integers(-3 * P, 3 * P),
        st.integers(-3, 3).map(lambda k: k * P),
        near.map(lambda k: P // 2 + k), near.map(lambda k: -P // 2 + k),
        st.tuples(st.integers(-2, 2), near).map(lambda t: t[0] * P + t[1]))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
            continue
        entries = draw(st.dictionaries(st.integers(0, 6), value, max_size=5))
        rows.append(tuple(x for c in sorted(entries) if entries[c]
                          for x in (c, entries[c])))
    return rows


@settings(max_examples=300)
@given(wide_integer_rows(), st.integers(0, 9))
def test_signed_kernel_matches_copy_per_step_oracle(rows, target):
    expected = _items(_oracle_rref(_oracle_mod_p(rows), P))
    for vectors in (_mod_p(rows), _oracle_mod_p(rows)):
        result = rref(vectors, P)
        assert _items(result) == expected
        assert all(0 < v < P for r in result[0] for v in r.values())
    reads, oracle_reads = _Reads(rows), _Reads(rows)
    assert rank_reaches(reads, target) == \
        _oracle_rank_reaches(oracle_reads, target)
    assert reads.read == oracle_reads.read


def test_signed_kernel_matches_oracle_on_coboundary_rows():
    from ybrack.cohomology import _alternating, _matrix_rows
    from ybrack.racks import dihedral_rack
    rows = distinct_rows(row for chunk in _matrix_rows(
        dihedral_rack(4), 2, _alternating(2)) for row in chunk.values())
    assert _items(rref(_mod_p(rows), P)) == \
        _items(_oracle_rref(_oracle_mod_p(rows), P))


def _fraction_axpy(a, s, b):
    """a + s*b on a copy, dropping zeros."""
    out = dict(a)
    for i, v in b.items():
        w = out.get(i, F(0)) + s * v
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def fraction_rref(vectors):
    """The copy-per-step Gauss-Jordan elimination over Q on Fractions
    only: every input value is converted to a Fraction and every new
    pivot row is divided by its leading value.  Kept as the oracle of
    rref over Q, which carries ints as ints while its pivots are +-1."""
    pivots = {}
    for row in vectors:
        r = {i: F(v) for i, v in row.items()}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                c = r[lead]
                pivots[lead] = {i: v / c for i, v in r.items()}
                break
            r = _fraction_axpy(r, -r[lead], piv)
    cols = sorted(pivots)
    for pc in reversed(cols):
        r = pivots[pc]
        for c in [c for c in r if c != pc and c in pivots]:
            r = _fraction_axpy(r, -r[c], pivots[c])
        pivots[pc] = r
    return [pivots[c] for c in cols], cols


def _typed_items(result):
    """rows and pivots with every value's type, in insertion order."""
    rows, pivots = result
    return [[(c, type(v), v) for c, v in r.items()] for r in rows], pivots


def _assert_rref_matches_fraction_oracle(vectors):
    assert _typed_items(rref(vectors)) == \
        _typed_items(fraction_rref(vectors))


def _dict_rows(rows):
    return [dict(zip(r[::2], r[1::2])) for r in rows]


@st.composite
def small_rows(draw, values):
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        entries = draw(st.dictionaries(st.integers(0, 6), values,
                                       max_size=5))
        rows.append({c: v for c, v in sorted(entries.items()) if v})
    return rows


UNIT_INTS = st.sampled_from([1, -1])
SMALL_INTS = st.integers(-4, 4)
FRACTIONS = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


def test_rref_over_q_gives_fractions_for_int_input():
    # an int divided by an int pivot must not become a float
    rows, pivots = rref([{0: 2, 1: 3}, {0: 1, 2: 7}])
    assert pivots == [0, 1]
    assert rows == [{0: F(1), 2: F(7)}, {1: F(1), 2: F(-14, 3)}]
    _assert_rref_matches_fraction_oracle([{0: 2, 1: 3}, {0: 1, 2: 7}])
    _assert_rref_matches_fraction_oracle([{0: -1, 3: 2}, {0: 1, 1: 1}])


def test_subspace_from_int_vectors_is_exact():
    basis = Subspace.from_vectors(3, [{0: 3, 1: 1}]).basis
    assert basis == ({0: F(1), 1: F(1, 3)},)
    assert [type(v) for v in basis[0].values()] == [F, F]


@settings(max_examples=400)
@given(st.one_of(small_rows(UNIT_INTS), small_rows(SMALL_INTS),
                 small_rows(FRACTIONS),
                 small_rows(st.one_of(SMALL_INTS, FRACTIONS))))
def test_rref_of_int_fraction_and_mixed_rows_matches_fraction_oracle(
        vectors):
    _assert_rref_matches_fraction_oracle(vectors)


@settings(max_examples=200)
@given(wide_integer_rows())
def test_rref_of_wide_int_rows_matches_fraction_oracle(rows):
    _assert_rref_matches_fraction_oracle(_dict_rows(rows))


def test_rref_of_coboundary_rows_matches_fraction_oracle():
    from ybrack.cohomology import _alternating, _matrix_rows
    from ybrack.racks import dihedral_rack
    rows = distinct_rows(row for chunk in _matrix_rows(
        dihedral_rack(4), 2, _alternating(2)) for row in chunk.values())
    _assert_rref_matches_fraction_oracle(_dict_rows(rows))


def _random_matrix(rng, rows, cols, nnz):
    entries = {}
    for _ in range(nnz):
        entries[(rng.randrange(rows), rng.randrange(cols))] = \
            F(rng.randint(-6, 6), rng.randint(1, 4))
    return SparseMat(rows, cols, {k: v for k, v in entries.items() if v})


def test_rank_nullity_random():
    rng = random.Random(1)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), 14)
        assert kernel_basis(m).dim + rank(m) == m.cols


def test_grassmann_identity_random():
    rng = random.Random(2)
    for _ in range(20):
        dim = rng.randint(2, 7)
        a = Subspace.from_vectors(
            dim, [_random_matrix(rng, 1, dim, 4).row_vectors()[0]
                  for _ in range(rng.randint(1, 3))])
        b = Subspace.from_vectors(
            dim, [_random_matrix(rng, 1, dim, 4).row_vectors()[0]
                  for _ in range(rng.randint(1, 3))])
        s, i = sum_and_intersection_dims(a, b)
        assert a.dim + b.dim == s + i


def test_echelon_canonicity():
    # the same plane from two different spanning sets
    a = Subspace.from_vectors(3, [{0: F(1), 1: F(2)}, {1: F(1), 2: F(3)}])
    b = Subspace.from_vectors(3, [{0: F(2), 1: F(5), 2: F(3)},
                                  {0: F(1), 1: F(3), 2: F(3)}])
    assert a == b
    assert a.basis == b.basis
    c = Subspace.from_vectors(3, [{0: F(1), 1: F(2), 2: F(1)}])
    assert a != c


def test_rref_leading_ones_and_increasing_pivots():
    rng = random.Random(3)
    for _ in range(10):
        vecs = [_random_matrix(rng, 1, 8, 5).row_vectors()[0]
                for _ in range(4)]
        rows, piv = rref(vecs)
        assert piv == sorted(piv)
        for pc, row in zip(piv, rows):
            assert row[pc] == 1
            assert min(row) == pc
            # fully reduced: no other pivot column appears
            assert all(c not in piv or c == pc for c in row)


def _rank_mod(m, p):
    """Rank of m over F_p by the field-generic rref."""
    rows = [{c: v.numerator * pow(v.denominator, -1, p) % p
             for c, v in row.items()} for row in m.row_vectors()]
    return len(rref([{c: v for c, v in r.items() if v} for r in rows], p)[1])


def test_rank_modular_cross_check_random():
    rng = random.Random(4)
    primes = [1000003, 999983]
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(2, 8), rng.randint(2, 8), 12)
        r = rank(m)
        r_p = _rank_mod(m, primes[0])
        if r_p != r:  # unlucky prime: must agree on a second one
            r_p = _rank_mod(m, primes[1])
        assert r_p == r


def test_rank_modular_cross_check_coboundary_matrices():
    from ybrack.cohomology import coboundary_matrix
    from ybrack.racks import dihedral_rack
    m = coboundary_matrix(dihedral_rack(4), 1)
    assert _rank_mod(m, 1000003) == rank(m)


def test_solve_consistent_and_inconsistent():
    m = SparseMat.from_dense([[1, 2], [2, 4]])
    x = solver(m.rows, m.col_vectors())({0: F(3), 1: F(6)})
    assert x is not None
    assert m.apply(x) == {0: F(3), 1: F(6)}
    assert solver(m.rows, m.col_vectors())({0: F(3), 1: F(7)}) is None


def test_solve_deterministic_free_vars_zero():
    m = SparseMat.from_dense([[1, 1, 0]])
    x = solver(m.rows, m.col_vectors())({0: F(5)})
    assert x == {0: F(5)}  # free columns stay zero


def _augmented_solve(m, b):
    """Oracle: the solution of m x = b read off the reduced echelon form
    of the augmented rows [m | b], free variables zero; None when the
    augmented column is a pivot."""
    aug = m.cols
    rows = []
    for i, r in enumerate(m.row_vectors()):
        if b.get(i):
            r[aug] = b[i]
        if r:
            rows.append(r)
    ref_rows, piv = rref(rows)
    if aug in piv:
        return None
    return {pc: row[aug] for pc, row in zip(piv, ref_rows) if aug in row}


@st.composite
def linear_systems(draw):
    """(m, b): each column of m is random, or planted as zero, as a
    repeat of an earlier column or as a multiple of one; b is m x, or a
    random vector, often outside the column space.  The values are all
    Fractions, or all ints as in the integer columns of split_solver."""
    n_rows = draw(st.integers(1, 6))
    values = draw(st.sampled_from([
        st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
        st.integers(-3, 3)]))

    def nonzero(vec):
        return {i: v for i, v in vec.items() if v}

    vector = st.dictionaries(st.integers(0, n_rows - 1), values,
                             max_size=n_rows).map(nonzero)
    cols = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "scaled"])
                    if cols else st.just("random"))
        if kind == "random":
            col = draw(vector)
        elif kind == "zero":
            col = {}
        else:
            col = cols[draw(st.integers(0, len(cols) - 1))]
            if kind == "scaled":
                s = draw(values.filter(bool))
                col = {i: s * v for i, v in col.items()}
        cols.append(col)
    m = SparseMat(n_rows, len(cols), {(i, j): v for j, col in enumerate(cols)
                                      for i, v in col.items()})
    if draw(st.booleans()):
        x = draw(st.dictionaries(st.integers(0, len(cols) - 1), values))
        return m, m.apply(nonzero(x))
    return m, draw(vector)


@settings(max_examples=300)
@given(linear_systems())
def test_solver_matches_augmented_elimination(system):
    m, b = system
    assert solver(m.rows, m.col_vectors())(b) == _augmented_solve(m, b)


def test_matmul_apply():
    rng = random.Random(5)
    a = _random_matrix(rng, 4, 3, 6)
    b = _random_matrix(rng, 3, 5, 6)
    ab = a.matmul(b)
    v = {0: F(1), 3: F(2)}
    assert ab.apply(v) == a.apply(b.apply(v))


def test_entry_bounds_and_zero_rejection():
    with pytest.raises(DimensionMismatch):
        SparseMat(2, 2, {(2, 0): F(1)})
    with pytest.raises(ValueError):
        SparseMat(2, 2, {(0, 0): F(0)})
