import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from conftest import (CORPUS_IDS, CORPUS_RACKS, entropic_operator,
                      unit_perturbation)
from ybrack.linalg import SizeOverflow
from ybrack.racks import dihedral_rack, square_reflection_quandle, \
    transposition_quandle, trivial_rack, validate_rack
from ybrack.reference import (DIHEDRAL3_MATRIX,
                              SQUARE_REFLECTION_MATRIX_ROWS_AS_SOURCE,
                              ones_positions)
from ybrack.truncpoly import PolyMat, TruncPoly
from ybrack.yangbaxter import (BraidWord, YBOperator, braid_rep, build_cq,
                               build_jones, build_tau, check_ybe, trace_power)

F = Fraction


def entry_positions(op):
    return {(r, c) for r, c, v in op.mat.entries()}


# -- constructors ---------------------------------------------------------

def test_cq_transposition_quandle_matches_reference():
    got = entry_positions(build_cq(transposition_quandle(3)))
    assert got == ones_positions(DIHEDRAL3_MATRIX)


def test_cq_square_reflections_matches_reference_transposed():
    # the 16x16 reference table is tabulated with rows as source
    got = entry_positions(build_cq(square_reflection_quandle()))
    want = {(c, r) for r, c in
            ones_positions(SQUARE_REFLECTION_MATRIX_ROWS_AS_SOURCE)}
    assert got == want


def test_cq_trivial_is_transposition():
    assert build_cq(trivial_rack(3)) == build_tau(3)


def test_tau_small():
    assert build_tau(1).mat == PolyMat.identity(1, 1)
    t2 = build_tau(2)
    assert entry_positions(t2) == {(0, 0), (2, 1), (1, 2), (3, 3)}


def test_jones_at_one_is_tau():
    assert build_jones(1) == build_tau(2)


def test_jones_entries():
    c = build_jones(F(1, 3))
    assert c.mat.get(0, 0) == TruncPoly.const(F(1, 3), 1)
    assert c.mat.get(1, 2) == TruncPoly.const(F(1, 9), 1)
    assert c.mat.get(2, 2) == TruncPoly.const(F(1, 3) - F(1, 27), 1)


def test_jones_zero_rejected():
    with pytest.raises(ValueError):
        build_jones(0)


# -- the Yang-Baxter check -------------------------------------------------

@pytest.mark.parametrize("rack", CORPUS_RACKS, ids=CORPUS_IDS)
def test_cq_satisfies_ybe(rack):
    assert check_ybe(build_cq(rack)).ok


def test_ybe_holds_on_the_zero_space():
    # no basis triple, so no block of columns to compare
    assert check_ybe(YBOperator(0, PolyMat(0, 2))).ok


def test_jones_satisfies_ybe():
    for q in (1, 2, F(1, 3), F(-2, 7)):
        assert check_ybe(build_jones(q)).ok


def _dense_triple_products(op):
    """Brute-force oracle: both sides of the braid relation as dense
    matrices on the tensor cube, built from plain entry arithmetic over
    Q[h]/(h^N)."""
    n = op.rack_size
    dim = n ** 3
    zero = TruncPoly.zero(op.trunc)
    c = [[op.mat.get(r, col) for col in range(n * n)]
         for r in range(n * n)]

    def mat_c1():
        m = [[zero] * dim for _ in range(dim)]
        for x in range(n * n):
            for y in range(n * n):
                if not c[x][y].is_zero():
                    for z in range(n):
                        m[x * n + z][y * n + z] = c[x][y]
        return m

    def mat_c2():
        m = [[zero] * dim for _ in range(dim)]
        for x in range(n * n):
            for y in range(n * n):
                if not c[x][y].is_zero():
                    for z in range(n):
                        m[z * n * n + x][z * n * n + y] = c[x][y]
        return m

    def mul(a, b):
        # a product with a zero entry adds nothing and is skipped
        out = [[zero] * dim for _ in range(dim)]
        for i in range(dim):
            for k in range(dim):
                if not a[i][k].is_zero():
                    for j in range(dim):
                        if not b[k][j].is_zero():
                            out[i][j] = out[i][j] + a[i][k] * b[k][j]
        return out

    c1, c2 = mat_c1(), mat_c2()
    return mul(mul(c1, c2), c1), mul(mul(c2, c1), c2)


def _dense_witness(op):
    """First basis triple whose column differs in the dense oracle."""
    n = op.rack_size
    lhs, rhs = _dense_triple_products(op)
    dim = n ** 3
    for j in range(dim):
        if any(lhs[i][j] != rhs[i][j] for i in range(dim)):
            return (j // (n * n), (j // n) % n, j % n)
    return None


def _jones_times(trunc, entries):
    """The Jones operator at q = 1/3 composed with I + h f, where f has the
    given (row, col, (h^0, h^1, ...) coefficients) entries."""
    f = PolyMat.from_entries(
        4, trunc, [(r, c, TruncPoly.from_coeffs([0] + list(v), trunc))
                   for r, c, v in entries])
    return YBOperator(2, build_jones(F(1, 3), trunc).mat.compose(
        PolyMat.identity(4, trunc).add(f)))


def _jones_series(trunc):
    """The Jones operator at q(h) = 3/2 + h/5 - h^2/7, scaled by
    1/2 + h/3 - h^2/5 and conjugated by a rational unit beta (x) beta.  It
    braids, because the relation holds identically in q and survives
    scalars and conjugation; entries have mixed denominators in every
    h-degree, and its inverse has a prime (3) in the denominators of its
    higher h-coefficients that the operator's own do not have."""
    q = TruncPoly.from_coeffs([F(3, 2), F(1, 5), F(-1, 7)], trunc)
    s = TruncPoly.from_coeffs([F(1, 2), F(1, 3), F(-1, 5)], trunc)
    mat = PolyMat.from_entries(4, trunc, [
        (0, 0, q * s), (2, 1, q * q * s), (1, 2, q * q * s),
        (2, 2, (q - q * q * q) * s), (3, 3, q * s)])
    beta = unit_perturbation(2, random.Random(trunc), trunc)
    bb = beta.tensor(beta)
    return YBOperator(2, bb.inverse().compose(mat).compose(bb))


def _dihedral3_broken(trunc):
    """A rational entropic deformation of dihedral:3 plus one entry that
    breaks the braid relation."""
    op = entropic_operator(dihedral_rack(3), random.Random(3), trunc)
    mat = op.mat.add(PolyMat.from_entries(
        9, trunc, [(4, 7, TruncPoly.from_coeffs([0, F(2, 5)], trunc))]))
    return YBOperator(3, mat)


# (id, operator, expected outcome): "holds", "fails" at any triple, or
# "fails-late" at a triple after (0, 0, 0)
TRUNCATED_CASES = [
    ("jones-series-2", lambda: _jones_series(2), "holds"),
    ("jones-series-3", lambda: _jones_series(3), "holds"),
    ("jones-hf-2", lambda: _jones_times(
        2, [(1, 2, (F(1, 2), F(-2, 5))), (3, 0, (F(3, 7), F(1, 3)))]),
     "fails"),
    ("jones-hf-3", lambda: _jones_times(
        3, [(1, 2, (F(1, 2), F(-2, 5))), (3, 0, (F(3, 7), F(1, 3)))]),
     "fails"),
    ("jones-hf-late-2", lambda: _jones_times(
        2, [(2, 3, (F(1, 2), F(-2, 5))), (3, 3, (F(3, 7), F(5, 6)))]),
     "fails-late"),
    ("jones-hf-late-3", lambda: _jones_times(
        3, [(3, 3, (F(-1, 6), F(2, 5)))]), "fails-late"),
    ("dihedral3-broken-2", lambda: _dihedral3_broken(2), "fails-late"),
]


def test_check_ybe_failure_witness_against_dense_oracle():
    # identity plus a unit in the corner over n = 2: not a braiding
    mat = PolyMat.from_entries(4, 1, [(i, i, 1) for i in range(4)]
                               + [(0, 3, TruncPoly.one(1))])
    broken = YBOperator(2, mat)
    verdict = check_ybe(broken)
    assert not verdict.ok
    assert verdict.witness == _dense_witness(broken)


def test_check_ybe_matches_dense_oracle_on_passing_case():
    op = build_jones(2)
    lhs, rhs = _dense_triple_products(op)
    assert lhs == rhs and check_ybe(op).ok


@pytest.mark.parametrize("build, expect",
                         [(b, e) for _, b, e in TRUNCATED_CASES],
                         ids=[name for name, _, _ in TRUNCATED_CASES])
def test_check_ybe_matches_dense_oracle_over_truncated_polynomials(build,
                                                                   expect):
    op = build()
    witness = _dense_witness(op)
    verdict = check_ybe(op)
    assert (verdict.ok, verdict.witness) == (witness is None, witness)
    if expect == "holds":
        assert witness is None
    else:
        assert witness is not None
        if expect == "fails-late":
            assert witness != (0, 0, 0)


def _small_racks():
    """Every Alexander quandle on Z_n (x*y = t x + (1 - t) y, t a unit)
    and every permutation rack (x*y = sigma(x)) of size 1 to 3."""
    for n in (1, 2, 3):
        for t in range(n):
            if gcd(t, n) == 1:
                yield validate_rack([[(t * x + (1 - t) * y) % n
                                      for y in range(n)] for x in range(n)])
        for sigma in permutations(range(n)):
            yield validate_rack([[sigma[x]] * n for x in range(n)])


def test_check_ybe_first_failure_on_generated_racks():
    # check_ybe runs blocks of n columns, the triples (x, y, 0..n-1), and
    # stops at the first block that differs.  Its witness must still be
    # the first failing triple when that is not the first of its block,
    # and a failure in the last block must be reached.  At trunc 2 the
    # first failure of c_Q + h v E_rc depends only on the rack and (r, c);
    # on these racks it lies in the last block only for a few cells with
    # c = (n-1, n-1), so every row of that column is planted, besides four
    # cells drawn anywhere.
    rng = random.Random(11)
    inside = last = 0
    for rack in _small_racks():
        n = rack.size
        nn = n * n
        op = build_cq(rack, 2)
        cells = [(r, nn - 1) for r in range(nn)] + [
            (rng.randrange(nn), rng.randrange(nn)) for _ in range(4)]
        for r, c in cells:
            value = F(rng.randint(1, 5), rng.randint(1, 4))
            planted = PolyMat.from_entries(nn, 2, [
                (r, c, TruncPoly.from_coeffs([0, value], 2))])
            broken = YBOperator(n, op.mat.add(planted))
            witness = _dense_witness(broken)
            verdict = check_ybe(broken)
            assert (verdict.ok, verdict.witness) == (witness is None, witness)
            if witness is not None:
                x, y, z = witness
                inside += z > 0
                last += (x, y) == (n - 1, n - 1)
    assert inside and last


# -- braid representations --------------------------------------------------

def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    assert BraidWord.parse("1 2 -1").strands == 3


def test_braid_empty_word_is_identity():
    op = build_cq(dihedral_rack(3))
    assert braid_rep(op, BraidWord(3, ())) == PolyMat.identity(27, 1)


def test_braid_relation_on_three_strands():
    op = build_cq(dihedral_rack(3))
    lhs = braid_rep(op, BraidWord(3, (1, 2, 1)))
    rhs = braid_rep(op, BraidWord(3, (2, 1, 2)))
    assert lhs == rhs


def test_braid_generator_inverse_cancels():
    op = build_cq(dihedral_rack(3))
    assert braid_rep(op, BraidWord(2, (1, -1))) == PolyMat.identity(9, 1)


def test_braid_far_commutation_four_strands():
    op = build_cq(dihedral_rack(3))
    lhs = braid_rep(op, BraidWord(4, (1, 3)))
    rhs = braid_rep(op, BraidWord(4, (3, 1)))
    assert lhs == rhs


def test_braid_rep_is_homomorphism_on_concatenation():
    rng = random.Random(17)
    op = build_cq(square_reflection_quandle())
    for _ in range(5):
        w1 = tuple(rng.choice([1, 2, -1, -2]) for _ in range(3))
        w2 = tuple(rng.choice([1, 2, -1, -2]) for _ in range(3))
        a = braid_rep(op, BraidWord(3, w1))
        b = braid_rep(op, BraidWord(3, w2))
        ab = braid_rep(op, BraidWord(3, w1 + w2))
        assert ab == a.compose(b)


# rational deformations: a non-integral constant term (at trunc 2 the
# inverse's h-coefficients need the shared D), and a trunc-3 deformation of
# a rack operator on three-dimensional slots
RATIONAL_OPERATORS = [
    ("jones-series-2", lambda: _jones_series(2)),
    ("jones-series-3", lambda: _jones_series(3)),
    ("dihedral3-entropic-3",
     lambda: entropic_operator(dihedral_rack(3), random.Random(3), 3)),
]


@pytest.mark.parametrize("build", [b for _, b in RATIONAL_OPERATORS],
                         ids=[name for name, _ in RATIONAL_OPERATORS])
def test_braid_generator_inverse_cancels_over_rationals(build):
    op = build()
    n, trunc = op.rack_size, op.trunc
    assert braid_rep(op, BraidWord(2, (1, -1))) \
        == PolyMat.identity(n * n, trunc)
    assert braid_rep(op, BraidWord(3, (-2, 2))) \
        == PolyMat.identity(n ** 3, trunc)


@pytest.mark.parametrize("build", [b for _, b in RATIONAL_OPERATORS],
                         ids=[name for name, _ in RATIONAL_OPERATORS])
def test_braid_rep_is_homomorphism_on_concatenation_over_rationals(build):
    op = build()
    rng = random.Random(17)
    for _ in range(3):
        w1 = tuple(rng.choice([1, 2, -1, -2]) for _ in range(3))
        w2 = tuple(rng.choice([1, 2, -1, -2]) for _ in range(3))
        a = braid_rep(op, BraidWord(3, w1))
        b = braid_rep(op, BraidWord(3, w2))
        ab = braid_rep(op, BraidWord(3, w1 + w2))
        assert ab == a.compose(b)


def test_braid_rep_refuses_oversized_matrix_before_allocating():
    # 2^24 columns: over the entry limit, refused before any column exists
    with pytest.raises(SizeOverflow):
        braid_rep(build_tau(2), BraidWord(24, ()))


def test_braid_rep_with_jones_operator():
    op = build_jones(2)
    lhs = braid_rep(op, BraidWord(3, (1, 2, 1)))
    rhs = braid_rep(op, BraidWord(3, (2, 1, 2)))
    assert lhs == rhs


# -- traces ------------------------------------------------------------------

def test_trace_power_tau_square():
    for n in (2, 3, 4):
        assert trace_power(build_tau(n), 2) == TruncPoly.const(n * n, 1)


def test_trace_power_cq_counts_fixed_pairs():
    assert trace_power(build_cq(dihedral_rack(3)), 1) == TruncPoly.const(3, 1)


@pytest.mark.parametrize("rack", CORPUS_RACKS, ids=CORPUS_IDS)
def test_trace_power_equals_fixed_points_of_permutation(rack):
    # oracle: iterate the basis permutation directly
    n = rack.size
    op = build_cq(rack)
    for k in (1, 2, 3):
        fixed = 0
        for x in range(n):
            for y in range(n):
                a, b = x, y
                for _ in range(k):
                    a, b = b, rack.op(a, b)
                if (a, b) == (x, y):
                    fixed += 1
        assert trace_power(op, k) == TruncPoly.const(fixed, 1)
