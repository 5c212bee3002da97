"""The integer slot kernel of truncpoly against a per-letter filtering
oracle, and the matrices it writes back against the checking SparseMat
constructor.

_apply_word drops the zeros of a block once, at the end of a word, and
_apply_slots splits a key as pair = e // base % nn, rest = e - pair *
base.  The oracle here is the kernel without either: every key split by
divmod, the zeros dropped after every letter.  A unipotent letter, one
whose constant term is the identity, is compiled without that term and
applied in place as X += N X; the oracle applies it into a copy of its
input, and a separate property compares it with the same letter, its
identity kept, applied into a fresh block.  Every product below is
read back coefficient by coefficient and rebuilt through SparseMat(rows,
cols, entries), whose per-entry check finds a stored zero or an entry
out of range; the PolyMat constructor's own checks of a block are
tested on planted faults.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from test_braid_properties import deformed_operators
from test_polymat_properties import (dense_mats, fixed_dense,
                                     invertible_dense, polys, sizes,
                                     to_polymat, unipotent_dense)
from test_yangbaxter import _dense_witness
from ybrack.linalg import DimensionMismatch, SparseMat
from ybrack.truncpoly import (PolyMat, TruncPoly, _apply_slots, _apply_word,
                              _block, _compile_word, _int_blocks, _transposed)
from ybrack.yangbaxter import (BraidWord, YBOperator, YbeVerdict, _braid_word,
                               braid_rep, check_ybe, conjugate)

PROPS = settings(max_examples=40)


def filtered_apply_slots(letter, base, vec):
    """One letter on a block, every key split by divmod, and the zeros of
    the result dropped at once; a unipotent letter adds its products to
    a copy of vec."""
    unipotent, tables = letter
    nn = len(tables[0])
    out = [dict(part) if unipotent else {} for part in vec]
    for part, table in zip(vec, tables):
        for e, a in part.items():
            q, lo = divmod(e, base)
            pair = q % nn
            rest = (q - pair) * base + lo
            for deg, shift, c in table[pair]:
                key = rest + shift
                out[deg][key] = out[deg].get(key, 0) + c * a
    return [{e: a for e, a in part.items() if a} for part in out]


def filtered_apply_word(letters, word, vec):
    for step in word:
        vec = filtered_apply_slots(letters[step], step[1], vec)
    return vec


def apply_letter(letter, base, vec):
    """One letter on a block by _apply_slots, its zeros kept, vec itself
    unchanged: a unipotent letter acts in place on a copy."""
    unipotent, tables = letter
    if not unipotent:
        return _apply_slots(tables, base, vec)
    out = [dict(part) for part in vec]
    return _apply_slots(tables, base, out, out)


def cancels_mid_word(letters, word, vec):
    """Whether a letter before the last leaves a stored zero in the block
    that _apply_word carries on to the next letter."""
    for step in word[:-1]:
        vec = apply_letter(letters[step], step[1], vec)
        if any(0 in part.values() for part in vec):
            return True
    return False


def int_block(dense):
    """The block of the integer matrices dense[k][row][col]: entry (r, c)
    of degree k at key c * dim + r, column by column."""
    return [{c * len(rows) + r: rows[r][c] for c in range(len(rows))
             for r in range(len(rows)) if rows[r][c]} for rows in dense]


def int_mats(dim, order):
    """order integer dim x dim matrices, entries in -2..2, most of them 0."""
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    row = st.lists(entries, min_size=dim, max_size=dim)
    mat = st.lists(row, min_size=dim, max_size=dim)
    return st.lists(mat, min_size=order, max_size=order)


# H e_0 = e_0 + e_1 and H (e_0 + e_1) = 2 e_0 + 0 e_1: a sum cancels
HADAMARD = [[1, 1], [1, -1]]


@st.composite
def words(draw):
    """(n, order, mats, word, block) on dim = n^4: letter 0, a (block,
    width) pair as _compile_word takes it, acts on two slots (n^2 x n^2),
    letter 1 on one (n x n), each at base 1, n or n^2 on the row index or
    at base dim, n dim or n^2 dim on the column index; the block holds
    random integers at random keys in every degree."""
    n = draw(st.integers(2, 3))
    order = draw(st.integers(1, 4))
    mats = [(int_block(draw(int_mats(n * n, order))), n * n),
            (int_block(draw(int_mats(n, order))), n)]
    dim = n ** 4
    weights = [1, n, n * n, dim, n * dim, n * n * dim]
    steps = st.tuples(st.integers(0, 1), st.sampled_from(weights))
    word = draw(st.lists(steps, min_size=1, max_size=5))
    keys = st.integers(0, dim * dim - 1)
    values = st.integers(-3, 3)
    block = [draw(st.dictionaries(keys, values, max_size=12))
             for _ in range(order)]
    return n, order, mats, word, block


def hadamard_word(order):
    """H in degree 0 on one slot of width 2 at bases 1, 2 and 4, three
    times each, on all columns of dim = 16: cancels mid-word."""
    mats = [(int_block([HADAMARD] + [[[0, 0], [0, 0]]] * (order - 1)), 2)]
    word = [(0, 1)] * 3 + [(0, 2)] * 3 + [(0, 4)] * 3
    return 2, order, mats, word, _block(0, 16, 16, order)


def near_identity_word(kind, order=3):
    """A letter of width 4 and one of width 2 whose C_0 is near I but not
    I, so neither is unipotent: 2 I, I plus one off-diagonal entry, or a
    cyclic permutation; C_1 is all ones.  They act at row and column
    weights on all columns of dim = 16."""
    def letter(w):
        near = {"double": lambda r, c: 2 * (r == c),
                "shear": lambda r, c: int(r == c or (r, c) == (0, w - 1)),
                "cycle": lambda r, c: int(c == (r + 1) % w)}[kind]
        mats = [[[near(r, c) for c in range(w)] for r in range(w)],
                [[1] * w for _ in range(w)]] + [[[0] * w] * w] * (order - 2)
        return int_block(mats), w
    word = [(0, 1), (1, 16), (0, 4), (1, 2), (0, 16), (1, 1)]
    return 2, order, [letter(4), letter(2)], word, _block(0, 16, 16, order)


@PROPS
@given(words())
@example(hadamard_word(1))
@example(hadamard_word(3))
@example(near_identity_word("double"))
@example(near_identity_word("shear"))
@example(near_identity_word("cycle"))
def test_kernel_matches_the_per_letter_filter(case):
    n, order, mats, word, block = case
    letters = _compile_word(mats, word, order)
    # unipotent exactly when the constant term is I
    for (m, _), (unipotent, _) in letters.items():
        block0, width = mats[m][0][0], mats[m][1]
        assert unipotent == (block0 == {j * (width + 1): 1
                                        for j in range(width)})
    got = _apply_word(letters, word, block)
    assert got == filtered_apply_word(letters, word, block)
    assert all(all(part.values()) for part in got)


def unipotent_letter(letter, k):
    """The letter of I + sum_{j >= k} u^j C_j, for C_j the parts of the
    block of letter."""
    block, width = letter
    ident = {j * (width + 1): 1 for j in range(width)}
    return [ident] + [{} for _ in range(1, k)] + block[k:], width


def identity_kept(mats, word, order):
    """The letters of word compiled with every k1 = 0 product, the
    identity of a unipotent letter included, each applied into a fresh
    block: the layout of a letter that is not unipotent."""
    letters = {}
    for m, base in set(word):
        block, width = mats[m]
        tables = [[[] for _ in range(width)] for _ in range(order)]
        for k2 in range(order):
            for k1 in range(order - k2):
                for e, c in block[k1].items():
                    pair, row = divmod(e, width)
                    tables[k2][pair].append((k1 + k2, row * base, c))
        letters[(m, base)] = (False, tables)
    return letters


@st.composite
def unipotent_words(draw):
    """(case, k, both): a case of words(), a k in 1..order-1 (1 at order
    1), and whether letter 1 is made unipotent too, beside letter 0."""
    case = draw(words())
    return case, draw(st.integers(1, max(1, case[1] - 1))), draw(st.booleans())


@PROPS
@given(unipotent_words())
@example((hadamard_word(4), 2, True))
@example((hadamard_word(4), 3, False))
def test_unipotent_letters_in_place_match_the_identity_kept(case):
    """I + u^k N in place, at row and column weights and at every k: for
    k >= order / 2 the product of two such letters on different slots
    loses its N (x) N term to the truncation."""
    (n, order, mats, word, block), k, both = case
    mats = [unipotent_letter(mats[0], k),
            unipotent_letter(mats[-1], k) if both else mats[-1]]
    letters = _compile_word(mats, word, order)
    assert all(letters[(m, base)][0] for m, base in word if m == 0 or both)
    before = [dict(part) for part in block]
    got = _apply_word(letters, word, block)
    assert block == before
    assert got == filtered_apply_word(identity_kept(mats, word, order),
                                      word, block)
    assert all(all(part.values()) for part in got)


def test_apply_word_leaves_its_input_when_the_first_letter_is_unipotent():
    # I + u [[0, 2], [1, 0]] on two slots of width 2
    mats = [([{0: 1, 3: 1}, {1: 1, 2: 2}], 2)]
    word = [(0, 1), (0, 2)]
    letters = _compile_word(mats, word, 2)
    assert letters[(0, 1)][0]
    block = _block(0, 4, 4, 2)
    got = _apply_word(letters, word, block)
    assert block == _block(0, 4, 4, 2)
    assert got == filtered_apply_word(letters, word, block)
    assert got[1]


def test_check_ybe_holds_on_a_unipotent_one_by_one_operator():
    """c = 1 + h + h^2 on the 1 x 1 rack: both braid words start from one
    shared block of its one column, which the in-place letters of the
    first word must not change."""
    op = YBOperator(1, PolyMat.from_entries(
        1, 3, [(0, 0, TruncPoly.from_coeffs([1, 1, 1]))]))
    assert check_ybe(op) == YbeVerdict(True)


@PROPS
@given(st.integers(1, 3).flatmap(lambda n: st.integers(1, 3).flatmap(
    lambda order: st.tuples(dense_mats(n * n, order), dense_mats(n, order)))))
@example((fixed_dense(4, 3), unipotent_dense(2, 3)))
def test_column_letters_multiply_on_the_right(case):
    """The letter of alpha^T at the column weights n^3 and n^2 of the
    block of c is c (alpha x alpha)."""
    c, alpha = map(to_polymat, case)
    n, order = alpha.dim, alpha.order
    dim = n * n
    (cb, ab), (d, da), big = _int_blocks([c, alpha])
    word = [(0, n * dim), (0, dim)]
    letters = _compile_word([(_transposed(ab, n), n)], word, order)
    got = _apply_word(letters, word, cb)
    dens = [d * da * da * big ** k for k in range(order)]
    assert PolyMat(dim, order, got, dens) == c.compose(alpha.tensor(alpha))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_hadamard_word_cancels_mid_word(order):
    _, _, mats, word, block = hadamard_word(order)
    letters = _compile_word(mats, word, order)
    assert cancels_mid_word(letters, word, block)
    # H^3 = 2 H on three slots: every entry is in degree 0
    got = _apply_word(letters, word, block)
    assert got == filtered_apply_word(letters, word, block)
    assert all(not part for part in got[1:])


# -- check_ybe when letters cancel mid-word ---------------------------------

def hadamard_square(trunc):
    """H (x) H plus h times the identity: c1 c2 c1 and c2 c1 c2 cancel
    mid-word and differ."""
    entries = [(2 * r + s, 2 * c + t, HADAMARD[r][c] * HADAMARD[s][t])
               for r in range(2) for c in range(2)
               for s in range(2) for t in range(2)]
    mat = PolyMat.from_entries(4, trunc, entries)
    if trunc > 1:
        mat = mat.add(PolyMat.from_rational(SparseMat.identity(4), trunc, 1))
    return YBOperator(2, mat)


@st.composite
def signed_operators(draw):
    """Operators on n = 2 whose h^k coefficients have entries in -1..1,
    which makes cancellation inside the braid words likely."""
    order = draw(st.integers(1, 2))
    mats = draw(st.lists(st.lists(st.lists(st.sampled_from([0, 1, -1]),
                                           min_size=4, max_size=4),
                                  min_size=4, max_size=4),
                         min_size=order, max_size=order))
    return YBOperator(2, PolyMat.from_entries(4, order, [
        (r, c, TruncPoly.from_coeffs([m[r][c] for m in mats], order))
        for r in range(4) for c in range(4)]))


def ybe_cancels_mid_word(op):
    """Whether a block of check_ybe meets a stored zero before the last
    letter of either braid word."""
    (block,), _, _ = _int_blocks([op.mat])
    lhs = _braid_word(2, 3, (1, 2, 1))
    rhs = _braid_word(2, 3, (2, 1, 2))
    letters = _compile_word([(block, 4)], lhs + rhs, op.trunc)
    return any(cancels_mid_word(letters, word, _block(s, s + 2, 8, op.trunc))
               for word in (lhs, rhs) for s in range(0, 8, 2))


@pytest.mark.parametrize("trunc", [1, 2, 3])
def test_check_ybe_witness_when_letters_cancel_mid_word(trunc):
    op = hadamard_square(trunc)
    assert ybe_cancels_mid_word(op)
    verdict = check_ybe(op)
    witness = _dense_witness(op)
    assert witness is not None
    assert (verdict.ok, verdict.witness) == (False, witness)


@PROPS
@given(signed_operators())
def test_check_ybe_witness_matches_dense_oracle_on_signed_operators(op):
    verdict = check_ybe(op)
    witness = _dense_witness(op)
    assert (verdict.ok, verdict.witness) == (witness is None, witness)


# -- results: every coefficient passes the checking constructor -------------

def assert_clean(m: PolyMat):
    """No stored zero and no entry out of range in any coefficient
    matrix, by the checking constructor, and every value a Fraction."""
    for k in range(m.order):
        part = m.coefficient_matrix(k)
        assert SparseMat(part.rows, part.cols, dict(part.entries)) == part
        assert all(type(v) is Fraction for v in part.entries.values())


@PROPS
@given(sizes.flatmap(lambda s: st.tuples(dense_mats(*s), dense_mats(*s),
                                         polys(s[1]))))
@example((fixed_dense(3, 3), [[TruncPoly.zero(3)] * 3] * 3,
          TruncPoly.zero(3)))
def test_products_store_no_zero(case):
    a, b, s = case
    pa, pb = to_polymat(a), to_polymat(b)
    for m in (pa.compose(pb), pa.tensor(pb), pb.tensor(pa), pa.scaled(s),
              pa.scaled(0), pa.power(0), pa.power(2),
              pa.compose(pa.scaled(-1))):
        assert_clean(m)


@PROPS
@given(sizes.flatmap(lambda s: invertible_dense(*s)))
@example(unipotent_dense(4, 3))
def test_inverse_products_store_no_zero(a):
    pa = to_polymat(a)
    inv = pa.inverse()
    ident = PolyMat.identity(pa.dim, pa.order)
    # M M^-1 cancels every entry off the diagonal
    assert pa.compose(inv) == ident and inv.compose(pa) == ident
    for m in (inv, pa.compose(inv), pa.power(-2), pa.power(-1).compose(pa)):
        assert_clean(m)


letters = st.sampled_from([1, 2, -1, -2])


@settings(max_examples=20)
@given(deformed_operators(max_size=3), st.lists(letters, max_size=4))
def test_braid_rep_stores_no_zero(op, word):
    assert_clean(braid_rep(op, BraidWord(3, tuple(word))))
    # sigma_1 sigma_1^-1 cancels to the identity
    assert_clean(braid_rep(op, BraidWord(3, (1, -1))))


@st.composite
def conjugations(draw):
    """(op, alpha): a deformed operator and an alpha = I mod h."""
    op = draw(deformed_operators(max_size=3))
    rows = draw(dense_mats(op.rack_size, op.trunc))
    return op, to_polymat([[v - v.constant + int(r == c)
                            for c, v in enumerate(row)]
                           for r, row in enumerate(rows)])


@settings(max_examples=20)
@given(conjugations())
def test_conjugate_stores_no_zero(case):
    op, alpha = case
    out = conjugate(op, alpha)
    assert_clean(out.mat)
    # conjugating back by alpha^-1 cancels to the operator
    assert conjugate(out, alpha.inverse()) == op


def test_polymat_rejects_a_planted_zero():
    with pytest.raises(ValueError, match="zero"):
        PolyMat(3, 1, [{0: 1, 4: 0}], [1])
    with pytest.raises(ValueError, match="zero"):
        PolyMat(3, 2, [{0: 1}, {8: 0}], [1, 1])


def test_polymat_rejects_a_key_out_of_range():
    with pytest.raises(DimensionMismatch):
        PolyMat(3, 1, [{9: 1}], [1])
    with pytest.raises(DimensionMismatch):
        PolyMat(3, 2, [{}, {-1: 1}], [1, 1])
    # the last key in range is kept
    m = PolyMat(3, 1, [{8: 2}], [3])
    assert m.coefficient_matrix(0).entries == {(2, 2): Fraction(2, 3)}


# -- _int_blocks: one u = h/D for a list of matrices -------------------------

def own_scales(m: PolyMat) -> tuple[int, int]:
    """(d0, D) of m alone, from its fractions: d0 clears the constant
    term, D the h-coefficients of d0 * m."""
    d0 = lcm(*(a.denominator for a in m.constant.entries.values()))
    return d0, lcm(*((d0 * a).denominator for k in range(1, m.order)
                     for a in m.coefficient_matrix(k).entries.values()))


@PROPS
@given(st.integers(1, 4).flatmap(lambda order: st.lists(
    st.integers(1, 3).flatmap(lambda dim: dense_mats(dim, order)),
    min_size=1, max_size=3)))
@example([fixed_dense(3, 3), unipotent_dense(2, 3)])
def test_int_blocks_share_one_u_and_write_back(dense):
    mats = [to_polymat(rows) for rows in dense]
    blocks, d0s, big = _int_blocks(mats)
    assert len(blocks) == len(d0s) == len(mats)
    assert big == lcm(*(own_scales(m)[1] for m in mats))
    for m, block, d0 in zip(mats, blocks, d0s):
        assert d0 == own_scales(m)[0]
        assert len(block) == m.order
        assert all(type(a) is int for part in block for a in part.values())
        dens = [d0 * big ** k for k in range(m.order)]
        assert PolyMat(m.dim, m.order, block, dens) == m


def test_int_blocks_take_d_one_when_d0_clears_the_h_terms():
    """1/6 + h/3 + 5h^2/2 at (0, 0) and 1 at (1, 1): d0 = 6 clears every
    higher denominator, so u = h."""
    m = PolyMat.from_entries(2, 3, [
        (0, 0, TruncPoly.from_coeffs([Fraction(1, 6), Fraction(1, 3),
                                      Fraction(5, 2)])),
        (1, 1, 1)])
    assert _int_blocks([m]) == ([[{0: 1, 3: 6}, {0: 2}, {0: 15}]], [6], 1)
