"""The integer slot kernel of truncpoly against a per-letter filtering
oracle, and the matrices it writes back against the checking SparseMat
constructor.

_apply_word drops the zeros of a block once, at the end of a word, and
_apply_slots splits a key as pair = e // base % nn, rest = e - pair *
base.  The oracle here is the kernel without either: every key split by
divmod, the zeros dropped after every letter.  _from_blocks builds its parts without
SparseMat's per-entry check, so every product below is rebuilt part by
part through SparseMat(rows, cols, entries), which makes that check.
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
                              _block, _block_form, _compile_word, _from_blocks,
                              _int_block, _int_form, _scales)
from ybrack.yangbaxter import (BraidWord, YBOperator, _braid_word, braid_rep,
                               check_ybe, conjugate)

PROPS = settings(max_examples=40)


def filtered_apply_slots(letter, base, vec):
    """One letter on a block, every key split by divmod, and the zeros of
    the result dropped at once."""
    nn = len(letter[0])
    out = [{} for _ in vec]
    for part, table in zip(vec, letter):
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


def cancels_mid_word(letters, word, vec):
    """Whether a letter before the last leaves a stored zero in the block
    that _apply_word carries on to the next letter."""
    for step in word[:-1]:
        vec = _apply_slots(letters[step], step[1], vec)
        if any(0 in part.values() for part in vec):
            return True
    return False


def int_form(dense):
    """form[k][col] of the integer matrices dense[k][row][col]."""
    return [[[(r, rows[r][c]) for r in range(len(rows)) if rows[r][c]]
             for c in range(len(rows))] for rows in dense]


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
    """(n, order, forms, word, block) on dim = n^4: form 0 acts on two
    slots (n^2 x n^2), form 1 on one (n x n), each at base 1, n or n^2 on
    the row index or at base dim, n dim or n^2 dim on the column index;
    the block holds random integers at random keys in every degree."""
    n = draw(st.integers(2, 3))
    order = draw(st.integers(1, 4))
    forms = [int_form(draw(int_mats(n * n, order))),
             int_form(draw(int_mats(n, order)))]
    dim = n ** 4
    weights = [1, n, n * n, dim, n * dim, n * n * dim]
    steps = st.tuples(st.integers(0, 1), st.sampled_from(weights))
    word = draw(st.lists(steps, min_size=1, max_size=5))
    keys = st.integers(0, dim * dim - 1)
    values = st.integers(-3, 3)
    block = [draw(st.dictionaries(keys, values, max_size=12))
             for _ in range(order)]
    return n, order, forms, word, block


def hadamard_word(order):
    """H in degree 0 on one slot of width 2 at bases 1, 2 and 4, three
    times each, on all columns of dim = 16: cancels mid-word."""
    forms = [int_form([HADAMARD] + [[[0, 0], [0, 0]]] * (order - 1))]
    word = [(0, 1)] * 3 + [(0, 2)] * 3 + [(0, 4)] * 3
    return 2, order, forms, word, _block(0, 16, 16, order)


@PROPS
@given(words())
@example(hadamard_word(1))
@example(hadamard_word(3))
def test_kernel_matches_the_per_letter_filter(case):
    n, order, forms, word, block = case
    letters = _compile_word(forms, word, order)
    got = _apply_word(letters, word, block)
    assert got == filtered_apply_word(letters, word, block)
    assert all(all(part.values()) for part in got)


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
    (d, big), (da, ba) = _scales(c), _scales(alpha)
    big = lcm(big, ba)
    word = [(0, n * dim), (0, dim)]
    letters = _compile_word(
        [_block_form(_int_block(alpha, da, big), n, transpose=True)],
        word, order)
    got = _apply_word(letters, word, _int_block(c, d, big))
    dens = [d * da * da * big ** k for k in range(order)]
    assert _from_blocks([got], dens, dim, order) \
        == c.compose(alpha.tensor(alpha))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_hadamard_word_cancels_mid_word(order):
    _, _, forms, word, block = hadamard_word(order)
    letters = _compile_word(forms, word, order)
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
    form = _int_form(op.mat, *_scales(op.mat))
    lhs = _braid_word(2, 3, (1, 2, 1))
    rhs = _braid_word(2, 3, (2, 1, 2))
    letters = _compile_word([form], lhs + rhs, op.trunc)
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


# -- write-back: every part passes the checking constructor -----------------

def assert_clean(m: PolyMat):
    """No stored zero and no entry out of range in any part, by the
    checking constructor, and every value a Fraction."""
    for part in m.parts:
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


def test_from_blocks_rejects_a_planted_zero():
    with pytest.raises(ValueError, match="zero"):
        _from_blocks([[{0: 1, 4: 0}]], [1], 3, 1)
    with pytest.raises(ValueError, match="zero"):
        _from_blocks([[{0: 1}, {8: 0}]], [1, 1], 3, 2)


def test_from_blocks_rejects_a_key_out_of_range():
    with pytest.raises(DimensionMismatch):
        _from_blocks([[{9: 1}]], [1], 3, 1)
    with pytest.raises(DimensionMismatch):
        _from_blocks([[{}, {-1: 1}]], [1, 1], 3, 2)
    # the last key in range is written back
    m = _from_blocks([[{8: 2}]], [3], 3, 1)
    assert m.parts[0].entries == {(2, 2): Fraction(2, 3)}
