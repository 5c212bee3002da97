"""Property tests of braid_rep on generated racks.

The trace of a braid representation is invariant under conjugation,
trace(beta w beta^-1) = trace(w); beta always holds an inverse letter, so
braid_rep inverts the operator.  On four strands, where braid_rep runs
several blocks of basis columns, a word's matrix is the product of its
generator matrices I (x) c (x) I, formed apart from the slot kernel.

The operators are c_Q (I + h f) over Q[h]/(h^2) for a random rational f,
on the Alexander quandles and permutation racks of size at most 4 from
test_cohomology_properties.
"""

from hypothesis import given, settings, strategies as st

from test_cohomology_properties import fractions, racks
from test_polymat_properties import convolution_compose
from ybrack.linalg import SparseMat
from ybrack.truncpoly import PolyMat
from ybrack.yangbaxter import BraidWord, YBOperator, braid_rep, build_cq

STRANDS = 3
letters = st.sampled_from([1, 2, -1, -2])


@st.composite
def deformed_operators(draw, max_size=4):
    rack = draw(racks(max_size))
    nn = rack.size ** 2
    cells = st.tuples(st.integers(0, nn - 1), st.integers(0, nn - 1))
    f = draw(st.dictionaries(cells, fractions, max_size=8))
    pert = PolyMat.identity(nn, 2).add(PolyMat.from_rational(
        SparseMat(nn, nn, {k: v for k, v in f.items() if v}), 2, 1))
    return YBOperator(rack.size, build_cq(rack, 2).mat.compose(pert))


@settings(max_examples=40)
@given(deformed_operators(), st.lists(letters, max_size=4),
       st.lists(letters, max_size=2), st.sampled_from([-1, -2]))
def test_braid_trace_is_conjugation_invariant(op, w, beta, inverse):
    beta = beta + [inverse]
    conj = beta + w + [-l for l in reversed(beta)]
    want = braid_rep(op, BraidWord(STRANDS, tuple(w))).trace()
    assert braid_rep(op, BraidWord(STRANDS, tuple(conj))).trace() == want


def generator_matrix(op, inverse, letter, strands):
    """sigma_|letter| on strands tensor factors, I (x) c (x) I, with c the
    operator or, for a negative letter, its inverse."""
    n, order = op.rack_size, op.trunc
    i = abs(letter)
    left = PolyMat.identity(n ** (i - 1), order)
    right = PolyMat.identity(n ** (strands - 1 - i), order)
    return left.tensor(inverse if letter < 0 else op.mat).tensor(right)


@settings(max_examples=30)
@given(deformed_operators(max_size=3),
       st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=4),
       st.sampled_from([-1, -2, -3]))
def test_braid_rep_is_the_product_of_generator_matrices(op, word, inverse):
    # braid_rep builds a four-strand matrix in n^2 blocks of n^2 columns;
    # the empty word has no letter to set a block width
    n, order = op.rack_size, op.trunc
    inv = op.mat.inverse()
    assert braid_rep(op, BraidWord(4, ())) == PolyMat.identity(n ** 4, order)
    word = word + [inverse]
    want = PolyMat.identity(n ** 4, order)
    for letter in word:
        want = convolution_compose(
            want, generator_matrix(op, inv, letter, 4))
    assert braid_rep(op, BraidWord(4, tuple(word))) == want
