"""Property test: the trace of a braid representation is invariant under
conjugation, trace(beta w beta^-1) = trace(w), on generated racks.

The operators are c_Q (I + h f) over Q[h]/(h^2) for a random rational f,
on the Alexander quandles and permutation racks of size at most 4 from
test_cohomology_properties.  beta always holds an inverse letter, so
braid_rep inverts the operator.
"""

from hypothesis import given, settings, strategies as st

from test_cohomology_properties import fractions, racks
from ybrack.linalg import SparseMat
from ybrack.truncpoly import PolyMat
from ybrack.yangbaxter import BraidWord, YBOperator, braid_rep, build_cq

STRANDS = 3
letters = st.sampled_from([1, 2, -1, -2])


@st.composite
def deformed_operators(draw):
    rack = draw(racks())
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
