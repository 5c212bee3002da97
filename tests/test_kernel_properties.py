"""kernel_basis against a Fraction-only oracle.

kernel_basis eliminates the integer rows of a matrix over Q, keeping
them as ints while the pivots are +-1; it must return the canonical
basis that the copy-per-step Fraction elimination of test_linalg gives,
on coboundary rows, on small rational matrices and on entries as wide
as multiples of P.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_cohomology_properties import racks
from test_linalg import fraction_rref
from ybrack.cohomology import coboundary_matrix, cocycle_space
from ybrack.linalg import P, SparseMat, Subspace, kernel_basis
from ybrack.racks import dihedral_rack

F = Fraction


def oracle_kernel(m):
    """Kernel from the Fraction-only reduced echelon form."""
    ref_rows, piv_cols = fraction_rref([r for r in m.row_vectors() if r])
    basis = []
    for f in sorted(set(range(m.cols)) - set(piv_cols)):
        v = {f: F(1)}
        for pc, row in zip(piv_cols, ref_rows):
            if row.get(f):
                v[pc] = -row[f]
        basis.append(v)
    rows, pivots = fraction_rref(basis)
    return Subspace(m.cols, tuple(rows), tuple(pivots))


@st.composite
def rational_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    values = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
    entries = draw(st.dictionaries(cells, values, max_size=rows * cols))
    return SparseMat(rows, cols, {k: v for k, v in entries.items() if v})


@settings(max_examples=40)
@given(racks(), st.sampled_from([1, 2]))
def test_coboundary_kernel_matches_oracle_without_fallback(rack, degree):
    m = coboundary_matrix(rack, degree)
    got = kernel_basis(m)
    assert got == oracle_kernel(m)
    assert all(type(v) is F for row in got.basis for v in row.values())


@settings(max_examples=200)
@given(rational_matrices())
def test_rational_kernel_matches_oracle(m):
    assert kernel_basis(m) == oracle_kernel(m)


FALLBACK_CASES = {
    # wide entries: a multiple of P, a rank that drops only mod P,
    # denominators divisible by P, and the kernel entry
    # -(10^6 + 3)/(10^6 + 7), whose numerator and denominator exceed 2^15
    "entry-P": [[P, 0], [0, 1]],
    "rank-drop": [[1, 1], [1, 1 + P]],
    "denominator-P": [[F(1, P), 1], [2, F(3, 2 * P)]],
    "no-reconstruction": [[F(10 ** 6 + 3, 10 ** 6 + 7), 1]],
}


@pytest.mark.parametrize("dense", FALLBACK_CASES.values(),
                         ids=FALLBACK_CASES.keys())
def test_fallback_matches_oracle(dense):
    m = SparseMat.from_dense(dense)
    assert kernel_basis(m) == oracle_kernel(m)


def test_fallback_on_a_coboundary_matrix():
    # the distinct integer rows give the kernel, for kernel_basis and
    # cocycle_space
    rack = dihedral_rack(4)
    m = coboundary_matrix(rack, 2)
    want = oracle_kernel(m)
    assert kernel_basis(m) == want
    assert cocycle_space(rack, 2) == want
