"""kernel_basis against a Fraction-only oracle.

kernel_basis eliminates mod P, lifts and certifies its result exactly,
and falls back to elimination over Q when any of that fails; either way
it must return the canonical basis that elimination over Q gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_cohomology_properties import racks
from ybrack import linalg
from ybrack.cohomology import coboundary_matrix, cocycle_space
from ybrack.linalg import P, SparseMat, Subspace, kernel_basis, rref
from ybrack.racks import dihedral_rack

F = Fraction


def oracle_kernel(m):
    """Kernel from the reduced echelon form over Q."""
    ref_rows, piv_cols = rref([r for r in m.row_vectors() if r])
    basis = []
    for f in sorted(set(range(m.cols)) - set(piv_cols)):
        v = {f: F(1)}
        for pc, row in zip(piv_cols, ref_rows):
            if row.get(f):
                v[pc] = -row[f]
        basis.append(v)
    return Subspace.from_vectors(m.cols, basis)


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
    rows = linalg.distinct_rows(
        tuple(x for c in sorted(r) for x in (c, int(r[c])))
        for r in m.row_vectors())
    assert linalg._modular_kernel(m.cols, rows) is not None
    assert kernel_basis(m) == oracle_kernel(m)


@settings(max_examples=200)
@given(rational_matrices())
def test_rational_kernel_matches_oracle(m):
    assert kernel_basis(m) == oracle_kernel(m)


FALLBACK_CASES = {
    # P vanishes mod P, so the rank drops and a lifted vector fails m v = 0
    "entry-P": [[P, 0], [0, 1]],
    "rank-drop": [[1, 1], [1, 1 + P]],
    "denominator-P": [[F(1, P), 1], [2, F(3, 2 * P)]],
    # the kernel entry -(10^6 + 7)/(10^6 + 3) is too large to reconstruct
    "no-reconstruction": [[F(10 ** 6 + 3, 10 ** 6 + 7), 1]],
}


@pytest.mark.parametrize("dense", FALLBACK_CASES.values(),
                         ids=FALLBACK_CASES.keys())
def test_fallback_matches_oracle(dense, monkeypatch):
    calls = []
    rational = linalg._rational_kernel

    def counted(*args):
        calls.append(args)
        return rational(*args)

    monkeypatch.setattr(linalg, "_rational_kernel", counted)
    m = SparseMat.from_dense(dense)
    assert kernel_basis(m) == oracle_kernel(m)
    assert len(calls) == 1


def test_fallback_on_a_coboundary_matrix(monkeypatch):
    # no lift succeeds, so the Fraction elimination of the distinct
    # integer rows gives the kernel, for kernel_basis and cocycle_space
    calls = []
    rational = linalg._rational_kernel
    monkeypatch.setattr(linalg, "_lift", lambda x: None)
    monkeypatch.setattr(linalg, "_rational_kernel",
                        lambda *args: calls.append(args) or rational(*args))
    rack = dihedral_rack(4)
    m = coboundary_matrix(rack, 2)
    want = oracle_kernel(m)
    assert kernel_basis(m) == want
    assert cocycle_space(rack, 2) == want
    assert len(calls) == 2


def test_lift_reconstructs_small_fractions_only():
    for q in (F(0), F(1), F(-2), F(3, 7), F(-32767, 32766)):
        x = q.numerator * pow(q.denominator, -1, P) % P
        assert linalg._lift(x) == q
    x = (10 ** 6 + 3) * pow(10 ** 6 + 7, -1, P) % P
    assert linalg._lift(x) is None
