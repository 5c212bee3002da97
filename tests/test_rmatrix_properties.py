"""Property test of criterion 12 on generated racks: for an invertible
entropic f over Q[h]/(h^2), c_Q f and tau f satisfy the Yang-Baxter
equation together or fail it together.

The racks are the Alexander quandles and permutation racks of size at
most 4 from test_cohomology_properties.  f is a combination of the orbit
indicators of E^2 in each power of h; its constant term is drawn with
nonzero coefficients and kept only when invertible.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from test_cohomology_properties import fractions, racks
from ybrack import linalg
from ybrack.cohomology import entropic_basis
from ybrack.deformations import rmatrix_equivalence
from ybrack.truncpoly import PolyMat

nonzero = st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1),
                    st.integers(1, 4))


@st.composite
def invertible_entropic_maps(draw):
    rack = draw(racks())
    f = PolyMat(rack.size ** 2, 2)
    for c in entropic_basis(rack, 2).cochains():
        f = f.add(PolyMat.from_rational(c, 2).scaled(draw(nonzero)))
        f = f.add(PolyMat.from_rational(c, 2, 1).scaled(draw(fractions)))
    assume(linalg.rank(f.constant) == rack.size ** 2)
    return rack, f


@settings(max_examples=60)
@given(invertible_entropic_maps())
def test_criterion_12_on_generated_racks(rack_f):
    rack, f = rack_f
    assert rmatrix_equivalence(rack, f).agree
