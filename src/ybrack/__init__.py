"""Exact-arithmetic Yang-Baxter operators from finite racks and quandles:
construction, cohomology, entropic deformations, and normalization."""

__version__ = "0.1.0"

from .linalg import (SparseMat, Subspace, image_basis, kernel_basis,
                     sum_and_intersection_dims)
from .racks import (Perm, PermGroup, Rack, behavioral_classes,
                    conjugation_quandle, dihedral_rack, inner_group,
                    rack_from_name, square_reflection_quandle,
                    tetrahedral_quandle, transposition_quandle,
                    trivial_rack, validate_rack)
from .truncpoly import PolyMat, TruncPoly
from .yangbaxter import (BraidWord, YBOperator, braid_rep, build_cq,
                         build_jones, build_tau, check_ybe, trace_power)
from .cohomology import (Cochain, EntropicBasis, classify, coboundary,
                         coboundary_i, coboundary_matrix, coboundary_space,
                         cocycle_space, entropic_basis, is_entropic,
                         symmetrize)
from .deformations import (DeformationFamily, Equivalence, assemble,
                           normalize_to_entropic, rmatrix_equivalence,
                           trace_square_formula, ybe_deformed)
