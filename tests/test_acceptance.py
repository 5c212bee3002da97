"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
pytest -s to see them).  All comparisons are exact: the engine works in
rational arithmetic throughout, so there are no tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from conftest import (corpus, entropic_operator, rand_cochain, rand_cocycle,
                      rand_frac, unit_perturbation)
from ybrack import linalg
from ybrack.cohomology import (classify, coboundary, coboundary_matrix,
                               coboundary_space, cocycle_space,
                               entropic_basis, partial_coboundary_matrix,
                               symmetrize)
from ybrack.deformations import (DeformationFamily, NotInvertibleError,
                                 assemble, normalize_to_entropic,
                                 poly_mat_is_entropic, rmatrix_equivalence,
                                 trace_square_formula)
from ybrack.linalg import SparseMat
from ybrack.racks import (rack_from_name, square_reflection_quandle,
                          trivial_rack)
from ybrack.reference import (DIHEDRAL3_MATRIX,
                              SQUARE_REFLECTION_MATRIX_ROWS_AS_SOURCE,
                              ones_positions)
from ybrack.truncpoly import PolyMat, TruncPoly
from ybrack.yangbaxter import (BraidWord, YBOperator, braid_rep, build_cq,
                               build_jones, build_tau, check_ybe)

F = Fraction
SEED = 74207281


def record(number: int, label: str, ok: bool):
    print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} ({label}) failed"


def sample_invertible_family(rack, rng):
    dim = entropic_basis(rack, 2).dim
    while True:
        values = [rand_frac(rng, -3, 3, 3) for _ in range(dim)]
        fam = DeformationFamily.from_values(rack, values)
        try:
            assemble(fam)
            return fam
        except NotInvertibleError:
            continue


def test_criterion_01_transposition_quandle_matrix():
    rack = rack_from_name("conj:S3:(12),(13),(23)")
    got = {(r, c) for r, c, v in build_cq(rack).mat.entries()}
    ok = got == ones_positions(DIHEDRAL3_MATRIX)
    record(1, "9x9 matrix of the transposition quandle, exact", ok)


def test_criterion_02_square_reflection_matrix():
    # the reference 16x16 table is tabulated with rows as the source
    # index, the transpose of the engine's column convention
    rack = square_reflection_quandle()
    got = {(r, c) for r, c, v in build_cq(rack).mat.entries()}
    want = {(c, r) for r, c in
            ones_positions(SQUARE_REFLECTION_MATRIX_ROWS_AS_SOURCE)}
    ok = got == want
    record(2, "16x16 matrix of the square-reflection quandle, exact", ok)


def test_criterion_03_square_reflection_sixteen_fold():
    report = classify(square_reflection_quandle(), 2)
    ok = report.dim_e == 16 and report.dim_h == 16
    record(3, "square reflections: dim E2 = dim H2 = 16", ok)


def test_criterion_04_transposition_quandle_rigidity():
    report = classify(rack_from_name("conj:S3:(12),(13),(23)"), 2)
    ok = report.dim_e == 1 and report.dim_h == 1
    record(4, "transposition quandle: dim E2 = dim H2 = 1 (rigidity)", ok)


def test_criterion_05_sixteen_parameter_family_satisfies_ybe():
    rng = random.Random(SEED)
    rack = square_reflection_quandle()
    ok = True
    for _ in range(5):
        fam = sample_invertible_family(rack, rng)
        ok = ok and check_ybe(assemble(fam)).ok
    record(5, "16-parameter family satisfies the braid relation, 5 seeds", ok)


def test_criterion_06_trace_of_square_identity():
    rng = random.Random(SEED + 1)
    rack = square_reflection_quandle()
    # independent count of basis pairs fixed by the squared permutation
    fixed = 0
    for x in range(4):
        for y in range(4):
            a, b = y, rack.op(x, y)
            if (b, rack.op(a, b)) == (x, y):
                fixed += 1
    zero = DeformationFamily.from_values(rack, [0] * 16)
    check0 = trace_square_formula(zero)
    ok = check0.ok and check0.computed == TruncPoly.const(fixed, 1)
    for _ in range(5):
        fam = sample_invertible_family(rack, rng)
        ok = ok and trace_square_formula(fam).ok
    record(6, "trace of the squared family matches the closed form", ok)


def test_criterion_07_cochain_complex_property():
    ok = True
    for name, rack in corpus():
        product = coboundary_matrix(rack, 2).matmul(coboundary_matrix(rack, 1))
        ok = ok and product.is_zero()
    record(7, "second boundary after first is zero on the whole corpus", ok)


def test_criterion_08_decomposition_theorem():
    ok = True
    for name, rack in corpus():
        e2 = entropic_basis(rack, 2).subspace()
        b2 = coboundary_space(rack, 2)
        z2 = cocycle_space(rack, 2)
        dim_sum, dim_int = linalg.sum_and_intersection_dims(e2, b2)
        ok = ok and dim_int == 0 and e2.dim + b2.dim == z2.dim \
            and dim_sum == z2.dim
    record(8, "cocycles split as entropic plus coboundaries, corpus", ok)


def test_criterion_09_entropic_characterization():
    ok = True
    for name, rack in corpus():
        n = rack.size
        rows_per = n ** 6
        stacked: dict[tuple[int, int], F] = {}
        for i in range(3):
            part = partial_coboundary_matrix(rack, 2, i)
            for (r, c), v in part.entries.items():
                stacked[(i * rows_per + r, c)] = v
        joint = linalg.kernel_basis(
            SparseMat(3 * rows_per, n ** 4, stacked))
        span = entropic_basis(rack, 2).subspace()
        ok = ok and joint == span
    record(9, "orbit basis spans exactly the joint partial kernel, corpus",
           ok)


def test_criterion_10_infinitesimal_correspondence():
    rng = random.Random(SEED + 2)
    ok = True
    for name, rack in corpus():
        n = rack.size
        z2 = cocycle_space(rack, 2)
        cq = build_cq(rack, trunc=2)
        samples = [rand_cochain(rack, 2, rng) for _ in range(10)]
        samples += [rand_cocycle(rack, rng, z2) for _ in range(10)]
        for f in samples:
            pert = PolyMat.identity(n * n, 2).add(
                PolyMat.from_rational(f, 2, h_degree=1))
            passes = check_ybe(YBOperator(n, cq.mat.compose(pert))).ok
            ok = ok and (passes == coboundary(rack, f).is_zero())
    record(10, "braid relation mod h^2 iff the term is a cocycle, "
               "20 seeds per rack", ok)


def test_criterion_11_symmetrization():
    rng = random.Random(SEED + 3)
    ok = True
    for name, rack in corpus():
        b2 = coboundary_space(rack, 2)
        z2 = cocycle_space(rack, 2)
        for _ in range(10):
            f = rand_cocycle(rack, rng, z2)
            diff = f.sub(symmetrize(rack, f))
            ok = ok and b2.contains_vec(diff.to_vector())
    record(11, "cocycle minus its average is a coboundary, "
               "10 seeds per rack", ok)


def test_criterion_12_deformed_and_transposed_verdicts_agree():
    rng = random.Random(SEED + 4)
    ok = True
    for spec in ["conj:S3:(12),(13),(23)", None, "trivial:3"]:
        rack = square_reflection_quandle() if spec is None \
            else rack_from_name(spec)
        basis = entropic_basis(rack, 2)
        done = 0
        while done < 10:
            f = PolyMat(rack.size ** 2, 1)
            for c in basis.cochains():
                f = f.add(PolyMat.from_rational(c, 1)
                          .scaled(rand_frac(rng, -3, 3, 2)))
            if linalg.rank(f.constant) != rack.size ** 2:
                continue
            report = rmatrix_equivalence(rack, f)
            ok = ok and report.agree
            done += 1
    record(12, "rack-deformed and transposition-deformed verdicts "
               "coincide, 10 seeds each", ok)


def test_criterion_13_normalization_round_trip():
    rng = random.Random(SEED + 5)
    ok = True
    for name, rack in corpus():
        n = rack.size
        origin = entropic_operator(rack, rng, trunc=3)
        assert check_ybe(origin).ok
        beta = unit_perturbation(n, rng, trunc=3)
        bb = beta.tensor(beta)
        conjugated = YBOperator(n,
                                bb.inverse().compose(origin.mat).compose(bb))
        alpha, out = normalize_to_entropic(conjugated, rack)
        residual = build_cq(rack, 3).mat.inverse().compose(out.mat) \
            .sub(PolyMat.identity(n * n, 3))
        ok = ok and poly_mat_is_entropic(rack, residual)
        ok = ok and alpha.conjugate(conjugated) == out
    record(13, "normalization returns an entropic exact conjugate, corpus",
           ok)


def test_criterion_14_rank_two_family():
    ok = check_ybe(build_jones(1)).ok \
        and check_ybe(build_jones(2)).ok \
        and check_ybe(build_jones(F(1, 3))).ok \
        and build_jones(1) == build_tau(2)
    record(14, "rank-2 family braids at q in {1, 2, 1/3}; q=1 is the swap",
           ok)


def test_criterion_15_braid_relations():
    op = build_cq(rack_from_name("dihedral:3"))
    ok = braid_rep(op, BraidWord(3, (1, 2, 1))) == \
        braid_rep(op, BraidWord(3, (2, 1, 2)))
    ok = ok and braid_rep(op, BraidWord(4, (1, 3))) == \
        braid_rep(op, BraidWord(4, (3, 1)))
    record(15, "braid relation on 3 strands, far commutation on 4", ok)
