"""Shared helpers: the rack corpus and seeded rational samplers."""

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from ybrack.cohomology import Cochain, cocycle_space, entropic_basis
from ybrack.linalg import SparseMat
from ybrack.racks import (dihedral_rack, square_reflection_quandle,
                          tetrahedral_quandle, trivial_rack)
from ybrack.truncpoly import PolyMat, TruncPoly


# one profile for every property test, so each run tries the same examples
settings.register_profile("ybrack", derandomize=True, deadline=None)
settings.load_profile("ybrack")


def corpus():
    """The standing example corpus used across the suite."""
    return [
        ("trivial:2", trivial_rack(2)),
        ("trivial:3", trivial_rack(3)),
        ("trivial:4", trivial_rack(4)),
        ("dihedral:3", dihedral_rack(3)),
        ("dihedral:4", dihedral_rack(4)),
        ("dihedral:5", dihedral_rack(5)),
        ("dihedral:6", dihedral_rack(6)),
        ("d4-reflections", square_reflection_quandle()),
        ("tetrahedral", tetrahedral_quandle()),
    ]


CORPUS_IDS = [name for name, _ in corpus()]
CORPUS_RACKS = [rack for _, rack in corpus()]


def rand_frac(rng, lo=-5, hi=5, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_cochain(rack, degree, rng, nnz=None) -> Cochain:
    """Random sparse cochain with about nnz nonzero entries."""
    n = rack.size
    dim = n ** degree
    if nnz is None:
        nnz = 3 * n * n
    entries = {}
    for _ in range(nnz):
        entries[(rng.randrange(dim), rng.randrange(dim))] = rand_frac(rng)
    return Cochain(n, degree, {k: v for k, v in entries.items() if v})


def rand_cocycle(rack, rng, z2=None) -> Cochain:
    """Random element of Z^2 as a combination of the kernel basis."""
    if z2 is None:
        z2 = cocycle_space(rack, 2)
    vec = {}
    for row in z2.basis:
        c = rand_frac(rng, -3, 3, 3)
        if not c:
            continue
        for i, v in row.items():
            s = vec.get(i, Fraction(0)) + c * v
            if s:
                vec[i] = s
            else:
                vec.pop(i, None)
    return Cochain.from_vector(rack.size, 2, vec)


def rand_rational_matrix(n, rng, nnz=None) -> SparseMat:
    entries = {}
    for _ in range(nnz or 2 * n):
        entries[(rng.randrange(n), rng.randrange(n))] = rand_frac(rng, -3, 3, 3)
    return SparseMat(n, n, {k: v for k, v in entries.items() if v})


def entropic_operator(rack, rng, trunc=3):
    """A seeded entropic Yang-Baxter deformation of the rack operator.

    Built as s(h) * c_Q (g tensor g) with g = I + (h, h^2)-combinations of
    the degree-1 entropic basis: g tensor g is always an r-matrix and is
    entropic, so the product satisfies the Yang-Baxter equation.
    """
    from ybrack.yangbaxter import YBOperator, build_cq
    n = rack.size
    g = PolyMat.identity(n, trunc)
    for cochain in entropic_basis(rack, 1).cochains():
        for k in range(1, trunc):
            g = g.add(PolyMat.from_rational(cochain, trunc, k)
                      .scaled(rand_frac(rng, -2, 2, 3)))
    scalar = TruncPoly.from_coeffs(
        [1] + [rand_frac(rng, -2, 2, 3) for _ in range(trunc - 1)], trunc)
    cq = build_cq(rack, trunc)
    return YBOperator(n, cq.mat.compose(g.tensor(g)).scaled(scalar))


def unit_perturbation(n, rng, trunc=3) -> PolyMat:
    """Random basis change congruent to the identity mod h."""
    beta = PolyMat.identity(n, trunc)
    for k in range(1, trunc):
        beta = beta.add(PolyMat.from_rational(
            rand_rational_matrix(n, rng), trunc, k))
    return beta


@pytest.fixture
def rng():
    return random.Random(20240811)
