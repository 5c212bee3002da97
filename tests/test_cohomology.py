import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (CORPUS_RACKS, rand_cochain, rand_cocycle,
                      rand_rational_matrix)
from ybrack import cohomology, linalg, racks
from ybrack.cli import main
from ybrack.cohomology import (Cochain, CohomologyReport, classify,
                               coboundary, coboundary_i, coboundary_matrix,
                               coboundary_space, cocycle_space, decode,
                               encode, entropic_basis, is_entropic,
                               partial_coboundary_matrix, symmetrize)
from ybrack.linalg import SizeOverflow, SparseMat
from ybrack.racks import (dihedral_rack, inner_group,
                          square_reflection_quandle, tetrahedral_quandle,
                          trivial_rack)
from ybrack.truncpoly import PolyMat, TruncPoly
from ybrack.yangbaxter import YBOperator, build_cq, check_ybe

F = Fraction
SMALL = [dihedral_rack(3), square_reflection_quandle(), trivial_rack(3)]
SMALL_IDS = ["dihedral:3", "d4-reflections", "trivial:3"]


def act_word(rack, x, word):
    """x acted by the right translations of word, left to right."""
    for y in word:
        x = rack.op(x, y)
    return x


def naive_partial_coboundary(rack, f, i):
    """Independent oracle: evaluate the two-term index formula literally,
    looping over every output index pair."""
    n = rack.size
    d = f.degree
    out = {}
    for xs in itertools.product(range(n), repeat=d + 1):
        for ys in itertools.product(range(n), repeat=d + 1):
            val = F(0)
            # positive term: f without slot i, delta on the braided slot i
            if act_word(rack, xs[i], xs[i + 1:]) == act_word(rack, ys[i], ys[i + 1:]):
                val += f.value(xs[:i] + xs[i + 1:], ys[:i] + ys[i + 1:])
            # negative term: prefix slots translated by slot i, delta(x_i, y_i)
            if xs[i] == ys[i]:
                xp = tuple(rack.op(t, xs[i]) for t in xs[:i]) + xs[i + 1:]
                yp = tuple(rack.op(t, ys[i]) for t in ys[:i]) + ys[i + 1:]
                val -= f.value(xp, yp)
            if val:
                out[(encode(ys, n), encode(xs, n))] = val
    return Cochain(n, d + 1, out)


@pytest.mark.parametrize("rack", SMALL, ids=SMALL_IDS)
@pytest.mark.parametrize("degree", [1, 2])
def test_coboundary_i_matches_naive_oracle(rack, degree):
    rng = random.Random(101)
    f = rand_cochain(rack, degree, rng)
    for i in range(degree + 1):
        assert coboundary_i(rack, f, i) == naive_partial_coboundary(rack, f, i)


def operator_route_partial(rack, f, i):
    """Second oracle: conjugated tensor products of the operator itself,
    (c_d ... c_{i+1})^{-1} (f x I)(c_d ... c_{i+1})
    - (c_1 ... c_i)^{-1} (I x f)(c_1 ... c_i)."""
    n = rack.size
    d = f.degree
    k = d + 1
    dim = n ** k
    cq_cols = {}
    for row, col, val in build_cq(rack).mat.entries():
        cq_cols.setdefault(col, []).append((row, val))

    def c_at(pos):
        base = n ** (k - 1 - pos)
        entries = []
        for e in range(dim):
            lo, pair, hi = e % base, (e // base) % (n * n), e // (base * n * n)
            for row, val in cq_cols.get(pair, ()):
                entries.append(((hi * n * n + row) * base + lo, e, val))
        return PolyMat.from_entries(dim, 1, entries)

    def f_first():
        return PolyMat.from_entries(
            dim, 1, [(yc * n + z, xc * n + z, TruncPoly.const(v, 1))
                     for (yc, xc), v in f.entries.items()
                     for z in range(n)])

    def f_last():
        dd = n ** d
        return PolyMat.from_entries(
            dim, 1, [(x * dd + yc, x * dd + xc, TruncPoly.const(v, 1))
                     for (yc, xc), v in f.entries.items()
                     for x in range(n)])

    def prod(positions):
        m = PolyMat.identity(dim, 1)
        for p in positions:
            m = m.compose(c_at(p))
        return m

    a = prod(list(range(d, i, -1)))
    b = prod(list(range(1, i + 1)))
    t1 = a.inverse().compose(f_first()).compose(a)
    t2 = b.inverse().compose(f_last()).compose(b)
    return t1.sub(t2)


@pytest.mark.parametrize("rack", SMALL, ids=SMALL_IDS)
def test_coboundary_i_matches_operator_route(rack):
    rng = random.Random(102)
    for degree in (1, 2):
        f = rand_cochain(rack, degree, rng)
        for i in range(degree + 1):
            mine = coboundary_i(rack, f, i)
            want = operator_route_partial(rack, f, i)
            got = PolyMat.from_entries(
                rack.size ** (degree + 1), 1,
                [(yc, xc, TruncPoly.const(v, 1))
                 for (yc, xc), v in mine.entries.items()])
            assert got == want


def test_trivial_rack_all_partials_vanish():
    rng = random.Random(103)
    rack = trivial_rack(3)
    for degree in (1, 2):
        f = rand_cochain(rack, degree, rng)
        for i in range(degree + 1):
            assert coboundary_i(rack, f, i).is_zero()
    assert coboundary_matrix(trivial_rack(2), 2) == SparseMat(64, 16, {})


def test_coboundary_linearity_and_zero():
    rng = random.Random(104)
    rack = dihedral_rack(3)
    assert coboundary(rack, Cochain(3, 2)).is_zero()
    f, g = rand_cochain(rack, 1, rng), rand_cochain(rack, 1, rng)
    lhs = coboundary(rack, f.scaled(F(2, 3)).add(g.scaled(-5)))
    rhs = coboundary(rack, f).scaled(F(2, 3)).add(coboundary(rack, g).scaled(-5))
    assert lhs == rhs


def test_coboundary_squared_is_zero_on_cochains():
    rng = random.Random(105)
    for rack in SMALL:
        f = rand_cochain(rack, 1, rng)
        assert coboundary(rack, coboundary(rack, f)).is_zero()


def test_coboundary_index_bounds():
    f = Cochain(3, 2)
    with pytest.raises(IndexError):
        coboundary_i(dihedral_rack(3), f, 3)


def test_coboundary_matrix_agrees_with_coboundary():
    rng = random.Random(106)
    for rack in SMALL:
        for degree in (1, 2):
            m = coboundary_matrix(rack, degree)
            f = rand_cochain(rack, degree, rng)
            assert m.apply(f.to_vector()) == coboundary(rack, f).to_vector()


def test_coboundary_matrix_shapes():
    m = coboundary_matrix(dihedral_rack(3), 1)
    assert (m.rows, m.cols) == (81, 9)
    m = coboundary_matrix(trivial_rack(2), 2)
    assert (m.rows, m.cols) == (64, 16)


def test_size_guard():
    with pytest.raises(SizeOverflow):
        coboundary_matrix(dihedral_rack(8), 3)
    with pytest.raises(ValueError):
        coboundary_matrix(dihedral_rack(3), 4)
    with pytest.raises(SizeOverflow):
        classify(dihedral_rack(15), 2)


def test_classify_h2_guard_runs_before_building_anything(monkeypatch):
    built = []
    for name in ("coboundary_space", "entropic_basis", "_row_sums",
                 "_image", "_partial_tables"):
        monkeypatch.setattr(cohomology, name,
                            lambda *args, name=name: built.append(name))
    # the first size whose degree-d coboundary matrix exceeds the limit
    for degree, size in [(1, 57), (2, 15), (3, 8)]:
        with pytest.raises(SizeOverflow):
            classify(dihedral_rack(size), degree)
    assert built == []


def test_degree_one_kernel_dimensions():
    # full coboundary: only the constant diagonal survives; the first
    # partial alone has the whole behaviourally-diagonal part as kernel
    r3 = dihedral_rack(3)
    assert linalg.kernel_basis(coboundary_matrix(r3, 1)).dim == 1
    assert linalg.kernel_basis(partial_coboundary_matrix(r3, 1, 0)).dim == 3
    # degree-1 cocycles coincide with the degree-1 entropic maps
    for rack in CORPUS_RACKS:
        z1 = linalg.kernel_basis(coboundary_matrix(rack, 1))
        assert z1 == entropic_basis(rack, 1).subspace()


def test_cocycle_and_coboundary_space_examples():
    assert cocycle_space(trivial_rack(2), 2).dim == 16
    assert coboundary_space(trivial_rack(2), 2).dim == 0
    r3 = dihedral_rack(3)
    assert cocycle_space(r3, 2).dim == coboundary_space(r3, 2).dim + 1
    d4 = square_reflection_quandle()
    assert cocycle_space(d4, 2).dim - coboundary_space(d4, 2).dim == 16
    assert coboundary_space(r3, 1).dim == 0
    # degree 3 has the longest rows, so it covers merged terms in a row
    assert cocycle_space(trivial_rack(2), 3).dim == 64
    assert coboundary_space(trivial_rack(2), 3).dim == 0
    assert cocycle_space(r3, 3).dim == 73
    assert coboundary_space(r3, 3).dim == 72


# -- entropic maps -----------------------------------------------------------

def test_identity_cochain_is_entropic():
    for rack in SMALL:
        identity = {(i, i): F(1) for i in range(rack.size ** 2)}
        assert is_entropic(rack, Cochain(rack.size, 2, identity))


def test_everything_entropic_on_trivial_rack():
    rng = random.Random(107)
    rack = trivial_rack(4)
    for _ in range(5):
        assert is_entropic(rack, rand_cochain(rack, 2, rng))


def test_non_quasidiagonal_fails():
    rack = dihedral_rack(3)
    f = Cochain.from_pairs(3, 2, [(((0, 0)), ((0, 1)), 1)])
    assert not is_entropic(rack, f)


def test_entropic_basis_counts():
    assert entropic_basis(trivial_rack(2), 2).dim == 16
    assert entropic_basis(trivial_rack(3), 2).dim == 81
    assert entropic_basis(dihedral_rack(3), 2).dim == 1
    assert entropic_basis(square_reflection_quandle(), 2).dim == 16
    assert entropic_basis(dihedral_rack(6), 2).dim == 16
    assert entropic_basis(tetrahedral_quandle(), 2).dim == 1


def test_entropic_basis_guards_degree_and_size():
    for degree in (0, -1):
        with pytest.raises(ValueError):
            entropic_basis(dihedral_rack(3), degree)
    # 4^12 index pairs of 12 slots; one pair but 10^12 slots
    with pytest.raises(SizeOverflow):
        entropic_basis(trivial_rack(2), 12)
    with pytest.raises(SizeOverflow):
        entropic_basis(trivial_rack(1), 10 ** 12)


def test_entropic_basis_orbits_are_disjoint_quasidiagonal_and_closed():
    from ybrack.racks import class_ids
    for rack in [square_reflection_quandle(), dihedral_rack(6)]:
        basis = entropic_basis(rack, 2)
        ids = class_ids(rack)
        seen = set()
        group = inner_group(rack)
        for orbit in basis.orbits:
            for x, y in orbit:
                assert (x, y) not in seen
                seen.add((x, y))
                assert all(ids[a] == ids[b] for a, b in zip(x, y))
            oset = set(orbit)
            for alpha in group.generators:
                for beta in group.generators:
                    for x, y in orbit:
                        moved = ((alpha(x[0]), beta(x[1])),
                                 (alpha(y[0]), beta(y[1])))
                        assert moved in oset


def test_entropic_agreement_span_vs_partials():
    rng = random.Random(108)
    for rack in SMALL:
        basis = entropic_basis(rack, 2)
        span = basis.subspace()
        for c in basis.cochains():
            assert is_entropic(rack, c)
        for _ in range(6):
            f = rand_cochain(rack, 2, rng)
            assert is_entropic(rack, f) == span.contains_vec(f.to_vector())
        # a guaranteed member of the span
        combo = Cochain(rack.size, 2)
        for c in basis.cochains():
            combo = combo.add(c.scaled(F(rng.randint(1, 5))))
        assert is_entropic(rack, combo)


def test_entropic_cochains_are_cocycles():
    for rack in SMALL + [dihedral_rack(6)]:
        for c in entropic_basis(rack, 2).cochains():
            assert coboundary(rack, c).is_zero()


# -- symmetrization -----------------------------------------------------------

def test_symmetrize_idempotent_and_fixes_equivariant():
    rng = random.Random(109)
    for rack in SMALL:
        f = rand_cochain(rack, 2, rng)
        s = symmetrize(rack, f)
        assert symmetrize(rack, s) == s
    d4 = square_reflection_quandle()
    for c in entropic_basis(d4, 2).cochains():
        assert symmetrize(d4, c) == c


def test_symmetrize_trivial_rack_is_identity_map():
    rng = random.Random(110)
    rack = trivial_rack(3)
    f = rand_cochain(rack, 2, rng)
    assert symmetrize(rack, f) == f


def test_symmetrize_difference_is_coboundary_for_cocycles():
    rng = random.Random(111)
    for rack in SMALL:
        b2 = coboundary_space(rack, 2)
        z2 = cocycle_space(rack, 2)
        for _ in range(4):
            f = rand_cocycle(rack, rng, z2)
            diff = f.sub(symmetrize(rack, f))
            assert b2.contains_vec(diff.to_vector())


# -- classification -----------------------------------------------------------

def test_classify_h2_examples():
    rep = classify(dihedral_rack(3), 2)
    assert (rep.dim_e, rep.dim_h) == (1, 1)
    assert rep.verified
    rep = classify(square_reflection_quandle(), 2)
    assert (rep.dim_e, rep.dim_h) == (16, 16)
    assert rep.verified
    rep = classify(trivial_rack(2), 2)
    assert (rep.dim_z, rep.dim_b, rep.dim_e) == (16, 0, 16)
    assert rep.verified
    # the first size above the old size-8 default
    rep = classify(dihedral_rack(9), 2)
    assert (rep.dim_z, rep.dim_b, rep.dim_e, rep.dim_h) == (81, 80, 1, 1)
    assert rep.verified
    # the figures of the full-kernel computation
    rep = classify(dihedral_rack(12), 2)
    assert (rep.dim_z, rep.dim_b, rep.dim_e, rep.dim_h) == \
        (156, 140, 16, 16)
    assert rep.verified


def test_classify_h2_memory_stays_within_one_block_of_rows():
    # every cache emptied, as in a fresh process, so the peak counts the
    # index tables too; holding the rows of one last slot of x at a time,
    # n times the rows of a block, peaks at 5.0 MiB in this test
    for cached in (cohomology._partial_tables, cohomology._slot_orbits,
                   racks._rho, racks.class_ids):
        cached.cache_clear()
    tracemalloc.start()
    try:
        rep = classify(dihedral_rack(8), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.dim_z, rep.dim_b, rep.verified) == (76, 60, True)
    assert peak < 3.5 * 2 ** 20


def test_classify_h2_falls_back_when_the_rank_is_not_reached(
        monkeypatch, capsys):
    # without one orbit in each degree E + B is too small for any rank to
    # certify it, so degrees 1 and 2 fall back, dim Z^2 comes from the
    # kernel and the split fails
    rack = dihedral_rack(4)
    dim_z2 = cocycle_space(rack, 2).dim
    entropic = cohomology.entropic_basis

    def short(rack, degree):
        basis = entropic(rack, degree)
        return cohomology.EntropicBasis(basis.rack_size, basis.degree,
                                        basis.orbits[1:])

    calls = []
    kernel = cohomology.cocycle_space
    monkeypatch.setattr(cohomology, "entropic_basis", short)
    monkeypatch.setattr(cohomology, "cocycle_space",
                        lambda *args: calls.append(args) or kernel(*args))
    rep = classify(rack, 2)
    assert not rep.verified
    assert rep.dim_z == dim_z2 and rep.dim_h == dim_z2 - rep.dim_b
    assert [degree for _, degree in calls] == [1, 2]
    assert main(["cohomology", "--rack", "dihedral:4", "--degree", "2"]) == 1
    assert "FAILED" in capsys.readouterr().out
    # a failed split is a mathematical failure in every degree
    for degree in ("1", "3"):
        assert main(["cohomology", "--rack", "dihedral:4",
                     "--degree", degree]) == 1
        assert "FAILED" in capsys.readouterr().err


def _recorded(monkeypatch, module, name, calls):
    """Wrap module.name so that each call appends (name, args, result)."""
    real = getattr(module, name)

    def wrapper(*args):
        result = real(*args)
        calls.append((name, args, result))
        return result
    monkeypatch.setattr(module, name, wrapper)


# the exact reports on these racks, which the fallback must reproduce
DIHEDRAL_3_REPORT = CohomologyReport(3, 2, 9, 8, 1, True)
DIHEDRAL_4_REPORT = CohomologyReport(4, 2, 28, 12, 16, True)


def test_classify_h2_checks_that_coboundaries_are_cocycles(monkeypatch):
    # a planted non-cocycle among the d^1 columns fails the degree-2
    # containment check, so no degree-2 rank is consulted, and the exact
    # fallback, which does not read those columns, reports the true dims
    rack = dihedral_rack(3)
    z2 = cocycle_space(rack, 2)
    v = next(i for i in range(rack.size ** 4)
             if not z2.contains_vec({i: F(1)}))
    columns = cohomology._columns
    monkeypatch.setattr(cohomology, "_columns",
                        lambda rack, degree: columns(rack, degree) + [{v: 1}])
    checks, kernels = [], []
    _recorded(monkeypatch, cohomology, "_kills", checks)
    _recorded(monkeypatch, linalg, "rank_reaches", checks)
    _recorded(monkeypatch, cohomology, "cocycle_space", kernels)
    rep = classify(rack, 2)
    # degree 1 certifies with its containment check and both ranks; after
    # the failed degree-2 check only the fallback's own check runs
    assert [(name, args[1], ok) for name, args, ok in checks] == [
        ("_kills", 1, True), ("rank_reaches", 1, True),
        ("rank_reaches", 8, True), ("_kills", 2, False), ("_kills", 2, True)]
    assert [args[1] for _, args, _ in kernels] == [2]
    assert rep == DIHEDRAL_3_REPORT
    assert (rep.dim_z, rep.dim_b) == (z2.dim, coboundary_space(rack, 2).dim)


def test_classify_h2_falls_back_when_an_e1_orbit_is_missing(monkeypatch):
    # without one E^1 orbit degree 1 expects dim Z^1 one too small, so the
    # rank of d^1 falls short and degree 1 falls back to the exact kernel;
    # degree 2 then certifies with that exact dim Z^1
    rack = dihedral_rack(4)
    entropic = cohomology.entropic_basis

    def short(rack, degree):
        basis = entropic(rack, degree)
        return basis if degree == 2 else cohomology.EntropicBasis(
            basis.rack_size, basis.degree, basis.orbits[1:])

    monkeypatch.setattr(cohomology, "entropic_basis", short)
    ranks, kernels = [], []
    _recorded(monkeypatch, linalg, "rank_reaches", ranks)
    _recorded(monkeypatch, cohomology, "cocycle_space", kernels)
    rep = classify(rack, 2)
    # degree 1: the stacked 3 indicators, then d^1 short of 16 - 3;
    # degree 2: 16 indicators + 12 columns, then d^2 at 256 - 28
    assert [(args[1], ok) for _, args, ok in ranks] == [
        (3, True), (16 - 3, False), (16 + 12, True), (256 - 28, True)]
    assert [args[1] for _, args, _ in kernels] == [1]
    assert rep == DIHEDRAL_4_REPORT


def test_classify_h2_falls_back_when_e2_meets_b2(monkeypatch):
    # a d^1 column planted among the E^2 indicators is a cocycle, so the
    # containment checks pass, but E^2 then meets B^2 and the rank of the
    # stack falls short; the exact fallback reads neither
    rack = dihedral_rack(4)
    column = next(c for c in cohomology._columns(rack, 1) if c)
    indicators = cohomology._indicators
    monkeypatch.setattr(
        cohomology, "_indicators", lambda basis: indicators(basis)
        + ([column] if basis.degree == 2 else []))
    ranks, kills, kernels = [], [], []
    _recorded(monkeypatch, linalg, "rank_reaches", ranks)
    _recorded(monkeypatch, cohomology, "_kills", kills)
    _recorded(monkeypatch, cohomology, "cocycle_space", kernels)
    rep = classify(rack, 2)
    assert all(ok for _, _, ok in kills)
    # degree 1 certifies; the degree-2 stack falls short
    assert [(args[1], ok) for _, args, ok in ranks] == [
        (4, True), (16 - 4, True), (17 + 12, False)]
    assert [args[1] for _, args, _ in kernels] == [2]
    assert rep == DIHEDRAL_4_REPORT


def test_classify_h2_json_fields():
    data = classify(dihedral_rack(3), 2).to_json()
    assert set(data) == {"dimC2", "dimZ2", "dimB2", "dimE2", "dimH2",
                         "verified"}
    for degree in (1, 3):
        data = classify(dihedral_rack(3), degree).to_json()
        assert set(data) == {"degree", "dimZ", "dimB", "dimE", "dimH"}


# -- infinitesimal correspondence ----------------------------------------------

def perturbed_operator(rack, f):
    n = rack.size
    cq = build_cq(rack, trunc=2)
    pert = PolyMat.identity(n * n, 2).add(
        PolyMat.from_rational(f, 2, h_degree=1))
    return YBOperator(n, cq.mat.compose(pert))


def test_infinitesimal_correspondence_both_directions():
    rng = random.Random(112)
    for rack in SMALL:
        z2 = cocycle_space(rack, 2)
        for _ in range(3):
            f = rand_cochain(rack, 2, rng)
            ok = check_ybe(perturbed_operator(rack, f)).ok
            assert ok == coboundary(rack, f).is_zero()
            g = rand_cocycle(rack, rng, z2)
            assert coboundary(rack, g).is_zero()
            assert check_ybe(perturbed_operator(rack, g)).ok


def test_conjugation_realizes_coboundary_perturbation():
    rng = random.Random(113)
    for rack in SMALL:
        n = rack.size
        g = rand_rational_matrix(n, rng)
        beta = PolyMat.identity(n, 2).add(PolyMat.from_rational(g, 2, 1))
        bb = beta.tensor(beta)
        cq = build_cq(rack, trunc=2).mat
        lhs = bb.compose(cq).compose(bb.inverse())
        d1g = coboundary(rack, Cochain(n, 1, dict(g.entries)))
        rhs = cq.compose(PolyMat.identity(n * n, 2).add(
            PolyMat.from_rational(d1g, 2, 1)))
        assert lhs == rhs


def test_encode_decode_round_trip():
    for tup in itertools.product(range(4), repeat=3):
        assert decode(encode(tup, 4), 3, 4) == tup


def test_degree_three_coboundary_within_guard():
    from ybrack.racks import validate_rack
    # the two-element rack with swapping translations exercises degree 3
    swap_rack = validate_rack([[1, 1], [0, 0]])
    assert not swap_rack.is_quandle
    m3 = coboundary_matrix(swap_rack, 3)
    m2 = coboundary_matrix(swap_rack, 2)
    assert (m3.rows, m3.cols) == (256, 64)
    assert m3.matmul(m2).is_zero()


def test_composite_boundary_vanishes_one_degree_up():
    for rack in [dihedral_rack(3), trivial_rack(3)]:
        m3 = coboundary_matrix(rack, 3)
        m2 = coboundary_matrix(rack, 2)
        assert m3.matmul(m2).is_zero()


def test_symmetrize_fixes_degree_one_cocycles():
    # no degree-1 coboundaries exist, so averaging must fix every cocycle
    for rack in SMALL:
        z1 = linalg.kernel_basis(coboundary_matrix(rack, 1))
        for vec in z1.basis:
            f = Cochain.from_vector(rack.size, 1, dict(vec))
            assert symmetrize(rack, f) == f


def test_size_eight_degree_two_matrix_within_contract():
    # ~260k x 4k, built sparsely
    rack = dihedral_rack(8)
    rng = random.Random(116)
    m = coboundary_matrix(rack, 2)
    assert (m.rows, m.cols) == (262144, 4096)
    f = rand_cochain(rack, 2, rng, nnz=20)
    assert m.apply(f.to_vector()) == coboundary(rack, f).to_vector()
