"""Entropic deformation families, the r-matrix criterion, and the
normalization of deformations over truncated polynomial rings.

A deformation family over a rack assigns one coefficient in Q[h]/(h^N)
to each orbit of the degree-2 entropic basis; assembling gives the
operator c_Q (II + f(lambda)).  Such entropic deformations satisfy the
Yang-Baxter equation exactly when the deformation term is an r-matrix,
i.e. when the same perturbation of the plain transposition does.

normalize_to_entropic takes any Yang-Baxter deformation of c_Q over
Q[h]/(h^N) and conjugates it, degree by degree, into an entropic one:
at each h-degree the deformation term splits (uniquely, over the
rationals) into an entropic part plus a coboundary, and conjugating by
I + h^k g removes the coboundary part without touching lower degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import linalg, reference
from .cohomology import (Cochain, EntropicBasis, entropic_basis,
                         is_entropic, split_solver)
from .linalg import SparseMat
from .racks import Rack, square_reflection_quandle
from .truncpoly import (PolyMat, TruncPoly, _apply_word, _block,
                        _compile_word, _from_blocks, _int_block, _rescaled,
                        _scales, _unipotent_forms)
from .yangbaxter import YBOperator, YbeVerdict, _conjugate_block, build_cq, \
    build_tau, check_ybe, conjugate, trace_power


class NotInvertibleError(ValueError):
    """The assembled or supplied operator is singular."""


class NotEntropicError(ValueError):
    """A map required to be entropic is not."""


class NotADeformationError(ValueError):
    """Input operator is not congruent to the rack operator mod h."""


class DecompositionError(RuntimeError):
    """The cocycle = entropic + coboundary split failed.  Over the
    rationals this cannot happen for a Yang-Baxter deformation; it
    indicates an implementation bug and is never silently ignored."""


@dataclass(frozen=True)
class DeformationFamily:
    """One truncated-polynomial coefficient per entropic orbit."""

    rack: Rack
    basis: EntropicBasis
    parameters: tuple[TruncPoly, ...]

    def __post_init__(self):
        if self.basis.degree != 2 or self.basis.rack_size != self.rack.size:
            raise ValueError("family needs the rack's degree-2 orbit basis")
        if len(self.parameters) != self.basis.dim:
            raise ValueError(
                f"expected {self.basis.dim} parameters, "
                f"got {len(self.parameters)}")
        orders = {p.order for p in self.parameters}
        if len(orders) > 1:
            raise ValueError("parameters must share one truncation order")

    @staticmethod
    def from_values(rack: Rack, values, trunc: int | None = None
                    ) -> "DeformationFamily":
        """values: rationals or TruncPolys, one per orbit."""
        basis = entropic_basis(rack, 2)
        params = []
        for v in values:
            if isinstance(v, TruncPoly):
                params.append(v if trunc is None else v.lift(trunc))
            else:
                params.append(TruncPoly.const(v, trunc or 1))
        return DeformationFamily(rack, basis, tuple(params))

    @property
    def trunc(self) -> int:
        return self.parameters[0].order if self.parameters else 1

    def perturbation(self) -> PolyMat:
        """f(lambda) = sum of lambda_k times the orbit indicators.  The
        orbits partition the index pairs, so an entry of f is the
        lambda_k of its orbit."""
        return PolyMat.from_entries(
            self.rack.size ** 2, self.trunc,
            ((row, col, lam)
             for lam, indicator in zip(self.parameters, self.basis.cochains())
             for row, col in indicator.entries))


def assemble(fam: DeformationFamily) -> YBOperator:
    """The operator c_Q (II + f(lambda)) over the family's ring."""
    n = fam.rack.size
    trunc = fam.trunc
    pert = PolyMat.identity(n * n, trunc).add(fam.perturbation())
    if linalg.rank(pert.constant) != n * n:
        raise NotInvertibleError(
            "II + f(lambda) is singular; some constant term of lambda "
            "makes the deformation non-invertible")
    return YBOperator(n, build_cq(fam.rack, trunc).mat.compose(pert))


def ybe_deformed(fam: DeformationFamily) -> YbeVerdict:
    """Yang-Baxter check of the assembled family member."""
    return check_ybe(assemble(fam))


@dataclass(frozen=True)
class TraceCheck:
    computed: TruncPoly
    expected: TruncPoly

    @property
    def ok(self) -> bool:
        return self.computed == self.expected

    def __bool__(self):
        return self.ok


def trace_square_formula(fam: DeformationFamily) -> TraceCheck:
    """Trace of the squared family member against the closed form
    for the square-reflection quandle:

        4(l1+1)^2 + 4 l4^2 + 4(l13+1)^2 + 4 l16^2
        + 8(l6+1) l11 + 8(l10+1) l7 + 8 l2 l3 + 8 l14 l15
        + 8 l5 l9 + 8 l8 l12

    where l1..l16 follow the tabulated pattern numbering; the frozen
    orbit dictionary translates this package's orbit order to it.
    """
    if fam.rack.table != square_reflection_quandle().table:
        raise ValueError("the closed trace form is specific to the "
                         "square-reflection quandle")
    computed = trace_power(assemble(fam), 2)
    lam = {reference.ORBIT_TO_LAMBDA[k]: p
           for k, p in enumerate(fam.parameters)}
    one = TruncPoly.one(fam.trunc)

    def sq(p):
        return p * p

    expected = (sq(lam[1] + one) * 4 + sq(lam[4]) * 4
                + sq(lam[13] + one) * 4 + sq(lam[16]) * 4
                + (lam[6] + one) * lam[11] * 8
                + (lam[10] + one) * lam[7] * 8
                + lam[2] * lam[3] * 8
                + lam[14] * lam[15] * 8
                + lam[5] * lam[9] * 8
                + lam[8] * lam[12] * 8)
    return TraceCheck(computed, expected)


def poly_mat_is_entropic(rack: Rack, f: PolyMat) -> bool:
    """A matrix over Q[h]/(h^N) is entropic iff each h-coefficient is."""
    return all(
        is_entropic(rack, Cochain(rack.size, 2,
                                  f.coefficient_matrix(k).entries))
        for k in range(f.order))


@dataclass(frozen=True)
class RMatrixReport:
    """Yang-Baxter verdicts for c_Q f and tau f with the same entropic f;
    the two always agree."""

    cq_verdict: YbeVerdict
    tau_verdict: YbeVerdict

    @property
    def agree(self) -> bool:
        return self.cq_verdict.ok == self.tau_verdict.ok


def rmatrix_equivalence(rack: Rack, f: PolyMat) -> RMatrixReport:
    """Check c_Q f and tau f against the Yang-Baxter equation.

    f must be an invertible entropic map on the tensor square.
    """
    n = rack.size
    if f.dim != n * n:
        raise linalg.DimensionMismatch("map must act on the tensor square")
    if not poly_mat_is_entropic(rack, f):
        raise NotEntropicError("deformation term is not entropic")
    if linalg.rank(f.constant) != n * n:
        raise NotInvertibleError("entropic map is singular")
    cq = build_cq(rack, f.order)
    tau = build_tau(n, f.order)
    return RMatrixReport(
        cq_verdict=check_ybe(YBOperator(n, cq.mat.compose(f))),
        tau_verdict=check_ybe(YBOperator(n, tau.mat.compose(f))))


@dataclass(frozen=True)
class Equivalence:
    """Basis change alpha with alpha == I mod h; acts on operators by
    c -> (alpha tensor alpha)^{-1} c (alpha tensor alpha)."""

    mat: PolyMat

    def __post_init__(self):
        if self.mat.constant != SparseMat.identity(self.mat.dim):
            raise ValueError("equivalence must be the identity mod h")

    def conjugate(self, op: YBOperator) -> YBOperator:
        """(alpha x alpha)^{-1} c (alpha x alpha), on the slot kernel."""
        return conjugate(op, self.mat)


def normalize_to_entropic(op: YBOperator, rack: Rack,
                          check_input: bool = True
                          ) -> tuple[Equivalence, YBOperator]:
    """Conjugate a Yang-Baxter deformation of c_Q into entropic form.

    Walks the h-degrees 1..N-1.  The degree-k term of the deformation
    f, op = c_Q (II + f), is read off part k of the operator: c_Q sends
    e_j to e_pi(j), so c_Q^{-1} moves row i to row back[i] = pi^{-1}(i).
    split_solver(rack, 2), built once per call, splits it as entropic +
    coboundary in integer arithmetic, and the coboundary part is removed
    by conjugating with I + h^k g.  A zero g means the degree is already
    entropic, as E^2 meets B^2 only in 0.  Lower degrees are never
    disturbed.  Returns (alpha, c') with c' = (alpha x alpha)^{-1} op
    (alpha x alpha) and c_Q^{-1} c' entropic in every h-degree.

    The operator and alpha stay in one integer form, from one conversion
    of the input to one write-back of each: blocks of all their columns
    in u = h/D.  The degree-k term is the operator's block[k], integers
    over D^k, and g is the preimage split finds over D^k.  When g brings
    a new denominator, D becomes lcm(D, den g) and both blocks are
    rescaled.  Each step is _conjugate_block on the operator's block,
    with the letters of (I + u^k G)^T and of its inverse, and alpha takes
    the same (I + u^k G)^T on its columns.  The residual is_entropic
    check runs on the integers of degree k.
    """
    n = rack.size
    order = op.trunc
    cq = build_cq(rack, order)
    if op.mat.constant != cq.mat.constant:
        raise NotADeformationError(
            "constant term differs from the rack operator")
    if check_input:
        verdict = check_ybe(op)
        if not verdict.ok:
            raise ValueError(
                f"input fails the Yang-Baxter equation at triple "
                f"{verdict.witness}")

    split = split_solver(rack, 2)
    dim = n * n
    back = {i: j for i, j in cq.mat.constant.entries}

    def term(part: dict[int, int]) -> Cochain:
        return Cochain(n, 2, {(back[e % dim], e // dim): a
                              for e, a in part.items()})

    # op = sum_k u^k block[k] and alpha = sum_k u^k acc[k], u = h/big:
    # d0 = 1 throughout, as the constant term of op is a permutation and
    # each step's alpha and alpha^-1 are I mod h
    big = _scales(op.mat)[1]
    block = _int_block(op.mat, 1, big)
    acc = _block(0, n, n, order)
    for k in range(1, order):
        result = split(term(block[k]).to_vector())
        if result is None:
            raise DecompositionError(
                f"degree-{k} term is not entropic + coboundary")
        # g's index encode(x) * n + encode(y) is the block key c * n + r
        g = {e: v / big ** k for e, v in result[1].items()}
        if not g:
            continue
        new = lcm(big, *(v.denominator for v in g.values()))
        block, acc = _rescaled(block, new // big), _rescaled(acc, new // big)
        big = new
        fwd, inv = _unipotent_forms(
            {e: v.numerator * (big ** k // v.denominator)
             for e, v in g.items()}, k, n, order)
        block = _conjugate_block(block, fwd, inv, n)
        acc = _apply_word(_compile_word([fwd], [(0, n)], order), [(0, n)],
                          acc)
        if not is_entropic(rack, term(block[k])):
            raise DecompositionError(
                f"degree-{k} residual failed to become entropic")
    dens = [big ** k for k in range(order)]
    return (Equivalence(_from_blocks([acc], dens, n, order)),
            YBOperator(n, _from_blocks([block], dens, dim, order)))
