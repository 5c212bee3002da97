"""Yang-Baxter operators on the tensor square and braid representations.

An operator on V tensor V, dim V = n, is an (n^2 x n^2) matrix over
Q[h]/(h^N).  The basis of V tensor V is ordered lexicographically:
basis vector x tensor y has index n*x + y, and matrix columns are indexed
by the source basis vector (column j holds the image of basis vector j).

The rack operator c_Q sends x tensor y to y tensor (x*y); the axiom that
right translations are bijections makes it a permutation of the basis,
and self-distributivity makes it a Yang-Baxter operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import (DEFAULT_ENTRY_LIMIT, ONE, SizeOverflow, SparseMat,
                     power_exceeds)
from .racks import Rack
from .truncpoly import PolyMat, TruncPoly


@dataclass(frozen=True)
class YbeVerdict:
    """Outcome of a Yang-Baxter check; witness is the first basis triple
    (in lexicographic order) where the two triple products differ."""

    ok: bool
    witness: tuple[int, int, int] | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class BraidWord:
    """Word in the Artin generators; letters are signed indices in
    +-1..+-(strands-1)."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError("braid words need at least 2 strands")
        for l in self.letters:
            if l == 0 or abs(l) > self.strands - 1:
                raise ValueError(f"letter {l} out of range for "
                                 f"{self.strands} strands")

    @staticmethod
    def parse(text: str, strands: int | None = None) -> "BraidWord":
        letters = tuple(int(t) for t in text.replace(",", " ").split())
        if strands is None:
            strands = max((abs(l) for l in letters), default=1) + 1
            strands = max(strands, 2)
        return BraidWord(strands, letters)


@dataclass(frozen=True)
class YBOperator:
    """Invertible operator on the tensor square of an n-dimensional space."""

    rack_size: int
    mat: PolyMat

    def __post_init__(self):
        if self.mat.dim != self.rack_size ** 2:
            raise ValueError("matrix dimension must be rack_size squared")

    @property
    def trunc(self) -> int:
        return self.mat.order

    @property
    def dim(self) -> int:
        return self.mat.dim

    def __eq__(self, other):
        if not isinstance(other, YBOperator):
            return NotImplemented
        return self.rack_size == other.rack_size and self.mat == other.mat


def _slot_permutation(n: int, image, trunc: int) -> YBOperator:
    """Operator sending basis vector x tensor y to basis vector image(x, y)."""
    perm = SparseMat(n * n, n * n, {(image(x, y), n * x + y): ONE
                                    for x in range(n) for y in range(n)})
    return YBOperator(n, PolyMat.from_rational(perm, trunc))


def build_cq(rack: Rack, trunc: int = 1) -> YBOperator:
    """Permutation operator x tensor y -> y tensor (x*y)."""
    n = rack.size
    return _slot_permutation(n, lambda x, y: n * y + rack.op(x, y), trunc)


def build_tau(n: int, trunc: int = 1) -> YBOperator:
    """The transposition x tensor y -> y tensor x."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _slot_permutation(n, lambda x, y: n * y + x, trunc)


def build_jones(q, trunc: int = 1) -> YBOperator:
    """The rank-2 deformation of the transposition with parameter q:
    diagonal corners q, middle block [[0, q^2], [q^2, q - q^3]]."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("parameter must be invertible (nonzero)")
    entries = [
        (0, 0, q),
        (2, 1, q * q),
        (1, 2, q * q),
        (2, 2, q - q ** 3),
        (3, 3, q),
    ]
    mat = PolyMat.from_entries(4, trunc,
                               [(r, c, TruncPoly.const(v, trunc))
                                for r, c, v in entries])
    return YBOperator(2, mat)


def _scales(mat: PolyMat) -> tuple[int, int]:
    """(d0, D) for the integer form of mat: d0 is the lcm of the
    denominators of the constant term, D that of the denominators of the
    higher h-coefficients of d0 * mat."""
    d0 = 1
    for a in mat.constant.entries.values():
        d0 = lcm(d0, a.denominator)
    big = 1
    for k in range(1, mat.order):
        for a in mat.coefficient_matrix(k).entries.values():
            big = lcm(big, a.denominator // gcd(a.denominator, d0))
    return d0, big


def _int_form(mat: PolyMat, d0: int, big: int) -> list[list[list[tuple[int, int]]]]:
    """Coefficient-major integer matrices C_k = d0 * big^k * c_k, with c_k
    the h^k coefficient of mat, so that mat = (1/d0) sum_k u^k C_k for
    u = h/big.  form[k][col] lists the (row, C_k[row, col]) nonzeros;
    big must be a multiple of the D of _scales."""
    form = [[[] for _ in range(mat.dim)] for _ in range(mat.order)]
    for k, cols in enumerate(form):
        scale = d0 * big ** k
        for (r, c), a in mat.coefficient_matrix(k).entries.items():
            cols[c].append((r, a.numerator * (scale // a.denominator)))
    return form


def _apply_slots(form, base: int, vec: list[dict[int, int]]) -> list[dict[int, int]]:
    """Apply an integer form to the two adjacent tensor slots of weights
    base * n and base.

    vec is coefficient-major: vec[k] maps a basis index to its integer
    u^k coefficient, and products of degree >= len(vec) are dropped.  A
    basis index splits as e = (hi * n^2 + pair) * base + lo, and the form
    acts on pair.
    """
    nn = len(form[0])
    order = len(vec)
    out: list[dict[int, int]] = [{} for _ in range(order)]
    for k2, part in enumerate(vec):
        for e, a in part.items():
            q, lo = divmod(e, base)
            pair = q % nn
            rest = (q - pair) * base + lo
            for k1 in range(order - k2):
                dst = out[k1 + k2]
                for row, c in form[k1][pair]:
                    key = rest + row * base
                    dst[key] = dst.get(key, 0) + c * a
    return [{e: a for e, a in part.items() if a} for part in out]


def _apply_word(forms, n: int, strands: int, letters, vec):
    """Apply a braid word to a coefficient-major vector on the
    strands-fold tensor power; forms[letter < 0] is the form that
    sigma_|letter| uses, and the last letter acts first."""
    for letter in reversed(letters):
        vec = _apply_slots(forms[letter < 0],
                           n ** (strands - 1 - abs(letter)), vec)
    return vec


def _basis_vector(j: int, order: int) -> list[dict[int, int]]:
    return [{j: 1}] + [{} for _ in range(order - 1)]


def check_ybe(op: YBOperator) -> YbeVerdict:
    """Compare (c1 c2 c1) and (c2 c1 c2) on the tensor cube, exactly.

    Both triple products are formed column by column (never as dense
    n^3 x n^3 arrays) as the braid words sigma1 sigma2 sigma1 and
    sigma2 sigma1 sigma2, in the integer form of the operator; the
    verdict carries the first differing basis triple in lexicographic
    order.  Each side is d0^3 times its rational value with h = D u, and
    u -> h / D is invertible, so the integer columns agree exactly when
    the rational ones do.
    """
    n = op.rack_size
    forms = [_int_form(op.mat, *_scales(op.mat))]
    for e in range(n ** 3):
        start = _basis_vector(e, op.trunc)
        lhs = _apply_word(forms, n, 3, (1, 2, 1), start)
        rhs = _apply_word(forms, n, 3, (2, 1, 2), start)
        if lhs != rhs:
            x, rest = divmod(e, n * n)
            y, z = divmod(rest, n)
            return YbeVerdict(False, (x, y, z))
    return YbeVerdict(True)


def braid_rep(op: YBOperator, word: BraidWord) -> PolyMat:
    """Matrix of a braid word on the k-fold tensor power.

    The generator sigma_i acts as c on tensor factors i, i+1; a word is
    read left to right as a composition of maps, so the first letter is
    applied last to vectors (braids act on the left).  Raises SizeOverflow
    before allocating when the n^k x n^k matrix over Q[h]/(h^trunc) has
    more than DEFAULT_ENTRY_LIMIT coefficient slots.
    """
    n = op.rack_size
    k = word.strands
    order = op.trunc
    if power_exceeds(n, 2 * k, DEFAULT_ENTRY_LIMIT // order):
        raise SizeOverflow(
            f"braid matrix of dimension {n}^{k} over Q[h]/(h^{order}) "
            f"exceeds the entry limit {DEFAULT_ENTRY_LIMIT}")
    dim = n ** k
    mats = [op.mat]
    if any(l < 0 for l in word.letters):
        mats.append(op.mat.inverse())
    scales = [_scales(m) for m in mats]
    # one u = h/D for c and its inverse, so that their products stay in u
    big = lcm(*(b for _, b in scales))
    forms = [_int_form(m, d0, big) for m, (d0, _) in zip(mats, scales)]
    d = 1
    for letter in word.letters:
        d *= scales[letter < 0][0]
    dens = [d * big ** j for j in range(order)]
    # entries repeat across columns: build each Fraction once
    fracs: dict[tuple[int, int], Fraction] = {}
    parts: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(order)]
    for j in range(dim):
        vec = _apply_word(forms, n, k, word.letters, _basis_vector(j, order))
        for deg, (part, den) in enumerate(zip(vec, dens)):
            dst = parts[deg]
            for i, a in part.items():
                f = fracs.get((a, deg))
                if f is None:
                    f = fracs[(a, deg)] = Fraction(a, den)
                dst[(i, j)] = f
    return PolyMat(dim, order, (SparseMat(dim, dim, p) for p in parts))


def trace_power(op: YBOperator, k: int) -> TruncPoly:
    """Trace of the k-th power of the operator."""
    if k < 1:
        raise ValueError("power must be >= 1")
    return op.mat.power(k).trace()
