"""Yang-Baxter operators on the tensor square and braid representations.

An operator on V tensor V, dim V = n, is an (n^2 x n^2) matrix over
Q[h]/(h^N).  The basis of V tensor V is ordered lexicographically:
basis vector x tensor y has index n*x + y, and matrix columns are indexed
by the source basis vector (column j holds the image of basis vector j).

The rack operator c_Q sends x tensor y to y tensor (x*y); the axiom that
right translations are bijections makes it a permutation of the basis,
and self-distributivity makes it a Yang-Baxter operator.

check_ybe, braid_rep and conjugate run on the integer slot kernel of
truncpoly (which also serves PolyMat.compose): it applies a map in
integer, coefficient-major form to adjacent tensor slots of a block of
basis columns at a time, so no product of dense tensor powers is ever
formed.  conjugate starts from the operator's own integer block instead
of basis columns, and never compiles the operator into a letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import (DEFAULT_ENTRY_LIMIT, ONE, DimensionMismatch,
                     SizeOverflow, SparseMat, power_exceeds)
from .racks import Rack
from .truncpoly import (PolyMat, TruncPoly, _apply_word, _block, _block_form,
                        _compile_word, _from_blocks, _int_block, _int_form,
                        _scales, _word_matrix)


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


def _braid_word(n: int, strands: int, letters) -> list[tuple[int, int]]:
    """A braid word on the strands-fold tensor power as (form, base)
    steps in the order they act, the last letter first: form 0 is c,
    form 1 its inverse, and base the weight of the lower of the slots."""
    return [(int(letter < 0), n ** (strands - 1 - abs(letter)))
            for letter in reversed(letters)]


def check_ybe(op: YBOperator) -> YbeVerdict:
    """Compare (c1 c2 c1) and (c2 c1 c2) on the tensor cube, exactly.

    Both triple products are formed on blocks of n basis columns, the
    triples (x, y, 0..n-1), never as dense n^3 x n^3 arrays, as the braid
    words sigma1 sigma2 sigma1 and sigma2 sigma1 sigma2 on the integer
    form of the operator, each letter compiled once.  The check stops at
    the first block where the sides differ, and the verdict carries the
    first differing basis triple in lexicographic order: the column of
    the least differing key.  Each side is d0^3 times its rational value
    with h = D u, and u -> h / D is invertible, so the integer columns
    agree exactly when the rational ones do.
    """
    n, order = op.rack_size, op.trunc
    dim = n ** 3
    lhs_word = _braid_word(n, 3, (1, 2, 1))
    rhs_word = _braid_word(n, 3, (2, 1, 2))
    letters = _compile_word([_int_form(op.mat, *_scales(op.mat))],
                            lhs_word + rhs_word, order)
    for start in range(0, dim, max(n, 1)):
        block = _block(start, start + n, dim, order)
        lhs = _apply_word(letters, lhs_word, block)
        rhs = _apply_word(letters, rhs_word, block)
        if lhs != rhs:
            e = min(key for left, right in zip(lhs, rhs)
                    for key in left.keys() | right.keys()
                    if left.get(key) != right.get(key)) // dim
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
    mats = [op.mat]
    if any(l < 0 for l in word.letters):
        mats.append(op.mat.inverse())
    return _word_matrix(mats, _braid_word(n, k, word.letters), n ** k, order)


def conjugate(op: YBOperator, alpha: PolyMat) -> YBOperator:
    """(alpha^{-1} x alpha^{-1}) c (alpha x alpha), which equals
    (alpha x alpha)^{-1} c (alpha x alpha): only the n x n alpha is
    inverted, and no tensor square is formed.

    c, alpha and alpha^{-1} are each converted once to integer form in
    one u = h/D, the lcm of their D, and c is the block that
    _conjugate_block starts from; the result is written back once, over
    d = d0(c) d0(alpha)^2 d0(alpha^{-1})^2 times D^k in degree k.
    """
    n = alpha.dim
    if op.rack_size != n or op.trunc != alpha.order:
        raise DimensionMismatch(
            f"operator on ({op.rack_size}^2, trunc {op.trunc}) does not "
            f"match alpha ({n}, trunc {alpha.order})")
    inv = alpha.inverse()
    (d, big), (da, ba), (di, bi) = map(_scales, (op.mat, alpha, inv))
    big = lcm(big, ba, bi)
    block = _conjugate_block(_int_block(op.mat, d, big),
                             _block_form(_int_block(alpha, da, big), n, True),
                             _int_form(inv, di, big), n)
    d *= (da * di) ** 2
    return YBOperator(n, _from_blocks(
        [block], [d * big ** k for k in range(op.trunc)], n * n, op.trunc))


def _conjugate_block(block, fwd, inv, n: int) -> list[dict[int, int]]:
    """(alpha^{-1} x alpha^{-1}) c (alpha x alpha) on the integer block
    of all n^2 columns of c, in letters: fwd the form of alpha^T and inv
    that of alpha^{-1}, both n x n and in the u = h/D of the block.

    A word of four letters on one block that starts from c, never from
    basis columns: alpha^T on the column slots, at weights n^3 and n^2,
    which multiply c by alpha x alpha on the right, then alpha^{-1} on
    the row slots, at weights n and 1.  The result is d0(alpha)^2
    d0(alpha^{-1})^2 times the integer form of the conjugate.
    """
    dim = n * n
    word = [(0, n * dim), (0, dim), (1, n), (1, 1)]
    return _apply_word(_compile_word([fwd, inv], word, len(block)), word,
                       block)


def trace_power(op: YBOperator, k: int) -> TruncPoly:
    """Trace of the k-th power of the operator."""
    if k < 1:
        raise ValueError("power must be >= 1")
    return op.mat.power(k).trace()
