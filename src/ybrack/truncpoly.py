"""Truncated polynomial arithmetic Q[h]/(h^N) and sparse matrices over it.

TruncPoly is the coefficient ring for formal deformations: a fixed
truncation order N >= 1 and N rational coefficients for h^0..h^(N-1).
All arithmetic discards terms of degree >= N; order 1 degenerates to
plain rational arithmetic.  A truncated polynomial is invertible iff its
constant coefficient is nonzero; its inverse is that of the 1 x 1 PolyMat.

PolyMat stores a matrix over Q[h]/(h^N) coefficient-major, as one
rational SparseMat per power of h.  This module is the only one that
knows that layout; other modules read coefficient matrices or per-entry
views.  Products and inverses run on one integer slot kernel,
_apply_slots: a matrix is rescaled once to integer coefficient matrices
in u = h/D, and each letter of a word (a matrix at one slot weight) is
compiled once into its products per input power of u and slot value.  A
letter acts on one tensor slot or on two adjacent ones, and on a whole
block of basis columns per call.  Sums that cancel stay in the block as
zeros, skipped by the letters that follow, until _apply_word drops them
at the end of the word.  _from_blocks checks each integer block as ints, keys in range and
values nonzero, and writes it back as fractions without SparseMat's
per-entry check.  It is the only matrix product: compose, power, inverse
and scaled (by a 1 x 1 letter) use it on a single slot, tensor on two,
and yangbaxter's check_ybe, braid_rep and conjugate on tensor powers;
conjugate starts from the operator's own block and multiplies it on the
right by letters on the column index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .linalg import (DEFAULT_ENTRY_LIMIT, DimensionMismatch, SizeOverflow,
                     SparseMat, invert_rational)

ZERO = Fraction(0)


@dataclass(frozen=True)
class TruncPoly:
    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient count must equal the order")

    @staticmethod
    def const(value, order: int) -> "TruncPoly":
        c = [ZERO] * order
        c[0] = Fraction(value)
        return TruncPoly(order, tuple(c))

    @staticmethod
    def zero(order: int) -> "TruncPoly":
        return TruncPoly(order, (ZERO,) * order)

    @staticmethod
    def one(order: int) -> "TruncPoly":
        return TruncPoly.const(1, order)

    @staticmethod
    def from_coeffs(values, order: int | None = None) -> "TruncPoly":
        vals = [Fraction(v) for v in values]
        if order is None:
            order = len(vals)
        vals = (vals + [ZERO] * order)[:order]
        return TruncPoly(order, tuple(vals))

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < self.order else ZERO

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lift(self, order: int) -> "TruncPoly":
        """Reinterpret at a different truncation order (pad or cut)."""
        c = (self.coeffs + (ZERO,) * order)[:order]
        return TruncPoly(order, c)

    def _coerce(self, other) -> "TruncPoly":
        if isinstance(other, TruncPoly):
            if other.order != self.order:
                raise ValueError("mixed truncation orders")
            return other
        return TruncPoly.const(other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return TruncPoly(self.order, tuple(a + b
                                           for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        n = self.order
        out = [ZERO] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncPoly(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "TruncPoly":
        """Entry (0, 0) of the inverse of the 1 x 1 PolyMat [[self]]; a
        zero constant coefficient raises ZeroDivisionError."""
        return PolyMat.from_entries(1, self.order, [(0, 0, self)]) \
            .inverse().get(0, 0)

    def __eq__(self, other):
        if isinstance(other, TruncPoly):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == TruncPoly.const(other, self.order)
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{head}h" + (f"^{k}" if k > 1 else ""))
        body = " + ".join(terms).replace("+ -", "- ") or "0"
        return f"TruncPoly({body}; O(h^{self.order}))"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data, order: int | None = None) -> "TruncPoly":
        """Inverse of to_json, padded to order.  A coefficient is a
        string or a JSON number, a float read from its decimal text;
        anything else, malformed input and a longer array, since cutting
        it would change the value, raise ValueError."""
        if not isinstance(data, list):
            raise ValueError("coefficients must be a JSON array")
        if order is not None and len(data) > order:
            raise ValueError(f"{len(data)} coefficients exceed the "
                             f"truncation order {order}")
        bad = [c for c in data if type(c) not in (str, int, float)]
        if bad:
            raise ValueError(f"bad coefficient: {bad[0]!r}")
        try:
            coeffs = [Fraction(str(c) if type(c) is float else c)
                      for c in data]
        except ZeroDivisionError as exc:
            raise ValueError(f"bad coefficient: {exc}") from exc
        return TruncPoly.from_coeffs(coeffs, order)


class PolyMat:
    """Square sparse matrix over TruncPoly, stored coefficient-major:
    parts[k] is the rational matrix of the h^k coefficients."""

    def __init__(self, dim: int, order: int, parts=None):
        self.dim = dim
        self.order = order
        self.parts: tuple[SparseMat, ...] = tuple(parts) if parts is not None \
            else (SparseMat(dim, dim),) * order

    @staticmethod
    def identity(dim: int, order: int) -> "PolyMat":
        return PolyMat.from_rational(SparseMat.identity(dim), order)

    @staticmethod
    def from_entries(dim: int, order: int, entries) -> "PolyMat":
        """entries: iterable of (row, col, TruncPoly or scalar); a later
        entry at the same position replaces an earlier one."""
        polys: dict[tuple[int, int], TruncPoly] = {}
        for r, c, v in entries:
            if not isinstance(v, TruncPoly):
                v = TruncPoly.const(v, order)
            elif v.order != order:
                raise ValueError("mixed truncation orders in matrix")
            if not v.is_zero():
                polys[(r, c)] = v
        parts: list[dict[tuple[int, int], Fraction]] = \
            [{} for _ in range(order)]
        for key, v in polys.items():
            for k, a in enumerate(v.coeffs):
                if a:
                    parts[k][key] = a
        return PolyMat(dim, order, (SparseMat(dim, dim, p) for p in parts))

    @staticmethod
    def from_rational(mat: SparseMat, order: int, h_degree: int = 0) -> "PolyMat":
        """Embed a rational matrix as coefficient of h^h_degree."""
        if mat.rows != mat.cols:
            raise DimensionMismatch("PolyMat is square")
        empty = SparseMat(mat.rows, mat.cols)
        return PolyMat(mat.rows, order,
                       (mat if k == h_degree else empty for k in range(order)))

    def get(self, r: int, c: int) -> TruncPoly:
        return TruncPoly(self.order, tuple(p.get(r, c) for p in self.parts))

    def entries(self):
        """(row, col, TruncPoly) for each nonzero entry, row-major."""
        coeffs: dict[tuple[int, int], list[Fraction]] = {}
        for k, part in enumerate(self.parts):
            for key, v in part.entries.items():
                coeffs.setdefault(key, [ZERO] * self.order)[k] = v
        for r, c in sorted(coeffs):
            yield r, c, TruncPoly(self.order, tuple(coeffs[(r, c)]))

    def lift(self, order: int) -> "PolyMat":
        """Reinterpret at a different truncation order (pad or cut)."""
        empty = SparseMat(self.dim, self.dim)
        return PolyMat(self.dim, order,
                       (self.parts + (empty,) * order)[:order])

    def coefficient_matrix(self, k: int) -> SparseMat:
        """Rational matrix of the h^k coefficients."""
        return self.parts[k] if k < self.order \
            else SparseMat(self.dim, self.dim)

    @property
    def constant(self) -> SparseMat:
        return self.parts[0]

    def compose(self, other: "PolyMat") -> "PolyMat":
        """self after other (matrix product self @ other), on the integer
        slot kernel: a word of two letters on one strand of width dim,
        other acting first."""
        if self.dim != other.dim or self.order != other.order:
            raise DimensionMismatch("compose shape/order mismatch")
        return _word_matrix([self, other], [(1, 1), (0, 1)],
                            self.dim, self.order)

    def add(self, other: "PolyMat") -> "PolyMat":
        if self.dim != other.dim or self.order != other.order:
            raise DimensionMismatch("add shape/order mismatch")
        return PolyMat(self.dim, self.order,
                       (a.add(b) for a, b in zip(self.parts, other.parts)))

    def sub(self, other: "PolyMat") -> "PolyMat":
        return self.add(other.scaled(-1))

    def scaled(self, s) -> "PolyMat":
        """Multiply by a scalar or a TruncPoly of the same order: a word
        of one 1 x 1 letter [[s]], which multiplies every entry by s."""
        s = PolyMat.from_entries(1, self.order, [(0, 0, s)])
        return _word_matrix([self, s], [(1, 1), (0, 1)], self.dim, self.order)

    def tensor(self, other: "PolyMat") -> "PolyMat":
        """Kronecker product; basis index of (i, j) is i*other.dim + j.
        A word of two letters on self.dim * other.dim: other on the slot
        of weight 1, then self on the slot of weight other.dim."""
        if self.order != other.order:
            raise ValueError("mixed truncation orders")
        return _word_matrix([self, other], [(1, 1), (0, other.dim)],
                            self.dim * other.dim, self.order)

    def trace(self) -> TruncPoly:
        return TruncPoly(self.order, tuple(
            sum((v for (r, c), v in p.entries.items() if r == c), ZERO)
            for p in self.parts))

    def power(self, k: int) -> "PolyMat":
        """The word of |k| letters self, or self.inverse() when k < 0; the
        empty word k = 0 is the identity."""
        base = self.inverse() if k < 0 else self
        return _word_matrix([base], [(0, 1)] * abs(k), self.dim, self.order)

    def inverse(self) -> "PolyMat":
        """M^{-1} = sum_{i<N} (-K)^i M0^{-1} with K = M0^{-1} (M - M0) = 0
        mod h, on the integer slot kernel: on one block of all dim basis
        columns, x_0 = M0^{-1} e and x_i = -M0^{-1} (M - M0) x_{i-1}, by
        the letters s M0^{-1} (s the lcm of its denominators) and -(M - M0)
        in u = h/D.  x_i is s^(i+1) times its value and starts at degree i,
        so acc <- s acc + x_i ends within N terms and is written back once,
        over s^m D^k in degree k after m terms.  A unipotent M skips the
        M0^{-1} letter; a singular M0 raises ZeroDivisionError."""
        dim, order = self.dim, self.order
        tail = PolyMat(dim, order, (SparseMat(dim, dim),) + self.parts[1:])
        _, big = _scales(tail)
        minus = [[[(r, -c) for r, c in col] for col in part]
                 for part in _int_form(tail, 1, big)]
        forms, word, s = [minus], [(0, 1)], 1
        if self.parts[0] != SparseMat.identity(dim):
            inv0 = PolyMat.from_rational(invert_rational(self.parts[0]), order)
            s = _scales(inv0)[0]
            forms.append(_int_form(inv0, s, 1))
            word.append((1, 1))
        letters = _compile_word(forms, word, order)
        acc, terms = _series(letters, word, s, _apply_word(
            letters, word[1:], _block(0, dim, dim, order)))
        dens = [s ** terms * big ** k for k in range(order)]
        return _from_blocks([acc], dens, dim, order)

    def __eq__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        return (self.dim, self.order, self.parts) \
            == (other.dim, other.order, other.parts)

    @property
    def nnz(self) -> int:
        """Number of positions with a nonzero entry."""
        return len(set().union(*(p.entries for p in self.parts)))

    def __repr__(self):
        return f"PolyMat(dim={self.dim}, order={self.order}, nnz={self.nnz})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "trunc": self.order,
                "entries": [[r, c, v.to_json()]
                            for r, c, v in self.entries()]}

    @staticmethod
    def from_json(data) -> "PolyMat":
        """Inverse of to_json.  Malformed input raises ValueError."""
        if not isinstance(data, dict) \
                or not {"dim", "trunc", "entries"} <= data.keys():
            raise ValueError("matrix JSON must be an object with "
                             "dim, trunc and entries")
        dim, order, entries = data["dim"], data["trunc"], data["entries"]
        if type(dim) is not int or dim < 0:
            raise ValueError(f"matrix dim must be an integer >= 0, not {dim!r}")
        if type(order) is not int or order < 1:
            raise ValueError(f"trunc must be an integer >= 1, not {order!r}")
        check_order(dim, order)
        if not isinstance(entries, list):
            raise ValueError("matrix entries must be a JSON array")
        triples = []
        for i, item in enumerate(entries):
            if not (isinstance(item, list) and len(item) == 3
                    and all(type(x) is int and 0 <= x < dim
                            for x in item[:2])):
                raise ValueError(f"matrix entry {i} is not [row, col, "
                                 f"coefficients] with 0 <= row, col < {dim}")
            r, c, coeffs = item
            triples.append((r, c, TruncPoly.from_json(coeffs, order)))
        return PolyMat.from_entries(dim, order, triples)


# slots charged for each power of h besides its dim^2 entries: an empty
# part costs about 170 bytes, a stored small entry about 115 (tracemalloc,
# CPython 3.11)
ORDER_SLOTS = 2


def check_order(dim: int, order: int) -> None:
    """Raise SizeOverflow, before anything of that size is allocated, when
    a dim x dim matrix over Q[h]/(h^order) has more than
    DEFAULT_ENTRY_LIMIT coefficient slots, ORDER_SLOTS per power of h
    included."""
    if (dim * dim + ORDER_SLOTS) * order > DEFAULT_ENTRY_LIMIT:
        raise SizeOverflow(
            f"a {dim} x {dim} matrix over Q[h]/(h^{order}) exceeds the "
            f"entry limit {DEFAULT_ENTRY_LIMIT}")


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


def _compile_word(forms, word, order: int) -> dict:
    """The letters of word: each distinct (form, base) step, compiled
    once.  letter[k2][pair] lists the (k1 + k2, row * base, C_k1[row,
    pair]) products of an input u^k2 coefficient at pair that stay below
    the truncation order."""
    return {(m, base): [[[(k1 + k2, row * base, c)
                          for k1 in range(order - k2)
                          for row, c in forms[m][k1][pair]]
                         for pair in range(len(forms[m][0]))]
                        for k2 in range(order)]
            for m, base in set(word)}


def _apply_slots(letter, base: int, vec: list[dict[int, int]]) -> list[dict[int, int]]:
    """Apply a compiled letter of width nn to the tensor slots whose
    lowest has weight base: an operator acts on two adjacent slots
    (nn = n^2), a map on V on one (nn = n).

    vec is a block of columns of a dim x dim matrix, held
    coefficient-major: vec[k] maps a key to its integer u^k coefficient,
    and products of degree >= len(vec) are dropped.  Entry i of column j
    has key j * dim + i, and a key splits as e = (hi * nn + pair) * base
    + lo; the letter acts on pair = e // base % nn, leaving e - pair *
    base.  Where dim is a multiple of nn * base, the pair is a slot of
    the row index, the column inside hi, and the letter L maps the block
    X to L X.  At a base w * dim, nn * w dividing dim, the pair is a slot
    of the column index, the row inside lo, and the letter maps X to X
    L^T on that slot: X M is the letter of M^T there.
    Sums that cancel stay stored as zeros, which add no products here
    and which _apply_word drops once at the end of the word.
    """
    nn = len(letter[0])
    out: list[dict[int, int]] = [{} for _ in vec]
    for part, table in zip(vec, letter):
        for e, a in part.items():
            if not a:
                continue
            pair = e // base % nn
            rest = e - pair * base
            for deg, shift, c in table[pair]:
                dst = out[deg]
                key = rest + shift
                dst[key] = dst.get(key, 0) + c * a
    return out


def _apply_word(letters, word, vec):
    """Apply the (form, base) steps of word to the block vec, the first
    step first, and drop the zeros of the result: its blocks store
    nonzero entries only."""
    for step in word:
        vec = _apply_slots(letters[step], step[1], vec)
    return [{e: a for e, a in part.items() if a} for part in vec]


def _block(start: int, stop: int, dim: int, order: int) -> list[dict[int, int]]:
    """The basis columns start..stop-1 of a dim x dim matrix as a block."""
    return [{j * dim + j: 1 for j in range(start, stop)}] \
        + [{} for _ in range(order - 1)]


def _int_block(mat: PolyMat, d0: int, big: int) -> list[dict[int, int]]:
    """All columns of mat as one block of the integer matrices of
    _int_form: mat = (1/d0) sum_k u^k block[k] for u = h/big."""
    block, dim = [], mat.dim
    for k, part in enumerate(mat.parts):
        scale = d0 * big ** k
        block.append({c * dim + r: a.numerator * (scale // a.denominator)
                      for (r, c), a in part.entries.items()})
    return block


def _block_form(block, n: int, transpose: bool = False):
    """The letter form (as of _int_form) of an n x n block, or of its
    transpose."""
    form = [[[] for _ in range(n)] for _ in block]
    for cols, part in zip(form, block):
        for e, a in part.items():
            c, r = divmod(e, n)
            if transpose:
                r, c = c, r
            cols[c].append((r, a))
    return form


def _rescaled(block, ratio: int) -> list[dict[int, int]]:
    """The block in u' = u / ratio: degree k times ratio^k."""
    if ratio == 1:
        return block
    return [{e: a * ratio ** k for e, a in part.items()}
            for k, part in enumerate(block)]


def _series(letters, word, s: int, x):
    """(acc, m): acc = sum_{i<m} s^(m-1-i) x_i, the zeros dropped, for
    x_0 = x and x_i the word applied to x_{i-1}, up to the first x_m = 0.
    The word must raise the degree, so that m <= the truncation order."""
    acc, terms = x, 1
    while any(x := _apply_word(letters, word, x)):
        terms += 1
        for dst, part in zip(acc, x):
            for e in dst:
                dst[e] *= s
            for e, a in part.items():
                dst[e] = dst.get(e, 0) + a
    return [{e: a for e, a in part.items() if a} for part in acc], terms


def _unipotent_forms(g: dict[int, int], k: int, n: int, order: int):
    """(fwd, inv): the letter forms of (I + u^k G)^T and of its inverse,
    the series of -u^k G, for an n x n integer matrix G held as one part
    of a block, G[r, c] at key c * n + r, and k >= 1."""
    step = _block(0, n, n, order)
    step[k] = g
    minus = [{} for _ in range(order)]
    minus[k] = {e: -a for e, a in g.items()}
    word = [(0, 1)]
    inv, _ = _series(_compile_word([_block_form(minus, n)], word, order),
                     word, 1, _block(0, n, n, order))
    return _block_form(step, n, transpose=True), _block_form(inv, n)


def _word_matrix(mats, word, dim: int, order: int) -> PolyMat:
    """Matrix of a word of (form, base) steps on mats, built on blocks of
    basis columns as wide as the widest of mats, each block written back
    as fractions before the next one is formed.  All forms share one
    u = h/D, so that their products stay in u, and the integer result is
    d times the rational one, d the product of the d0 of the letters."""
    scales = [_scales(m) for m in mats]
    big = lcm(*(b for _, b in scales))
    forms = [_int_form(m, d0, big) for m, (d0, _) in zip(mats, scales)]
    letters = _compile_word(forms, word, order)
    d = prod(scales[m][0] for m, _ in word)
    width = max(1, *(m.dim for m in mats))
    return _from_blocks((_apply_word(letters, word,
                                     _block(start, start + width, dim, order))
                         for start in range(0, dim, width)),
                        [d * big ** k for k in range(order)], dim, order)


def _from_blocks(blocks, dens, dim: int, order: int) -> PolyMat:
    """The dim x dim PolyMat of integer blocks of columns, degree k of
    each block over dens[k], each block written back as fractions before
    the next one is drawn.  Each block is checked as ints, its keys in
    0..dim*dim-1 and its values nonzero, and the parts are built from
    these checked entries without SparseMat's per-entry check."""
    # entries repeat across columns: build each Fraction once per degree
    fracs: list[dict[int, Fraction]] = [{} for _ in range(order)]
    parts: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(order)]
    size = dim * dim
    for vec in blocks:
        for part, den, dst, cache in zip(vec, dens, parts, fracs):
            if not part:
                continue
            if min(part) < 0 or max(part) >= size:
                raise DimensionMismatch(f"block key out of range for a "
                                        f"{dim} x {dim} matrix")
            if not all(part.values()):
                raise ValueError("stored zero entry")
            for key, a in part.items():
                f = cache.get(a)
                if f is None:
                    f = cache[a] = Fraction(a, den)
                j, i = divmod(key, dim)
                dst[(i, j)] = f
    return PolyMat(dim, order,
                   (SparseMat._unchecked(dim, dim, p) for p in parts))
