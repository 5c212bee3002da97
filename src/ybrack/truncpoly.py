"""Truncated polynomial arithmetic Q[h]/(h^N) and sparse matrices over it.

TruncPoly is the coefficient ring for formal deformations: a fixed
truncation order N >= 1 and N rational coefficients for h^0..h^(N-1).
All arithmetic discards terms of degree >= N; order 1 degenerates to
plain rational arithmetic.  A truncated polynomial is invertible iff its
constant coefficient is nonzero; its inverse is that of the 1 x 1 PolyMat.

PolyMat holds a matrix over Q[h]/(h^N) as an integer block, its only
state: a dict per power of h, with entry (r, c) of a dim x dim matrix at
key c * dim + r, and one denominator per power, each degree reduced so
that equal matrices hold equal states.  Products and inverses run on one
integer slot kernel, _apply_slots, on blocks in one u = h/D: _int_blocks
takes them from the states of a list of PolyMats, rescaling a degree
only where its factor is not 1, and the kernel's output block is the
state of the result, checked and reduced by the constructor, with no
Fraction made.  Fractions are made only where a caller reads a
coefficient: get, entries, coefficient_matrix, trace and to_json.
yangbaxter and deformations hold integer blocks too, for conjugation and
normalization.  Each letter of a word (a block at one slot weight) is
compiled once into its products per input power of u and slot value.  A
letter acts on one tensor slot or on two adjacent ones, and on a whole
block of basis columns per call.  A unipotent letter I + N, its integer
constant term exactly I, is compiled as N and added in place, X += N X.
Sums that cancel stay in the block as zeros, skipped by the letters that
follow, until _apply_word drops them at the end of the word.  The kernel
is the only matrix product: compose, power, inverse and scaled (by a 1 x
1 letter) use it on a single slot, tensor on two, and yangbaxter's
check_ybe, braid_rep and conjugate on tensor powers; conjugate starts
from the operator's own block and multiplies it on the right by letters
on the column index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .linalg import (DEFAULT_ENTRY_LIMIT, DimensionMismatch, SizeOverflow,
                     SparseMat, solver)

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
        """Inverse of to_json, padded to order: the coefficients of
        _read_coeffs."""
        return TruncPoly.from_coeffs(_read_coeffs(data, order, {}), order)


def _read_coeffs(data, order: int | None, seen: dict) -> list[Fraction]:
    """The coefficients of a JSON array.  A coefficient is a string or a
    JSON number, a float read from its decimal text; anything else,
    malformed input and an array longer than order, since cutting it
    would change the value, raise ValueError.  seen maps each (type,
    value) already read to its Fraction, so that a value repeated across
    the arrays of one matrix is parsed once, and true is never read as
    a 1 met before it."""
    if not isinstance(data, list):
        raise ValueError("coefficients must be a JSON array")
    if order is not None and len(data) > order:
        raise ValueError(f"{len(data)} coefficients exceed the "
                         f"truncation order {order}")
    bad = [c for c in data if type(c) not in (str, int, float)]
    if bad:
        raise ValueError(f"bad coefficient: {bad[0]!r}")
    out = []
    for c in data:
        key = (type(c), c)
        f = seen.get(key)
        if f is None:
            try:
                f = seen[key] = Fraction(str(c) if type(c) is float else c)
            except ZeroDivisionError as exc:
                raise ValueError(f"bad coefficient: {exc}") from exc
        out.append(f)
    return out


class PolyMat:
    """Square sparse matrix over TruncPoly, held as an integer block:
    block[k] maps c * dim + r to an int, and the h^k coefficient at (r, c)
    is block[k][c * dim + r] / dens[k].  Each degree is reduced, gcd(dens[k],
    *block[k].values()) = 1, so the state is canonical and == compares it."""

    def __init__(self, dim: int, order: int, block=None, dens=None):
        """The matrix of block and dens, zero when block is None.  Each
        degree is checked, its keys in 0..dim*dim-1 and its values nonzero,
        and reduced; a dict that needs no reduction is kept, not copied."""
        self.dim = dim
        self.order = order
        if block is None:
            block, dens = [{} for _ in range(order)], [1] * order
        parts, reduced = [], []
        for part, den in zip(block, dens):
            if part and (min(part) < 0 or max(part) >= dim * dim):
                raise DimensionMismatch(f"block key out of range for a "
                                        f"{dim} x {dim} matrix")
            if not all(part.values()):
                raise ValueError("stored zero entry")
            # an empty part reduces its den to 1
            g = gcd(den, *part.values())
            parts.append(part if g == 1 else
                         {e: a // g for e, a in part.items()})
            reduced.append(den // g)
        self.block: tuple[dict[int, int], ...] = tuple(parts)
        self.dens: tuple[int, ...] = tuple(reduced)

    @staticmethod
    def _from_fractions(dim: int, order: int, parts) -> "PolyMat":
        """parts[k] maps c * dim + r to the nonzero h^k coefficient at (r,
        c), a Fraction or an int; each degree goes over the lcm of its
        distinct denominators."""
        block, dens = [], []
        for part in parts:
            den = lcm(*{a.denominator for a in part.values()})
            block.append({e: a.numerator * (den // a.denominator)
                          for e, a in part.items()})
            dens.append(den)
        return PolyMat(dim, order, block, dens)

    @staticmethod
    def identity(dim: int, order: int) -> "PolyMat":
        return PolyMat(dim, order, _block(0, dim, dim, order), [1] * order)

    @staticmethod
    def from_entries(dim: int, order: int, entries) -> "PolyMat":
        """entries: iterable of (row, col, TruncPoly or scalar); a later
        entry at the same position replaces an earlier one."""
        polys: dict[int, TruncPoly] = {}
        for r, c, v in entries:
            if not (0 <= r < dim and 0 <= c < dim):
                raise DimensionMismatch(f"entry ({r},{c}) out of bounds")
            if not isinstance(v, TruncPoly):
                v = TruncPoly.const(v, order)
            elif v.order != order:
                raise ValueError("mixed truncation orders in matrix")
            if not v.is_zero():
                polys[c * dim + r] = v
        return PolyMat._from_fractions(dim, order, (
            {e: v.coeffs[k] for e, v in polys.items() if v.coeffs[k]}
            for k in range(order)))

    @staticmethod
    def from_rational(mat: SparseMat, order: int, h_degree: int = 0) -> "PolyMat":
        """Embed a rational matrix as coefficient of h^h_degree."""
        if mat.rows != mat.cols:
            raise DimensionMismatch("PolyMat is square")
        dim = mat.rows
        part = {c * dim + r: a for (r, c), a in mat.entries.items()}
        return PolyMat._from_fractions(dim, order, (
            part if k == h_degree else {} for k in range(order)))

    def get(self, r: int, c: int) -> TruncPoly:
        # a position outside the matrix reads zero: no key is -1
        dim = self.dim
        e = c * dim + r if 0 <= r < dim and 0 <= c < dim else -1
        return TruncPoly(self.order, tuple(
            Fraction(part.get(e, 0), den)
            for part, den in zip(self.block, self.dens)))

    def entries(self):
        """(row, col, TruncPoly) for each nonzero entry, row-major."""
        dim = self.dim
        for r, c in sorted((e % dim, e // dim)
                           for e in set().union(*self.block)):
            yield r, c, self.get(r, c)

    def lift(self, order: int) -> "PolyMat":
        """Reinterpret at a different truncation order (pad or cut)."""
        return PolyMat(self.dim, order, (self.block + ({},) * order)[:order],
                       (self.dens + (1,) * order)[:order])

    def coefficient_matrix(self, k: int) -> SparseMat:
        """Rational matrix of the h^k coefficients."""
        dim = self.dim
        if k >= self.order:
            return SparseMat(dim, dim)
        den = self.dens[k]
        return SparseMat(dim, dim, {
            (e % dim, e // dim): Fraction(a, den)
            for e, a in self.block[k].items()})

    @property
    def constant(self) -> SparseMat:
        return self.coefficient_matrix(0)

    def compose(self, other: "PolyMat") -> "PolyMat":
        """self after other (matrix product self @ other), on the integer
        slot kernel: a word of two letters on one strand of width dim,
        other acting first."""
        if self.dim != other.dim or self.order != other.order:
            raise DimensionMismatch("compose shape/order mismatch")
        return _word_matrix([self, other], [(1, 1), (0, 1)],
                            self.dim, self.order)

    def add(self, other: "PolyMat") -> "PolyMat":
        """Degree by degree, both over the lcm of their denominators."""
        if self.dim != other.dim or self.order != other.order:
            raise DimensionMismatch("add shape/order mismatch")
        block, dens = [], []
        for a, da, b, db in zip(self.block, self.dens, other.block,
                                other.dens):
            den = lcm(da, db)
            part = {e: v * (den // da) for e, v in a.items()}
            fb = den // db
            for e, v in b.items():
                part[e] = part.get(e, 0) + v * fb
            block.append({e: v for e, v in part.items() if v})
            dens.append(den)
        return PolyMat(self.dim, self.order, block, dens)

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
        # the diagonal keys j * dim + j are the multiples of dim + 1
        step = self.dim + 1
        return TruncPoly(self.order, tuple(
            Fraction(sum(a for e, a in part.items() if not e % step), den)
            for part, den in zip(self.block, self.dens)))

    def power(self, k: int) -> "PolyMat":
        """The word of |k| letters self, or self.inverse() when k < 0; the
        empty word k = 0 is the identity."""
        base = self.inverse() if k < 0 else self
        return _word_matrix([base], [(0, 1)] * abs(k), self.dim, self.order)

    def inverse(self) -> "PolyMat":
        """M^{-1} = sum_{i<N} (-K)^i M0^{-1} with K = M0^{-1} (M - M0) = 0
        mod h, on the integer slot kernel: on one block of all dim basis
        columns, x_0 = M0^{-1} e and x_i = -M0^{-1} (M - M0) x_{i-1}, by
        the letters -(M - M0), in u = h/D for D the lcm of dens[1:], and
        s M0^{-1}, s the lcm of the denominators of M0^{-1}, solved from
        the integer columns of block[0].  x_i is s^(i+1) times its value
        and starts at degree i, so acc <- s acc + x_i ends within N terms,
        over s^m D^k in degree k after m terms.  A unipotent M skips the
        M0^{-1} letter; a singular M0 raises ZeroDivisionError."""
        dim, order = self.dim, self.order
        big = lcm(*self.dens[1:])
        tail = [{}] + [{e: -a * (big ** k // den) for e, a in part.items()}
                       for k, part, den in zip(range(1, order), self.block[1:],
                                               self.dens[1:])]
        mats, word, s = [(tail, dim)], [(0, 1)], 1
        ident = _block(0, dim, dim, order)
        if (self.block[0], self.dens[0]) != (ident[0], 1):
            cols: list[dict[int, int]] = [{} for _ in range(dim)]
            for e, a in self.block[0].items():
                cols[e // dim][e % dim] = a
            solve = solver(dim, cols)
            xs = [solve({i: 1}) for i in range(dim)]
            if any(x is None for x in xs):
                raise ZeroDivisionError("matrix is singular")
            # M0 = block[0] / dens[0], so M0^{-1} is dens[0] times the
            # inverse of the integer matrix
            inv0 = PolyMat._from_fractions(dim, 1, [{
                c * dim + r: self.dens[0] * v
                for c, x in enumerate(xs) for r, v in x.items()}])
            s = inv0.dens[0]
            mats.append((list(inv0.block) + [{}] * (order - 1), dim))
            word.append((1, 1))
        letters = _compile_word(mats, word, order)
        acc, terms = _series(letters, word, s,
                             _apply_word(letters, word[1:], ident))
        return PolyMat(dim, order, acc,
                       [s ** terms * big ** k for k in range(order)])

    def __eq__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        return (self.dim, self.order, self.dens, self.block) \
            == (other.dim, other.order, other.dens, other.block)

    @property
    def nnz(self) -> int:
        """Number of positions with a nonzero entry."""
        return len(set().union(*self.block))

    def __repr__(self):
        return f"PolyMat(dim={self.dim}, order={self.order}, nnz={self.nnz})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "trunc": self.order,
                "entries": [[r, c, v.to_json()]
                            for r, c, v in self.entries()]}

    @staticmethod
    def from_json(data) -> "PolyMat":
        """Inverse of to_json.  Malformed input raises ValueError.  Each
        distinct coefficient is parsed once per call (_read_coeffs), and
        the block is built without a TruncPoly per entry."""
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
        # later entries replace earlier ones and zero entries are
        # dropped, as in from_entries
        seen: dict = {}
        polys: dict[int, list[Fraction]] = {}
        for i, item in enumerate(entries):
            if not (isinstance(item, list) and len(item) == 3
                    and all(type(x) is int and 0 <= x < dim
                            for x in item[:2])):
                raise ValueError(f"matrix entry {i} is not [row, col, "
                                 f"coefficients] with 0 <= row, col < {dim}")
            r, c, coeffs = item
            values = _read_coeffs(coeffs, order, seen)
            if any(values):
                polys[c * dim + r] = values
        return PolyMat._from_fractions(dim, order, (
            {e: v[k] for e, v in polys.items() if k < len(v) and v[k]}
            for k in range(order)))


# slots charged for each power of h besides its dim^2 entries: an empty
# degree (its dict and its denominator) costs about 80 bytes, a stored
# entry (an int key and a small int value) about 70 (tracemalloc,
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


def _int_blocks(mats) -> tuple[list, list[int], int]:
    """(blocks, d0s, D): every mat of the list as one block of all its
    columns, in one u = h/D shared by all, block[k] = d0 * D^k * c_k for
    c_k the h^k coefficient, so that mat = (1/d0) sum_k u^k block[k].
    d0 = dens[0], the lcm of the denominators of the constant term, and D
    is that of the denominators of d0 * c_k, dens[k] / gcd(dens[k], d0),
    k >= 1, over all mats.  Degree k is the mat's own dict where its
    factor d0 * D^k / dens[k] is 1."""
    d0s = [mat.dens[0] for mat in mats]
    big = lcm(*(den // gcd(den, d0) for mat, d0 in zip(mats, d0s)
                for den in mat.dens[1:]))
    return [_scaled_parts(mat.block, [d0 * big ** k // den for k, den
                                      in enumerate(mat.dens)])
            for mat, d0 in zip(mats, d0s)], d0s, big


def _transposed(block, n: int) -> list[dict[int, int]]:
    """The block of the transpose of an n x n block."""
    return [{e % n * n + e // n: a for e, a in part.items()} for part in block]


def _compile_word(mats, word, order: int) -> dict:
    """The letters of word: each distinct (letter, base) step, compiled
    once into (unipotent, tables).  Letter m is mats[m] = (block, width),
    the integer matrices C_k of one block of all width columns, grouped
    by column once.  tables[k2][pair] lists the (k1 + k2, row * base,
    C_k1[row, pair]) products of an input u^k2 coefficient at pair that
    stay below the truncation order.  A letter whose C_0 is exactly I is
    unipotent: its tables leave out the k1 = 0 products, which only copy
    the input, and it is applied in place."""
    letters = {}
    for m in {m for m, _ in word}:
        block, width = mats[m]
        cols = [[[] for _ in range(width)] for _ in block]
        for part, by_col in zip(block, cols):
            for e, a in part.items():
                c, r = divmod(e, width)
                by_col[c].append((r, a))
        unipotent = all(col == [(j, 1)] for j, col in enumerate(cols[0]))
        for base in {b for l, b in word if l == m}:
            letters[(m, base)] = (unipotent, [
                [[(k1 + k2, row * base, c)
                  for k1 in range(unipotent, order - k2)
                  for row, c in cols[k1][pair]]
                 for pair in range(width)]
                for k2 in range(order)])
    return letters


def _apply_slots(tables, base: int, vec, out=None) -> list[dict[int, int]]:
    """Apply the compiled tables of a letter of width nn to the tensor
    slots whose lowest has weight base: an operator acts on two adjacent
    slots (nn = n^2), a map on V on one (nn = n).

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

    The products are added into out, or into a fresh block read from
    degree 0 up.  A unipotent letter passes vec itself as out, read from
    the highest degree down: each product of N lands in a higher degree,
    a part already read, so X += N X needs no copy.  Sums that cancel
    stay stored as zeros, which add no products here and which
    _apply_word drops once at the end of the word.
    """
    nn = len(tables[0])
    steps = zip(vec, tables)
    if out is None:
        out = [{} for _ in vec]
    else:
        steps = reversed(list(steps))
    for part, table in steps:
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
    """Apply the (letter, base) steps of word to the block vec, the first
    step first, and drop the zeros of the result: its blocks store
    nonzero entries only.  vec is never changed: it is copied once, if a
    unipotent letter, applied in place, comes before any other letter."""
    own = False
    for step in word:
        unipotent, tables = letters[step]
        if unipotent and not own:
            vec = [dict(part) for part in vec]
        vec = _apply_slots(tables, step[1], vec, vec if unipotent else None)
        own = True
    return [{e: a for e, a in part.items() if a} for part in vec]


def _block(start: int, stop: int, dim: int, order: int) -> list[dict[int, int]]:
    """The basis columns start..stop-1 of a dim x dim matrix as a block."""
    return [{j * dim + j: 1 for j in range(start, stop)}] \
        + [{} for _ in range(order - 1)]


def _scaled_parts(block, factors) -> list[dict[int, int]]:
    """Degree k of the block times factors[k]; a part whose factor is 1 is
    passed on as it is."""
    return [part if f == 1 else {e: a * f for e, a in part.items()}
            for part, f in zip(block, factors)]


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


def _unipotent_blocks(g: dict[int, int], k: int, n: int, order: int):
    """(fwd, inv): the blocks of (I + u^k G)^T and of its inverse, the
    series of -u^k G, for an n x n integer matrix G held as one part of a
    block, G[r, c] at key c * n + r, and k >= 1."""
    step = _block(0, n, n, order)
    step[k] = g
    minus = [{} for _ in range(order)]
    minus[k] = {e: -a for e, a in g.items()}
    word = [(0, 1)]
    inv, _ = _series(_compile_word([(minus, n)], word, order), word, 1,
                     _block(0, n, n, order))
    return _transposed(step, n), inv


def _word_matrix(mats, word, dim: int, order: int) -> PolyMat:
    """Matrix of a word of (letter, base) steps on mats, built on blocks
    of basis columns as wide as the widest of mats and merged into one
    block: the blocks hold disjoint columns.  _int_blocks puts all letters
    in one u = h/D, so that their products stay in u, and the integer
    result is d times the rational one, d the product of the d0 of the
    letters, over d * D^k in degree k."""
    blocks, d0s, big = _int_blocks(mats)
    letters = _compile_word([(b, m.dim) for b, m in zip(blocks, mats)],
                            word, order)
    d = prod(d0s[m] for m, _ in word)
    width = max(1, *(m.dim for m in mats))
    out = _apply_word(letters, word, _block(0, min(width, dim), dim, order))
    for start in range(width, dim, width):
        for dst, part in zip(out, _apply_word(
                letters, word, _block(start, start + width, dim, order))):
            dst.update(part)
    return PolyMat(dim, order, out, [d * big ** k for k in range(order)])
