"""Exact sparse linear algebra over the rationals.

Everything here is built on ``fractions.Fraction`` (arbitrary precision,
always reduced, denominator >= 1); no floating point is used anywhere.
Vectors are dicts ``{index: Fraction}`` holding only nonzero entries, and
matrices store a map ``{(row, col): Fraction}`` of nonzero entries.

Subspaces are kept in reduced row echelon form with strictly increasing
pivot columns, so two subspaces are equal iff their bases are identical.
Pivoting is deterministic: lowest column first, then lowest row.

Elimination over Q keeps int entries as Python ints for as long as the
pivots it meets are +-1, so integer rows such as a coboundary's make no
Fraction until rref hands its rows back, every value a Fraction.  The
same elimination runs over F_p on signed int entries in (-p/2, p/2],
updating each row in place; rank_reaches bounds the rank of integer rows
from below by their rank mod P, reading only as many rows as it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm

Vec = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

# the prime of rank_reaches, the rank bound behind classify's certificate
P = 2 ** 31 - 1


def vec_axpy(a: Vec, s: Fraction, b: Vec) -> Vec:
    """a + s*b, dropping zeros; ints stay ints when s and b are ints."""
    if not s:
        return dict(a)
    out = dict(a)
    for i, v in b.items():
        w = out.get(i, 0) + s * v
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


class DimensionMismatch(ValueError):
    pass


class SizeOverflow(RuntimeError):
    """A requested matrix would exceed the configured size limit."""


DEFAULT_ENTRY_LIMIT = 10 ** 7


def power_exceeds(base: int, exp: int, limit: int) -> bool:
    """base ** exp > limit for base >= 1, without forming a huge power:
    2 ** limit.bit_length() already exceeds the limit."""
    return base ** min(exp, limit.bit_length()) > limit


@dataclass(frozen=True)
class SparseMat:
    """Sparse matrix over Fraction; entries holds nonzero values only."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise DimensionMismatch(f"entry ({r},{c}) out of bounds")
            if v == 0:
                raise ValueError("stored zero entry")

    @staticmethod
    def _unchecked(rows: int, cols: int, entries) -> "SparseMat":
        """A rows x cols SparseMat of entries its caller has already
        checked in range and nonzero, built without that check."""
        mat = object.__new__(SparseMat)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "entries", entries)
        return mat

    @staticmethod
    def from_dense(dense) -> "SparseMat":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(r, c)] = v
        return SparseMat(rows, cols, entries)

    @staticmethod
    def identity(n: int) -> "SparseMat":
        return SparseMat(n, n, {(i, i): ONE for i in range(n)})

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def row_vectors(self) -> list[Vec]:
        out: list[Vec] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def col_vectors(self) -> list[Vec]:
        out: list[Vec] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector, both sparse."""
        cols = self._col_index()
        out: Vec = {}
        for j, coeff in v.items():
            col = cols.get(j)
            if not col:
                continue
            for i, w in col.items():
                s = out.get(i, ZERO) + coeff * w
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def _col_index(self) -> dict[int, Vec]:
        cached = getattr(self, "_cols_cache", None)
        if cached is None:
            cached = {}
            for (r, c), v in self.entries.items():
                cached.setdefault(c, {})[r] = v
            object.__setattr__(self, "_cols_cache", cached)
        return cached

    def matmul(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        out: dict[tuple[int, int], Fraction] = {}
        cols = self._col_index()
        for (k, j), bv in other.entries.items():
            col = cols.get(k)
            if not col:
                continue
            for i, av in col.items():
                key = (i, j)
                s = out.get(key, ZERO) + av * bv
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SparseMat(self.rows, other.cols, out)

    def __mul__(self, other):
        if isinstance(other, SparseMat):
            return self.matmul(other)
        return NotImplemented

    def _like(self, entries) -> "SparseMat":
        """A matrix of this shape and class holding entries; subclasses
        that carry more than the shape override it."""
        return SparseMat(self.rows, self.cols, entries)

    def scaled(self, s) -> "SparseMat":
        s = Fraction(s)
        return self._like({k: s * v for k, v in self.entries.items()}
                          if s else {})

    def add(self, other: "SparseMat") -> "SparseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add shape mismatch")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            s = entries.get(k, ZERO) + v
            if s:
                entries[k] = s
            else:
                entries.pop(k, None)
        return self._like(entries)

    def sub(self, other: "SparseMat") -> "SparseMat":
        return self.add(other.scaled(-1))

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))


def _field_ops(p: int | None):
    """(axpy, scale) over Q when p is None, else over F_p on signed ints
    in (-p/2, p/2]: axpy(a, s, b) = a + s*b and scale(r, c) = r / c.
    A pivot of -1 is negated, so over Q an int row stays int.  Over F_p,
    axpy updates a in place and returns it, and reduces a sum only when
    it leaves that range, so the small values of a coboundary stay small
    and need no %."""
    if p is None:
        def scale(r, c):
            if c == -1:
                return {i: -v for i, v in r.items()}
            inv = 1 / Fraction(c)
            return {i: v * inv for i, v in r.items()}
        return vec_axpy, scale
    half = p // 2

    def axpy(a, s, b):
        for i, v in b.items():
            w = a.get(i, 0) + s * v
            if not -half <= w <= half:
                w = (w + half) % p - half
            if w:
                a[i] = w
            else:
                a.pop(i, None)
        return a

    def scale(r, c):
        if c == -1:
            return {i: -v for i, v in r.items()}
        inv = pow(c, -1, p)
        return {i: (v * inv + half) % p - half for i, v in r.items()}

    return axpy, scale


def _eliminate(vectors, pivots: dict[int, Vec], p: int | None):
    """Forward elimination of an iterable of sparse row vectors into
    pivots ({pivot col: row with leading coefficient 1}), over Q, or over
    F_p on signed ints when the prime p is given (_field_ops).  Yields
    after each new pivot and reads the next vector only when resumed, so
    a caller that stops early reads no further vector."""
    axpy, scale = _field_ops(p)
    for row in vectors:
        r = dict(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                coeff = r[lead]
                if coeff != 1:
                    r = scale(r, coeff)
                pivots[lead] = r
                yield
                break
            r = axpy(r, -r[lead], piv)


def _reduced(vectors, p: int | None) -> dict[int, Vec]:
    """The rows of the reduced row echelon form of vectors by pivot
    column, over Q or F_p as in _eliminate, each value as elimination
    left it: over Q, ints that met only pivots of +-1 are still ints."""
    axpy, _ = _field_ops(p)
    pivots: dict[int, Vec] = {}
    for _ in _eliminate(vectors, pivots, p):
        pass
    # back-substitute for the reduced form, last pivot first: the rows
    # already reduced hold no pivot column but their own
    for pc in sorted(pivots, reverse=True):
        r = pivots[pc]
        for c in [c for c in r if c != pc and c in pivots]:
            r = axpy(r, -r[c], pivots[c])
        pivots[pc] = r
    return pivots


def rref(vectors, p: int | None = None) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of an iterable of sparse row vectors, over
    Q, or over F_p when the prime p is given and the entries are ints
    that p does not divide.

    Returns (rows, pivots): rows have leading coefficient 1 at strictly
    increasing pivot columns and are fully reduced against each other.
    The result is the canonical basis of the row space; over Q every
    entry is a Fraction, over F_p an int in [0, p).
    """
    pivots = _reduced(vectors, p)
    piv_cols = sorted(pivots)
    if p is not None:
        return [{c: v % p for c, v in pivots[pc].items()}
                for pc in piv_cols], piv_cols
    return [{c: v if type(v) is Fraction else Fraction(v)
             for c, v in pivots[pc].items()} for pc in piv_cols], piv_cols


def _mod_p(rows):
    """Integer rows (col, value, ...) as sparse vectors mod P, with
    values in (-P/2, P/2] as _field_ops keeps them."""
    half = P // 2
    return ({c: b for c, a in zip(r[::2], r[1::2])
             if (b := (a + half) % P - half)} for r in rows)


def rank_reaches(rows, target: int) -> bool:
    """True iff the integer rows (col, value, ...) have rank at least
    target mod P.  The rows are eliminated mod P as they are read, and
    reading stops as soon as the rank reaches target; target <= 0 reads
    no row.  The rank mod P is at most the rank over Q, so True also
    bounds the rank over Q from below."""
    if target <= 0:
        return True
    steps = _eliminate(_mod_p(rows), {}, P)
    return any(k >= target for k, _ in enumerate(steps, 1))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient_dim with canonical reduced-echelon basis."""

    ambient_dim: int
    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: list[Vec]) -> "Subspace":
        for v in vectors:
            if any(not (0 <= i < ambient_dim) for i in v):
                raise DimensionMismatch("vector index out of range")
        rows, piv = rref(vectors)
        return Subspace(ambient_dim, tuple(rows), tuple(piv))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivot_rows(self) -> dict[int, Vec]:
        return dict(zip(self.pivots, self.basis))

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after elimination against the basis.  The basis
        is fully reduced, so each row leaves the other pivot columns
        alone: only the pivots that v holds take part, each with v's own
        coefficient, in increasing pivot order."""
        rows = self._pivot_rows
        r = dict(v)
        for pc in sorted(v.keys() & rows.keys()):
            r = vec_axpy(r, -v[pc], rows[pc])
        return r

    def contains_vec(self, v: Vec) -> bool:
        """True iff v lies in the span."""
        if any(not (0 <= i < self.ambient_dim) for i in v):
            raise DimensionMismatch("vector longer than ambient dimension")
        return not self.reduce(v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and list(self.basis) == list(other.basis))

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))


def kernel_basis(m: SparseMat) -> Subspace:
    """Canonical basis of {v : m v = 0}: row_kernel of the rows of m
    times the lcm of m's denominators."""
    den = lcm(*{v.denominator for v in m.entries.values()})
    rows = distinct_rows(
        tuple(x for c, v in sorted(r.items())
              for x in (c, v.numerator * (den // v.denominator)))
        for r in m.row_vectors())
    return row_kernel(m.cols, rows)


def unique_rows(rows):
    """The nonempty rows among integer rows (col, value, col, value, ...),
    each in increasing col with no zero value, once each up to sign, in
    the sign with a positive first value, in the order first seen; reads
    the rows only as far as it is read."""
    seen: set[tuple] = set()
    for row in rows:
        if not row:
            continue
        if row[1] < 0:
            flip = list(row)
            flip[1::2] = [-a for a in row[1::2]]
            row = tuple(flip)
        if row not in seen:
            seen.add(row)
            yield row


def distinct_rows(rows) -> list[tuple]:
    """unique_rows as a list, fewest nonzeros first."""
    return sorted(unique_rows(rows), key=len)


def row_kernel(cols: int, rows: list[tuple]) -> Subspace:
    """Canonical basis of the vectors in Q^cols that every integer row
    (col, value, col, value, ...) annihilates, by elimination over Q of
    the rows as ints: the kernel is spanned by e_f - sum of (entry of
    pivot row pc at f) * e_pc over the free columns f."""
    ref_rows, piv_cols = rref(dict(zip(r[::2], r[1::2])) for r in rows)
    pivot_set = set(piv_cols)
    free = {f: {f: ONE} for f in range(cols) if f not in pivot_set}
    for pc, row in zip(piv_cols, ref_rows):
        for c, a in row.items():
            if c != pc:
                free[c][pc] = -a
    return Subspace.from_vectors(cols, list(free.values()))


def image_basis(m: SparseMat) -> Subspace:
    """Canonical basis of the column span of m."""
    return Subspace.from_vectors(m.rows, [c for c in m.col_vectors() if c])


def rank(m: SparseMat) -> int:
    rows = [r for r in m.row_vectors() if r]
    _, piv = rref(rows)
    return len(piv)


def sum_and_intersection_dims(a: Subspace, b: Subspace) -> tuple[int, int]:
    """(dim(a+b), dim(a∩b)) for subspaces of the same ambient space.

    The sum is the row space of the stacked bases, and
    dim(a∩b) = dim a + dim b - dim(a+b).
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    dim_sum = len(rref(list(a.basis) + list(b.basis))[1])
    return dim_sum, a.dim + b.dim - dim_sum


def solver(height: int, columns: list[Vec]):
    """Echelonize the sparse columns, of the given height, once over Q;
    the returned function maps b to the solution x of sum of x[j] *
    columns[j] = b with free variables zero, or to None.  Column j is
    tagged with an int 1 at coordinate top - j past height; in that
    reverse order a tag is a pivot exactly when its column depends on
    earlier columns, so the residual of b is zero at the free variables
    and -x on the other tags, and an entry left below height means b is
    outside the column space.

    Values may be ints or Fractions; ints stay ints while the pivots are
    +-1 (_reduced).  The reduced rows are held as integer rows over their
    common denominator L, and b is scaled to integers over its own
    denominator db, so the residual is reduced as in Subspace.reduce, in
    Python ints: L*db*b - sum of (db*b)[pc] * (L*row_pc) over the pivots
    pc that b holds.  Only each solution entry becomes a Fraction."""
    top = height + len(columns) - 1
    rows = _reduced(({**col, top - j: 1} for j, col in enumerate(columns)),
                    None)
    den = lcm(*(v.denominator for r in rows.values() for v in r.values()))
    int_rows = {pc: {i: v.numerator * (den // v.denominator)
                     for i, v in r.items()} for pc, r in rows.items()}

    def solve(b: Vec) -> Vec | None:
        db = lcm(*(v.denominator for v in b.values()))
        scaled = {i: v.numerator * (db // v.denominator)
                  for i, v in b.items()}
        r = {i: den * a for i, a in scaled.items()}
        for pc in scaled.keys() & int_rows.keys():
            s = scaled[pc]
            for i, a in int_rows[pc].items():
                r[i] = r.get(i, 0) - s * a
        if any(a for i, a in r.items() if i < height):
            return None
        scale = den * db
        return {top - i: Fraction(-a, scale) for i, a in r.items() if a}
    return solve


def invert_rational(m: SparseMat) -> SparseMat:
    """Exact inverse of a rational square matrix, one column per e_i."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    solve = solver(m.rows, m.col_vectors())
    cols = [solve({i: ONE}) for i in range(m.rows)]
    if any(x is None for x in cols):
        raise ZeroDivisionError("matrix is singular")
    return SparseMat(m.rows, m.cols, {(r, c): v for c, x in enumerate(cols)
                                      for r, v in x.items()})
