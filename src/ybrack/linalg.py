"""Exact sparse linear algebra over the rationals.

Everything here is built on ``fractions.Fraction`` (arbitrary precision,
always reduced, denominator >= 1); no floating point is used anywhere.
Vectors are dicts ``{index: Fraction}`` holding only nonzero entries, and
matrices store a map ``{(row, col): Fraction}`` of nonzero entries.

Subspaces are kept in reduced row echelon form with strictly increasing
pivot columns, so two subspaces are equal iff their bases are identical.
Pivoting is deterministic: lowest column first, then lowest row.

The same elimination runs over the prime field F_p on signed int
entries in (-p/2, p/2], updating each row in place, so the small values
of integer rows stay small and are rarely reduced; rref hands its rows
back in [0, p).  The kernel is computed mod P first and certified over Q
(see row_kernel), and rank_reaches bounds the rank of integer rows from
below by their rank mod P, reading only as many rows as it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt, lcm

Vec = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

# the prime of the modular kernel, and the bound on the numerators and
# denominators its rational reconstruction accepts
P = 2 ** 31 - 1
_LIFT_BOUND = isqrt(P // 2)


def vec_axpy(a: Vec, s: Fraction, b: Vec) -> Vec:
    """a + s*b, dropping zeros."""
    if not s:
        return dict(a)
    out = dict(a)
    for i, v in b.items():
        w = out.get(i, ZERO) + s * v
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
    Over F_p, axpy updates a in place and returns it, and reduces a sum
    only when it leaves that range, so the small values of a coboundary
    stay small and need no %; a pivot of -1 is negated without any."""
    if p is None:
        return vec_axpy, lambda r, c: {i: v / c for i, v in r.items()}
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


def rref(vectors, p: int | None = None) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of an iterable of sparse row vectors, over
    Q, or over F_p when the prime p is given and the entries are ints
    that p does not divide.

    Returns (rows, pivots): rows have leading coefficient 1 at strictly
    increasing pivot columns and are fully reduced against each other.
    The result is the canonical basis of the row space; over F_p its
    entries are in [0, p).
    """
    axpy, _ = _field_ops(p)
    pivots: dict[int, Vec] = {}
    for _ in _eliminate(vectors, pivots, p):
        pass
    piv_cols = sorted(pivots)
    # back-substitute for the reduced form, last pivot first: the rows
    # already reduced hold no pivot column but their own
    for pc in reversed(piv_cols):
        r = pivots[pc]
        for c in [c for c in r if c != pc and c in pivots]:
            r = axpy(r, -r[c], pivots[c])
        pivots[pc] = r
    if p is not None:
        return [{c: v % p for c, v in pivots[pc].items()}
                for pc in piv_cols], piv_cols
    return [pivots[c] for c in piv_cols], piv_cols


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
    times the lcm of m's denominators.  A denominator divisible by P goes
    straight to elimination over Q."""
    den = lcm(*{v.denominator for v in m.entries.values()})
    rows = distinct_rows(
        tuple(x for c, v in sorted(r.items())
              for x in (c, v.numerator * (den // v.denominator)))
        for r in m.row_vectors())
    if den % P == 0:
        return Subspace.from_vectors(m.cols, _rational_kernel(m.cols, rows))
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
    (col, value, col, value, ...) annihilates.

    The kernel is computed mod P and lifted by rational reconstruction,
    then certified over Q: every lifted vector is checked to satisfy
    row . v = 0 exactly, and the vectors are independent (the identity on
    the free columns) and number cols - rank_P >= cols - rank_Q, so they
    span the kernel.  A failed reconstruction or a failed check falls
    back to elimination over Q of the same rows.
    """
    basis = _modular_kernel(cols, rows)
    if basis is None:
        basis = _rational_kernel(cols, rows)
    return Subspace.from_vectors(cols, basis)


def _free_entries(cols: int, rows: list[Vec], pivots: list[int]):
    """{f: {pc: entry of pivot row pc at f}} over the free columns f of a
    reduced echelon form; the kernel is spanned by the e_f - sum of
    entry * e_pc."""
    pivot_set = set(pivots)
    out: dict[int, Vec] = {f: {} for f in range(cols) if f not in pivot_set}
    for pc, row in zip(pivots, rows):
        for c, v in row.items():
            if c != pc:
                out[c][pc] = v
    return out


def _rational_kernel(cols: int, rows: list[tuple]) -> list[Vec]:
    """A kernel basis of the integer rows by elimination over Q."""
    ref_rows, piv_cols = rref({c: Fraction(a) for c, a in
                               zip(r[::2], r[1::2])} for r in rows)
    basis = []
    for f, entries in _free_entries(cols, ref_rows, piv_cols).items():
        v: Vec = {f: ONE}
        for pc, a in entries.items():
            v[pc] = -a
        basis.append(v)
    return basis


def _lift(x: int) -> Fraction | None:
    """The a/b = x mod P with |a|, b <= _LIFT_BOUND, or None (Wang's
    rational reconstruction)."""
    r0, r1, t0, t1 = P, x, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _LIFT_BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _modular_kernel(cols: int, rows: list[tuple]) -> list[Vec] | None:
    """A kernel basis of the integer rows by elimination mod P, lifted and
    checked exactly; None when that fails."""
    ref_rows, piv_cols = rref(_mod_p(rows), P)
    lifts: dict[int, Fraction | None] = {}
    basis = []
    for f, entries in _free_entries(cols, ref_rows, piv_cols).items():
        v: Vec = {f: ONE}
        for pc, a in entries.items():
            if a not in lifts:
                lifts[a] = _lift(P - a)
            q = lifts[a]
            if q is None:
                return None
            v[pc] = q
        basis.append(v)
    return basis if _annihilates(rows, basis) else None


def integer_multiple(v: Vec) -> dict[int, int]:
    """v times the lcm of its denominators, as ints."""
    ratios = {c: q.as_integer_ratio() for c, q in v.items()}
    den = lcm(*(d for _, d in ratios.values()))
    return {c: a * (den // d) for c, (a, d) in ratios.items()}


def _annihilates(rows: list[tuple], basis: list[Vec]) -> bool:
    """True iff row . v = 0 for every integer row and every v in basis,
    each v scaled to integers first."""
    by_col: dict[int, list[tuple[int, int]]] = {}
    for k, v in enumerate(basis):
        for c, a in integer_multiple(v).items():
            by_col.setdefault(c, []).append((k, a))
    for row in rows:
        acc: dict[int, int] = {}
        for c, a in zip(row[::2], row[1::2]):
            for k, b in by_col.get(c, ()):
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            return False
    return True


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


def solver(m: SparseMat):
    """Echelonize m once over Q; the returned function maps b to the
    solution of m x = b with free variables zero, or to None.  Column j is
    tagged with coordinate top - j past m.rows; in that reverse order a
    tag is a pivot exactly when its column depends on earlier columns, so
    the residual of b is zero at the free variables and -x on the other
    tags, and an entry left below m.rows means b is outside the column
    space.

    The reduced rows are held as integer rows over their common
    denominator L, and b is scaled to integers over its own denominator
    db, so the residual is reduced as in Subspace.reduce, in Python ints:
    L*db*b - sum of (db*b)[pc] * (L*row_pc) over the pivots pc that b
    holds.  Only each solution entry becomes a Fraction."""
    top = m.rows + m.cols - 1
    cols = m.col_vectors()
    for j, col in enumerate(cols):
        col[top - j] = ONE
    rows, pivots = rref(cols)
    den = lcm(*(v.denominator for r in rows for v in r.values()))
    int_rows = {pc: {i: v.numerator * (den // v.denominator)
                     for i, v in r.items()} for pc, r in zip(pivots, rows)}

    def solve(b: Vec) -> Vec | None:
        db = lcm(*(v.denominator for v in b.values()))
        scaled = {i: v.numerator * (db // v.denominator)
                  for i, v in b.items()}
        r = {i: den * a for i, a in scaled.items()}
        for pc in scaled.keys() & int_rows.keys():
            s = scaled[pc]
            for i, a in int_rows[pc].items():
                r[i] = r.get(i, 0) - s * a
        if any(a for i, a in r.items() if i < m.rows):
            return None
        scale = den * db
        return {top - i: Fraction(-a, scale) for i, a in r.items() if a}
    return solve


def invert_rational(m: SparseMat) -> SparseMat:
    """Exact inverse of a rational square matrix, one column per e_i."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    solve = solver(m)
    cols = [solve({i: ONE}) for i in range(m.rows)]
    if any(x is None for x in cols):
        raise ZeroDivisionError("matrix is singular")
    return SparseMat(m.rows, m.cols, {(r, c): v for c, x in enumerate(cols)
                                      for r, v in x.items()})
