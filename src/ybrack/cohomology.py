"""The Yang-Baxter cochain complex of a rack operator.

Degree-d cochains are linear maps on the d-fold tensor power of the free
module on the rack, stored as sparse matrices f<x -> y> indexed by pairs
of d-tuples; tuples are encoded lexicographically (first slot most
significant).  Matrix entries live at (row, col) = (encode(y), encode(x)).

The coboundary d^d: C^d -> C^(d+1) is the alternating sum of d+1 partial
operators d_i.  In index form, each d_i f has two terms on (d+1)-tuples
(x_0..x_d | y_0..y_d):

  + f<..without slot i..>  *  delta(x_i acted by x_{i+1}..x_d,
                                    y_i acted by y_{i+1}..y_d)
  - f<prefix slots acted by x_i (resp. y_i), tail unchanged>
                           *  delta(x_i, y_i)

Every coboundary is computed on integers from per-partial index tables:
each cell (u -> v) sends its 2n terms through d_i by list lookups.
_image applies it to a vector in one flat pass over the cells, summing
the terms in one dict (ints stay ints); it serves the cochain coboundary
(over the common denominator of the cochain), is_entropic, the columns
of d^d and the check that d^d kills a list of vectors.

_row_sums assembles the matrix of d^d on the indicator cochains instead,
as flat rows (col, int, col, int, ...) sorted by column with zeros
dropped, in n^2 blocks, one pass over cells for each pair (t, s) of the
last slots of x and y.  Every d_i, i < d, keeps the last slots of u and
v as those of x and y, and the a-th term pair of d_d puts a in both.  So
the pass of block (t, s != t) takes the d_i, i < d, of the cells ending
in (t, s), that of block (t, t) takes those of the cells ending in
(t, t) and the a = t pair of d_d of every cell, no other pass adds to
their rows, and each block is final when its pass ends: it can be used
and freed before the next one is built, and elimination can stop at the
first prefix of blocks that reaches its rank.  The values of t come one
per Inn(Q)-orbit first, then the rest (_last_slots); each t's blocks
come by increasing s, the diagonal block last.  The blocks give
coboundary_matrix (one Fraction per distinct value) and cocycle_space,
which keeps the nonzero rows of all blocks once up to sign and hands
those distinct rows straight to elimination over Q, as ints, without
forming the matrix.

classify(rack, d), d = 1..3, proves Z^d = E^d (+) B^d on integers, with
no elimination over Q, from the orbit indicators of E^d and the integer
columns of d^(d-1), each the _image of one cell (its docstring has the
proof).  d^d kills those vectors, one _image each; the rows of each
block of d^d, once each up to sign within the block, are eliminated mod
P as they come, and assembly stops at the first prefix of blocks that
reaches the rank the proof needs.  split_solver(rack, d) splits a vector
of E^d + B^d into its entropic and coboundary parts on the same vectors.

A cochain is entropic when every partial coboundary kills it;
equivalently it is quasi-diagonal (vanishes unless every slot pair is
behaviourally equivalent) and fully equivariant (invariant under the
componentwise inner-automorphism action).  Entropic cochains are spanned
by the indicator functions of the orbits of quasi-diagonal index pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .linalg import (DEFAULT_ENTRY_LIMIT, SparseMat, Subspace, SizeOverflow,
                     Vec, ZERO)
from .racks import Perm, Rack, class_ids, inner_orbit


def encode(tup, n: int) -> int:
    code = 0
    for t in tup:
        code = code * n + t
    return code


def decode(code: int, degree: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(degree):
        code, r = divmod(code, n)
        out.append(r)
    return tuple(reversed(out))


class Cochain(SparseMat):
    """Degree-d cochain: an n^d x n^d SparseMat tagged with its rack size
    and degree; entries[(encode(y), encode(x))] = f<x -> y>.  Arithmetic,
    equality and hashing are SparseMat's."""

    def __init__(self, rack_size: int, degree: int, entries=None):
        dim = rack_size ** degree
        super().__init__(dim, dim, {} if entries is None else entries)
        object.__setattr__(self, "rack_size", rack_size)
        object.__setattr__(self, "degree", degree)

    def _like(self, entries) -> "Cochain":
        return Cochain(self.rack_size, self.degree, entries)

    @staticmethod
    def from_pairs(n: int, degree: int, pairs) -> "Cochain":
        """pairs: iterable of (x_tuple, y_tuple, value)."""
        entries = {}
        for x, y, v in pairs:
            v = Fraction(v)
            if v:
                entries[(encode(y, n), encode(x, n))] = v
        return Cochain(n, degree, entries)

    def value(self, x: tuple, y: tuple) -> Fraction:
        """f<x -> y>."""
        n = self.rack_size
        return self.get(encode(y, n), encode(x, n))

    def to_vector(self) -> Vec:
        """Flatten to a vector of length n^(2d), index encode(x)*n^d + encode(y)."""
        return {xc * self.cols + yc: v for (yc, xc), v in self.entries.items()}

    @staticmethod
    def from_vector(n: int, degree: int, vec: Vec) -> "Cochain":
        dim = n ** degree
        entries = {}
        for idx, v in vec.items():
            if v:
                xc, yc = divmod(idx, dim)
                entries[(yc, xc)] = v
        return Cochain(n, degree, entries)


@functools.lru_cache(maxsize=None)
def _partial_tables(rack: Rack, degree: int, i: int) -> tuple:
    """Row-index tables of d_i on degree-d cells (u -> v).

    With T = n^(d-i) and N = n^(d+1), the codes split into i head slots
    and d-i tail slots, encode(u) = hx * T + tx and encode(v) = hy * T + ty.
    Over a in 0..n-1 the cell's 2n terms land in the rows

      +  (hx*n*T + tx)*N + hy*n*T + ty + a_off[a] + tail_y[ty][tail_x[tx][a]]
      -  tx*N + ty + head_x[hx][a] + head_y[hy][a]

    tail_x[tx][a] is a acted by the tail word of u, and tail_y[ty] takes
    it back through the tail word of v (times T), which puts slot i of x
    at a and slot i of y where the braided slots agree; head_x and head_y
    hold the head slots translated by rho(a)^-1, with slot i at a.
    """
    n = rack.size
    T, N = n ** (degree - i), n ** (degree + 1)
    tail_x, tail_y = [], []
    for tx in range(T):
        word = Perm.identity(n)
        for t in decode(tx, degree - i, n):
            word = word * rack.rho(t)
        tail_x.append(word.images)
        tail_y.append([b * T for b in word.inverse().images])
    inv = [rack.rho(a).inverse() for a in range(n)]
    head_x, head_y = [], []
    for h in range(n ** i):
        head = decode(h, i, n)
        bars = [encode(map(inv[a], head), n) * n * T for a in range(n)]
        head_x.append([b * N + a * T * (N + 1) for a, b in enumerate(bars)])
        head_y.append(bars)
    a_off = [a * T * N for a in range(n)]
    return T, a_off, tail_x, tail_y, head_x, head_y


def _image(rack: Rack, degree: int, partials, cells) -> dict[int, int]:
    """Sum of sign * d_i over the (i, sign) in partials, applied to the
    cells (encode(u), encode(v), value) of a degree-d vector, value times
    (u -> v), as {row: total} with no zero total; row = encode(x) *
    n^(d+1) + encode(y), the index of Cochain.to_vector.  Values may be
    ints or Fractions; int values give int totals.

    One pass over the cells sends each cell's 2n terms per partial through
    that partial's full _partial_tables, d_d (T = 1) included, and sums
    them in one dict.
    """
    n = rack.size
    N = n ** (degree + 1)
    tables = [(sign, *_partial_tables(rack, degree, i))
              for i, sign in partials]
    out: dict = {}
    get = out.get
    for uc, vc, val in cells:
        for sign, T, a_off, tail_x, tail_y, head_x, head_y in tables:
            hx, tx = divmod(uc, T)
            hy, ty = divmod(vc, T)
            v = val if sign > 0 else -val
            base = (hx * n * T + tx) * N + hy * n * T + ty
            back = tail_y[ty]
            for off, c in zip(a_off, tail_x[tx]):
                r = base + off + back[c]
                out[r] = get(r, 0) + v
            base = tx * N + ty
            for p, q in zip(head_x[hx], head_y[hy]):
                r = base + p + q
                out[r] = get(r, 0) - v
    return {r: t for r, t in out.items() if t}


def _last_slots(rack: Rack) -> list[int]:
    """The values of the last slot in the order _row_sums takes them: the
    least element of each Inn(Q)-orbit of Q, then the rest, each part in
    increasing order.  Inner automorphisms map the blocks of one last
    slot onto those of another in its orbit, so the first blocks read see
    every orbit, whatever the labelling of the rack."""
    order: list[int] = []
    seen: set = set()
    for x in range(rack.size):
        if x not in seen:
            seen.update(y for (y,) in inner_orbit(rack, (x,)))
            order.append(x)
    return order + [x for x in range(rack.size) if x not in order]


def _row_sums(rack: Rack, degree: int, partials):
    """Sum of sign * d_i over the (i, sign) in partials, applied to the
    indicator cochains of degree d, column col = encode(u) * n^d + encode(v)
    the indicator of (u -> v), as lazily built matrix rows.

    Yields n^2 blocks {row: (col, total, col, total, ...)}, block (t, s)
    holding the rows whose x ends in t and y in s, with row = encode(x) *
    n^(d+1) + encode(y), the index of Cochain.to_vector, so row // n^(d+1)
    % n == t and row % n == s.  Each block is complete when yielded: every
    term of d_i, i < d, on a cell (u -> v) lands in a row with (x_last,
    y_last) = (u_last, v_last), and the a-th term pair of d_d in a row with
    x_last = y_last = a.  So the pass of block (t, s != t) takes the d_i,
    i < d, of the cells with (u_last, v_last) = (t, s); that of block
    (t, t) takes those of the cells ending in (t, t) and the a = t pair of
    d_d of every cell, walking all cells in column order; and no other
    pass touches their rows.  The blocks come by t in _last_slots order
    and, within each t, by increasing s with the diagonal block last.  Each
    row is a flat tuple in increasing col with no zero total, empty when
    all its terms cancel.  Because the cols arrive in order, a term in the
    row's last col merges into that pair, which is dropped when it sums to
    zero, and any other term is appended.  Elimination can stop at the
    first prefix of blocks that reaches the rank it needs; vectors go
    through _image instead.
    """
    n = rack.size
    N = n ** (degree + 1)
    dim = n ** degree
    full = [(sign, *_partial_tables(rack, degree, i))
            for i, sign in partials if i < degree]
    last = [(sign, *_partial_tables(rack, degree, i)[4:])
            for i, sign in partials if i == degree]
    for t in _last_slots(rack):
        # the a = t pair of d_d adds (u -> v) to the row of (u t -> v t),
        # px[u] + v * n, and subtracts it from the row of (u' t -> v' t),
        # nx[u] + ny[v], where ' moves every slot by rho(t)^-1
        pairs = [(sign, [u * n * N + t * (N + 1) for u in range(len(hx))],
                  [h[t] for h in hx], [h[t] for h in hy])
                 for sign, hx, hy in last]
        for s in [*range(t), *range(t + 1, n), t]:
            diagonal = s == t
            us = range(dim) if diagonal else range(t, dim, n)
            vs = range(dim) if diagonal else range(s, dim, n)
            rows: dict = {}
            get = rows.get
            for uc in us:
                for vc in vs:
                    col = uc * dim + vc
                    groups = []
                    if uc % n == t and vc % n == s:
                        for (sign, T, a_off, tail_x, tail_y, head_x,
                             head_y) in full:
                            hx, tx = divmod(uc, T)
                            hy, ty = divmod(vc, T)
                            base = (hx * n * T + tx) * N + hy * n * T + ty
                            back = tail_y[ty]
                            groups.append(([base + off + back[c] for off, c
                                            in zip(a_off, tail_x[tx])],
                                           sign))
                            base = tx * N + ty
                            groups.append(([base + p + q for p, q in
                                            zip(head_x[hx], head_y[hy])],
                                           -sign))
                    if diagonal:
                        for sign, px, nx, ny in pairs:
                            groups.append(((px[uc] + vc * n,), sign))
                            groups.append(((nx[uc] + ny[vc],), -sign))
                    for terms, w in groups:
                        for r in terms:
                            row = get(r)
                            if not row:
                                rows[r] = (col, w)
                            elif row[-2] != col:
                                rows[r] = row + (col, w)
                            else:
                                total = row[-1] + w
                                rows[r] = (row[:-1] + (total,) if total
                                           else row[:-2])
            yield rows


def _alternating(degree: int) -> list[tuple[int, int]]:
    """The (i, sign) of every partial of the full coboundary."""
    return [(i, (-1) ** i) for i in range(degree + 1)]


def _int_cells(f: Cochain) -> tuple[list[tuple], int]:
    """(cells, den): the cells (encode(u), encode(v), value) of f scaled
    to ints by den, the common denominator of its values."""
    den = lcm(*(v.denominator for v in f.entries.values()))
    return [(xc, yc, v.numerator * (den // v.denominator))
            for (yc, xc), v in f.entries.items()], den


def _cochain_sum(rack: Rack, f: Cochain, partials) -> Cochain:
    """The signed sum of partials applied to f: one _image of f's integer
    cells over the common denominator of its values."""
    cells, den = _int_cells(f)
    return Cochain.from_vector(rack.size, f.degree + 1, {
        r: Fraction(t, den)
        for r, t in _image(rack, f.degree, partials, cells).items()})


def coboundary_i(rack: Rack, f: Cochain, i: int) -> Cochain:
    """The i-th partial coboundary of f, a cochain of degree d+1."""
    if not 0 <= i <= f.degree:
        raise IndexError(f"partial index {i} out of range 0..{f.degree}")
    return _cochain_sum(rack, f, [(i, 1)])


def coboundary(rack: Rack, f: Cochain) -> Cochain:
    """Alternating sum of the partial coboundaries, in one _image."""
    return _cochain_sum(rack, f, _alternating(f.degree))


def _check_degree(rack: Rack, degree: int) -> None:
    """Raise unless the degree-d coboundary matrix, n^(2(d+1)) rows, is
    within DEFAULT_ENTRY_LIMIT and d is 1..3: up to size 56, 14 and 7 in
    degrees 1, 2 and 3."""
    n = rack.size
    if degree not in (1, 2, 3):
        raise ValueError("coboundary matrices support degrees 1..3")
    if n ** (2 * (degree + 1)) > DEFAULT_ENTRY_LIMIT:
        raise SizeOverflow(
            f"degree-{degree} coboundary matrix for size {n} "
            f"exceeds the entry limit {DEFAULT_ENTRY_LIMIT}")


def _matrix_rows(rack: Rack, degree: int, partials):
    """The blocks of _row_sums for the signed sum of partials; raises
    before assembling anything too large."""
    _check_degree(rack, degree)
    return _row_sums(rack, degree, partials)


def _matrix(rack: Rack, degree: int, partials) -> SparseMat:
    """_matrix_rows as a SparseMat, one Fraction per distinct value."""
    fracs: dict = {}
    n = rack.size
    return SparseMat(n ** (2 * degree + 2), n ** (2 * degree), {
        (r, c): fracs.get(t) or fracs.setdefault(t, Fraction(t))
        for block in _matrix_rows(rack, degree, partials)
        for r, row in block.items() for c, t in zip(row[::2], row[1::2])})


def partial_coboundary_matrix(rack: Rack, degree: int, i: int) -> SparseMat:
    """Matrix of d_i on indicator cochains.

    Shape n^(2(d+1)) x n^(2d); column indices follow Cochain.to_vector.
    """
    return _matrix(rack, degree, [(i, 1)])


def coboundary_matrix(rack: Rack, degree: int) -> SparseMat:
    """Matrix of the full coboundary in the indicator basis."""
    return _matrix(rack, degree, _alternating(degree))


def cocycle_space(rack: Rack, degree: int) -> Subspace:
    """Z^d: kernel of the degree-d coboundary matrix, eliminated from its
    distinct integer rows without forming the matrix."""
    distinct = linalg.distinct_rows(
        row for block in _matrix_rows(rack, degree, _alternating(degree))
        for row in block.values())
    return linalg.row_kernel(rack.size ** (2 * degree), distinct)


def coboundary_space(rack: Rack, degree: int) -> Subspace:
    """B^d: image of the degree-(d-1) coboundary matrix; B^1 = 0."""
    if degree == 1:
        return Subspace.zero(rack.size ** 2)
    return linalg.image_basis(coboundary_matrix(rack, degree - 1))


def is_entropic(rack: Rack, f: Cochain) -> bool:
    """True iff every partial coboundary of f vanishes.  f is scaled to
    integer cells once, and each partial d_i runs alone over them, one
    _image each, until one is nonzero; no cochain of degree d+1 is
    formed."""
    cells, _ = _int_cells(f)
    return not any(_image(rack, f.degree, [(i, 1)], cells)
                   for i in range(f.degree + 1))


@dataclass(frozen=True)
class EntropicBasis:
    """Orbit basis of the entropic cochains in a given degree.

    Each orbit is a tuple of quasi-diagonal index pairs (x_tuple, y_tuple),
    closed under the componentwise inner-automorphism action; the basis
    cochain of an orbit is its indicator function.  Orbits are sorted by
    their lexicographically least pair.
    """

    rack_size: int
    degree: int
    orbits: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.orbits)

    def cochains(self) -> list[Cochain]:
        return [Cochain.from_pairs(self.rack_size, self.degree,
                                   ((x, y, 1) for x, y in orbit))
                for orbit in self.orbits]

    def subspace(self) -> Subspace:
        ambient = self.rack_size ** (2 * self.degree)
        return Subspace.from_vectors(
            ambient, [c.to_vector() for c in self.cochains()])

    def to_json(self) -> dict:
        return {"rack_size": self.rack_size, "degree": self.degree,
                "orbits": [[[list(x), list(y)] for x, y in orbit]
                           for orbit in self.orbits]}


@functools.lru_cache(maxsize=None)
def _slot_orbits(rack: Rack) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Orbits of behaviourally-diagonal pairs under the diagonal
    inner action, each sorted, ordered by least pair: each is the
    inner_orbit of the least such pair no orbit holds yet, as inner
    automorphisms keep behavioural classes."""
    ids = class_ids(rack)
    seen = set()
    orbits = []
    for pair in itertools.product(range(rack.size), repeat=2):
        if ids[pair[0]] == ids[pair[1]] and pair not in seen:
            orbit = inner_orbit(rack, pair)
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def entropic_basis(rack: Rack, degree: int) -> EntropicBasis:
    """Orbit basis of E^d.

    The componentwise action factors through the slots, so degree-d
    orbits are products of single-slot orbits.  Raises SizeOverflow
    before allocating when the (#quasi-diagonal pairs)^d members, which
    bound the (#slot orbits)^d orbits, times their d slots exceed
    DEFAULT_ENTRY_LIMIT.
    """
    if degree < 1:
        raise ValueError(f"entropic basis degree must be >= 1, got {degree}")
    slots = _slot_orbits(rack)
    pairs = sum(len(o) for o in slots)
    # pairs^d * d > limit, for integers, iff pairs^d > limit // d
    if linalg.power_exceeds(pairs, degree, DEFAULT_ENTRY_LIMIT // degree):
        raise SizeOverflow(
            f"degree-{degree} entropic basis for size {rack.size}: "
            f"{pairs}^{degree} index pairs of {degree} slots exceed the "
            f"entry limit {DEFAULT_ENTRY_LIMIT}")
    orbits = []
    for combo in itertools.product(range(len(slots)), repeat=degree):
        members = []
        for choice in itertools.product(*(slots[c] for c in combo)):
            x = tuple(p[0] for p in choice)
            y = tuple(p[1] for p in choice)
            members.append((x, y))
        orbits.append(tuple(sorted(members)))
    orbits.sort(key=lambda o: o[0])
    return EntropicBasis(rack.size, degree, tuple(orbits))


def symmetrize(rack: Rack, f: Cochain) -> Cochain:
    """Average of the diagonal inner-automorphism translates of f,
    (alpha f)<x -> y> = f<x^alpha -> y^alpha>, over Inn(Q).

    By orbit-stabilizer it is, at each (x, y), the mean of f over the
    inner_orbit of the tuple x + y, so Inn(Q) is never enumerated.
    Denominators are orbit sizes, which divide |Inn(Q)|.
    """
    n, d = rack.size, f.degree
    acc: dict[tuple[int, int], Fraction] = {}
    for yc, xc in f.entries:
        if (yc, xc) not in acc:
            orbit = inner_orbit(rack, decode(xc, d, n) + decode(yc, d, n))
            keys = [(encode(t[d:], n), encode(t[:d], n)) for t in orbit]
            mean = sum(f.entries.get(k, ZERO) for k in keys) / len(keys)
            acc.update(dict.fromkeys(keys, mean))
    return Cochain(n, d, {k: v for k, v in acc.items() if v})


def _columns(rack: Rack, degree: int) -> list[dict[int, int]]:
    """The columns of the degree-d coboundary matrix as integer vectors
    {row: value}: column encode(u) * n^d + encode(v) is the _image of the
    one cell (u -> v).  Raises before building anything too large."""
    _check_degree(rack, degree)
    dim = rack.size ** degree
    partials = _alternating(degree)
    return [_image(rack, degree, partials, [(uc, vc, 1)])
            for uc in range(dim) for vc in range(dim)]


def _indicators(basis: EntropicBasis) -> list[dict[int, int]]:
    """The orbit indicators of an entropic basis as integer vectors,
    indexed as in Cochain.to_vector."""
    n = basis.rack_size
    dim = n ** basis.degree
    return [{encode(x, n) * dim + encode(y, n): 1 for x, y in orbit}
            for orbit in basis.orbits]


def _kills(rack: Rack, degree: int, vectors) -> bool:
    """True iff the degree-d coboundary kills every vector {index: int or
    Fraction}, indexed as in Cochain.to_vector: one _image per vector,
    stopping at the first that is nonzero."""
    dim = rack.size ** degree
    partials = _alternating(degree)
    return not any(_image(rack, degree, partials,
                          [(*divmod(i, dim), a) for i, a in v.items()])
                   for v in vectors)


def span_columns(rack: Rack, degree: int
                 ) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """(indicators, columns), indexed as in Cochain.to_vector: the orbit
    indicators of E^d, independent as their supports are disjoint, and
    the integer columns of d^(d-1), which span B^d (none in degree 1)."""
    indicators = _indicators(entropic_basis(rack, degree))
    return indicators, _columns(rack, degree - 1) if degree > 1 else []


def split_solver(rack: Rack, degree: int):
    """The split of a degree-d cocycle as entropic + coboundary, d = 1..3.

    Echelonizes [orbit indicators of E^d | integer columns of d^(d-1)]
    (span_columns) once with linalg.solver, on the ints as they are, which
    stay ints while the pivots are +-1.  The returned function maps a
    vector v, indexed as in Cochain.to_vector, to (a, g) with v = sum of
    a[o] * indicator o + d^(d-1) g, a keyed by the orbits of
    entropic_basis(rack, d) and g a degree-(d-1) vector, or to None when v
    is outside E^d + B^d.  The indicators come first and are independent,
    so a is unique where E^d meets B^d only in 0; g has free variables
    zero.  Raises before building anything where classify(rack, d) does.
    """
    _check_degree(rack, degree)
    indicators, columns = span_columns(rack, degree)
    solve = linalg.solver(rack.size ** (2 * degree), indicators + columns)
    m = len(indicators)

    def split(v: Vec) -> tuple[Vec, Vec] | None:
        x = solve(v)
        if x is None:
            return None
        return ({j: a for j, a in x.items() if j < m},
                {j - m: a for j, a in x.items() if j >= m})
    return split


@dataclass(frozen=True)
class CohomologyReport:
    """Dimensions of Z^d, B^d and E^d of a rack; verified is the exact
    confirmation of Z^d = E^d (+) B^d."""

    rack_size: int
    degree: int
    dim_z: int
    dim_b: int
    dim_e: int
    verified: bool

    @property
    def dim_h(self) -> int:
        return self.dim_z - self.dim_b

    def to_json(self) -> dict:
        if self.degree == 2:
            return {"dimC2": self.rack_size ** 4, "dimZ2": self.dim_z,
                    "dimB2": self.dim_b, "dimE2": self.dim_e,
                    "dimH2": self.dim_h, "verified": self.verified}
        return {"degree": self.degree, "dimZ": self.dim_z,
                "dimB": self.dim_b, "dimE": self.dim_e, "dimH": self.dim_h}


def classify(rack: Rack, degree: int) -> CohomologyReport:
    """Dimensions of Z^d, B^d and E^d, d = 1..3, and the direct-sum
    verification.

    Over the rationals the cocycles always split as the entropic part
    plus the coboundaries; verified reports the exact confirmation on
    this rack.  dim B^1 = 0 and, for d >= 2, dim B^d = rank d^(d-1) =
    n^(2d-2) - dim Z^(d-1), exact whichever path classify(rack, d - 1)
    took.  The split is then proved on integers, with no elimination
    over Q, from the vectors of span_columns, whose span is E^d + B^d:
      1. d^d kills every one of them exactly, so E^d + B^d lies in Z^d;
      2. they have rank mod P at least dim E^d + dim B^d.  Since
         rank_P <= rank_Q for integer vectors, E^d meets B^d only in 0;
      3. the rows of d^d, read block by block (_row_sums), reach rank
         mod P n^(2d) - dim(E^d + B^d), so dim Z^d <= dim(E^d + B^d);
         the assembly stops at the first prefix of blocks that does.
         Each block is final when yielded, so its rows are taken once
         each up to sign within the block and the block is then freed;
         a row repeated in a later block reduces to zero and adds no
         rank.  The last slots of x come one per Inn(Q)-orbit first
         (_last_slots), each with its diagonal block last.
    If a check or a rank falls short, the report comes from exact
    elimination instead: B^d as the image of d^(d-1), E^d and their sum
    and intersection over Q, and dim Z^d from the exact kernel of
    cocycle_space.  Raises SizeOverflow, before building anything, where
    the degree-d coboundary matrix exceeds DEFAULT_ENTRY_LIMIT: above
    size 56, 14 and 7 in degrees 1, 2 and 3.
    """
    n = rack.size
    # _matrix_rows runs its size guard here, before anything is built
    rows = (row for block in _matrix_rows(rack, degree, _alternating(degree))
            for row in linalg.unique_rows(block.values()))
    dim_b = 0 if degree == 1 else (
        n ** (2 * degree - 2) - classify(rack, degree - 1).dim_z)
    indicators, columns = span_columns(rack, degree)
    dim_sum = len(indicators) + dim_b
    vectors = indicators + columns
    stacked = (tuple(x for item in v.items() for x in item) for v in vectors)
    if (_kills(rack, degree, vectors)
            and linalg.rank_reaches(stacked, dim_sum)
            and linalg.rank_reaches(rows, n ** (2 * degree) - dim_sum)):
        return CohomologyReport(n, degree, dim_sum, dim_b, len(indicators),
                                True)
    b = coboundary_space(rack, degree)
    e = entropic_basis(rack, degree).subspace()
    dim_sum, dim_int = linalg.sum_and_intersection_dims(e, b)
    dim_z = cocycle_space(rack, degree).dim
    split = dim_int == 0 and _kills(rack, degree, e.basis + b.basis)
    return CohomologyReport(n, degree, dim_z, b.dim, e.dim,
                            split and dim_sum == dim_z)
