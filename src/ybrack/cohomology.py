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

from . import linalg
from .linalg import (DEFAULT_ENTRY_LIMIT, SparseMat, Subspace, SizeOverflow,
                     Vec, ZERO)
from .racks import Perm, Rack, class_ids, inner_group


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
def _word_perm(rack: Rack, word: tuple[int, ...]) -> Perm:
    """Product of the right translations of word, applied left to right."""
    p = Perm.identity(rack.size)
    for y in word:
        p = p * rack.rho(y)
    return p


def _entry_terms(rack: Rack, i: int, u: tuple, v: tuple):
    """Where the (u -> v) entry of a degree-d cochain lands under d_i.

    Yields (encode(x), encode(y), sign) over the 2n output positions
    (x_tuple, y_tuple); the codes are assembled from the codes of the
    unchanged head and tail slots.
    """
    n = rack.size
    scale = n ** (len(u) - i)
    tail_x, tail_y = encode(u[i:], n), encode(v[i:], n)
    head_x, head_y = encode(u[:i], n) * n, encode(v[:i], n) * n
    wu = _word_perm(rack, u[i:])
    wv_inv = _word_perm(rack, v[i:]).inverse()
    for a in range(n):
        yield ((head_x + a) * scale + tail_x,
               (head_y + wv_inv(wu(a))) * scale + tail_y, 1)
    for a in range(n):
        abar = rack.rho_inv(a)
        yield ((encode(map(abar, u[:i]), n) * n + a) * scale + tail_x,
               (encode(map(abar, v[:i]), n) * n + a) * scale + tail_y, -1)


def _coboundary_sum(rack: Rack, degree: int, partials, cells) -> dict:
    """Sum of sign * d_i over the (i, sign) in partials, applied to each
    cell (u, v, col, value) of degree-d indicators, value times (u -> v).

    Returns {(row, col): total} with row = encode(x) * n^(d+1) + encode(y),
    the index of Cochain.to_vector; totals may be zero.
    """
    dim_out = rack.size ** (degree + 1)
    out: dict = {}
    for u, v, col, val in cells:
        for i, sign in partials:
            pos = val if sign > 0 else -val
            neg = -pos
            for xc, yc, s in _entry_terms(rack, i, u, v):
                key = (xc * dim_out + yc, col)
                out[key] = out.get(key, 0) + (pos if s > 0 else neg)
    return out


def _cochain_sum(rack: Rack, f: Cochain, partials) -> Cochain:
    """The signed sum of partials applied to f."""
    n, d = rack.size, f.degree
    sums = _coboundary_sum(rack, d, partials, (
        (decode(xc, d, n), decode(yc, d, n), 0, val)
        for (yc, xc), val in f.entries.items()))
    return Cochain.from_vector(n, d + 1,
                               {row: t for (row, _), t in sums.items()})


def coboundary_i(rack: Rack, f: Cochain, i: int) -> Cochain:
    """The i-th partial coboundary of f, a cochain of degree d+1."""
    if not 0 <= i <= f.degree:
        raise IndexError(f"partial index {i} out of range 0..{f.degree}")
    return _cochain_sum(rack, f, [(i, 1)])


def coboundary(rack: Rack, f: Cochain) -> Cochain:
    """Alternating sum of the partial coboundaries."""
    return _cochain_sum(rack, f, [(i, (-1) ** i) for i in range(f.degree + 1)])


def _matrix_sum(rack: Rack, degree: int, partials) -> SparseMat:
    """Matrix of the signed sum of partials on indicator cochains.

    Entries are summed as ints and stored as one Fraction per distinct
    value, since elimination divides them.
    """
    n = rack.size
    if degree not in (1, 2, 3):
        raise ValueError("coboundary matrices support degrees 1..3")
    if n ** (2 * (degree + 1)) > DEFAULT_ENTRY_LIMIT:
        raise SizeOverflow(
            f"degree-{degree} coboundary matrix for size {n} "
            f"exceeds the entry limit {DEFAULT_ENTRY_LIMIT}")
    sums = _coboundary_sum(rack, degree, partials, (
        (uv[:degree], uv[degree:], col, 1)
        for col, uv in enumerate(
            itertools.product(range(n), repeat=2 * degree))))
    fracs = {t: Fraction(t) for t in set(sums.values()) if t}
    return SparseMat(n ** (2 * degree + 2), n ** (2 * degree),
                     {key: fracs[t] for key, t in sums.items() if t})


def partial_coboundary_matrix(rack: Rack, degree: int, i: int) -> SparseMat:
    """Matrix of d_i on indicator cochains.

    Shape n^(2(d+1)) x n^(2d); column indices follow Cochain.to_vector.
    """
    return _matrix_sum(rack, degree, [(i, 1)])


def coboundary_matrix(rack: Rack, degree: int) -> SparseMat:
    """Matrix of the full coboundary in the indicator basis."""
    return _matrix_sum(rack, degree,
                       [(i, (-1) ** i) for i in range(degree + 1)])


def cocycle_space(rack: Rack, degree: int) -> Subspace:
    """Z^d: kernel of the degree-d coboundary matrix."""
    return linalg.kernel_basis(coboundary_matrix(rack, degree))


def coboundary_space(rack: Rack, degree: int) -> Subspace:
    """B^d: image of the degree-(d-1) coboundary matrix; B^1 = 0."""
    if degree == 1:
        return Subspace.zero(rack.size ** 2)
    return linalg.image_basis(coboundary_matrix(rack, degree - 1))


def is_entropic(rack: Rack, f: Cochain) -> bool:
    """True iff every partial coboundary of f vanishes."""
    return all(coboundary_i(rack, f, i).is_zero()
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

    def vectors(self) -> list[Vec]:
        return [c.to_vector() for c in self.cochains()]

    def subspace(self) -> Subspace:
        ambient = self.rack_size ** (2 * self.degree)
        return Subspace.from_vectors(ambient, self.vectors())

    def to_json(self) -> dict:
        return {"rack_size": self.rack_size, "degree": self.degree,
                "orbits": [[[list(x), list(y)] for x, y in orbit]
                           for orbit in self.orbits]}


@functools.lru_cache(maxsize=None)
def _slot_orbits(rack: Rack) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Orbits of behaviourally-diagonal pairs under the diagonal
    inner action, each sorted, ordered by least pair."""
    ids = class_ids(rack)
    n = rack.size
    gens = {rack.rho(y) for y in range(n)}
    seen: set[tuple[int, int]] = set()
    orbits = []
    for x in range(n):
        for y in range(n):
            if ids[x] != ids[y] or (x, y) in seen:
                continue
            orbit = {(x, y)}
            frontier = [(x, y)]
            while frontier:
                (a, b) = frontier.pop()
                for g in gens:
                    img = (g(a), g(b))
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits, key=lambda o: o[0]))


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


def symmetrize(rack: Rack, f: Cochain, group=None) -> Cochain:
    """Average of the diagonal inner-automorphism translates of f.

    (alpha f)<x -> y> = f<x^alpha -> y^alpha>, averaged over the full
    inner automorphism group.
    """
    if group is None:
        group = inner_group(rack)
    n = rack.size
    d = f.degree
    acc: dict[tuple[int, int], Fraction] = {}
    for alpha in group.elements:
        for (yc, xc), val in f.entries.items():
            u = decode(xc, d, n)
            v = decode(yc, d, n)
            x = tuple(alpha(t) for t in u)
            y = tuple(alpha(t) for t in v)
            key = (encode(y, n), encode(x, n))
            s = acc.get(key, ZERO) + val
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    scale = Fraction(1, group.order)
    return Cochain(n, d, {k: scale * v for k, v in acc.items() if v})


@dataclass(frozen=True)
class H2Report:
    rack_size: int
    dim_c2: int
    dim_z2: int
    dim_b2: int
    dim_e2: int
    dim_h2: int
    decomposition_verified: bool

    def to_json(self) -> dict:
        return {"dimC2": self.dim_c2, "dimZ2": self.dim_z2,
                "dimB2": self.dim_b2, "dimE2": self.dim_e2,
                "dimH2": self.dim_h2,
                "verified": self.decomposition_verified}


def classify_h2(rack: Rack, size_limit: int = 8) -> H2Report:
    """Dimensions of Z^2, B^2, E^2 and the direct-sum verification.

    Over the rationals the cocycles always split as the entropic part
    plus the coboundaries; decomposition_verified reports the exact
    linear-algebra confirmation on this rack.
    """
    if rack.size > size_limit:
        raise SizeOverflow(f"rack size {rack.size} exceeds limit {size_limit}")
    z2 = cocycle_space(rack, 2)
    b2 = coboundary_space(rack, 2)
    e2 = entropic_basis(rack, 2).subspace()
    dim_sum, dim_int = linalg.sum_and_intersection_dims(e2, b2)
    inside = all(z2.contains_vec(v) for v in e2.basis) \
        and all(z2.contains_vec(v) for v in b2.basis)
    verified = dim_int == 0 and dim_sum == z2.dim and inside
    return H2Report(rack_size=rack.size,
                    dim_c2=rack.size ** 4,
                    dim_z2=z2.dim,
                    dim_b2=b2.dim,
                    dim_e2=e2.dim,
                    dim_h2=z2.dim - b2.dim,
                    decomposition_verified=verified)


@dataclass(frozen=True)
class CocycleVerdict:
    ok: bool
    witness: tuple[int, int, int] | None = None

    def __bool__(self):
        return self.ok


def rack_cocycle_check(rack: Rack, alpha, modulus: int) -> CocycleVerdict:
    """Additive rack cocycle condition for a map Q x Q -> Z/modulus:

        a(x,y) + a(x^y,z) = a(x,z) + a(x^z,y^z)

    for all triples; the witness is the first failing (x,y,z).
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    n = rack.size

    def val(x, y):
        return alpha[x][y]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = val(x, y) + val(rack.op(x, y), z)
                rhs = val(x, z) + val(rack.op(x, z), rack.op(y, z))
                if (lhs - rhs) % modulus != 0:
                    return CocycleVerdict(False, (x, y, z))
    return CocycleVerdict(True)
