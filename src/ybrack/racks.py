"""Finite racks and quandles.

A rack is a finite set {0..n-1} with a binary operation x*y (written x^y)
such that every right translation rho(y): x -> x*y is a bijection and
(x*y)*z = (x*z)*(y*z).  A quandle additionally satisfies x*x = x.

Conventions: rack automorphisms act on the right, x^phi, and compose left
to right: x^(phi psi) = (x^phi)^psi.  Right translations generate the
inner automorphism group Inn(Q); two elements are behaviourally
equivalent when their right translations coincide.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .linalg import DEFAULT_ENTRY_LIMIT, SizeOverflow


class RackError(ValueError):
    """Rack axiom violation; may carry a witnessing element or triple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RackSpecError(ValueError):
    """Malformed rack input: bad name, bad JSON shape, out-of-range table."""


class ClosureCapExceeded(RuntimeError):
    """A breadth-first closure grew past its element cap."""


@dataclass(frozen=True)
class Perm:
    """Permutation of {0..n-1}; images[x] is the image of x."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        """self then other: x^(a b) = (x^a)^b."""
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(tuple(inv))

    @staticmethod
    def from_cycles(cycles: list[list[int]], degree: int) -> "Perm":
        """Build from disjoint cycles of 0-based points."""
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Perm(tuple(images))

    def cycle_string(self) -> str:
        seen = [False] * self.degree
        parts = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
        return "".join(parts) or "()"


def parse_perm(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(12)(34)" on 1-based points."""
    text = text.strip()
    if text in ("()", "e", "id"):
        return Perm.identity(degree)
    cycles = []
    for m in re.finditer(r"\(([^()]*)\)", text):
        body = m.group(1).replace(",", " ")
        pts = body.split() if " " in body.strip() else list(body.strip())
        cyc = [int(p) - 1 for p in pts]
        if any(not (0 <= p < degree) for p in cyc):
            raise RackSpecError(f"cycle point out of range in {text!r}")
        cycles.append(cyc)
    if not cycles and text:
        raise RackSpecError(f"cannot parse permutation {text!r}")
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise RackSpecError(f"cycles not disjoint in {text!r}")
    return Perm.from_cycles(cycles, degree)


@dataclass(frozen=True)
class PermGroup:
    """Finite permutation group given by its full element set."""

    degree: int
    elements: tuple[Perm, ...]
    generators: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


CLOSURE_CAP = 10 ** 6


def closure(start, step, cap: int) -> list:
    """Breadth-first closure of the point start under step.

    step(p) yields the points one move from p.  Returns every point
    reachable from start, start first, once each in order of discovery.
    Raises ClosureCapExceeded on the insertion that takes the closure
    past cap points; cap >= 1.
    """
    order, seen = [start], {start}
    for p in order:  # order grows while it is walked: a FIFO queue
        for q in step(p):
            if q not in seen:
                seen.add(q)
                order.append(q)
                if len(order) > cap:
                    raise ClosureCapExceeded(f"closure exceeded cap {cap}")
    return order


@dataclass(frozen=True)
class Rack:
    """Validated finite rack; table[x][y] = x*y."""

    size: int
    table: tuple[tuple[int, ...], ...]
    is_quandle: bool

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def rho(self, y: int) -> Perm:
        return _rho(self, y)

    def to_json(self) -> dict:
        return {"size": self.size, "table": [list(r) for r in self.table]}


@functools.lru_cache(maxsize=None)
def _rho(rack: Rack, y: int) -> Perm:
    return Perm(tuple(rack.table[x][y] for x in range(rack.size)))


def _checked_size(n) -> int:
    """int(n); SizeOverflow when n^3 axiom checks exceed the entry limit."""
    n = int(n)
    if n ** 3 > DEFAULT_ENTRY_LIMIT:
        raise SizeOverflow(f"size {n} cubed exceeds the entry limit "
                           f"{DEFAULT_ENTRY_LIMIT}")
    return n


def validate_rack(table, quandle_required: bool = False) -> Rack:
    """Check the rack axioms and return the validated Rack.

    Raises RackSpecError unless the table is a list (or tuple) of n >= 1
    lists of n ints in 0..n-1, bools excluded; SizeOverflow for a table over
    _checked_size; then RackError with a witness on the first violation
    found: a non-bijective right translation, a self-distributivity
    triple, or a non-idempotent element when a quandle is required.
    """
    if not isinstance(table, (list, tuple)):
        raise RackSpecError("rack table must be a list of rows")
    n = _checked_size(len(table))
    if n == 0:
        raise RackSpecError("empty rack is not supported")
    rows = []
    for x, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise RackSpecError(f"row {x} is not a list")
        if len(row) != n:
            raise RackSpecError(f"row {x} has length {len(row)}, expected {n}")
        if any(type(v) is not int or not 0 <= v < n for v in row):
            raise RackSpecError(f"row {x} has a non-int or out-of-range entry")
        rows.append(tuple(row))
    tab = tuple(rows)
    for y in range(n):
        col = [tab[x][y] for x in range(n)]
        if sorted(col) != list(range(n)):
            raise RackError(
                f"right translation by {y} is not a bijection", witness=y)
    for x in range(n):
        for y in range(n):
            xy = tab[x][y]
            for z in range(n):
                if tab[xy][z] != tab[tab[x][z]][tab[y][z]]:
                    raise RackError(
                        f"self-distributivity fails at (x,y,z)=({x},{y},{z})",
                        witness=(x, y, z))
    is_quandle = all(tab[x][x] == x for x in range(n))
    if quandle_required and not is_quandle:
        bad = next(x for x in range(n) if tab[x][x] != x)
        raise RackError(f"idempotency fails at x={bad}", witness=bad)
    return Rack(n, tab, is_quandle)


def conjugation_quandle(elems: list[Perm]) -> Rack:
    """Quandle on a conjugation-closed list of permutations,
    x*y = y^-1 x y.  The list must be closed under mutual conjugation.
    """
    index = {p: i for i, p in enumerate(elems)}
    if len(index) != len(elems):
        raise RackSpecError("duplicate elements in conjugation subset")
    n = len(elems)
    if n == 0:
        raise RackSpecError("empty rack is not supported")
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            conj = elems[y].inverse() * elems[x] * elems[y]
            if conj not in index:
                raise RackError(
                    f"subset not closed under conjugation: "
                    f"{elems[x].cycle_string()} by {elems[y].cycle_string()}",
                    witness=(x, y))
            row.append(index[conj])
        table.append(row)
    return validate_rack(table, quandle_required=True)


def inner_orbit(rack: Rack, point: tuple[int, ...]) -> list[tuple]:
    """The orbit of a tuple of elements under Inn(Q) acting on every
    entry: its closure under the right translations."""
    gens = {rack.rho(y).images for y in range(rack.size)}
    return closure(point, lambda t: (tuple(g[a] for a in t) for g in gens),
                   CLOSURE_CAP)


def inner_group(rack: Rack) -> PermGroup:
    """Inn(Q), at most CLOSURE_CAP elements: the closure of the identity
    under right multiplication by the distinct right translations, which
    acts on image tuples entrywise, so Inn(Q) is the identity's orbit."""
    gens = tuple(dict.fromkeys(rack.rho(y) for y in range(rack.size)))
    images = inner_orbit(rack, tuple(range(rack.size)))
    return PermGroup(rack.size, tuple(map(Perm, sorted(images))), gens)


def behavioral_classes(rack: Rack) -> list[list[int]]:
    """Partition of the elements by equality of right translations."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x in range(rack.size):
        buckets.setdefault(rack.rho(x).images, []).append(x)
    return sorted((sorted(b) for b in buckets.values()), key=lambda b: b[0])


@functools.lru_cache(maxsize=None)
def class_ids(rack: Rack) -> tuple[int, ...]:
    """class_ids(r)[x] = index of x's behavioural class."""
    ids = [0] * rack.size
    for i, block in enumerate(behavioral_classes(rack)):
        for x in block:
            ids[x] = i
    return tuple(ids)


# -- named constructors -------------------------------------------------

def trivial_rack(n: int) -> Rack:
    return validate_rack([[x] * n for x in range(n)])


def dihedral_rack(n: int) -> Rack:
    """x*y = 2y - x mod n."""
    return validate_rack([[(2 * y - x) % n for y in range(n)]
                          for x in range(n)])


def conjugacy_class(g: Perm, generators) -> list[Perm]:
    """The class of g in the finite group the generators generate: the
    closure of g under conjugation by each generator, sorted by image."""
    return sorted(closure(g, lambda p: (h.inverse() * p * h
                                        for h in generators), CLOSURE_CAP),
                  key=lambda p: p.images)


def transposition_quandle(k: int) -> Rack:
    """Conjugation quandle of all transpositions in the symmetric group
    S_k = <(12), (12...k)>, sorted by image tuple."""
    s_k = [parse_perm("(12)", k), Perm.from_cycles([list(range(k))], k)]
    return conjugation_quandle(conjugacy_class(s_k[0], s_k))


def square_reflection_quandle() -> Rack:
    """Conjugation quandle of the four reflections of the square,
    ordered (13), (24), (12)(34), (14)(23)."""
    perms = [parse_perm(s, 4)
             for s in ["(13)", "(24)", "(12)(34)", "(14)(23)"]]
    return conjugation_quandle(perms)


def tetrahedral_quandle() -> Rack:
    """Conjugation quandle of the four rotations of order 3 in
    A4 = <(123), (234)> (one conjugacy class of 3-cycles), sorted by
    image tuple."""
    a4 = [parse_perm("(123)", 4), parse_perm("(234)", 4)]
    return conjugation_quandle(conjugacy_class(a4[0], a4))


def _is_odd(p: Perm) -> bool:
    """Whether p has an odd number of inversions."""
    return sum(a > b for a, b in itertools.combinations(p.images, 2)) % 2 == 1


def rack_from_name(name: str) -> Rack:
    """Named constructors: trivial:n, dihedral:n, conj:Sk:(..),(..),...

    The conj form takes comma-separated permutations of {1..k}
    in cycle notation, closed under mutual conjugation.
    """
    parts = name.split(":")
    kind = parts[0]
    if kind == "trivial" and len(parts) == 2:
        return trivial_rack(_checked_size(parts[1]))
    if kind == "dihedral" and len(parts) == 2:
        return dihedral_rack(_checked_size(parts[1]))
    if kind == "conj" and len(parts) == 3:
        m = re.fullmatch(r"[SA](\d+)", parts[1])
        if not m:
            raise RackSpecError(f"unknown group {parts[1]!r} in {name!r}")
        k = _checked_size(m.group(1))
        perm_texts = re.findall(r"(?:\([^()]*\))+", parts[2])
        if not perm_texts:
            raise RackSpecError(f"no permutations given in {name!r}")
        perms = [parse_perm(t, k) for t in perm_texts]
        if parts[1][0] == "A" and any(map(_is_odd, perms)):
            raise RackSpecError("odd permutation in alternating-group subset")
        return conjugation_quandle(perms)
    raise RackSpecError(f"unknown rack name {name!r}")


def rack_from_json(data: dict) -> Rack:
    if not isinstance(data, dict) or "table" not in data:
        raise RackSpecError("rack JSON must contain a 'table' field")
    table = data["table"]
    if ("size" in data and isinstance(table, list)
            and len(table) != data["size"]):
        raise RackSpecError("declared size does not match table")
    return validate_rack(table)
