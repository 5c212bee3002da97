"""The benchmark's own mathematics, written apart from ``ybrack``.

Nothing here imports the program.  Outputs of the program are read from
its JSON forms and checked against these independent computations:

* rack axioms and the Inn(Q)-orbits of behaviourally equal pairs, whose
  count squared is dim E^2 = dim H^2;
* sparse truncated-polynomial matrices (integer-scaled, so products are
  exact and fast), tensor products and the braid relation on basis
  triples of the tensor cube;
* the entropic test from the paper's characterisation: quasi-diagonal,
  and constant on products of slot orbits;
* the reference kernel that wall_ref divides by.

A truncated-polynomial matrix is a list of columns; column j maps a row
index to a list of N coefficients for h^0..h^(N-1).  Basis vector
x (x) y of the tensor square has index n*x + y, as in the program's JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckError(AssertionError):
    """An output of the program disagrees with an oracle."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


# -- racks -----------------------------------------------------------------

def check_rack_axioms(table) -> None:
    """Right translations are bijections and (x*y)*z = (x*z)*(y*z)."""
    n = len(table)
    for y in range(n):
        require(sorted(table[x][y] for x in range(n)) == list(range(n)),
                f"right translation by {y} is not a bijection")
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for z in range(n):
                require(table[xy][z] == table[table[x][z]][table[y][z]],
                        f"self-distributivity fails at {(x, y, z)}")


def relabel(table, perm):
    """The same rack with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def slot_orbits(table) -> list[frozenset]:
    """Orbits of the pairs (a, b) with equal right translations under
    (a, b) -> (a*y, b*y), for all y."""
    n = len(table)
    translation = [tuple(table[x][a] for x in range(n)) for a in range(n)]
    seen: set = set()
    orbits = []
    for a in range(n):
        for b in range(n):
            if translation[a] != translation[b] or (a, b) in seen:
                continue
            orbit = {(a, b)}
            todo = [(a, b)]
            while todo:
                u, v = todo.pop()
                for y in range(n):
                    img = (table[u][y], table[v][y])
                    if img not in orbit:
                        orbit.add(img)
                        todo.append(img)
            seen |= orbit
            orbits.append(frozenset(orbit))
    return orbits


def is_entropic(entries: dict, table, orbits=None) -> bool:
    """entries[(row, col)] of a rational map on the tensor square, with
    col = source x1 (x) x2 and row = target y1 (x) y2.  Entropic means:
    zero unless both slot pairs (x_i, y_i) are behaviourally equal, and
    constant on each product O_i x O_j of slot orbits."""
    n = len(table)
    orbits = orbits if orbits is not None else slot_orbits(table)
    orbit_of = {}
    for k, orbit in enumerate(orbits):
        for pair in orbit:
            orbit_of[pair] = k
    values: dict = {}
    for (row, col), v in entries.items():
        if not v:
            continue
        y1, y2 = divmod(row, n)
        x1, x2 = divmod(col, n)
        key = (orbit_of.get((x1, y1)), orbit_of.get((x2, y2)))
        if None in key:
            return False
        values.setdefault(key, []).append(v)
    for (i, j), vals in values.items():
        if len(vals) != len(orbits[i]) * len(orbits[j]) or len(set(vals)) != 1:
            return False
    return True


# -- truncated-polynomial matrices ------------------------------------------

def parse_polymat(data) -> tuple[int, int, list]:
    """(dim, N, columns) from the program's PolyMat JSON."""
    dim, order = data["dim"], data["trunc"]
    cols = [dict() for _ in range(dim)]
    for r, c, coeffs in data["entries"]:
        vals = [Fraction(v) for v in coeffs]
        vals += [Fraction(0)] * (order - len(vals))
        if any(vals):
            cols[c][r] = vals
    return dim, order, cols


def polymat_json(dim: int, order: int, cols) -> dict:
    """The program's PolyMat JSON for the given columns."""
    entries = sorted([r, c, [str(Fraction(v)) for v in coeffs]]
                     for c, col in enumerate(cols)
                     for r, coeffs in col.items() if any(coeffs))
    return {"dim": dim, "trunc": order, "entries": entries}


def to_integer(cols) -> tuple[list, int]:
    """(integer columns, d) with the rational columns equal to them / d."""
    d = 1
    for col in cols:
        for coeffs in col.values():
            for v in coeffs:
                d = d * v.denominator // math.gcd(d, v.denominator)
    return [{r: [int(v * d) for v in coeffs] for r, coeffs in col.items()}
            for col in cols], d


def _pmul(a, b, order):
    out = [0] * order
    for i, x in enumerate(a):
        if x:
            for j in range(order - i):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


def _accumulate(acc: dict, key, coeffs):
    cur = acc.get(key)
    acc[key] = coeffs if cur is None else [u + v for u, v in zip(cur, coeffs)]


def _nonzero(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if any(v)}


def matmul(a, b, order):
    """Product a @ b of column lists."""
    out = []
    for col in b:
        acc: dict = {}
        for k, bk in col.items():
            for r, ar in a[k].items():
                _accumulate(acc, r, _pmul(ar, bk, order))
        out.append(_nonzero(acc))
    return out


def tensor(a, b, order):
    """Kronecker product; index of (i, j) is i*dim(b) + j."""
    db = len(b)
    out = [dict() for _ in range(len(a) * db)]
    for c1, col1 in enumerate(a):
        for r1, v1 in col1.items():
            for c2, col2 in enumerate(b):
                for r2, v2 in col2.items():
                    p = _pmul(v1, v2, order)
                    if any(p):
                        out[c1 * db + c2][r1 * db + r2] = p
    return out


def scaled(cols, s):
    return [{r: [s * v for v in coeffs] for r, coeffs in col.items()}
            for col in cols]


def same(a, b) -> bool:
    return [_nonzero(c) for c in a] == [_nonzero(c) for c in b]


def coefficient(cols, k: int) -> dict:
    """The rational matrix of h^k coefficients, {(row, col): value}."""
    return {(r, c): coeffs[k] for c, col in enumerate(cols)
            for r, coeffs in col.items() if coeffs[k]}


def rack_perm(table) -> list[int]:
    """c_Q as a permutation of the tensor-square basis:
    n*x + y -> n*y + x*y."""
    n = len(table)
    return [n * y + table[x][y] for x in range(n) for y in range(n)]


# -- the braid relation on the tensor cube ---------------------------------

def _apply_slot(cols, n, vec, slot, order):
    """Apply c on tensor slots (slot, slot+1) of the cube to vec."""
    nn = n * n
    out: dict = {}
    for e, coeff in vec.items():
        if slot == 0:
            pair, keep = divmod(e, n)
            place = (lambda row, keep=keep: row * n + keep)
        else:
            keep, pair = divmod(e, nn)
            place = (lambda row, keep=keep: keep * nn + row)
        for row, v in cols[pair].items():
            _accumulate(out, place(row), _pmul(v, coeff, order))
    return _nonzero(out)


def braid_holds(cols, n, order, e) -> bool:
    """c1 c2 c1 = c2 c1 c2 on basis vector e of the tensor cube."""
    one = [1] + [0] * (order - 1)
    lhs = rhs = {e: one}
    for slot in (0, 1, 0):
        lhs = _apply_slot(cols, n, lhs, slot, order)
    for slot in (1, 0, 1):
        rhs = _apply_slot(cols, n, rhs, slot, order)
    return lhs == rhs


def first_braid_failure(cols, n, order):
    """First basis triple (x, y, z), in lexicographic order, where the
    braid relation fails, or None.  cols may be integer-scaled: the
    relation is homogeneous of degree 3."""
    for e in range(n ** 3):
        if not braid_holds(cols, n, order, e):
            x, rest = divmod(e, n * n)
            return (x, *divmod(rest, n))
    return None


# -- the reference kernel ---------------------------------------------------

def _ref_matrix():
    """A fixed 22 x 22 integer matrix from a linear congruential stream."""
    state, rows = 12345, []
    for _ in range(22):
        row = []
        for _ in range(22):
            state = (1103515245 * state + 12345) % 2 ** 31
            row.append(state % 19 - 9)
        rows.append(row)
    return rows


_REF = _ref_matrix()


def ref_kernel() -> int:
    """Exact Fraction elimination of a fixed matrix held as sparse dict
    rows: the same kind of work as the program, on inputs that never
    change.  Returns the rank.  The caller keeps the cyclic garbage
    collector off around it, or a collection of the program's heap would
    be timed as the kernel's."""
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v} for r in _REF]
    pivots: dict = {}
    for r in rows:
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                c = r[lead]
                pivots[lead] = {j: v / c for j, v in r.items()}
                break
            c = r[lead]
            for j, v in p.items():
                w = r.get(j, 0) - c * v
                if w:
                    r[j] = w
                else:
                    r.pop(j, None)
    return len(pivots)
