"""Seeded inputs, jobs and output checks for the three workloads.

A round is a fixed list of jobs.  Every job starts with the program's
caches empty (Context.cold), as a fresh ``yb`` process would, and every
round draws fresh labelings of its racks.  The seed chooses the labelings
and every random coefficient; the rack families, sizes, truncation orders
and the sparsity of every operator are fixed, so the work of a round
depends on the seed as little as the labelings allow.

A job is one timed call into the program.  Its check runs after the
timer stops and compares the output with the oracles in ``oracle.py``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from oracle import require


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


# -- rack families (tables built here, validated by oracle) ---------------

def dihedral(n):
    return [[(2 * y - x) % n for y in range(n)] for x in range(n)]


def alexander(m, t):
    return [[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)]


def trivial(n):
    return [[x] * n for x in range(n)]


def permutation_rack(sigma):
    return [[sigma[x]] * len(sigma) for x in range(len(sigma))]


def conjugation(perms):
    """x*y = y^-1 x y on a conjugation-closed list of permutations."""
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):  # p then q
        return tuple(q[i] for i in p)

    def inv(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    return [[index[mul(mul(inv(y), x), y)] for y in perms] for x in perms]


def transpositions_s4():
    out = []
    for a in range(4):
        for b in range(a + 1, 4):
            p = list(range(4))
            p[a], p[b] = b, a
            out.append(tuple(p))
    return conjugation(out)


def tetrahedral():
    """The class of the 3-cycle 0 -> 1 -> 2 -> 0 under conjugation in A4."""
    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    group = [p for p in itertools.permutations(range(4)) if even(p)]
    c = (1, 2, 0, 3)
    cls = {tuple(g[c[h]] for h in (g.index(i) for i in range(4)))
           for g in group}
    return conjugation(sorted(cls))


def square_reflections():
    """(13), (24), (12)(34), (14)(23) on the square's corners 0..3."""
    return conjugation([(2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2), (3, 2, 1, 0)])


def cycle_type_perm(rng, cycle_type, n):
    """A random permutation of n points with the given cycle lengths."""
    pts = list(range(n))
    rng.shuffle(pts)
    sigma = list(range(n))
    pos = 0
    for length in cycle_type:
        cyc = pts[pos:pos + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b
        pos += length
    return sigma


def rand_frac(rng):
    return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4))


class Context:
    """Per-process state: the program's modules, a scratch directory for
    rack files, and the tables already handed out."""

    def __init__(self, ybrack_modules, scratch_dir):
        self.yb = ybrack_modules
        self.scratch = scratch_dir
        self.seen: set = set()
        self.files = 0

    def fresh(self, rng, table):
        """(relabeled table, perm): a relabeling x -> perm[x] of table not
        handed out before in this process (racks with few labelings may
        repeat; they are cheap anchors)."""
        n = len(table)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            out = oracle.relabel(table, perm)
            key = tuple(map(tuple, out))
            if key not in self.seen:
                break
        self.seen.add(key)
        oracle.check_rack_axioms(out)
        return out, perm

    def cold(self):
        """Empty the program's functools caches, as in a fresh process."""
        for name, mod in list(sys.modules.items()):
            if name == "ybrack" or name.startswith("ybrack."):
                for obj in list(vars(mod).values()):
                    clear = getattr(obj, "cache_clear", None)
                    if callable(clear):
                        clear()

    def rack_file(self, table):
        self.files += 1
        path = os.path.join(self.scratch, f"rack{self.files}.json")
        with open(path, "w") as fh:
            json.dump({"size": len(table), "table": table}, fh)
        return path

    def run_cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.yb.cli.main(argv)
        return code, out.getvalue()


# -- h2-classify ------------------------------------------------------------

def h2_round(ctx: Context, rng: random.Random) -> list[Job]:
    """dihedral:8 fixed, rank-heavy racks (Alexander, dihedral, S4
    transpositions) and entropic-heavy racks (permutation, trivial), plus
    the paper's two anchors."""
    # dihedral:8 keeps its own labeling: its elimination work changes up
    # to twofold with the labeling, which would tie the round's work to
    # the seed; every job starts with the program's caches empty anyway
    specs = [
        ("dihedral:8", dihedral(8), None),
        ("transpositions:S4", transpositions_s4(), None),
        ("alexander:5", alexander(5, 2), None),
        ("permutation:6", permutation_rack(cycle_type_perm(rng, (3, 2, 1), 6)), None),
        ("trivial:5", trivial(5), None),
        ("dihedral:3", dihedral(3), 1),
        ("square-reflection", square_reflections(), 16),
    ]
    jobs = []
    for name, table, anchor in specs:
        if name == "dihedral:8":
            oracle.check_rack_axioms(table)
        else:
            table, _ = ctx.fresh(rng, table)
        path = ctx.rack_file(table)
        argv = ["--format", "json", "cohomology", "--degree", "2",
                "--rack", path]
        jobs.append(Job(f"h2 {name}", lambda argv=argv: ctx.run_cli(argv),
                        _h2_check(table, anchor)))
    return jobs


def _h2_check(table, anchor):
    n = len(table)
    orbits = len(oracle.slot_orbits(table))

    def check(result):
        code, out = result
        require(code == 0, f"exit code {code}")
        rep = json.loads(out)
        require(rep["verified"] is True, "decomposition not verified")
        require(rep["dimC2"] == n ** 4, f"dimC2 {rep['dimC2']} != {n ** 4}")
        require(rep["dimZ2"] == rep["dimE2"] + rep["dimB2"],
                "dimZ2 != dimE2 + dimB2")
        require(rep["dimH2"] == rep["dimE2"] == orbits ** 2,
                f"dimH2 {rep['dimH2']}, dimE2 {rep['dimE2']}, "
                f"orbit count squared {orbits ** 2}")
        if anchor is not None:
            require(rep["dimH2"] == anchor, f"dimH2 {rep['dimH2']} != {anchor}")
    return check


# -- operators built for ybe-check and normalize -----------------------------

def _entropic_terms(rng, table, orbits):
    """{(row, col): value} of a combination of all product orbits with
    random coefficients."""
    n = len(table)
    out = {}
    for oi in orbits:
        for oj in orbits:
            lam = rand_frac(rng)
            for x1, y1 in oi:
                for x2, y2 in oj:
                    out[(n * y1 + y2, n * x1 + x2)] = lam
    return out


def _coboundary_1(rng, table, perm, name):
    """d g = G - c^-1 G c with G = g (x) I + I (x) g, the first-order term
    of conjugating c_Q by I + h g, for g a random diagonal plus a scaled
    permutation matrix.  The permutation is fixed per rack family, on the
    family's own labels, and carried along by the relabeling perm, so the
    sparsity of d g, and the cost of checking it, do not depend on the
    seed."""
    n = len(table)
    shape = list(range(n))
    random.Random(name).shuffle(shape)
    sigma = [0] * n
    for x in range(n):
        sigma[perm[x]] = perm[shape[x]]
    g = {}
    for x in range(n):
        g[(x, x)] = rand_frac(rng)
        g[(sigma[x], x)] = g.get((sigma[x], x), 0) + rand_frac(rng)
    big = {}
    for (r, c), v in g.items():
        for k in range(n):
            for key in ((n * r + k, n * c + k), (n * k + r, n * k + c)):
                big[key] = big.get(key, 0) + v
    cq = oracle.rack_perm(table)
    inv = [0] * len(cq)
    for j, p in enumerate(cq):
        inv[p] = j
    out = dict(big)
    for (r, c), v in big.items():
        key = (inv[r], inv[c])
        out[key] = out.get(key, 0) - v
    return {k: v for k, v in out.items() if v}


def _order1_operator(table, f):
    """Columns of c_Q (I + h f) over Q[h]/(h^2)."""
    perm = oracle.rack_perm(table)
    cols = [{perm[j]: [Fraction(1), Fraction(0)]} for j in range(len(perm))]
    for (r, c), v in f.items():
        cell = cols[c].setdefault(perm[r], [Fraction(0), Fraction(0)])
        cell[1] += v
    return cols


def _conjugated_operator(ctx, rng, table, order):
    """(alpha (x) alpha)^-1 c_Q (I + F) (alpha (x) alpha), built with the
    program's PolyMat: F is diagonal entropic with coefficients in hQ[h]
    (an r-matrix, so the operator braids), alpha = I + sum h^k A_k with
    every entry of every A_k nonzero, so the operator is dense and its
    cost does not depend on the seed."""
    n = len(table)
    perm = oracle.rack_perm(table)
    orbits = oracle.slot_orbits(table)
    diag = [o for o in orbits if all(a == b for a, b in o)]
    cols = [{perm[j]: [Fraction(1)] + [Fraction(0)] * (order - 1)}
            for j in range(n * n)]
    for oi in diag:
        for oj in diag:
            lam = [Fraction(0)] + [rand_frac(rng) for _ in range(order - 1)]
            for a, _ in oi:
                for b, _ in oj:
                    j = n * a + b
                    cols[j][perm[j]] = [u + v for u, v in
                                        zip(cols[j][perm[j]], lam)]
    alpha = [{i: [Fraction(1)] + [Fraction(0)] * (order - 1)} for i in range(n)]
    for col in alpha:
        for r in range(n):
            cell = col.setdefault(r, [Fraction(0)] * order)
            for k in range(1, order):
                cell[k] = rand_frac(rng)
    PolyMat = ctx.yb.truncpoly.PolyMat
    r = PolyMat.from_json(oracle.polymat_json(n * n, order, cols))
    a = PolyMat.from_json(oracle.polymat_json(n, order, alpha))
    ai, one = a.inverse(), PolyMat.identity(n, order)
    # (A (x) A) M = (A (x) I)((I (x) A) M): slot by slot costs about n/2
    # times less than composing with the dense tensor square
    mat = ai.tensor(one).compose(one.tensor(ai).compose(
        r.compose(a.tensor(one).compose(one.tensor(a)))))
    return ctx.yb.yangbaxter.YBOperator(n, mat)


def _operator(ctx, n, order, cols):
    mat = ctx.yb.truncpoly.PolyMat.from_json(
        oracle.polymat_json(n * n, order, cols))
    return ctx.yb.yangbaxter.YBOperator(n, mat)


# -- ybe-check -------------------------------------------------------------

# braid relations, as letter pairs: the braid relation itself, far
# commutativity on four strands, and a letter against its inverse
BRAID_PAIRS = (((1, 2, 1), (2, 1, 2)), ((1, 3), (3, 1)), ((1, -1), ()))

def ybe_round(ctx: Context, rng: random.Random) -> list[Job]:
    """On racks of sizes 4-7: a passing trunc-2 cocycle deformation
    c_Q(I + h(e + d g)) and a failing one with an added non-cocycle term;
    on the racks of size 4 a dense trunc-3 conjugate of an entropic
    r-matrix operator; braid relation pairs on the operators of size at
    most 5; and ``yb deform --check`` on the 16-parameter
    square-reflection family."""
    yb = ctx.yb.yangbaxter
    specs = [
        ("square-reflection", square_reflections()),
        ("tetrahedral", tetrahedral()),
        ("alexander:5", alexander(5, 2)),
        ("dihedral:6", dihedral(6)),
        ("alexander:7", alexander(7, 3)),
    ]
    jobs = []
    for name, table in specs:
        table, perm = ctx.fresh(rng, table)
        n = len(table)
        orbits = oracle.slot_orbits(table)
        f = _entropic_terms(rng, table, orbits)
        for key, v in _coboundary_1(rng, table, perm, name).items():
            f[key] = f.get(key, 0) + v
        passing = _operator(ctx, n, 2, _order1_operator(table, f))
        failing_cols, witness = _failing_order1(rng, table, f)
        # braid pairs act on n^4 basis vectors: only on the smaller racks
        ops = [("pass2", passing, None, BRAID_PAIRS if n <= 5 else ()),
               ("fail2", _operator(ctx, n, 2, failing_cols), witness, ())]
        if n == 4:
            ops.append(("dense3", _conjugated_operator(ctx, rng, table, 3),
                        None, BRAID_PAIRS[::2]))
        for kind, op, expect, pairs in ops:
            jobs.append(Job(f"ybe {kind} {name}",
                            lambda op=op: yb.check_ybe(op),
                            _verdict_check(expect)))
            for w1, w2 in pairs:
                strands = 4 if 3 in w1 else (3 if 2 in w1 else 2)
                pair = (yb.BraidWord(strands, w1), yb.BraidWord(strands, w2))
                jobs.append(Job(
                    f"braid {w1}={w2} {kind} {name}",
                    lambda op=op, pair=pair: (yb.braid_rep(op, pair[0]),
                                              yb.braid_rep(op, pair[1])),
                    _braid_check(n ** strands)))
    table, _ = ctx.fresh(rng, square_reflections())
    path = ctx.rack_file(table)
    lam = [["0", str(rand_frac(rng)), str(rand_frac(rng))] for _ in range(16)]
    argv = ["--format", "json", "--trunc", "3", "deform", "--rack", path,
            "--lambda", json.dumps(lam), "--check"]
    jobs.append(Job("deform square-reflection",
                    lambda: ctx.run_cli(argv), _deform_check(table)))
    return jobs


def _failing_order1(rng, table, f):
    """c_Q (I + h (f + delta)) for a one-entry delta that breaks the braid
    relation, and the first failing triple by the oracle's evaluation."""
    n = len(table)
    for _ in range(50):
        g = dict(f)
        key = (rng.randrange(n * n), rng.randrange(n * n))
        g[key] = g.get(key, 0) + rand_frac(rng)
        cols = _order1_operator(table, g)
        scaled, _ = oracle.to_integer(cols)
        witness = oracle.first_braid_failure(scaled, n, 2)
        if witness is not None:
            return cols, witness
    raise RuntimeError("no failing perturbation found")


def _verdict_check(witness):
    def check(verdict):
        if witness is None:
            require(verdict.ok, f"expected to hold, fails at {verdict.witness}")
        else:
            require(not verdict.ok, "expected to fail, holds")
            require(tuple(verdict.witness) == witness,
                    f"witness {verdict.witness}, oracle's first failing "
                    f"triple {witness}")
    return check


def _braid_check(dim):
    def check(pair):
        a, b = (oracle.parse_polymat(m.to_json()) for m in pair)
        require(a[0] == b[0] == dim, "braid matrix of wrong dimension")
        require(oracle.same(a[2], b[2]), "braid relation pair differs")
    return check


def _deform_check(table):
    perm = oracle.rack_perm(table)

    def check(result):
        code, out = result
        require(code == 0, f"exit code {code}")
        rep = json.loads(out)
        require(rep["ybe"] is True, f"ybe {rep['ybe']}")
        _, _, cols = oracle.parse_polymat(rep["matrix"])
        const = oracle.coefficient(cols, 0)
        require(const == {(perm[j], j): 1 for j in range(len(perm))},
                "matrix is not c_Q mod h")
    return check


# -- normalize -------------------------------------------------------------

def normalize_round(ctx: Context, rng: random.Random) -> list[Job]:
    """normalize_to_entropic without its input check on dense conjugated
    entropic operators at trunc 4 and 5, racks of sizes 4-6."""
    specs = [
        ("square-reflection", square_reflections(), 5),
        ("alexander:5", alexander(5, 2), 4),
        ("alexander:5", alexander(5, 3), 5),
        ("transpositions:S4", transpositions_s4(), 4),
        ("dihedral:6", dihedral(6), 4),
    ]
    deformations = ctx.yb.deformations
    jobs = []
    for name, table, order in specs:
        table, _ = ctx.fresh(rng, table)
        op = _conjugated_operator(ctx, rng, table, order)
        rack = ctx.yb.racks.validate_rack(table)
        jobs.append(Job(
            f"normalize trunc{order} {name}",
            lambda op=op, rack=rack: deformations.normalize_to_entropic(
                op, rack, check_input=False),
            _normalize_check(table, op)))
    return jobs


def _normalize_check(table, op):
    n = len(table)
    perm = oracle.rack_perm(table)
    orbits = oracle.slot_orbits(table)

    def check(result):
        alpha, out = result
        _, order, a = oracle.parse_polymat(alpha.mat.to_json())
        _, _, c = oracle.parse_polymat(out.mat.to_json())
        _, _, o = oracle.parse_polymat(op.mat.to_json())
        require(oracle.coefficient(a, 0) == {(i, i): 1 for i in range(n)},
                "alpha is not I mod h")
        a_int, da = oracle.to_integer(a)
        c_int, dc = oracle.to_integer(c)
        o_int, do = oracle.to_integer(o)
        aa = oracle.tensor(a_int, a_int, order)
        lhs = oracle.scaled(oracle.matmul(aa, c_int, order), do)
        rhs = oracle.scaled(oracle.matmul(o_int, aa, order), dc)
        require(oracle.same(lhs, rhs), "(alpha x alpha) out != op (alpha x alpha)")
        inv = [0] * len(perm)
        for j, p in enumerate(perm):
            inv[p] = j
        term = [{inv[r]: list(v) for r, v in col.items()} for col in c]
        for j in range(n * n):
            cell = term[j].setdefault(j, [Fraction(0)] * order)
            cell[0] -= 1
        for k in range(order):
            require(oracle.is_entropic(oracle.coefficient(term, k), table,
                                       orbits),
                    f"c_Q^-1 out - I is not entropic in degree {k}")
    return check


WORKLOADS = {
    "h2-classify": h2_round,
    "ybe-check": ybe_round,
    "normalize": normalize_round,
}
