"""Command-line front end.

Commands: validate, check, braid, cohomology, entropic-basis, deform,
normalize, reproduce.  Exit codes are a stable contract for scripting:
0 success, 1 mathematical failure (a check failed), 2 input error.

Racks are given either as a named constructor (trivial:n, dihedral:n,
conj:Sk:(..),(..)) or as a path to a JSON file {"size": n, "table": [[..]]}.
Reports embed the package version and a hash of the canonical table
serialization so results can be traced to their input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from . import __version__, linalg, reference
from .cohomology import classify, entropic_basis
from .deformations import (DecompositionError, DeformationFamily,
                           NotInvertibleError, assemble,
                           normalize_to_entropic, trace_square_formula,
                           ybe_deformed)
from .racks import (ClosureCapExceeded, Rack, RackError, RackSpecError,
                    behavioral_classes, inner_group, rack_from_json,
                    rack_from_name, square_reflection_quandle)
from .truncpoly import PolyMat, TruncPoly, check_order
from .yangbaxter import (BraidWord, YBOperator, build_cq, build_jones,
                         build_tau, check_ybe, braid_rep)

OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2


class InputError(Exception):
    pass


def rack_hash(rack: Rack) -> str:
    canon = json.dumps(rack.to_json(), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_rack(spec: str) -> Rack:
    """Named constructor, or a JSON file when the spec names a file."""
    import os
    if os.path.exists(spec) or spec.endswith(".json"):
        return rack_from_json(_read_json(spec, f"malformed JSON in {spec}"))
    return rack_from_name(spec)


def _parse_json(text: str, malformed: str):
    """The JSON value of text; InputError headed by malformed when it is
    not JSON, nesting too deep for the parser included."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{malformed}: {exc}") from exc


def _read_json(path: str, malformed: str):
    """_parse_json of a file's text; InputError when it cannot be read."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, malformed)


def emit(args, payload: dict, human_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def provenance(rack: Rack) -> dict:
    return {"version": __version__, "rack_sha256": rack_hash(rack)}


def cmd_validate(args) -> int:
    try:
        rack = load_rack(args.rack)
    except RackError as exc:
        witness = f" (witness: {exc.witness})" if exc.witness is not None else ""
        print(f"invalid rack: {exc}{witness}", file=sys.stderr)
        return MATH_FAIL
    classes = behavioral_classes(rack)
    group = inner_group(rack)
    payload = {
        **provenance(rack),
        "size": rack.size,
        "is_quandle": rack.is_quandle,
        "inner_order": group.order,
        "behavioral_classes": classes,
    }
    emit(args, payload, [
        f"rack of size {rack.size} "
        f"({'quandle' if rack.is_quandle else 'rack, not a quandle'})",
        f"inner automorphism group order: {group.order}",
        f"behavioral classes: {classes}",
        f"table hash: {payload['rack_sha256']}",
    ])
    return OK


def cmd_check(args) -> int:
    rack = load_rack(args.rack)
    verdict = check_ybe(build_cq(rack))
    payload = {**provenance(rack), "ybe": verdict.ok,
               "witness": verdict.witness}
    emit(args, payload,
         ["Yang-Baxter equation: " +
          ("holds" if verdict.ok else f"FAILS at triple {verdict.witness}")])
    return OK if verdict.ok else MATH_FAIL


def cmd_braid(args) -> int:
    rack = load_rack(args.rack)
    word = BraidWord.parse(args.word, args.strands)
    trunc = 1 if args.trunc is None else args.trunc
    check_order(rack.size ** 2, trunc)
    mat = braid_rep(build_cq(rack, trunc), word)
    payload = {**provenance(rack), "strands": word.strands,
               "letters": list(word.letters)}
    if args.format == "json":
        payload["matrix"] = mat.to_json()
    emit(args, payload, [
        f"braid on {word.strands} strands, word {list(word.letters)}",
        f"matrix of dimension {mat.dim} with {mat.nnz} nonzero entries",
    ])
    return OK


def cmd_cohomology(args) -> int:
    rack = load_rack(args.rack)
    d = args.degree
    report = classify(rack, d)
    payload = {**provenance(rack), **report.to_json()}
    if d == 2:
        lines = [f"dim C2 = {rack.size ** 4}",
                 f"dim Z2 = {report.dim_z}   dim B2 = {report.dim_b}",
                 f"dim E2 = {report.dim_e}   dim H2 = {report.dim_h}",
                 "decomposition Z2 = E2 (+) B2: "
                 + ("verified" if report.verified else "FAILED")]
    else:
        lines = [f"degree {d}: dim Z = {report.dim_z}, "
                 f"dim B = {report.dim_b}, dim E = {report.dim_e}, "
                 f"dim H = {report.dim_h}"]
    emit(args, payload, lines)
    if not report.verified:
        print(f"decomposition Z{d} = E{d} (+) B{d} FAILED", file=sys.stderr)
    return OK if report.verified else MATH_FAIL


def cmd_entropic_basis(args) -> int:
    rack = load_rack(args.rack)
    basis = entropic_basis(rack, args.degree)
    payload = {**provenance(rack), **basis.to_json()}
    lines = [f"{basis.dim} orbits of quasi-diagonal index pairs "
             f"(degree {basis.degree})"]
    for k, orbit in enumerate(basis.orbits):
        pairs = " ".join(f"{list(x)}->{list(y)}" for x, y in orbit)
        lines.append(f"orbit {k}: {pairs}")
    emit(args, payload, lines)
    return OK


def _parse_lambda(text: str, trunc: int) -> list[TruncPoly]:
    raw = _parse_json(text, "malformed lambda JSON")
    if not isinstance(raw, list):
        raise InputError("lambda must be a JSON array, one value per orbit")
    return [TruncPoly.from_json(item if isinstance(item, list) else [item],
                                trunc)
            for item in raw]


def cmd_deform(args) -> int:
    rack = load_rack(args.rack)
    trunc = 3 if args.trunc is None else args.trunc
    check_order(rack.size ** 2, trunc)
    basis = entropic_basis(rack, 2)
    values = _parse_lambda(args.lam, trunc)
    if len(values) != basis.dim:
        raise InputError(
            f"rack has {basis.dim} entropic orbits, "
            f"got {len(values)} lambda values")
    fam = DeformationFamily(rack, basis, tuple(values))
    try:
        op = assemble(fam)
    except NotInvertibleError as exc:
        print(f"deformation not invertible: {exc}", file=sys.stderr)
        return MATH_FAIL
    payload = {**provenance(rack), "rack_size": op.rack_size}
    if args.format == "json":
        payload["matrix"] = op.mat.to_json()
    lines = [f"assembled deformation on dimension {op.dim} "
             f"over Q[h]/(h^{op.trunc})"]
    if args.check:
        verdict = check_ybe(op)
        payload["ybe"] = verdict.ok
        payload["witness"] = verdict.witness
        lines.append("Yang-Baxter equation: " +
                     ("holds" if verdict.ok
                      else f"FAILS at {verdict.witness}"))
        emit(args, payload, lines)
        return OK if verdict.ok else MATH_FAIL
    emit(args, payload, lines)
    return OK


def cmd_normalize(args) -> int:
    rack = load_rack(args.rack)
    data = _read_json(args.input, "malformed JSON")
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    mat = PolyMat.from_json(data)
    # cutting or padding would change the deformation: work at its order
    if args.trunc is not None and args.trunc != mat.order:
        raise InputError(f"operator is over Q[h]/(h^{mat.order}), "
                         f"not --trunc {args.trunc}")
    op = YBOperator(rack.size, mat)
    verdict = check_ybe(op)
    if not verdict.ok:
        print(f"input fails the Yang-Baxter equation at triple "
              f"{verdict.witness}", file=sys.stderr)
        return MATH_FAIL
    alpha, result = normalize_to_entropic(op, rack, check_input=False)
    payload = provenance(rack)
    if args.format == "json":
        payload.update(alpha=alpha.mat.to_json(),
                       operator=result.mat.to_json())
    emit(args, payload, [
        f"normalized over Q[h]/(h^{mat.order}); "
        f"alpha and entropic operator computed",
    ])
    return OK


def _reproduce_matrix(rack: Rack, expected: set, transpose: bool) -> bool:
    got = {(r, c) for r, c, v in build_cq(rack).mat.entries()}
    want = {(c, r) for r, c in expected} if transpose else set(expected)
    return got == want


def cmd_reproduce(args) -> int:
    rng = random.Random(args.seed)
    ok = True
    detail = []
    if args.example == "d3-matrix":
        rack = rack_from_name("conj:S3:(12),(13),(23)")
        ok = _reproduce_matrix(
            rack, reference.ones_positions(reference.DIHEDRAL3_MATRIX),
            transpose=False)
        detail.append("9x9 operator matrix of the transposition quandle")
    elif args.example == "d3-rigid":
        report = classify(rack_from_name("dihedral:3"), 2)
        ok = report.dim_e == 1 and report.dim_h == 1 and report.verified
        detail.append(f"dim E2 = {report.dim_e}, dim H2 = {report.dim_h}")
    elif args.example == "d4-16":
        rack = square_reflection_quandle()
        ok = _reproduce_matrix(
            rack,
            reference.ones_positions(
                reference.SQUARE_REFLECTION_MATRIX_ROWS_AS_SOURCE),
            transpose=True)
        report = classify(rack, 2)
        ok = ok and report.dim_e == 16 and report.dim_h == 16
        detail.append(f"16x16 matrix and dim E2 = {report.dim_e}")
    elif args.example == "d4-trace":
        rack = square_reflection_quandle()
        trials = [[Fraction(0)] * 16]
        while len(trials) < 6:
            lams = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(16)]
            fam = DeformationFamily.from_values(rack, lams)
            try:
                assemble(fam)
            except NotInvertibleError:
                continue
            trials.append(lams)
        for lams in trials:
            fam = DeformationFamily.from_values(rack, lams)
            check = trace_square_formula(fam)
            if not check.ok:
                ok = False
                detail.append(f"trace mismatch at lambda={lams}: "
                              f"{check.computed} != {check.expected}")
            if not ybe_deformed(fam).ok:
                ok = False
                detail.append(f"Yang-Baxter fails at lambda={lams}")
        detail.append(f"{len(trials)} lambda vectors checked "
                      "(trace of the square and Yang-Baxter)")
    elif args.example == "jones":
        for q in (1, 2, Fraction(1, 3)):
            if not check_ybe(build_jones(q)).ok:
                ok = False
                detail.append(f"Yang-Baxter fails at q={q}")
        if build_jones(1) != build_tau(2):
            ok = False
            detail.append("q=1 does not recover the transposition")
        detail.append("rank-2 family checked at q in {1, 2, 1/3}")
    else:
        print(f"unknown example id {args.example!r}", file=sys.stderr)
        return INPUT_ERROR
    status = "match" if ok else "MISMATCH"
    print(f"{args.example}: {status}")
    for line in detail:
        print("  " + line)
    return OK if ok else MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yb",
        description="Yang-Baxter operators from racks: validation, "
                    "cohomology, deformations")
    parser.add_argument("--format", choices=["human", "json"],
                        default="human")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized commands")
    parser.add_argument("--trunc", type=int, default=None,
                        help="truncation order: deform builds over "
                             "Q[h]/(h^N) (default 3), braid builds c_Q over "
                             "it (default 1); normalize requires the "
                             "operator's own order")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the rack axioms")
    p.add_argument("rack")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="Yang-Baxter check of the rack operator")
    p.add_argument("--rack", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("braid", help="matrix of a braid word")
    p.add_argument("--rack", required=True)
    p.add_argument("--word", required=True,
                   help='signed generator indices, e.g. "1 2 -1"')
    p.add_argument("--strands", type=int, default=None)
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("cohomology", help="cocycle/coboundary dimensions")
    p.add_argument("--rack", required=True)
    p.add_argument("--degree", type=int, default=2, choices=[1, 2, 3])
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("entropic-basis", help="orbit basis of entropic maps")
    p.add_argument("--rack", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_entropic_basis)

    p = sub.add_parser("deform", help="assemble an entropic deformation")
    p.add_argument("--rack", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help='JSON array of "p/q" strings or coefficient arrays')
    p.add_argument("--check", action="store_true",
                   help="also run the Yang-Baxter check")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("normalize",
                       help="conjugate a deformation into entropic form")
    p.add_argument("--rack", required=True)
    p.add_argument("--input", required=True,
                   help="operator JSON (as exported by deform)")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("reproduce", help="reproduction suite")
    p.add_argument("example",
                   choices=["d3-matrix", "d3-rigid", "d4-16",
                            "d4-trace", "jones"])
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trunc is not None and args.trunc < 1:
            raise InputError("--trunc must be positive")
        return args.func(args)
    except (InputError, RackSpecError, RackError, ClosureCapExceeded) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except DecompositionError as exc:
        print(f"normalization failed: {exc}", file=sys.stderr)
        return MATH_FAIL
    except (ValueError, linalg.SizeOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
