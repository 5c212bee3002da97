"""Golden output of `yb --format json normalize`.

tests/golden/normalize.json holds, per case, the input operator, the
command line and the stdout and exit code recorded before conjugation
moved onto the integer slot kernel.  The inputs are entropic deformations
s(h) c_Q (g tensor g) of dihedral:3 and the square-reflection quandle at
trunc 3 and 4, conjugated by a dense alpha = I + sum_k h^k A_k, so every
degree has a nonzero coboundary part and normalization conjugates; the
fifth case fails the Yang-Baxter equation and exits 1.

Two cases were recorded later, by the code before normalization kept its
operator in integer form across degrees.  The Alexander quandle Z5, t =
3 (as the conjugation quandle of the 4-cycles x -> 3x + b) at trunc 5,
built the same way, conjugates in four successive degrees.  dihedral:4
at trunc 3 is c_Q (I + h^2 e/2), e an entropic orbit indicator, scaled
and conjugated by alpha = (I + h A_1)(I + h^2 A_2), the A_k dense with
odd denominators and 1/2 added to A_2 at (0, 0): the input has only odd
denominators, and after the conjugation of degree 1 the split of degree
2 brings the denominator 2.
"""

import json
from pathlib import Path

import pytest

from ybrack.cli import main

CASES = json.loads(
    (Path(__file__).parent / "golden" / "normalize.json").read_text())


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{c['argv'][4]} trunc{c['input']['matrix']['trunc']} exit{c['exit']}"
         for c in CASES])
def test_normalize_json_is_byte_identical(case, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(case["input"]))
    code = main(case["argv"] + ["--input", str(path)])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
