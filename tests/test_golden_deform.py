"""Golden output of `yb --format json deform --check`.

tests/golden/deform.json holds, per command line, the stdout, stderr and
exit code recorded while PolyMat still stored one Fraction matrix per
power of h.  Unlike the braid cases, which are c_Q at order 1, every
case but the last assembles c_Q (I + f(lambda)) with h-terms that have
denominators:

- dihedral:3 at trunc 3, one orbit, lambda = h/2 - h^2/3;
- the square-reflection quandle at trunc 3, all 16 orbits, with mixed
  denominators 2..10 across orbits and degrees;
- dihedral:5 at trunc 5, lambda = 2/3 + h/2 - h^2/3 + 5h^3/7 - 2h^4/9:
  its constant term has denominator 3 and each h-degree its own
  denominator, so the common u = h/D rescales the degrees differently;
- dihedral:3 with lambda = -1, which makes I + f singular: exit 1.
"""

import json
from pathlib import Path

import pytest

from ybrack.cli import main

CASES = json.loads(
    (Path(__file__).parent / "golden" / "deform.json").read_text())


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{c['argv'][6]} trunc{c['argv'][3]} exit{c['exit']}"
         for c in CASES])
def test_deform_json_is_byte_identical(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]
