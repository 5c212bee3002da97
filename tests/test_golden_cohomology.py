"""Golden output of `yb --format json cohomology` in degrees 1 to 3.

tests/golden/cohomology.json holds, per command line, the stdout and exit
code of the Fraction-only elimination, and the sha256 of the canonical
basis of Z^d; classify and kernel_basis must reproduce all three byte for
byte.  The degree-3 entries were computed from the reference spaces
cocycle_space, coboundary_space and entropic_basis, not from classify.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ybrack.cli import load_rack, main
from ybrack.cohomology import cocycle_space

CASES = json.loads(
    (Path(__file__).parent / "golden" / "cohomology.json").read_text())


def basis_sha256(subspace):
    text = json.dumps([[[i, str(v)] for i, v in sorted(b.items())]
                       for b in subspace.basis])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES,
                         ids=[" ".join(c["argv"][3:]) for c in CASES])
def test_cohomology_json_is_byte_identical(case, capsys):
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
    rack, degree = case["argv"][4], int(case["argv"][6])
    z = cocycle_space(load_rack(rack), degree)
    assert basis_sha256(z) == case["z_basis_sha256"]
