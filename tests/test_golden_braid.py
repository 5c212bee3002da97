"""Golden output of `yb --format json braid` on words with inverse letters.

tests/golden/braid.json holds, per command line, the stdout and exit code
recorded while PolyMat.inverse still lifted the inverse order by order in
Fractions.  None passes --trunc, so `yb braid` builds c_Q at order 1 and
these cases cover the command line and the inverse of the constant term;
test_cli.py runs it at order 3, and the property tests in
test_polymat_properties.py cover higher orders.
"""

import json
from pathlib import Path

import pytest

from ybrack.cli import main

CASES = json.loads(
    (Path(__file__).parent / "golden" / "braid.json").read_text())


@pytest.mark.parametrize("case", CASES,
                         ids=[" ".join(c["argv"][4:]) for c in CASES])
def test_braid_json_is_byte_identical(case, capsys):
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
