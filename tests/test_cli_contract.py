"""Property test of the exit-code contract of yb: 0 success, 1 a
mathematical failure, 2 an input or resource error, and never a traceback,
on drawn argument lists for every subcommand with well-formed, malformed
and oversized racks, numbers and files."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ybrack.cli import main
from ybrack.racks import dihedral_rack
from ybrack.truncpoly import PolyMat, TruncPoly
from ybrack.yangbaxter import build_cq

FILES = {name: json.dumps(data) for name, data in {
    "rack.json": {"table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
    "not_a_rack.json": {"table": [[0, 0], [0, 0], [1]]},
    "axiom_fails.json": {"table": [[1, 1], [0, 0]]},
    "table_text.json": {"table": "abc"},
    "table_number.json": {"table": 5},
    "table_null.json": {"table": None},
    "table_flat.json": {"table": [1, 2]},
    "table_float.json": {"table": [[0.7]]},
    "list.json": [1, 2, 3],
    "huge_trunc.json": {"dim": 1, "trunc": 10 ** 18, "entries": []},
    "bad_entry.json": {"dim": 9, "trunc": 2, "entries": [[9, 0, ["1"]]]},
}.items()}
FILES["malformed.json"] = '{"table": [[0'
FILES["deep.json"] = '{"table": ' + "[" * 3000


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, text in FILES.items():
        (root / name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", "deform", "--rack", "dihedral:3",
                     "--lambda", '[["0", "1"]]']) == 0
    (root / "operator.json").write_text(out.getvalue())
    # c_Q of dihedral:3 at trunc 2 plus h at (0, 4) fails the equation
    failing = build_cq(dihedral_rack(3), 2).mat.add(PolyMat.from_entries(
        9, 2, [(0, 4, TruncPoly.from_coeffs([0, 1], 2))]))
    (root / "failing.json").write_text(json.dumps(failing.to_json()))
    return root


WELL_FORMED_RACKS = ["trivial:1", "trivial:3", "dihedral:3", "dihedral:4",
                     "conj:S3:(12),(13),(23)", "@rack.json"]
MALFORMED_RACKS = ["", ":", "dihedral:", "dihedral:x", "dihedral:-3",
                   "dihedral:0", "trivial:0", "dihedral:3:4", "foo:3",
                   "conj:S3:(12", "conj:S3:(14)", "conj:Sx:(12)", "conj:S3:",
                   "dihedral:" + "9" * 5000, "missing.json", "@",
                   "@malformed.json", "@deep.json", "@not_a_rack.json",
                   "@axiom_fails.json", "@table_text.json", "@list.json",
                   "@table_number.json", "@table_null.json",
                   "@table_flat.json", "@table_float.json"]
OVERSIZED_RACKS = ["dihedral:1000", "trivial:100000", "conj:S216:(12)",
                   "dihedral:" + "9" * 30, "dihedral:15"]
racks = st.sampled_from(WELL_FORMED_RACKS + MALFORMED_RACKS
                        + OVERSIZED_RACKS)
numbers = st.one_of(st.integers(1, 3).map(str), st.integers(-3, 4).map(str),
                    st.sampled_from(["", "x", "1.5", "-0", "1e3",
                                     str(10 ** 6), str(10 ** 18),
                                     str(2 ** 63), "9" * 5000]))
words = st.sampled_from(["1", "1 -2 1", "-1 1", "", "0", "x", "1 2 3 4 5",
                         "99999999999", "1,2", "  2  "])
lambdas = st.sampled_from(["[1]", '[["0", "1"]]', "[]", "[[1, 2]]",
                           '["1/0"]', "5", "{", "[1/2]", '["1/2"]',
                           json.dumps([1] * 16), json.dumps([[1, 2, 3, 4, 5]]),
                           "[" * 3000, json.dumps([10 ** 30])])
inputs = st.sampled_from(["@operator.json", "@failing.json",
                          "@huge_trunc.json", "@bad_entry.json", "@list.json",
                          "@malformed.json", "@deep.json", "@",
                          "missing.json"])
examples = st.sampled_from(["d3-matrix", "d3-rigid", "d4-16", "jones",
                            "nope", ""])


def _option(name, values):
    """Absent about two times in three, else the option with a value."""
    return st.one_of(st.just([]), st.just([]),
                     values.map(lambda v: [name, v]))


@st.composite
def argument_lists(draw):
    head = []
    for option in (_option("--format", st.sampled_from(["human", "json",
                                                        "xml"])),
                   _option("--seed", numbers), _option("--trunc", numbers)):
        head += draw(option)
    command = draw(st.sampled_from(
        ["validate", "check", "braid", "cohomology", "entropic-basis",
         "deform", "normalize", "reproduce", "garbage"]))
    rack = draw(racks)
    if command == "validate":
        tail = [rack]
    elif command == "check":
        tail = ["--rack", rack]
    elif command == "braid":
        tail = (["--rack", rack, "--word", draw(words)]
                + draw(_option("--strands", numbers)))
    elif command in ("cohomology", "entropic-basis"):
        tail = ["--rack", rack] + draw(_option("--degree", numbers))
    elif command == "deform":
        # the rack of operator.json and of the one-orbit lambdas, often
        # enough that assembly and normalization run
        rack = draw(st.one_of(st.just("dihedral:3"), racks))
        tail = (["--rack", rack, "--lambda", draw(lambdas)]
                + draw(st.sampled_from([[], ["--check"]])))
    elif command == "normalize":
        rack = draw(st.one_of(st.just("dihedral:3"), racks))
        tail = ["--rack", rack, "--input", draw(inputs)]
    elif command == "reproduce":
        tail = [draw(examples)]
    else:
        tail = draw(st.lists(st.text(max_size=6), max_size=3))
    return head + [command] + tail


@settings(max_examples=250)
@given(argument_lists())
def test_every_argument_list_keeps_the_exit_code_contract(files, argv):
    # "@name" stands for a file of the module's directory
    argv = [str(files / a[1:]) if a.startswith("@") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
