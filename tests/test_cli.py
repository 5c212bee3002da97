import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ybrack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_validate_named_rack(capsys):
    code, out, _ = run(capsys, "validate", "dihedral:3")
    assert code == 0
    assert "quandle" in out and "order: 6" in out


def test_validate_json_report(capsys):
    code, data, _ = run_json(capsys, "validate", "trivial:4")
    assert code == 0
    assert data["inner_order"] == 1
    assert data["behavioral_classes"] == [[0, 1, 2, 3]]
    assert "version" in data and "rack_sha256" in data


def test_validate_axiom_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "table": [[0, 0], [0, 0]]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "bijection" in err


def test_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "validate", "bogus:3")
    assert code == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "mal.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", [["validate"], ["check", "--rack"]])
def test_empty_table_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"table": []}))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "empty" in err
    assert err.count("\n") == 1


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--rack",
                       "conj:S3:(12),(13),(23)")
    assert code == 0 and "holds" in out


def test_rack_json_file_round_trip(tmp_path, capsys):
    code, data, _ = run_json(capsys, "validate", "dihedral:4")
    path = tmp_path / "rack.json"
    from ybrack.racks import dihedral_rack
    path.write_text(json.dumps(dihedral_rack(4).to_json()))
    code2, data2, _ = run_json(capsys, "validate", str(path))
    assert code2 == 0
    assert data2["rack_sha256"] == data["rack_sha256"]


def test_cohomology_report(capsys):
    code, data, _ = run_json(
        capsys, "cohomology", "--rack", "conj:S4:(13),(24),(12)(34),(14)(23)")
    assert code == 0
    assert (data["dimE2"], data["dimH2"]) == (16, 16)
    assert data["verified"] is True


def test_cohomology_degree_one(capsys):
    code, data, _ = run_json(capsys, "cohomology", "--rack", "dihedral:3",
                             "--degree", "1")
    assert code == 0
    assert data["dimZ"] == 1 and data["dimB"] == 0


def test_entropic_basis_output(capsys):
    code, data, _ = run_json(capsys, "entropic-basis", "--rack", "dihedral:3")
    assert code == 0
    assert len(data["orbits"]) == 1
    pairs = data["orbits"][0]
    assert [[0, 0], [0, 0]] in pairs and len(pairs) == 9


def test_braid_command(capsys):
    code, data, _ = run_json(capsys, "braid", "--rack", "dihedral:3",
                             "--word", "1 2 -1")
    assert code == 0
    assert data["strands"] == 3
    assert data["matrix"]["dim"] == 27


def test_braid_builds_cq_at_the_global_trunc(capsys):
    # c_Q and its inverse are constant in h, so at --trunc 3 the h^0 part
    # is the trunc-1 matrix and every higher part is zero
    argv = ["braid", "--rack", "dihedral:3", "--word", "-1"]
    code, base, _ = run_json(capsys, *argv)
    assert code == 0 and base["matrix"]["trunc"] == 1
    code, data, _ = run_json(capsys, "--trunc", "3", *argv)
    assert code == 0 and data["matrix"]["trunc"] == 3
    assert [[r, c, v[:1]] for r, c, v in data["matrix"]["entries"]] \
        == base["matrix"]["entries"]
    assert all(v[1:] == ["0", "0"] for _, _, v in data["matrix"]["entries"])


def test_deform_check_and_normalize_round_trip(tmp_path, capsys):
    lam = json.dumps([["0", "1/2", "-1/3"]])
    code, data, _ = run_json(capsys, "deform", "--rack", "dihedral:3",
                             "--lambda", lam, "--check")
    assert code == 0 and data["ybe"] is True
    assert data["matrix"]["trunc"] == 3
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"matrix": data["matrix"]}))
    code, norm, _ = run_json(capsys, "normalize", "--rack", "dihedral:3",
                             "--input", str(op_path))
    assert code == 0
    assert norm["alpha"]["dim"] == 3
    assert norm["operator"]["dim"] == 9


def test_deform_wrong_lambda_count(capsys):
    code, _, err = run(capsys, "deform", "--rack", "dihedral:3",
                       "--lambda", '["1/2", "1/3"]')
    assert code == 2 and "orbits" in err


def test_singular_deformation_is_math_failure(capsys):
    # lambda = -1 on dihedral:3's one orbit makes II + f singular
    code, out, err = run(capsys, "deform", "--rack", "dihedral:3",
                         "--lambda", '["-1"]')
    assert code == 1 and out == ""
    assert err.startswith("deformation not invertible")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [["validate"], ["check", "--rack"]])
def test_repeated_conjugation_element_is_input_error(capsys, command):
    code, out, err = run(capsys, *command, "conj:S3:(12),(12),(13),(23)")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "duplicate" in err
    assert err.count("\n") == 1


def test_deform_rational_lambda(capsys):
    code, data, _ = run_json(capsys, "--trunc", "1", "deform", "--rack",
                             "trivial:2", "--lambda",
                             json.dumps(["1/2"] + ["0"] * 15), "--check")
    assert code == 0 and data["ybe"] is True


@pytest.mark.parametrize("example", ["d3-matrix", "d3-rigid", "d4-16",
                                     "d4-trace", "jones"])
def test_reproduce_suite(example, capsys):
    code, out, _ = run(capsys, "reproduce", example)
    assert code == 0
    assert "match" in out


def test_reproduce_seed_flag(capsys):
    code, out, _ = run(capsys, "--seed", "7", "reproduce", "d4-trace")
    assert code == 0


def test_config_rejects_nonpositive_limits(capsys):
    code, _, err = run(capsys, "--trunc", "0", "validate", "trivial:2")
    assert code == 2 and "positive" in err


def test_config_defaults():
    from ybrack.cli import build_parser
    parser = build_parser()
    assert [parser.get_default(k)
            for k in ("trunc", "format")] == [None, "human"]


def test_inner_cap_exceeded_is_input_error(capsys, monkeypatch):
    import ybrack.racks
    monkeypatch.setattr(ybrack.racks, "CLOSURE_CAP", 2)
    code, _, err = run(capsys, "validate", "dihedral:5")
    assert code == 2
    assert err.startswith("input error:") and "cap 2" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_decomposition_error_is_math_failure(tmp_path, capsys, monkeypatch):
    import ybrack.cli
    from ybrack.deformations import DecompositionError

    def fail(op, rack, check_input=True):
        raise DecompositionError("degree-2 term is not entropic + coboundary")

    lam = json.dumps([["0", "1/2", "-1/3"]])
    code, data, _ = run_json(capsys, "deform", "--rack", "dihedral:3",
                             "--lambda", lam)
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"matrix": data["matrix"]}))
    monkeypatch.setattr(ybrack.cli, "normalize_to_entropic", fail)
    code, out, err = run(capsys, "normalize", "--rack", "dihedral:3",
                         "--input", str(op_path))
    assert code == 1 and out == ""
    assert "degree-2 term" in err and "Traceback" not in err


def test_normalize_keeps_the_operator_order(tmp_path, capsys):
    lam = json.dumps([["0", "1/2", "-1/3", "2/5", "3"]])
    code, data, _ = run_json(capsys, "--trunc", "5", "deform", "--rack",
                             "dihedral:3", "--lambda", lam)
    assert code == 0 and data["matrix"]["trunc"] == 5
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"matrix": data["matrix"]}))
    for flags in ([], ["--trunc", "5"]):
        code, norm, _ = run_json(capsys, *flags, "normalize", "--rack",
                                 "dihedral:3", "--input", str(op_path))
        assert code == 0
        assert norm["alpha"]["trunc"] == norm["operator"]["trunc"] == 5
    for other in ("3", "6"):
        code, _, err = run(capsys, "--trunc", other, "normalize", "--rack",
                           "dihedral:3", "--input", str(op_path))
        assert code == 2 and "h^5" in err


def test_normalize_input_failing_ybe_is_math_failure(tmp_path, capsys):
    from ybrack.racks import dihedral_rack
    from ybrack.truncpoly import PolyMat, TruncPoly
    from ybrack.yangbaxter import build_cq
    mat = build_cq(dihedral_rack(3), 2).mat.add(
        PolyMat.from_entries(9, 2,
                             [(0, 4, TruncPoly.from_coeffs([0, 1], 2))]))
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"matrix": mat.to_json()}))
    code, out, err = run(capsys, "normalize", "--rack", "dihedral:3",
                         "--input", str(path))
    assert code == 1 and out == ""
    assert err == ("input fails the Yang-Baxter equation at triple "
                   "(0, 0, 2)\n")


@pytest.mark.parametrize("argv", [
    # 2^24 columns
    ["braid", "--rack", "trivial:2", "--word", "1", "--strands", "24"],
    # 2^23 columns at trunc 1 pass a column count but not (2^23)^2 slots
    ["braid", "--rack", "trivial:2", "--word", "1", "--strands", "23"],
    # c_Q itself over Q[h]/(h^(10^8)): 81 slots per power of h
    ["--trunc", "100000000", "braid", "--rack", "dihedral:3", "--word", "-1"],
    # 4^12 quasi-diagonal index pairs of 12 slots
    ["entropic-basis", "--rack", "trivial:2", "--degree", "12"],
    # racks of size (or permutation degree) n >= 216: n^3 axiom checks
    ["check", "--rack", "dihedral:1000"],
    ["validate", "dihedral:216"],
    ["validate", "trivial:100000"],
    ["validate", "conj:S216:(12)"],
    ["validate", "table216.json"],
], ids=["braid", "braid-slots", "braid-trunc", "entropic-basis", "dihedral-1000",
        "dihedral-216", "trivial-100000", "conj-S216", "json-table-216"])
def test_oversized_requests_refused_before_allocating(argv, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "table216.json" in argv:
        (tmp_path / "table216.json").write_text(json.dumps(
            {"table": [[x] * 216 for x in range(216)]}))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "entry limit" in err


def test_normalize_guard_charges_each_order(tmp_path, capsys):
    # 1 x 1 at trunc 10^7: one slot per order, but ten million parts
    path = tmp_path / "op.json"
    path.write_text(json.dumps(
        {"matrix": {"dim": 1, "trunc": 10 ** 7, "entries": []}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", "--rack", "trivial:1",
                         "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "entry limit" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_entropic_basis_rejects_nonpositive_degree(degree, capsys):
    code, out, err = run(capsys, "entropic-basis", "--rack", "dihedral:3",
                         "--degree", degree)
    assert code == 2 and out == ""
    assert ">= 1" in err


def _operator_json(**change):
    """A valid trunc-2 operator on dihedral:3's tensor square, as written
    by deform, with the given keys of its matrix replaced."""
    mat = {"dim": 9, "trunc": 2,
           "entries": [[j, j, ["1", "1/2"]] for j in range(9)]}
    mat.update(change)
    return {"matrix": mat}


@pytest.mark.parametrize("data", [
    _operator_json(entries=[[0, 9, ["1"]]]),
    _operator_json(entries=[[-1, 0, ["1"]]]),
    {"matrix": {"dim": 9, "trunc": 2}},
    _operator_json(trunc=0),
    [_operator_json()["matrix"]],
    _operator_json(entries=[[0, 0, ["1", "0", "1"]]]),
    _operator_json(entries=[[0, 0, ["1/0"]]]),
    _operator_json(dim="9"),
    _operator_json(entries={}),
    _operator_json(entries=[[0, 0, "1"]]),
], ids=["col-out-of-range", "negative-row", "no-entries", "trunc-0",
        "top-level-list", "coefficients-over-trunc", "zero-denominator",
        "dim-a-string", "entries-an-object", "coefficients-a-string"])
def test_malformed_operator_json_is_input_error(data, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "normalize", "--rack", "dihedral:3",
                         "--input", str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("lam", ["5", "[[1, 2, 3, 4, 5]]", '["1/0"]'],
                         ids=["not-an-array", "coefficients-over-trunc",
                              "zero-denominator"])
def test_malformed_lambda_is_input_error(lam, capsys):
    code, out, err = run(capsys, "deform", "--rack", "dihedral:3",
                         "--lambda", lam)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1


def test_float_lambda_reads_its_decimal_text_bare_or_in_an_array(capsys):
    outs = [run(capsys, "--format", "json", "--trunc", "1", "deform",
                "--rack", "trivial:1", "--lambda", lam)
            for lam in ("[0.1]", "[[0.1]]")]
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0
    assert json.loads(out)["matrix"]["entries"] == [[0, 0, ["11/10"]]]


@pytest.mark.parametrize("lam", ["[[true]]", "[[null]]", "[[{}]]", "[true]"])
def test_non_number_coefficient_is_input_error(lam, capsys):
    code, out, err = run(capsys, "--trunc", "1", "deform", "--rack",
                         "trivial:1", "--lambda", lam)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1


# 10^18 coefficient slots per entry: refused by the size guard; without
# it, padding one coefficient array to that order fails at once
HUGE_TRUNC = 10 ** 18


def test_huge_operator_trunc_refused_before_allocating(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(_operator_json(trunc=HUGE_TRUNC)))
    code, out, err = run(capsys, "normalize", "--rack", "dihedral:3",
                         "--input", str(path))
    assert code == 2 and out == ""
    assert "entry limit" in err and err.count("\n") == 1


def test_huge_deform_trunc_refused_before_allocating(capsys):
    code, out, err = run(capsys, "--trunc", str(HUGE_TRUNC), "deform",
                         "--rack", "dihedral:3", "--lambda", '["1"]')
    assert code == 2 and out == ""
    assert "entry limit" in err and err.count("\n") == 1


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every yb line of the README's sh blocks exits 0.  The deform
    example runs under --format json and writes the op.json that the
    normalize example reads."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [shlex.split(line, comments=True)
             for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["yb"]]
    assert any("deform" in argv for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "deform" in argv:
            code, out, _ = run(capsys, "--format", "json", *argv)
            (tmp_path / "op.json").write_text(out)
        else:
            code, _, _ = run(capsys, *argv)
        assert code == 0, argv


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader closes its end before yb writes its 19684-byte report
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "ybrack.cli", "--format", "json", "braid",
            "--rack", "dihedral:4", "--word", "1 3 -2", "--strands", "4"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == ["error: standard output closed early "
                                "(broken pipe)"]
