"""JSON round-trips, schema errors, and end-to-end CLI fixtures."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import passivenode
from passivenode import io, sim
from passivenode.cli import main
from passivenode.errors import ParseError, SchemaError
from passivenode.node import MAX_STATES

from conftest import esad_colocated_node, random_passive_node


def test_node_roundtrip_bit_identical(tmp_path):
    node = random_passive_node(0, weight=True)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    io.save_node(node, p1)
    loaded = io.load_node(p1)
    io.save_node(loaded, p2)
    assert p1.read_text() == p2.read_text()
    assert np.allclose(loaded.A, node.A) and np.allclose(loaded.W, node.W)


def test_weight_preserved(tmp_path):
    node = random_passive_node(1, weight=True)
    p = tmp_path / "n.json"
    io.save_node(node, p)
    doc = json.loads(p.read_text())
    assert "W" in doc
    assert not io.load_node(p).is_identity_weight


def test_canonical_keys_sorted(tmp_path):
    node = random_passive_node(2)
    p = tmp_path / "n.json"
    io.save_node(node, p)
    doc = json.loads(p.read_text())
    keys = list(doc.keys())
    assert keys == sorted(keys)


def test_ragged_rows_rejected():
    with pytest.raises(SchemaError):
        io.matrix_from_json([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]], "A")


_PAIRS_2x2 = [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]]]
_ROWS_2x2 = [[1.0, 2.0], [3.0, 4.0]]
_MIXES = "A mixes numbers and [re, im] pairs"


@pytest.mark.parametrize("data, shape, message", [
    ([[[True, 0.0]]], {}, "A[0][0] is not an [re, im] pair"),
    ([[[1.0, "2"]]], {}, "A[0][0] is not an [re, im] pair"),
    ([[[None, 0.0]]], {}, "A[0][0] is not an [re, im] pair"),
    ([[{"re": 1.0, "im": 0.0}]], {}, "A[0][0] is not an [re, im] pair"),
    ([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [False, 0.0]]], {},
     "A[1][1] is not an [re, im] pair"),
    ([[[1.0]]], {}, "A[0][0] is not an [re, im] pair"),
    ([[[1.0, 0.0, 2.0]]], {}, "A[0][0] is not an [re, im] pair"),
    # [[1.0, 0.0]] is a 1 x 2 real matrix; a row led by a bool is not read as numbers
    ([[True, 0.0]], {}, "A[0][0] is not an [re, im] pair"),
    ([[[1.0, 0.0]], 5], {}, "A row 1 is not a list"),
    ([[[1.0, 0.0]], "ab"], {}, "A row 1 is not a list"),
    ([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]], {}, "A has ragged rows"),
    ([[[[1.0, 0.0], [2.0, 0.0]]]], {}, "A[0][0] is not an [re, im] pair"),
    ([[[0.0, 10**400]]], {}, "A[0][0] holds an integer too large for a float"),
    ([], {"rows": 2}, "A must be a non-empty list of rows"),
    ({}, {}, "A must be a non-empty list of rows"),
    (_PAIRS_2x2, {"rows": 3}, "A must have 3 rows, got 2"),
    (_PAIRS_2x2, {"rows": 2, "cols": 1}, "A must have 1 columns, got 2"),
    ([[], []], {"rows": 2, "cols": 1}, "A must have 1 columns, got 0"),
    # rows of numbers: the first entry decides the form of the whole matrix
    ([[1.0, True]], {}, "A[0][1] is not a number"),
    ([[1.0, "2"]], {}, "A[0][1] is not a number"),
    ([[1.0, None]], {}, "A[0][1] is not a number"),
    ([[1.0], [{"re": 1.0}]], {}, "A[1][0] is not a number"),
    ([["1", 1.0]], {}, "A[0][0] is not an [re, im] pair"),
    ([[1.0, [2.0, 0.0]]], {}, f"{_MIXES} (A[0][0] is a number, A[0][1] is not)"),
    ([[1.0, 2.0], [[3.0, 0.0], [4.0, 0.0]]], {},
     f"{_MIXES} (A[0][0] is a number, A[1][0] is not)"),
    ([[[1.0, 0.0], 2.0]], {}, f"{_MIXES} (A[0][0] is an [re, im] pair, A[0][1] is not)"),
    ([[[1.0, 0.0]], [2.0]], {}, f"{_MIXES} (A[0][0] is an [re, im] pair, A[1][0] is not)"),
    ([[1.0], 5], {}, "A row 1 is not a list"),
    ([[1.0, 2.0], [3.0]], {}, "A has ragged rows"),
    ([[1.0], []], {}, "A has ragged rows"),
    ([[10**400]], {}, "A[0][0] holds an integer too large for a float"),
    ([[1.0, -(10**400)]], {}, "A[0][1] holds an integer too large for a float"),
    (_ROWS_2x2, {"rows": 3}, "A must have 3 rows, got 2"),
    (_ROWS_2x2, {"rows": 2, "cols": 1}, "A must have 1 columns, got 2"),
])
def test_malformed_matrix_messages(data, shape, message):
    with pytest.raises(SchemaError) as exc:
        io.matrix_from_json(data, "A", **shape)
    assert str(exc.value) == message


def test_numpy_scalars_in_a_matrix_document_are_rejected():
    for data in ([[[np.float64(1.0), 0.0]]], [[np.float64(1.0)]]):
        with pytest.raises(SchemaError, match="A holds a number whose type is not int or float"):
            io.matrix_from_json(data, "A")


@pytest.mark.parametrize("data, expected", [
    ([[1.0, 0.0]], [[1.0, 0.0]]),  # a 1 x 2 real matrix, not one [re, im] pair
    ([[1, -0.0], [5e-324, 2**53]], [[1.0, -0.0], [5e-324, 2.0**53]]),
    ([[], []], np.zeros((2, 0))),
])
def test_rows_of_numbers_read_as_a_float64_matrix(data, expected):
    M = io.matrix_from_json(data, "A")
    expected = np.array(expected, dtype=float)
    assert M.dtype == np.float64 and M.shape == expected.shape
    assert M.tobytes() == expected.tobytes()


@pytest.mark.parametrize("value, message", [
    (float("nan"), "non-finite value cannot be serialized"),
    (float("-inf"), "non-finite value cannot be serialized"),
    (1j, "type complex"),
])
def test_unserializable_values_are_schema_errors(value, message):
    with pytest.raises(SchemaError, match=message):
        io.dumps_canonical({"x": [value]})


def test_schema_errors():
    with pytest.raises(SchemaError):
        io.node_from_dict({"n": 1, "m": 1, "p": 1, "A": [[[0, 0]]], "B": [[[1, 0]]], "C": [[[1, 0]]]})
    with pytest.raises(SchemaError):
        io.node_from_dict(
            {"n": 2, "m": 1, "p": 1, "A": [[[0, 0]]], "B": [[[1, 0]]], "C": [[[1, 0]]], "D": [[[0, 0]]]}
        )


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    # not JSON, not UTF-8, and nested too deep for the decoder
    for content in (b"{not json", b"\xff\xfe\x00", b"[" * 100000 + b"]" * 100000):
        p.write_bytes(content)
        with pytest.raises(ParseError, match="invalid JSON"):
            io.load_node(p)


def test_library_writers_raise_parse_error_on_an_unwritable_path(tmp_path):
    node = random_passive_node(0)
    plant = passivenode.SecondOrderPlant(A0=np.eye(2), M=np.eye(2), C0=np.eye(2))
    traj = sim.simulate(node, np.zeros(node.n), lambda t: np.ones(node.m), 1.0, steps=10)
    missing = tmp_path / "missing" / "out"
    for write in (lambda: io.save_node(node, missing),
                  lambda: io.save_plant(plant, missing),
                  lambda: sim.export_csv(traj, missing, audit=sim.energy_audit(traj)),
                  lambda: io.save_node(node, tmp_path)):  # a directory
        with pytest.raises(ParseError, match="^" + re.escape(str(tmp_path))):
            write()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("z0", ["[1,", "[" * 5000 + "]" * 5000], ids=["truncated", "too-deep"])
def test_cli_z0_that_is_not_json_exits_1(z0, tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(0))
    assert main(["simulate", path, "--z0", z0, "--steps", "10"]) == 1
    assert capsys.readouterr().err.startswith("error: ParseError: --z0: invalid JSON")


@pytest.mark.parametrize("argv", [["beam", "--n-modes", "4", "--out", "{out}"],
                                  ["check", "{path}", "--out", "{out}"],
                                  ["simulate", "{path}", "--steps", "10", "--out", "{out}"]])
def test_cli_out_into_a_missing_directory_exits_1(argv, tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(0))
    out = str(tmp_path / "missing" / "result")
    assert main([arg.format(path=path, out=out) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out}: ") and err.count("\n") == 1


def _write_node(tmp_path, node, name="node.json"):
    p = tmp_path / name
    io.save_node(node, p)
    return str(p)


def test_cli_check_exit_codes(tmp_path, capsys):
    from conftest import random_nonpassive_node

    good = _write_node(tmp_path, random_passive_node(0), "good.json")
    bad = _write_node(tmp_path, random_nonpassive_node(0), "bad.json")
    assert main(["check", good]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Passive"
    assert main(["check", bad]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NotPassive"
    assert main(["check", str(tmp_path / "missing.json")]) == 1


def test_cli_cayley_roundtrip(tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(3))
    out = tmp_path / "disc.json"
    assert main(["cayley", path, "--alpha", "1.0", "--kind", "impedance",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    disc = io.load_discrete(out)
    assert disc.alpha == 1.0
    back = tmp_path / "back.json"
    assert main(["cayley", str(out), "--inverse", "--out", str(back)]) == 0
    capsys.readouterr()
    assert io.load_node(back).n == 4


def test_cli_minimal_e(tmp_path, capsys):
    from conftest import esad_colocated_node

    path = _write_node(tmp_path, esad_colocated_node(0))
    assert main(["minimal-e", path, "--method", "esad"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "esad"
    E = io.matrix_from_json(doc["E"], "E")
    assert E.shape == (2, 2)


def test_cli_minimal_e_general_matches_builder(tmp_path, capsys):
    from conftest import random_second_order

    from passivenode import build_noncolocated

    node, E_min = build_noncolocated(random_second_order(0, with_B0=True))
    path = _write_node(tmp_path, node)
    assert main(["minimal-e", path, "--method", "general"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "general"
    E = io.matrix_from_json(doc["E"], "E")
    assert np.linalg.norm(E - E_min, 2) <= 1e-12 * (1.0 + np.linalg.norm(E_min, 2))


def _rows_of_floats(data):
    return bool(data) and all(type(x) is float for row in data for x in row)


def test_cli_minimal_e_writes_by_dtype_not_by_value(tmp_path, capsys):
    # the esad shift of a complex node is complex128 with every imaginary
    # part +0.0: it stays pairs, and its positive part, stored float64, is rows
    node = esad_colocated_node(0)
    E = passivenode.minimal_E_esad(node)
    assert E.dtype == np.complex128 and not E.imag.view(np.uint64).any()
    assert main(["minimal-e", _write_node(tmp_path, node), "--method", "esad"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["E"] == np.stack([E.real, E.imag], -1).tolist()
    assert _rows_of_floats(doc["E_plus"])


def test_cli_writes_the_beams_float64_matrices_as_rows(tmp_path, capsys):
    beam, disc = str(tmp_path / "b.json"), str(tmp_path / "d.json")
    assert main(["beam", "--n-modes", "4", "--out", beam]) == 0
    assert _rows_of_floats(json.loads(capsys.readouterr().out)["E_min"])
    assert main(["minimal-e", beam, "--method", "general"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert _rows_of_floats(doc["E"]) and _rows_of_floats(doc["E_plus"])
    assert main(["cayley", beam, "--out", disc]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(_rows_of_floats(doc[key]) for key in ("Ad", "Bd", "Cd", "Dd"))
    assert main(["cayley", disc, "--inverse"]) == 0
    node = passivenode.inverse_cayley(passivenode.internal_cayley(io.load_node(beam)))
    assert capsys.readouterr().out == io.dumps_canonical(io.node_to_dict(node))


def test_a_z0_that_mixes_numbers_and_pairs_is_a_schema_error(tmp_path, capsys):
    with pytest.raises(SchemaError, match="--z0 mixes numbers and"):
        io.vector_from_json([1.0, [2.0, 0.0]], "--z0", 2)
    path = _write_node(tmp_path, random_passive_node(0))
    assert main(["simulate", path, "--z0", "[1, [2, 0], 3, 4]", "--steps", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SchemaError: --z0 mixes numbers and")


def test_cli_feedback_and_stability(tmp_path, capsys):
    from conftest import random_almost_passive

    node, E = random_almost_passive(0)
    path = _write_node(tmp_path, node)
    epath = tmp_path / "E.json"
    epath.write_text(io.dumps_canonical(io.matrix_to_json(E)))
    kappa = str(0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None)))
    assert main(["feedback", path, "--kappa", kappa, "--e-matrix", str(epath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "closed_loop" in doc
    assert main(["stability", path, "--kappa", kappa, "--e-matrix", str(epath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "StronglyStable"


def test_cli_simulate_and_csv(tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(1))
    out = tmp_path / "traj.csv"
    assert main(["simulate", path, "--t-final", "2.0", "--steps", "400",
                 "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert out.exists() and out.read_text().startswith("t,")


def test_cli_simulate_adversarial(tmp_path, capsys):
    from conftest import random_nonpassive_node

    path = _write_node(tmp_path, random_nonpassive_node(1))
    assert main(["simulate", path, "--adversarial", "--t-final", "0.2",
                 "--steps", "200", "--amplitude", "2.0"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_defect"] < -1e-3


def test_cli_beam_pipeline(tmp_path, capsys):
    out = tmp_path / "beam.json"
    assert main(["beam", "--n-modes", "12", "--kappa", "1.0", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stability"]["verdict"] == "StronglyStable"
    assert doc["stability"]["closed_loop_max_real"] < 0
    node = io.load_node(out)
    assert node.n == 22


def test_cli_simulate_defaults_on_the_stiff_beam(tmp_path, capsys):
    # the 100-mode beam (n = 198) has |lambda| up to 5.7e6: |h lambda| ~ 3e4
    # at the default T = 10 and 2000 steps
    beam = str(tmp_path / "b100.json")
    assert main(["beam", "--n-modes", "100", "--out", beam]) == 0
    capsys.readouterr()
    assert main(["simulate", beam]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["steps"] == 2000


def test_cli_error_exit_code(tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(0))
    # kappa far outside the admissible range for a zero shift is still fine;
    # a negative kappa is an error
    assert main(["feedback", path, "--kappa", "-1.0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("verb, option", [("check", "--points"), ("cayley", "--alpha"),
                                          ("minimal-e", "--s")])
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1,-inf", "1,2,3"])
def test_cli_complex_arguments_must_be_finite_numbers(verb, option, value, tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(0))
    assert main([verb, path, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ParseError: argument {option}: cannot parse")


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1e400"])
def test_cli_omega_must_be_a_finite_number(value, tmp_path, capsys):
    # a NaN omega used to reach the resolvent and be misreported as OmegaInSpectrum
    path = _write_node(tmp_path, random_passive_node(0))
    assert main(["minimal-e", path, "--method", "colocated", "--omega", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError: argument --omega: cannot parse")


@pytest.mark.parametrize("value", ["inf", "nan", "1e400", "abc"])
def test_cli_input_omega_must_be_a_finite_number(value, tmp_path, capsys):
    # an infinite omega used to reach cos(omega t), warn twice and end in NonFiniteState;
    # every other float option is read the same way (an inf --amplitude ended in
    # NonFiniteState, --kappa in KappaOutOfRange, a NaN --t-final in InvalidTimeGrid)
    path = _write_node(tmp_path, random_passive_node(0))
    for verb, option in (("simulate", "--input-omega"), ("simulate", "--t-final"),
                         ("simulate", "--amplitude"), ("simulate --adversarial", "--amplitude"),
                         ("feedback", "--kappa"), ("stability", "--kappa"),
                         ("beam", "--kappa"), ("beam", "--rho-a"), ("beam", "--ei"),
                         ("beam", "--ebar-i")):
        argv = verb.split() + ([] if verb == "beam" else [path])
        assert main([*argv, option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: ParseError: argument {option}: cannot parse")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["feedback", "{path}", "--kappa", "-1e3"],
    ["beam", "--ebar-i", "-1e-3"],
    ["check", "{path}", "--points", "-1,2"],
    ["cayley", "{path}", "--alpha", "-5e-1"],
    ["minimal-e", "{path}", "--s", "-1e0,1"],
    ["minimal-e", "{path}", "--method", "colocated", "--omega", "-2.5e-1"],
])
def test_cli_a_negative_number_reads_as_with_equals(argv, tmp_path, capsys):
    # argparse alone takes -1e3 or -1,2 for an unknown option; the skew-adjoint
    # colocated node gets each minimal-e method past its class check
    path = _write_node(tmp_path, esad_colocated_node(0, skew_only=True))
    argv = [arg.format(path=path) for arg in argv]
    spaced = main(argv), capsys.readouterr()
    joined = main([*argv[:-2], "=".join(argv[-2:])]), capsys.readouterr()
    assert spaced == joined
    assert "expected one argument" not in joined[1].err


def test_cli_points_are_the_certified_points(tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(0))
    assert main(["check", path, "--points", "1", "2,-1"]) == 0
    assert json.loads(capsys.readouterr().out)["test_points"] == [[1, 0], [2, -1]]


@pytest.mark.parametrize("argv", [["check", "{path}", "--kind", "bogus"],
                                  ["stability", "{path}"],
                                  ["bogus"],
                                  []])
def test_cli_usage_errors_exit_1(argv, tmp_path, capsys):
    path = _write_node(tmp_path, random_passive_node(0))
    assert main([arg.format(path=path) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ParseError: ")


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: passivenode")


def test_cli_beam_rejects_non_finite_parameters(capsys):
    # a non-finite value is a usage error; a finite one out of range is the library's
    for argv in (["--rho-a", "inf"], ["--ebar-i", "nan"]):
        assert main(["beam", "--n-modes", "4", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: ParseError: argument {argv[0]}")
    for argv in (["--rho-a", "0"], ["--ebar-i", "-1"]):
        assert main(["beam", "--n-modes", "4", *argv]) == 1
        assert capsys.readouterr().err.startswith("error: DimensionMismatch: beam parameters")


def test_cli_beam_n_modes_above_the_limit_is_one_error_line(capsys, monkeypatch):
    # rejected before any array is built
    n_modes = MAX_STATES // 2 + 2
    monkeypatch.setattr(np, "zeros", None)
    assert main(["beam", "--n-modes", str(n_modes)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DimensionMismatch: n_modes")
    assert captured.err.count("\n") == 1


def test_cli_check_refuses_a_node_file_above_the_size_limit(tmp_path, capsys, monkeypatch):
    # the document's n decides, before any of its matrices is built
    n = MAX_STATES + 1
    path = tmp_path / "big.json"
    path.write_text(io.dumps_canonical({"n": n, "m": 1, "p": 1, "A": [[0.0]], "B": [[0.0]],
                                        "C": [[0.0]], "D": [[0.0]]}))
    for name in ("zeros", "array"):
        monkeypatch.setattr(np, name, None)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: DimensionMismatch: n = {n} exceeds MAX_STATES = {MAX_STATES}\n"


# -- one exit path: every verb form -------------------------------------------


def _contract_files(tmp_path):
    """Small node, discrete and shift files for the contract forms, by name."""
    from conftest import (random_almost_passive, random_nonpassive_node,
                          selfadjoint_colocated_node)

    almost, E = random_almost_passive(0)
    files = {"node": _write_node(tmp_path, random_passive_node(0), "node.json"),
             "bad": _write_node(tmp_path, random_nonpassive_node(1), "bad.json"),
             "skew": _write_node(tmp_path, esad_colocated_node(0, skew_only=True), "skew.json"),
             "esad": _write_node(tmp_path, esad_colocated_node(0), "esad.json"),
             "selfadjoint": _write_node(tmp_path, selfadjoint_colocated_node(0), "sa.json"),
             "almost": _write_node(tmp_path, almost, "almost.json"),
             "E": str(tmp_path / "E.json"), "disc": str(tmp_path / "disc.json"),
             "kappa": str(0.9 / np.linalg.eigvalsh(E)[-1])}
    io.write_text(files["E"], io.dumps_canonical(io.matrix_to_json(E)))
    disc = passivenode.internal_cayley(random_passive_node(0))
    io.write_text(files["disc"], io.dumps_canonical(io.discrete_to_dict(disc)))
    return files


# (argv, the keys that lead to the verdict, its positive value); no keys: no verdict
_CONTRACT_FORMS = {
    "check": (["check", "{node}"], ["verdict"], "Passive"),
    "check-points": (["check", "{bad}", "--points", "1", "2,1"], ["verdict"], "Passive"),
    "check-scattering": (["check", "{node}", "--kind", "scattering"], ["verdict"], "Passive"),
    "check-scattering-points": (["check", "{bad}", "--kind", "scattering", "--points", "1"],
                                ["verdict"], "Passive"),
    "minimal-e-colocated": (["minimal-e", "{skew}", "--method", "colocated"], [], None),
    "minimal-e-esad": (["minimal-e", "{esad}"], [], None),
    "minimal-e-selfadjoint": (["minimal-e", "{selfadjoint}", "--method", "selfadjoint"], [], None),
    "minimal-e-general": (["minimal-e", "{node}", "--method", "general"], [], None),
    "cayley": (["cayley", "{node}", "--alpha", "2,1"], [], None),
    "cayley-inverse": (["cayley", "{disc}", "--inverse"], [], None),
    "cayley-impedance": (["cayley", "{node}", "--kind", "impedance"],
                         ["certificate", "verdict"], "Passive"),
    "cayley-scattering": (["cayley", "{bad}", "--kind", "scattering"],
                          ["certificate", "verdict"], "Passive"),
    "feedback": (["feedback", "{almost}", "--kappa", "{kappa}", "--e-matrix", "{E}"], [], None),
    "stability": (["stability", "{almost}", "--kappa", "{kappa}", "--e-matrix", "{E}"],
                  ["verdict"], "StronglyStable"),
    "simulate": (["simulate", "{node}", "--t-final", "1", "--steps", "50"], ["passed"], True),
    "simulate-adversarial": (["simulate", "{bad}", "--adversarial", "--t-final", "0.2",
                              "--steps", "50", "--amplitude", "2"], ["passed"], True),
    "beam": (["beam", "--n-modes", "4"], [], None),
    "beam-kappa": (["beam", "--n-modes", "4", "--kappa", "1"],
                   ["stability", "verdict"], "StronglyStable"),
}


@pytest.mark.parametrize("form", _CONTRACT_FORMS)
def test_cli_contract_over_every_verb_form(form, tmp_path, capsys):
    argv, keys, positive = _CONTRACT_FORMS[form]
    files = _contract_files(tmp_path)
    out = tmp_path / "out"
    code = main([arg.format(**files) for arg in argv] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert io.dumps_canonical(doc) == captured.out
    stated = doc
    for key in keys:
        stated = stated[key]
    assert code == (0 if not keys or stated == positive else 2)
    if argv[0] == "simulate":
        assert out.read_text().startswith("t,")
    else:
        assert out.read_bytes() == captured.out.encode()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "{node}", "--adversarial", "--z0", "garbage", "--steps", "10"],
     "argument --z0: not allowed with argument --adversarial"),
    (["cayley", "{disc}", "--inverse", "--kind", "impedance"],
     "argument --kind: not allowed with argument --inverse"),
    (["cayley", "{disc}", "--inverse", "--alpha", "5,2"],
     "argument --alpha: not allowed with argument --inverse"),
    (["simulate", "{bad}", "--adversarial", "--input-omega", "7", "--steps", "10"],
     "argument --input-omega: not allowed with argument --adversarial"),
])
def test_cli_refuses_an_option_its_mode_ignores(argv, message, tmp_path, capsys):
    # --adversarial picks its own initial state and input, and --inverse
    # certifies nothing and maps back at the alpha its file records
    files = _contract_files(tmp_path)
    assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParseError: {message}\n"


# -- scipy stays off the import path ------------------------------------------


def _python(code, *args, cwd=None):
    """Run code in a fresh interpreter that imports this passivenode."""
    src = str(Path(passivenode.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy():
    result = _python("import sys, passivenode.cli; "
                     "print([k for k, v in sys.modules.items() if v is not None "
                     "and (k == 'scipy' or k.startswith('scipy.'))])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_verb_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 1.6 MB of resident memory); the block
    # search of linalg.eigvals, which a verdict at n_modes 50 runs, must not
    code = (
        "import json, sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from passivenode.cli import main\n"
        "for argv in (['beam', '--n-modes', '50', '--kappa', '1'],\n"
        "             ['beam', '--n-modes', '8', '--out', 'b.json'],\n"
        "             ['check', 'b.json'], ['simulate', 'b.json', '--steps', '2000']):\n"
        "    assert main(argv) == 0, argv\n"
        "print(json.dumps([before, 'numpy.ma' in sys.modules]))\n"
    )
    result = _python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    before, after = json.loads(result.stdout.strip().splitlines()[-1])
    assert before or not after


# each verb with its usual exit code; the beam is impedance but not scattering passive
_VERBS = [
    (["beam", "--n-modes", "8", "--out", "b.json"], 0),
    (["check", "b.json"], 0),
    (["check", "b.json", "--kind", "scattering"], 2),
    (["minimal-e", "b.json", "--method", "general"], 0),
    (["cayley", "b.json"], 0),
    (["feedback", "b.json", "--kappa", "1"], 0),
    (["stability", "b.json", "--kappa", "1"], 0),
    (["simulate", "b.json", "--steps", "20000"], 0),
    (["beam", "--kappa", "1"], 0),
]


def test_every_cli_verb_runs_with_scipy_blocked(tmp_path):
    code = (
        "import json, pathlib, sys\n"
        "sys.modules['scipy'] = None\n"
        "from passivenode.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "pathlib.Path('codes.json').write_text(json.dumps(codes))\n"
    )
    result = _python(code, json.dumps([argv for argv, _ in _VERBS]), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "codes.json").read_text()) == [exit_code for _, exit_code in _VERBS]


def test_sampled_input_simulation_runs_with_scipy_blocked():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np, passivenode as pn\n"
        "node = pn.StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])\n"
        "traj = pn.simulate(node, [0.0], np.cos(np.linspace(0.0, 1.0, 11)), 1.0, steps=10)\n"
        "print(pn.energy_audit(traj).passed)\n"
    )
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"
