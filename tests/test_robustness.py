"""Invertibility decisions and input validation at the library and CLI boundary."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from passivenode import (
    BeamParameters,
    DiscreteSystem,
    SecondOrderPlant,
    StateSpaceNode,
    adversarial_input,
    beam_model,
    build_noncolocated,
    check_discrete_passivity,
    check_impedance,
    check_impedance_reciprocal,
    check_scattering,
    diagonal_transform,
    discrete_response,
    discrete_transfer,
    energy_audit,
    eval_transfer,
    internal_cayley,
    io,
    laguerre_coefficients,
    laguerre_functions,
    linalg,
    minimal_E_colocated_at,
    minimal_E_esad,
    output_feedback,
    positive_part,
    simulate,
    stabilizing_feedback,
    stability_verdict,
)
from passivenode import sim
from passivenode.cli import main
from passivenode.passivity import impedance_form_at
from passivenode.errors import (
    AlphaNotRightHalfPlane,
    DimensionMismatch,
    InvalidTimeGrid,
    InvalidTolerance,
    KappaOutOfRange,
    NonFiniteMatrix,
    NonFiniteState,
    NonPositiveAlpha,
    NotSelfAdjoint,
    NotSquare,
    OmegaInSpectrum,
    PassiveNodeError,
    SchemaError,
    SingularResolvent,
)

from conftest import random_passive_node


def _write(tmp_path, doc, name="node.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- checked_inv ---------------------------------------------------------------


def test_checked_inv_returns_the_inverse():
    M = np.array([[2.0, 1.0], [0.0, 4.0]], dtype=complex)
    assert np.allclose(linalg.checked_inv(M, SingularResolvent, "") @ M, np.eye(2))
    assert linalg.checked_inv(np.zeros((0, 0)), SingularResolvent, "").shape == (0, 0)


@pytest.mark.parametrize("M", [
    np.zeros((2, 2)),                    # exact zero pivot
    np.diag([1.0, 1e-12]),               # RCOND * ||M||_1 * ||M^-1||_1 = 1
    np.diag([1e3, 1e-10]),               # ill-conditioned relative to ||M|| > 1
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
])
def test_checked_inv_raises_the_callers_error(M):
    with pytest.raises(SingularResolvent, match="singular here"):
        linalg.checked_inv(M, SingularResolvent, "singular here")


def test_checked_inv_threshold_is_rcond_in_one_norms():
    # ||M||_1 = 1 and ||M^-1||_1 = 5e11: 0.5 < 1, so M is invertible
    M = np.diag([1.0, 2e-12])
    assert linalg.checked_inv(M, SingularResolvent, "")[1, 1] == pytest.approx(5e11)


def test_output_feedback_rejects_nonconforming_K():
    beam, _ = beam_model(BeamParameters(n_modes=4))
    with pytest.raises(DimensionMismatch):
        output_feedback(beam, np.zeros((3, 2)))


# -- resolvent points in the spectrum ------------------------------------------


def _in_rho(evaluate, error):
    try:
        evaluate()
    except error:
        return False
    return True


def test_one_resolvent_set_decision_on_beam_probes():
    # s = lambda + 10^-k and lambda + i 10^-k straddle the singularity
    # threshold; every route to (sI - A)^-1 must decide each s the same way
    beam, _ = beam_model(BeamParameters(n_modes=8))
    seen = set()
    for lam in np.linalg.eigvals(beam.A):
        for k in range(1, 17):
            for s in (lam + 10.0**-k, lam + 1j * 10.0**-k):
                decisions = {
                    _in_rho(lambda: eval_transfer(beam, s), SingularResolvent),
                    _in_rho(lambda: impedance_form_at(beam, s), OmegaInSpectrum),
                }
                assert len(decisions) == 1, f"s = {s}"
                seen |= decisions
    assert seen == {True, False}


# -- resolvent points in the spectrum ------------------------------------------


def test_minimal_E_esad_at_a_pole_raises_typed_error(tmp_path, capsys):
    beam, _ = beam_model(BeamParameters(n_modes=4))
    with pytest.raises(PassiveNodeError):
        minimal_E_esad(beam, s=0.0)
    oscillator = StateSpaceNode([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.0]])
    with pytest.raises(PassiveNodeError):
        minimal_E_esad(oscillator, s=1j)
    path = _write(tmp_path, io.node_to_dict(beam))
    assert main(["minimal-e", path, "--method", "esad", "--s", "0"]) == 1
    assert "error: SingularResolvent:" in capsys.readouterr().err


# -- PASSIVE_NODE_TOL ------------------------------------------------------------


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
def test_bad_tolerance_override_is_rejected(value, tmp_path, monkeypatch, capsys):
    node = StateSpaceNode([[1.0]], [[1.0]], [[1.0]], [[-5.0]])
    path = _write(tmp_path, io.node_to_dict(node))
    monkeypatch.setenv("PASSIVE_NODE_TOL", value)
    with pytest.raises(InvalidTolerance):
        check_impedance(node)
    assert main(["check", path]) == 1
    assert "error: InvalidTolerance:" in capsys.readouterr().err


def test_valid_tolerance_override_keeps_the_verdict(tmp_path, monkeypatch, capsys):
    node = StateSpaceNode([[1.0]], [[1.0]], [[1.0]], [[-5.0]])
    monkeypatch.setenv("PASSIVE_NODE_TOL", "1e-6")
    assert linalg.base_tol() == 1e-6
    cert = check_impedance(node)
    assert not cert.passive and cert.min_eigenvalue < -11.0
    assert main(["check", _write(tmp_path, io.node_to_dict(node))]) == 2


# -- io dimension fields ---------------------------------------------------------


def _discrete_doc():
    return io.discrete_to_dict(DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0))


@pytest.mark.parametrize("loader, doc", [
    (io.node_from_dict, io.node_to_dict(StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))),
    (io.discrete_from_dict, _discrete_doc()),
])
@pytest.mark.parametrize("key", ["n", "m", "p"])
@pytest.mark.parametrize("bad", [True, False, "1", 1.0, -1, None])
def test_dimensions_must_be_integers(loader, doc, key, bad):
    assert loader(doc) is not None
    with pytest.raises(SchemaError, match=f"'{key}' must be a nonnegative integer"):
        loader(dict(doc, **{key: bad}))


@pytest.mark.parametrize("site", ["matrix entry", "alpha", "--z0"])
def test_json_booleans_are_not_numbers(site, tmp_path, capsys):
    node_doc = io.node_to_dict(StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))
    if site == "matrix entry":
        doc = dict(node_doc, A=[[[True, False]]])
        parse = lambda: io.node_from_dict(doc)
        argv = ["check", _write(tmp_path, doc)]
    elif site == "alpha":
        doc = dict(_discrete_doc(), alpha=[True, 0.0])
        parse = lambda: io.discrete_from_dict(doc)
        argv = ["cayley", _write(tmp_path, doc), "--inverse"]
    else:
        parse = lambda: io.vector_from_json([True], "--z0", 1)
        argv = ["simulate", _write(tmp_path, node_doc), "--z0", "[true]", "--steps", "10"]
    with pytest.raises(SchemaError):
        parse()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


# -- bit-stable round trip -------------------------------------------------------

_TINY = 2.2250738585072014e-308  # the smallest normal float
_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY,
                     linalg.ENTRY_LIMIT, -linalg.ENTRY_LIMIT]),
    st.floats(-_TINY, _TINY),  # subnormals
    st.floats(0.5 * linalg.ENTRY_LIMIT, linalg.ENTRY_LIMIT),
    st.floats(-linalg.ENTRY_LIMIT, -0.5 * linalg.ENTRY_LIMIT),
    st.floats(-linalg.ENTRY_LIMIT, linalg.ENTRY_LIMIT),
)


def _edge_matrix(draw, rows, cols, re=None, im=_EDGE):
    """A rows x cols matrix of edge-case entries, drawn in one of three forms.

    The forms are rows of numbers (as matrix_to_json writes a float64
    matrix), [re, im] pairs, and pairs whose imaginary parts are all +0.0
    (a real matrix in a file written before real matrices were written as
    rows).  re(i, j) gives the real part of entry (i, j), an _EDGE float by
    default; im draws the imaginary parts of the pairs form.
    """
    re = re or (lambda i, j: draw(_EDGE))
    form = draw(st.sampled_from(["rows", "pairs", "real pairs"]))
    im = st.just(0.0) if form == "real pairs" else im
    return [[re(i, j) if form == "rows" else [re(i, j), draw(im)] for j in range(cols)]
            for i in range(rows)]


@st.composite
def _node_documents(draw):
    """A node document with edge-case entries, each matrix in a form of
    _edge_matrix, so a document may mix them.  W, when present, is a
    positive diagonal with zeros of either sign elsewhere: an exactly
    self-adjoint W is stored as it is, signed zeros included.
    """
    n = draw(st.sampled_from([0, 1, 3]))
    m = draw(st.sampled_from([0, 1, 2]))
    zero = st.sampled_from([0.0, -0.0])
    doc = {"n": n, "m": m, "p": m, "A": _edge_matrix(draw, n, n), "B": _edge_matrix(draw, n, m),
           "C": _edge_matrix(draw, m, n), "D": _edge_matrix(draw, m, m)}
    if n and draw(st.booleans()):
        diag = [draw(st.one_of(_EDGE, st.floats(0.5, 2.0)).filter(lambda x: x > 0 and x != 1.0))
                for _ in range(n)]
        doc["W"] = _edge_matrix(draw, n, n, lambda i, j: diag[i] if i == j else draw(zero), zero)
    if draw(st.booleans()):
        doc["meta"] = draw(st.text(min_size=1, max_size=4))
    return doc


_SIGNED_ZERO_W_DOC = {
    "n": 2, "m": 1, "p": 1,
    "A": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    "B": [[[1.0, 0.0]], [[0.0, 0.0]]],
    "C": [[[1.0, 0.0], [0.0, 0.0]]],
    "D": [[[0.0, 0.0]]],
    "W": [[[2.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [3.0, 0.0]]],
}


def _assert_stored_as_read(M, data):
    """M holds the bits of the document's matrix: rows of numbers as float64,
    and [re, im] pairs as float64 exactly when every imaginary part there is
    +0.0 bit for bit, as complex128 otherwise."""
    data = np.array(data, dtype=float)
    if data.ndim < 3:  # rows of numbers, or no entries
        assert M.dtype == np.float64 and M.tobytes() == data.tobytes()
        return
    assert np.asarray(M, dtype=complex).tobytes() == data.tobytes()
    real = not data[..., 1].view(np.uint64).any()
    assert M.dtype == (np.float64 if real else np.complex128)


def _as_saved(doc, keys):
    """The document as it is written back: the matrices under keys that are
    [re, im] pairs whose imaginary parts are all +0.0 bit for bit (stored
    float64) become rows of numbers."""
    saved = dict(doc)
    for key in keys:
        data = np.array(doc[key], dtype=float)
        if data.ndim == 3 and not data[..., 1].view(np.uint64).any():
            saved[key] = data[..., 0].tolist()
    return saved


def _assert_round_trip(doc, from_dict, to_dict):
    """Every matrix of doc is stored as read, the first save writes
    _as_saved(doc), and the second save is a fixed point holding the same bits."""
    keys = [key for key, value in doc.items()
            if isinstance(value, list) and all(isinstance(row, list) for row in value)]
    obj = from_dict(json.loads(io.dumps_canonical(doc)))
    for key in keys:
        _assert_stored_as_read(getattr(obj, key), doc[key])
    text = io.dumps_canonical(to_dict(obj))
    assert text == io.dumps_canonical(_as_saved(doc, keys))
    again = from_dict(json.loads(text))
    assert io.dumps_canonical(to_dict(again)) == text
    for key in keys:
        M, M_again = getattr(obj, key), getattr(again, key)
        assert M_again.dtype == M.dtype and M_again.tobytes() == M.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_node_documents())
@example(doc=_SIGNED_ZERO_W_DOC)
def test_node_documents_round_trip_bit_exactly(doc):
    _assert_round_trip(doc, io.node_from_dict, io.node_to_dict)


@st.composite
def _plant_documents(draw):
    """A plant document with edge-case entries, n0 = 0 included, each matrix
    in a form of _edge_matrix.

    A0 is a positive and M a nonnegative diagonal, with zeros of either sign
    elsewhere, so both are exactly self-adjoint and stored as they are.  B0
    is n0 x m, and m is recorded with it.
    """
    n0 = draw(st.sampled_from([0, 1, 3]))
    count = st.sampled_from([0, 1, 2])
    zero = st.sampled_from([0.0, -0.0])

    def diagonal(entry):
        d = [draw(entry) for _ in range(n0)]
        return _edge_matrix(draw, n0, n0, lambda i, j: d[i] if i == j else draw(zero), zero)

    doc = {"A0": diagonal(st.one_of(_EDGE, st.floats(0.5, 2.0)).filter(lambda x: x > 0)),
           "M": diagonal(st.one_of(_EDGE, st.floats(0.0, 2.0)).filter(lambda x: x >= 0)),
           "C0": _edge_matrix(draw, draw(count), n0)}
    if draw(st.booleans()):
        m = draw(count)
        doc["B0"], doc["m"] = _edge_matrix(draw, n0, m), m
    if draw(st.booleans()):
        doc["C1"] = _edge_matrix(draw, draw(count), n0)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_plant_documents())
def test_plant_documents_round_trip_bit_exactly(doc):
    _assert_round_trip(doc, io.plant_from_dict, io.plant_to_dict)


@st.composite
def _discrete_documents(draw):
    """A discrete document with edge-case entries, each matrix in a form of
    _edge_matrix; p and m need not agree."""
    n = draw(st.sampled_from([0, 1, 3]))
    m, p = draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0, 1, 2]))
    return {"n": n, "m": m, "p": p,
            "Ad": _edge_matrix(draw, n, n), "Bd": _edge_matrix(draw, n, m),
            "Cd": _edge_matrix(draw, p, n), "Dd": _edge_matrix(draw, p, m),
            "alpha": [draw(_EDGE.filter(lambda x: x > 0)), draw(_EDGE)]}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_discrete_documents())
def test_discrete_documents_round_trip_bit_exactly(doc):
    _assert_round_trip(doc, io.discrete_from_dict, io.discrete_to_dict)


def test_plant_files_round_trip_at_n0_zero(tmp_path):
    plant = SecondOrderPlant(A0=np.zeros((0, 0)), M=np.zeros((0, 0)), C0=np.zeros((2, 0)),
                             B0=np.zeros((0, 2)), C1=np.zeros((1, 0)))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    io.save_plant(plant, first)
    doc = json.loads(first.read_text())
    assert doc["A0"] == doc["B0"] == [] and doc["m"] == 2
    loaded = io.load_plant(first)
    io.save_plant(loaded, second)
    assert second.read_text() == first.read_text()
    assert (loaded.n0, loaded.C0.shape, loaded.B0.shape, loaded.C1.shape) == (
        0, (2, 0), (0, 2), (1, 0))
    # the m = 2 node the saved plant builds, not a 0 x 0 B0's NotSquare
    assert build_noncolocated(loaded)[0].m == build_noncolocated(plant)[0].m == 2


@pytest.mark.parametrize("doc, B0_shape", [
    ({"A0": [], "M": [], "C0": [[], []], "B0": []}, (0, 0)),
    ({"A0": [[[1.0, 0.0]]], "M": [[[1.0, 0.0]]], "C0": [[[1.0, 0.0]]],
      "B0": [[[1.0, 0.0], [2.0, 0.0]]]}, (1, 2)),
])
def test_plant_documents_without_m_load_as_before(doc, B0_shape):
    assert io.plant_from_dict(doc).B0.shape == B0_shape


@pytest.mark.parametrize("m, message", [
    (1, "B0 must have 1 columns, got 2"),
    (True, "'m' must be a nonnegative integer"),
    (-1, "'m' must be a nonnegative integer"),
    (2.0, "'m' must be a nonnegative integer"),
])
def test_plant_document_m_must_count_the_columns_of_B0(m, message):
    doc = io.plant_to_dict(SecondOrderPlant(A0=np.eye(1), M=np.eye(1), C0=np.ones((1, 1)),
                                            B0=np.ones((1, 2))))
    assert doc["m"] == 2 and io.plant_from_dict(doc).B0.shape == (1, 2)
    with pytest.raises(SchemaError) as exc:
        io.plant_from_dict(dict(doc, m=m))
    assert str(exc.value) == message


def test_plant_document_B0_must_have_n0_rows():
    # n0 = 3 and m = 1: the m x n0 layout is refused, not transposed
    doc = io.plant_to_dict(SecondOrderPlant(A0=np.eye(3), M=np.eye(3), C0=np.ones((1, 3)),
                                            B0=np.ones((3, 1))))
    assert io.plant_from_dict(doc).B0.shape == (3, 1)
    doc["B0"] = io.matrix_to_json(np.ones((1, 3)))
    with pytest.raises(SchemaError, match="B0 must have 3 rows"):
        io.plant_from_dict(doc)


def test_beam_file_is_a_fixed_point_of_save_and_load(tmp_path):
    beam, _ = beam_model(BeamParameters(n_modes=4))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    io.save_node(beam, first)
    loaded = io.load_node(first)
    io.save_node(loaded, second)
    assert second.read_text() == first.read_text()
    for key in "ABCDW":
        assert getattr(loaded, key).tobytes() == getattr(beam, key).tobytes()


#: node files written by save_node when every matrix was written as [re, im]
#: pairs: the 4-mode beam, and a node with a complex A (one imaginary -0.0)
#: and real B, C, D and W
_PAIR_FILES = ["beam4_pairs.json", "mixed_pairs.json"]
_DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", _PAIR_FILES)
def test_pair_format_node_files_load_as_before_and_resave_as_a_fixed_point(name, tmp_path):
    doc = json.loads((_DATA / name).read_text())
    node = io.load_node(_DATA / name)
    for key in "ABCDW":
        _assert_stored_as_read(getattr(node, key), doc[key])
    once, again = tmp_path / "once.json", tmp_path / "again.json"
    io.save_node(node, once)
    saved = json.loads(once.read_text())
    for key in "ABCDW":
        # a float64 matrix is written back as rows of plain numbers
        real = getattr(node, key).dtype == np.float64
        assert all(isinstance(x, float) is real for row in saved[key] for x in row)
    reloaded = io.load_node(once)
    io.save_node(reloaded, again)
    assert again.read_text() == once.read_text()
    for key in "ABCDW":
        M, M_again = getattr(node, key), getattr(reloaded, key)
        assert M_again.dtype == M.dtype and M_again.tobytes() == M.tobytes()


def test_a_beam_file_with_imaginary_negative_zeros_stays_complex_and_in_pairs(tmp_path):
    """The 4-mode beam as written when beams were assembled in complex
    arithmetic: A and B carry imaginary -0.0, so under the bitwise rule they
    load as complex128 and are written back as pairs, a fixed point of
    load -> save; only a rebuilt beam takes the real path."""
    path = _DATA / "beam4_signed_zero_pairs.json"
    doc = json.loads(path.read_text())
    node = io.load_node(path)
    for key in "ABCDW":
        _assert_stored_as_read(getattr(node, key), doc[key])
    assert (node.A.dtype, node.B.dtype, node.C.dtype) == (np.complex128, np.complex128,
                                                          np.float64)
    saved = tmp_path / "b.json"
    io.save_node(node, saved)
    resaved = json.loads(saved.read_text())
    for key in "AB":  # the same text, signed zeros included
        assert io.dumps_canonical(resaved[key]) == io.dumps_canonical(doc[key])
    assert all(isinstance(x, float) for row in resaved["C"] for x in row)
    assert io.dumps_canonical(io.node_to_dict(io.load_node(saved))) == saved.read_text()


# -- p != m ----------------------------------------------------------------------


@pytest.mark.parametrize("p, m", [(3, 2), (2, 1)])
def test_every_impedance_question_rejects_a_non_square_node(p, m, tmp_path, capsys):
    # p = 3, m = 2 once broadcast to a ValueError, p = 2, m = 1 to a wrongly shaped form
    rng = np.random.default_rng(10 * p + m)
    node = StateSpaceNode(-2.0 * np.eye(2), rng.standard_normal((2, m)),
                          rng.standard_normal((p, 2)), np.zeros((p, m)))
    E = np.zeros((m, m))
    disc = internal_cayley(node)
    for call in (lambda: adversarial_input(node), lambda: adversarial_input(node, E=E),
                 lambda: diagonal_transform(node, 1.0), lambda: stabilizing_feedback(node, E, 1.0),
                 lambda: check_discrete_passivity(disc, "Impedance")):
        with pytest.raises(NotSquare):
            call()
    scattering = check_discrete_passivity(disc, "Scattering")
    assert scattering.witness.shape == (2 + m,)
    path = str(tmp_path / "node.json")
    io.save_node(node, path)
    for verb in (["cayley", "--kind", "impedance"], ["feedback", "--kappa", "1"],
                 ["stability", "--kappa", "1"], ["simulate", "--adversarial"]):
        assert main([verb[0], path, *verb[1:]]) == 1, verb
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NotSquare:"), verb


@pytest.mark.parametrize("m, p", [(1, 2), (2, 0)])
def test_energy_audit_needs_p_equal_to_m(m, p, tmp_path, capsys):
    # the supply <u, y> once broadcast a width of 1: m = 1, p = 2 passed a
    # meaningless audit, and m = 2, p = 0 ended in a numpy ValueError
    node = StateSpaceNode(-np.eye(2), np.ones((2, m)), np.eye(2)[:p], np.zeros((p, m)))
    traj = simulate(node, np.zeros(2), lambda t: np.ones(m), 1.0, steps=10)
    with pytest.raises(NotSquare, match=f"p = {p} and m = {m}"):
        energy_audit(traj)
    with pytest.raises(NotSquare):  # decided before W is read
        energy_audit(traj, W=np.zeros((3, 3)))
    path = str(tmp_path / "node.json")
    io.save_node(node, path)
    assert main(["simulate", path, "--steps", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NotSquare:") and captured.err.count("\n") == 1


# -- n = 0 -----------------------------------------------------------------------


def test_node_without_state(tmp_path, capsys):
    node = StateSpaceNode(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
    assert np.array_equal(eval_transfer(node, 1.0), np.eye(2))
    assert check_impedance(node).passive
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.save_node(node, p1)
    loaded = io.load_node(p1)
    io.save_node(loaded, p2)
    assert p1.read_text() == p2.read_text()
    assert loaded.B.shape == (0, 2) and loaded.C.shape == (2, 0)
    assert main(["check", str(p1)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Passive"


def _empty_node():
    return StateSpaceNode(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))


def test_an_empty_form_is_passive_with_min_eigenvalue_zero():
    node = _empty_node()
    for cert in (check_impedance(node), check_scattering(node)):
        assert cert.passive and cert.min_eigenvalue == 0.0
        assert cert.witness.shape == (0,) and cert.as_dict()["witness"] == []
    z0, u0, lam = adversarial_input(node)
    assert z0.shape == u0.shape == (0,) and lam == 0.0
    report, syn = stability_verdict(node, None, 1.0)
    assert syn.closed_loop.n == 0
    assert report.closed_loop_max_real == -np.inf
    assert report.as_dict()["closed_loop_max_real"] is None


@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "--kind", "scattering"],
    ["minimal-e", "--method", "general"],
    ["feedback", "--kappa", "1"],
    ["stability", "--kappa", "1"],
    ["simulate", "--adversarial", "--steps", "10"],
])
def test_every_verb_answers_on_a_node_with_n_m_p_zero(argv, tmp_path, capsys):
    # the file save_node writes for such a node
    path = tmp_path / "n0.json"
    io.save_node(_empty_node(), path)
    assert json.loads(path.read_text()) == {"A": [], "B": [], "C": [], "D": [],
                                            "m": 0, "n": 0, "p": 0}
    assert main([argv[0], str(path), *argv[1:]]) in (0, 2)
    out = capsys.readouterr().out
    assert out == io.dumps_canonical(json.loads(out))


# -- non-finite matrices ---------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e51, -1e60j])
def test_constructors_reject_non_finite_matrices(bad):
    with pytest.raises(NonFiniteMatrix):
        StateSpaceNode([[bad]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NonFiniteMatrix):
        StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]], W=[[bad]])
    with pytest.raises(NonFiniteMatrix):
        DiscreteSystem([[0.5]], [[1.0]], [[bad]], [[0.0]], 1.0)
    with pytest.raises(NonFiniteMatrix):
        SecondOrderPlant(A0=[[bad]], M=[[1.0]], C0=[[1.0]])
    with pytest.raises(NonFiniteMatrix):
        SecondOrderPlant(A0=[[1.0]], M=[[1.0]], C0=[[1.0]], B0=[[bad]])


def test_discrete_system_rejects_non_conforming_matrices():
    # the shape rule of StateSpaceNode, with its texts
    I2 = np.eye(2)
    with pytest.raises(DimensionMismatch, match="B must have n rows"):
        DiscreteSystem(I2, np.ones((3, 1)), np.ones((1, 2)), np.ones((1, 1)), 1.0)
    with pytest.raises(DimensionMismatch, match="A must be square"):
        DiscreteSystem(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)), 1.0)
    with pytest.raises(DimensionMismatch, match="C must have n columns"):
        DiscreteSystem(I2, np.ones((2, 1)), np.ones((1, 3)), np.ones((1, 1)), 1.0)
    with pytest.raises(DimensionMismatch, match="D must be p x m"):
        DiscreteSystem(I2, np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 1)), 1.0)


def test_cli_rejects_non_finite_node(tmp_path, capsys):
    doc = io.node_to_dict(random_passive_node(0))
    doc["A"][0][0] = [float("nan"), 0.0]
    assert main(["check", _write(tmp_path, doc)]) == 1
    assert "error: NonFiniteMatrix:" in capsys.readouterr().err


# -- simulation grid ------------------------------------------------------------


@pytest.mark.parametrize("steps", [True, 2.7, 2.0, "2"])
def test_simulate_steps_must_be_an_integer(steps):
    node = random_passive_node(0)
    with pytest.raises(InvalidTimeGrid):
        simulate(node, np.zeros(node.n), lambda t: np.zeros(node.m), 1.0, steps=steps)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-3, "abc", 1j,
                                 pytest.param(10**400, id="int-1e400")])
def test_energy_audit_tol_must_be_finite_and_nonnegative(tol):
    node = random_passive_node(0)
    traj = simulate(node, np.zeros(node.n), lambda t: np.ones(node.m), 1.0, steps=10)
    assert energy_audit(traj, W=node.W, tol=0.0).tol == 0.0
    with pytest.raises(InvalidTolerance):
        energy_audit(traj, W=node.W, tol=tol)


@pytest.mark.parametrize("K", [-1, 2.5, True])
def test_laguerre_K_must_be_a_nonnegative_integer(K):
    with pytest.raises(DimensionMismatch):
        laguerre_functions([0.0, 1.0], 1.0, K)
    with pytest.raises(DimensionMismatch):
        laguerre_coefficients(lambda t: 1.0, 1.0, K, 1.0, steps=10)


@pytest.mark.parametrize("T", [np.nan, 0.0, -1.0, np.inf,
                               pytest.param(10**400, id="int-1e400")])
def test_laguerre_coefficients_need_a_finite_positive_horizon(T):
    with pytest.raises(InvalidTimeGrid):
        laguerre_coefficients(lambda t: 1.0, 1.0, 3, T, steps=10)


@pytest.mark.parametrize("T, steps", [(1.0, 0), (1.0, -3), (0.0, 10), (np.nan, 10)])
def test_simulate_rejects_bad_grid(T, steps, tmp_path, capsys):
    node = random_passive_node(0)
    with pytest.raises(InvalidTimeGrid):
        simulate(node, np.zeros(node.n), lambda t: np.zeros(node.m), T, steps=steps)
    path = _write(tmp_path, io.node_to_dict(node))
    assert main(["simulate", path, "--t-final", str(T), "--steps", str(steps)]) == 1
    # the CLI reads a non-finite --t-final as a usage error
    error = "InvalidTimeGrid" if np.isfinite(T) else "ParseError"
    assert f"error: {error}:" in capsys.readouterr().err


def test_simulate_rejects_a_trajectory_above_the_size_limit(tmp_path, capsys, monkeypatch):
    # (steps + 1)(n + m + p) one entry above the limit is rejected before the
    # grid, the input values or the states are allocated; at the limit the grid
    # is the first thing allocated
    node = random_passive_node(0)
    path = _write(tmp_path, io.node_to_dict(node))
    width = node.n + node.m + node.p
    steps = sim.TRAJECTORY_MAX_ENTRIES // width
    assert (steps + 1) * width > sim.TRAJECTORY_MAX_ENTRIES >= steps * width

    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    for name in ("empty", "linspace"):
        monkeypatch.setattr(np, name, allocate)
    u = lambda t: np.zeros(node.m)
    with pytest.raises(InvalidTimeGrid, match="grid points"):
        simulate(node, np.zeros(node.n), u, 1.0, steps=steps)
    with pytest.raises(Allocated):
        simulate(node, np.zeros(node.n), u, 1.0, steps=steps - 1)
    assert main(["simulate", path, "--steps", str(steps)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidTimeGrid: steps")
    assert captured.err.count("\n") == 1


def test_energy_audit_overflow_is_non_finite_state(tmp_path, capsys):
    # every state is finite, but ||z||_W^2 ~ 1e320 is not; warnings are errors here
    node = random_passive_node(1)
    u = lambda t: 1e160 * np.cos(t) * np.ones(node.m)
    traj = simulate(node, np.zeros(node.n), u, 10.0, steps=20)
    assert np.isfinite(traj.states).all()
    with pytest.raises(NonFiniteState, match="energy overflows"):
        energy_audit(traj, W=node.W)
    # the stored energy stays 0 and only the supply 2 Re <u, y> = 2 |u|^2 overflows
    through = StateSpaceNode([[-1.0]], [[0.0]], [[0.0]], [[1.0]])
    traj = simulate(through, [0.0], lambda t: np.array([1e160]), 1.0, steps=10)
    with pytest.raises(NonFiniteState, match="energy overflows"):
        energy_audit(traj)
    path = _write(tmp_path, io.node_to_dict(node))
    assert main(["simulate", path, "--amplitude", "1e160", "--steps", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: NonFiniteState:" in captured.err


@pytest.mark.parametrize("W, error", [
    (np.eye(3), DimensionMismatch),
    ([[np.nan, 0.0], [0.0, 1.0]], NonFiniteMatrix),
    ([[1.0, 0.5], [0.0, 1.0]], NotSelfAdjoint),
])
def test_energy_audit_checks_W_as_a_node_does(W, error):
    node = random_passive_node(0, n=2)
    traj = simulate(node, np.zeros(node.n), lambda t: np.ones(node.m), 1.0, steps=10)
    with pytest.raises(error):
        energy_audit(traj, W=W)


def test_energy_audit_rejects_a_non_self_adjoint_shift():
    # E is checked as adversarial_input checks it, not audited by its self-adjoint part
    node = beam_model(BeamParameters(n_modes=4))[0]
    traj = simulate(node, np.zeros(node.n), lambda t: np.ones(node.m), 1.0, steps=10)
    E = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(NotSelfAdjoint):
        energy_audit(traj, W=node.W, E=E)
    with pytest.raises(NotSelfAdjoint):
        adversarial_input(node, E)


# -- the shift E ------------------------------------------------------------------


def _matrix_doc(M):
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in M]


_NAN_E = [[np.nan, 0.0], [0.0, 1.0]]
_HUGE_E = [[1e300, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("E", [_NAN_E, [[np.inf, 0.0], [0.0, 1.0]], _HUGE_E])
def test_load_matrix_rejects_non_finite_entries(E, tmp_path):
    with pytest.raises(NonFiniteMatrix):
        io.load_matrix(_write(tmp_path, _matrix_doc(E), "E.json"), "E")


@pytest.mark.parametrize("verb, E, error", [
    (["feedback", "--kappa", "1"], _NAN_E, "NonFiniteMatrix"),
    (["stability", "--kappa", "1"], _NAN_E, "NonFiniteMatrix"),
    (["simulate"], np.zeros((3, 3)), "DimensionMismatch"),
    (["simulate"], [[1.0]], "DimensionMismatch"),
    (["simulate"], _HUGE_E, "NonFiniteMatrix"),
    (["simulate"], [[0.0, 1.0], [0.0, 0.0]], "NotSelfAdjoint"),
])
def test_cli_rejects_a_bad_shift(verb, E, error, tmp_path, capsys):
    beam = str(tmp_path / "b.json")
    assert main(["beam", "--n-modes", "4", "--out", beam]) == 0
    capsys.readouterr()
    e_path = _write(tmp_path, _matrix_doc(E), "E.json")
    assert main([verb[0], beam, *verb[1:], "--e-matrix", e_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}:")


@pytest.mark.parametrize("E", [np.zeros((3, 3)), [[1.0]]])
def test_a_shift_that_is_not_m_by_m_is_rejected(E):
    node = beam_model(BeamParameters(n_modes=4))[0]
    traj = simulate(node, np.zeros(node.n), lambda t: np.ones(node.m), 1.0, steps=10)
    with pytest.raises(DimensionMismatch):
        energy_audit(traj, W=node.W, E=E)
    with pytest.raises(DimensionMismatch):
        check_impedance_reciprocal(node, E, 0.5)
    with pytest.raises(DimensionMismatch):
        stabilizing_feedback(node, E, 1.0)


# -- huge JSON integers ------------------------------------------------------------


@pytest.mark.parametrize("site", ["matrix entry", "alpha", "--z0"])
def test_integers_beyond_float_range_are_schema_errors(site):
    huge = 10**400
    if site == "matrix entry":
        doc = dict(io.node_to_dict(StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])),
                   A=[[[huge, 0]]])
        parse = lambda: io.node_from_dict(doc)
    elif site == "alpha":
        parse = lambda: io.discrete_from_dict(dict(_discrete_doc(), alpha=[1.0, -huge]))
    else:
        parse = lambda: io.vector_from_json([huge], "--z0", 1)
    with pytest.raises(SchemaError, match="too large for a float"):
        parse()


def test_cli_reports_a_huge_integer_as_schema_error(tmp_path, capsys):
    doc = dict(io.node_to_dict(StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])),
               A=[[[10**400, 0]]])
    assert main(["check", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("error: SchemaError: A[0][0]")


# -- CLI error lines ---------------------------------------------------------------


def test_cli_error_line_names_schema_error(tmp_path, capsys):
    doc = dict(io.node_to_dict(StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])),
               A=[[[True, 0]]])
    assert main(["check", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError: A[0][0] is not an [re, im] pair")


def test_cli_error_line_names_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ParseError:")


def test_a_test_point_whose_resolvent_is_singular_is_dropped_without_a_warning(
        tmp_path, capsys):
    # sI - A at s = 1e-320 is singular for A = 0: its slice of R @ B once
    # warned of an invalid value in matmul
    node = StateSpaceNode(np.zeros((2, 2)), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
    path = _write(tmp_path, io.node_to_dict(node))
    assert main(["check", path, "--points", "1e-320"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["test_points"] == [] and captured.err == ""
    assert main(["check", path, "--points", "1e-320", "--kind", "scattering"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OmegaInSpectrum: no usable test points in rho(A)\n"


def test_an_rcond_product_that_overflows_decides_singular_without_a_warning(
        tmp_path, capsys):
    # ||alpha I - A||_1 ||(alpha I - A)^-1||_1 = 1e50 * 1e300 overflows to inf
    node = StateSpaceNode(np.diag([1e50, 0.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
    path = _write(tmp_path, io.node_to_dict(node))
    assert main(["cayley", path, "--alpha", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: AlphaInSpectrum:") and captured.err.count("\n") == 1


# -- property: fuzzed node documents ---------------------------------------------

_REAL = st.one_of(
    st.floats(),  # finite, subnormal, huge, NaN and +-inf
    st.builds(lambda x, e: x * 10.0**e, st.floats(-1.0, 1.0), st.integers(-320, 308)),
    st.integers(),
    st.integers(-(10**400), 10**400),  # mostly beyond the float range
)
_NUMBER = st.one_of(_REAL, st.booleans(), st.text(max_size=2))
_BAD_ENTRY = st.one_of(_NUMBER, st.lists(_NUMBER, max_size=3))
_RAGGED = st.recursive(_NUMBER, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_FUZZ_NODE = StateSpaceNode([[-1.0, 0.5], [-0.5, -2.0]], [[1.0], [0.0]], [[1.0, 0.0]], [[1.0]])
_FUZZ_ROWS = io.node_to_dict(_FUZZ_NODE)
_FUZZ_PAIRS = {key: [[[x, 0.0] for x in row] for row in _FUZZ_ROWS[key]] for key in "ABCD"}


@st.composite
def _fuzzed_node_documents(draw):
    """The base document with one to three entries replaced, sometimes a matrix too.

    Each matrix of the base is written as rows of numbers or as [re, im]
    pairs, so a document may mix the two forms.  Most replacements are
    entries of the matrix's own form, made of finite or non-finite floats
    and of integers up to 400 digits, so many documents reach certification.
    One in five is an entry of the other form, which mixes the forms inside
    one matrix, and one in five is a number, boolean, string or list of them.
    """
    doc = dict(_FUZZ_ROWS)
    pairs = {key: draw(st.booleans()) for key in "ABCD"}
    for key in "ABCD":
        doc[key] = [list(row) for row in (_FUZZ_PAIRS if pairs[key] else _FUZZ_ROWS)[key]]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from("ABCD"))
        i = draw(st.integers(0, len(doc[key]) - 1))
        j = draw(st.integers(0, len(doc[key][0]) - 1))
        kind = draw(st.integers(0, 4))
        if kind == 0:
            doc[key][i][j] = draw(_BAD_ENTRY)
        else:
            pair = pairs[key] != (kind == 1)
            doc[key][i][j] = [draw(_REAL), draw(_REAL)] if pair else draw(_REAL)
    if draw(st.integers(0, 4)) == 0:
        doc[draw(st.sampled_from("ABCD"))] = draw(_RAGGED)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_fuzzed_node_documents())
def test_fuzzed_node_documents_end_in_a_typed_result(doc, tmp_path, capsys):
    try:
        io.node_from_dict(doc)
    except PassiveNodeError:
        pass
    assert main(["check", _write(tmp_path, doc)]) in (0, 1, 2)
    capsys.readouterr()


# -- time-domain signals: one gate (linalg.as_signal) ------------------------------


@pytest.fixture(scope="module")
def beam4():
    node = beam_model(BeamParameters(n_modes=4))[0]
    return node, internal_cayley(node, 1.0)


_ONES = lambda t: np.ones(2)  # noqa: E731  (the 4-mode beam has m = 2)

#: each of these raised a bare numpy error or returned NaN before the gate
_BAD_SIGNALS = {
    "simulate: u(t) a string": (DimensionMismatch, lambda node, disc: simulate(
        node, np.zeros(node.n), lambda t: "abc", 1.0, steps=10)),
    "simulate: z0 of strings": (DimensionMismatch, lambda node, disc: simulate(
        node, ["a"] * node.n, _ONES, 1.0, steps=10)),
    "simulate: string samples": (DimensionMismatch, lambda node, disc: simulate(
        node, np.zeros(node.n), [["a", "b"]] * 11, 1.0, steps=10)),
    "simulate: ragged samples": (DimensionMismatch, lambda node, disc: simulate(
        node, np.zeros(node.n), [[1.0, 2.0]] * 10 + [[1.0]], 1.0, steps=10)),
    "simulate: u an object": (DimensionMismatch, lambda node, disc: simulate(
        node, np.zeros(node.n), object(), 1.0, steps=10)),
    "laguerre: ragged values": (DimensionMismatch, lambda node, disc: laguerre_coefficients(
        lambda t: [1.0] * (1 + int(t > 0.5)), 1.0, 3, 1.0, steps=10)),
    "laguerre: string values": (DimensionMismatch, lambda node, disc: laguerre_coefficients(
        lambda t: "abc", 1.0, 3, 1.0, steps=10)),
    "laguerre: None values": (DimensionMismatch, lambda node, disc: laguerre_coefficients(
        lambda t: None, 1.0, 3, 1.0, steps=10)),
    "laguerre: NaN values": (NonFiniteState, lambda node, disc: laguerre_coefficients(
        lambda t: np.nan, 1.0, 3, 1.0, steps=10)),
    "discrete: string coefficients": (DimensionMismatch, lambda node, disc: discrete_response(
        disc, [["a", "b"]] * 3)),
    "discrete: wrong width": (DimensionMismatch, lambda node, disc: discrete_response(
        disc, np.ones((3, 3)))),
    "discrete: NaN coefficients": (NonFiniteState, lambda node, disc: discrete_response(
        disc, np.full((3, 2), np.nan))),
}


@pytest.mark.parametrize("case", list(_BAD_SIGNALS))
def test_bad_signals_raise_typed_errors(case, beam4):
    error, call = _BAD_SIGNALS[case]
    with pytest.raises(error):
        call(*beam4)


def test_huge_signals_overflow_to_non_finite_state(beam4):
    node, disc = beam4
    with pytest.raises(NonFiniteState, match="Laguerre coefficients overflow"):
        laguerre_coefficients(lambda t: 1.7e308, 1.0, 3, 1.0, steps=10)
    with pytest.raises(NonFiniteState, match="discrete response overflows"):
        discrete_response(disc, np.full((3, 2), 1.7e308))
    # finite states whose output C z + D u overflows
    through = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[1e10]])
    with pytest.raises(NonFiniteState, match="output overflows"):
        simulate(through, [0.0], lambda t: np.array([1e300]), 1.0, steps=4)


def test_signal_values_of_any_shape_are_flattened():
    S = linalg.as_signal([1.0, [2.0], np.array([[3.0]]), True], "u", width=1)
    assert S.dtype == np.float64 and S.tolist() == [[1.0], [2.0], [3.0], [1.0]]
    samples = np.arange(6.0).reshape(3, 2).T
    assert linalg.as_signal(samples, "u", width=3) is samples
    # the real rule of as_matrix: an imaginary -0.0 keeps a signal complex
    assert linalg.as_signal([[1 + 0j]], "u").dtype == np.float64
    assert linalg.as_signal([[complex(1.0, -0.0)]], "u").dtype == np.complex128


_SIGNAL_NUMBER = st.one_of(
    st.floats(),  # finite, huge, NaN and +-inf
    st.complex_numbers(),
    st.integers(-(10**30), 10**30),  # beyond int64 they are not numpy numbers
    st.booleans(),
)
_SIGNAL_VALUE = st.one_of(
    _SIGNAL_NUMBER,
    st.lists(_SIGNAL_NUMBER, min_size=2, max_size=2),  # the right width
    st.lists(_SIGNAL_NUMBER, max_size=3),
    st.lists(st.one_of(_SIGNAL_NUMBER, st.lists(_SIGNAL_NUMBER, max_size=2)), max_size=3),
    st.text(max_size=2),
    st.none(),
)
_SIGNAL_NODE = StateSpaceNode([[-1.0, 0.5], [-0.5, -2.0]], np.eye(2), np.eye(2), np.eye(2))
_SIGNAL_DISC = internal_cayley(_SIGNAL_NODE, 1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=_SIGNAL_VALUE, other=_SIGNAL_VALUE)
def test_every_signal_ends_in_finite_output_or_a_typed_error(value, other):
    node, steps = _SIGNAL_NODE, 4
    samples = [value] * steps + [other]
    calls = {
        "callable": lambda: simulate(node, np.zeros(2), lambda t: value if t else other,
                                     1.0, steps=steps).outputs,
        "sampled": lambda: simulate(node, np.zeros(2), samples, 1.0, steps=steps).outputs,
        "laguerre": lambda: laguerre_coefficients(lambda t: value if t else other, 1.0, 2,
                                                  1.0, steps=steps),
        "discrete": lambda: discrete_response(_SIGNAL_DISC, samples),
    }
    for call in calls.values():
        try:
            out = call()
        except (DimensionMismatch, NonFiniteState):
            continue
        assert np.isfinite(out).all()


_TIMES = np.linspace(0.0, 1.0, 5)
_FEEDTHROUGH = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[1.0]])

#: each of these raised a bare Python or numpy error, or accepted a bool, a
#: numeric string, a NaN or a truncated value, before the scalar and time-grid
#: gates; numpy refuses the 7 PiB grid of 10**15 steps before it touches
#: memory, with what was a bare MemoryError
_BAD_ARGUMENTS = {
    "stabilizing_feedback: kappa a string": (KappaOutOfRange, lambda node, disc: (
        stabilizing_feedback(node, None, "abc"))),
    "stabilizing_feedback: kappa None": (KappaOutOfRange, lambda node, disc: (
        stabilizing_feedback(node, None, None))),
    "stabilizing_feedback: kappa True": (KappaOutOfRange, lambda node, disc: (
        stabilizing_feedback(node, None, True))),
    "diagonal_transform: k a string": (KappaOutOfRange, lambda node, disc: (
        diagonal_transform(node, "abc"))),
    "diagonal_transform: k None": (KappaOutOfRange, lambda node, disc: (
        diagonal_transform(node, None))),
    "diagonal_transform: k True": (KappaOutOfRange, lambda node, disc: (
        diagonal_transform(node, True))),
    "internal_cayley: alpha a string": (AlphaNotRightHalfPlane, lambda node, disc: (
        internal_cayley(node, "x"))),
    "DiscreteSystem: NaN alpha": (AlphaNotRightHalfPlane, lambda node, disc: (
        DiscreteSystem(disc.Ad, disc.Bd, disc.Cd, disc.Dd, np.nan))),
    "eval_transfer: s a string": (DimensionMismatch, lambda node, disc: (
        eval_transfer(node, "x"))),
    "impedance_form_at: s a string": (DimensionMismatch, lambda node, disc: (
        impedance_form_at(node, "x"))),
    "discrete_transfer: z a string": (DimensionMismatch, lambda node, disc: (
        discrete_transfer(disc, "x"))),
    "check_impedance: test point a string": (DimensionMismatch, lambda node, disc: (
        check_impedance(node, ["x"]))),
    "check_impedance: NaN test point": (DimensionMismatch, lambda node, disc: (
        check_impedance(node, [np.nan]))),
    "check_scattering: NaN test point": (DimensionMismatch, lambda node, disc: (
        check_scattering(node, [complex(np.nan, 1.0)]))),
    "minimal_E_colocated_at: omega a string": (DimensionMismatch, lambda node, disc: (
        minimal_E_colocated_at(node, "x"))),
    "minimal_E_colocated_at: omega None": (DimensionMismatch, lambda node, disc: (
        minimal_E_colocated_at(node, None))),
    "check_impedance_reciprocal: omega a string": (DimensionMismatch, lambda node, disc: (
        check_impedance_reciprocal(node, None, "x"))),
    "check_impedance_reciprocal: omega None": (DimensionMismatch, lambda node, disc: (
        check_impedance_reciprocal(node, None, None))),
    "adversarial_input: amplitude a string": (DimensionMismatch, lambda node, disc: (
        adversarial_input(node, None, "x"))),
    "adversarial_input: NaN amplitude": (DimensionMismatch, lambda node, disc: (
        adversarial_input(node, None, np.nan))),
    "laguerre_functions: NaN alpha": (NonPositiveAlpha, lambda node, disc: (
        laguerre_functions(_TIMES, np.nan, 3))),
    "laguerre_functions: times of strings": (DimensionMismatch, lambda node, disc: (
        laguerre_functions(["a", "b"], 1.0, 3))),
    "laguerre_functions: times of numeric strings": (DimensionMismatch, lambda node, disc: (
        laguerre_functions(["0.5", "1.0"], 1.0, 3))),
    "laguerre_functions: non-finite times": (DimensionMismatch, lambda node, disc: (
        laguerre_functions([np.nan, np.inf], 1.0, 2))),
    "laguerre_coefficients: steps a string": (InvalidTimeGrid, lambda node, disc: (
        laguerre_coefficients(_ONES, 1.0, 3, 1.0, steps="abc"))),
    "laguerre_coefficients: steps -4": (InvalidTimeGrid, lambda node, disc: (
        laguerre_coefficients(_ONES, 1.0, 3, 1.0, steps=-4))),
    "laguerre_coefficients: steps 2.7": (InvalidTimeGrid, lambda node, disc: (
        laguerre_coefficients(_ONES, 1.0, 3, 1.0, steps=2.7))),
    "laguerre_coefficients: steps True": (InvalidTimeGrid, lambda node, disc: (
        laguerre_coefficients(_ONES, 1.0, 3, 1.0, steps=True))),
    "laguerre_coefficients: T True": (InvalidTimeGrid, lambda node, disc: (
        laguerre_coefficients(_ONES, 1.0, 3, True, steps=10))),
    "laguerre_coefficients: steps 10**15": (InvalidTimeGrid, lambda node, disc: (
        laguerre_coefficients(_ONES, 1.0, 3, 1.0, steps=10**15))),
    "laguerre_coefficients: u not callable": (DimensionMismatch, lambda node, disc: (
        laguerre_coefficients(np.ones(2), 1.0, 3, 1.0, steps=10))),
    "simulate: T True": (InvalidTimeGrid, lambda node, disc: (
        simulate(node, np.zeros(node.n), _ONES, True, steps=10))),
    "simulate: T a numeric string": (InvalidTimeGrid, lambda node, disc: (
        simulate(node, np.zeros(node.n), _ONES, "1.0", steps=10))),
    "simulate: steps 10**15": (InvalidTimeGrid, lambda node, disc: (
        simulate(node, np.zeros(node.n), _ONES, 1.0, steps=10**15))),
    "energy_audit: tol True": (InvalidTolerance, lambda node, disc: energy_audit(
        simulate(node, np.zeros(node.n), _ONES, 1.0, steps=10), W=node.W, tol=True)),
    "StateSpaceNode: numeric strings": (DimensionMismatch, lambda node, disc: (
        StateSpaceNode([["-1"]], [["1"]], [["1"]], [["0"]]))),
    "StateSpaceNode: strings": (DimensionMismatch, lambda node, disc: (
        StateSpaceNode([["x"]], [[1.0]], [[1.0]], [[0.0]]))),
    "StateSpaceNode: ragged A": (DimensionMismatch, lambda node, disc: (
        StateSpaceNode([[-1.0, 0.0], [0.0]], np.ones((2, 1)), np.ones((1, 2)), [[0.0]]))),
    "output_feedback: K a string": (DimensionMismatch, lambda node, disc: (
        output_feedback(node, "1"))),
    "output_feedback: NaN K": (NonFiniteMatrix, lambda node, disc: (
        output_feedback(_FEEDTHROUGH, np.nan))),
    "positive_part: E a string": (DimensionMismatch, lambda node, disc: positive_part("x")),
}


@pytest.mark.parametrize("case", list(_BAD_ARGUMENTS))
def test_bad_arguments_raise_typed_errors(case, beam4):
    error, call = _BAD_ARGUMENTS[case]
    with pytest.raises(error):
        call(*beam4)


def test_scalar_gates_decide_each_kind_by_one_rule():
    for value in (3, np.int64(3), np.uint8(3)):
        assert linalg.as_count(value, "n", 1, InvalidTimeGrid) == 3
    for value in (True, np.True_, 3.0, np.float64(3.0), "3", None, 0):
        with pytest.raises(InvalidTimeGrid, match="n must be an integer >= 1"):
            linalg.as_count(value, "n", 1, InvalidTimeGrid)
    for value in (2, 2.0, np.float32(2.0), np.int64(2)):
        x = linalg.as_real(value, "x", KappaOutOfRange)
        assert x == 2.0 and type(x) is float
    for value in (True, np.True_, "2", None, 1j, np.nan, -np.inf, 10**400):
        with pytest.raises(KappaOutOfRange, match="x must be a finite real number"):
            linalg.as_real(value, "x", KappaOutOfRange)
    for value in (2, 2.0, 2 + 0j, np.float64(2.0), np.complex64(2.0)):
        z = linalg.as_point(value, "z", DimensionMismatch)
        assert z == 2.0 and type(z) is complex
    for value in (True, np.True_, "2", None, complex(np.nan, 0.0), complex(0.0, np.inf), 10**400):
        with pytest.raises(DimensionMismatch, match="z must be a finite complex number"):
            linalg.as_point(value, "z", DimensionMismatch)


def test_matrices_of_numbers_only():
    # bool matrices are numbers, as for signals; a real ndarray is read as float64
    assert linalg.as_matrix([[True, False]], "M").tolist() == [[1.0, 0.0]]
    A = np.arange(4).reshape(2, 2)
    assert linalg.as_matrix(A, "A").dtype == np.float64
    for M in (None, object(), [["1"]], [[1.0], [1.0, 2.0]], [[10**400]]):
        with pytest.raises(DimensionMismatch, match="M must be a matrix of numbers"):
            linalg.as_matrix(M, "M")


def test_numpy_scalars_read_as_python_numbers(beam4):
    node, disc = beam4
    f64, i64, c128 = np.float64, np.int64, np.complex128
    z0 = np.zeros(node.n)
    traj = simulate(node, z0, _ONES, f64(1.0), steps=i64(10))
    assert np.array_equal(traj.states, simulate(node, z0, _ONES, 1.0, steps=10).states)
    assert energy_audit(traj, W=node.W, tol=f64(1e-3)).tol == 1e-3
    assert np.array_equal(laguerre_coefficients(_ONES, c128(1.0), i64(3), f64(1.0), steps=i64(9)),
                          laguerre_coefficients(_ONES, 1.0, 3, 1.0, steps=9))
    assert np.array_equal(laguerre_functions(_TIMES, c128(1 + 1j), i64(3)),
                          laguerre_functions(_TIMES, 1 + 1j, 3))
    assert np.array_equal(internal_cayley(node, c128(2.0)).Ad, internal_cayley(node, 2.0).Ad)
    assert type(DiscreteSystem(disc.Ad, disc.Bd, disc.Cd, disc.Dd, f64(1.0)).alpha) is complex
    assert np.array_equal(eval_transfer(node, c128(1j)), eval_transfer(node, 1j))
    assert np.array_equal(discrete_transfer(disc, c128(0.5)), discrete_transfer(disc, 0.5))
    assert (check_impedance(node, [c128(2 + 1j)]).min_eigenvalue
            == check_impedance(node, [2 + 1j]).min_eigenvalue)
    lossless = StateSpaceNode([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.5]])
    assert np.array_equal(minimal_E_colocated_at(lossless, f64(2.0)),
                          minimal_E_colocated_at(lossless, 2.0))
    assert (check_impedance_reciprocal(node, None, i64(1)).min_eigenvalue
            == check_impedance_reciprocal(node, None, 1.0).min_eigenvalue)
    assert stabilizing_feedback(node, None, f64(0.5)).kappa == 0.5
    assert np.array_equal(diagonal_transform(node, i64(1)).A, diagonal_transform(node, 1.0).A)
    assert np.array_equal(adversarial_input(node, None, f64(2.0))[0],
                          adversarial_input(node, None, 2.0)[0])


_SCALAR = st.one_of(
    st.floats(),  # finite, huge, NaN and +-inf
    st.complex_numbers(),
    st.integers(-(10**400), 10**400),  # beyond the float range too
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
_SIGNAL_TRAJ = simulate(_SIGNAL_NODE, np.zeros(2), lambda t: np.ones(2), 1.0, steps=4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=_SCALAR)
def test_every_scalar_argument_ends_in_finite_output_or_a_typed_error(value):
    node, disc = _SIGNAL_NODE, _SIGNAL_DISC
    calls = {
        "T": lambda: simulate(node, np.zeros(2), lambda t: np.ones(2), value, steps=4).states,
        "tol": lambda: energy_audit(_SIGNAL_TRAJ, tol=value).defect,
        "laguerre T": lambda: laguerre_coefficients(lambda t: 1.0, 1.0, 2, value, steps=4),
        "laguerre alpha": lambda: laguerre_functions(_TIMES, value, 2),
        "kappa": lambda: stabilizing_feedback(node, None, value).closed_loop.A,
        "k": lambda: diagonal_transform(node, value).A,
        "alpha": lambda: internal_cayley(node, value).Ad,
        "s": lambda: eval_transfer(node, value),
        "z": lambda: discrete_transfer(disc, value),
        "test point": lambda: check_impedance(node, [value]).min_eigenvalue,
        "omega": lambda: check_impedance_reciprocal(node, None, value).min_eigenvalue,
        "amplitude": lambda: adversarial_input(node, None, value)[0],
    }
    for call in calls.values():
        try:
            out = call()
        except PassiveNodeError:
            continue
        assert np.isfinite(out).all()
