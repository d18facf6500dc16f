"""Invertibility decisions and input validation at the library and CLI boundary."""

import json

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
    check_discrete_passivity,
    check_impedance,
    check_impedance_reciprocal,
    check_scattering,
    closed_loop_spectrum_gate,
    diagonal_transform,
    energy_audit,
    eval_transfer,
    internal_cayley,
    io,
    laguerre_coefficients,
    laguerre_functions,
    linalg,
    minimal_E_esad,
    output_feedback,
    simulate,
    stabilizing_feedback,
    stability_verdict,
)
from passivenode.cli import main
from passivenode.passivity import impedance_form_at
from passivenode.errors import (
    DimensionMismatch,
    InvalidTimeGrid,
    InvalidTolerance,
    LambdaInOpenLoopSpectrum,
    NonFiniteMatrix,
    NonFiniteState,
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


def test_closed_loop_spectrum_gate():
    # G(s) = 1/(s + 1); under u = 2y the closed loop has its pole at s = 1
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert closed_loop_spectrum_gate(node, 2.0, 0.0)
    assert not closed_loop_spectrum_gate(node, 2.0, 1.0)
    with pytest.raises(LambdaInOpenLoopSpectrum):
        closed_loop_spectrum_gate(node, 2.0, -1.0)


def test_closed_loop_spectrum_gate_reads_K_like_output_feedback():
    beam, _ = beam_model(BeamParameters(n_modes=4))
    full = np.full((2, 2), 0.5)
    assert closed_loop_spectrum_gate(beam, 0.5, 1.0) == closed_loop_spectrum_gate(beam, full, 1.0)
    with pytest.raises(DimensionMismatch):
        closed_loop_spectrum_gate(beam, np.zeros((3, 2)), 1.0)


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
    K = np.zeros((2, 2))
    seen = set()
    for lam in np.linalg.eigvals(beam.A):
        for k in range(1, 17):
            for s in (lam + 10.0**-k, lam + 1j * 10.0**-k):
                decisions = {
                    _in_rho(lambda: eval_transfer(beam, s), SingularResolvent),
                    _in_rho(lambda: impedance_form_at(beam, s), OmegaInSpectrum),
                    _in_rho(lambda: closed_loop_spectrum_gate(beam, K, s),
                            LambdaInOpenLoopSpectrum),
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


@st.composite
def _node_documents(draw):
    """A node document as node_to_dict writes it, with edge-case entries.

    W, when present, is a positive diagonal with zeros of either sign
    elsewhere: an exactly self-adjoint W is stored as it is, signed zeros
    included.
    """
    n = draw(st.sampled_from([0, 1, 3]))
    m = draw(st.sampled_from([0, 1, 2]))

    def matrix(rows, cols):
        return [[[draw(_EDGE), draw(_EDGE)] for _ in range(cols)] for _ in range(rows)]

    doc = {"n": n, "m": m, "p": m, "A": matrix(n, n), "B": matrix(n, m),
           "C": matrix(m, n), "D": matrix(m, m)}
    if n and draw(st.booleans()):
        diag = [draw(st.one_of(_EDGE, st.floats(0.5, 2.0)).filter(lambda x: x > 0 and x != 1.0))
                for _ in range(n)]
        zero = st.sampled_from([0.0, -0.0])
        doc["W"] = [[[diag[i] if i == j else draw(zero), draw(zero)] for j in range(n)]
                    for i in range(n)]
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


def _assert_stored_as_read(M, pairs):
    """M, read as [re, im] pairs, holds the bits of the document's pairs, and
    M is float64 exactly when every imaginary part there is +0.0 bit for bit."""
    pairs = np.array(pairs, dtype=float)
    assert np.asarray(M, dtype=complex).tobytes() == pairs.tobytes()
    real = not pairs.reshape(-1, 2)[:, 1].view(np.uint64).any()
    assert M.dtype == (np.float64 if real else np.complex128)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_node_documents())
@example(doc=_SIGNED_ZERO_W_DOC)
def test_node_documents_round_trip_bit_exactly(doc):
    text = io.dumps_canonical(doc)
    node = io.node_from_dict(json.loads(text))
    assert io.dumps_canonical(io.node_to_dict(node)) == text
    for key in "ABCDW":
        if key in doc:
            _assert_stored_as_read(getattr(node, key), doc[key])


def _edge_matrix(draw, rows, cols):
    return [[[draw(_EDGE), draw(_EDGE)] for _ in range(cols)] for _ in range(rows)]


@st.composite
def _plant_documents(draw):
    """A plant document as plant_to_dict writes it, n0 = 0 included.

    A0 is a positive and M a nonnegative diagonal, with zeros of either sign
    elsewhere, so both are exactly self-adjoint and stored as they are.  B0
    comes in either orientation, n0 x m or m x n0.
    """
    n0 = draw(st.sampled_from([0, 1, 3]))
    count = st.sampled_from([0, 1, 2])
    zero = st.sampled_from([0.0, -0.0])

    def diagonal(entry):
        d = [draw(entry) for _ in range(n0)]
        return [[[d[i] if i == j else draw(zero), draw(zero)] for j in range(n0)]
                for i in range(n0)]

    doc = {"A0": diagonal(st.one_of(_EDGE, st.floats(0.5, 2.0)).filter(lambda x: x > 0)),
           "M": diagonal(st.one_of(_EDGE, st.floats(0.0, 2.0)).filter(lambda x: x >= 0)),
           "C0": _edge_matrix(draw, draw(count), n0)}
    if draw(st.booleans()):
        m = draw(count)
        doc["B0"] = _edge_matrix(draw, *((n0, m) if draw(st.booleans()) else (m, n0)))
    if draw(st.booleans()):
        doc["C1"] = _edge_matrix(draw, draw(count), n0)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_plant_documents())
def test_plant_documents_round_trip_bit_exactly(doc):
    text = io.dumps_canonical(doc)
    plant = io.plant_from_dict(json.loads(text))
    assert io.dumps_canonical(io.plant_to_dict(plant)) == text
    for key in doc:
        _assert_stored_as_read(getattr(plant, key), doc[key])


@st.composite
def _discrete_documents(draw):
    """A discrete document as discrete_to_dict writes it; p and m need not agree."""
    n = draw(st.sampled_from([0, 1, 3]))
    m, p = draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0, 1, 2]))
    return {"n": n, "m": m, "p": p,
            "Ad": _edge_matrix(draw, n, n), "Bd": _edge_matrix(draw, n, m),
            "Cd": _edge_matrix(draw, p, n), "Dd": _edge_matrix(draw, p, m),
            "alpha": [draw(_EDGE.filter(lambda x: x > 0)), draw(_EDGE)]}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_discrete_documents())
def test_discrete_documents_round_trip_bit_exactly(doc):
    text = io.dumps_canonical(doc)
    disc = io.discrete_from_dict(json.loads(text))
    assert io.dumps_canonical(io.discrete_to_dict(disc)) == text
    for key in ("Ad", "Bd", "Cd", "Dd"):
        _assert_stored_as_read(getattr(disc, key), doc[key])


def test_plant_files_round_trip_at_n0_zero(tmp_path):
    plant = SecondOrderPlant(A0=np.zeros((0, 0)), M=np.zeros((0, 0)), C0=np.zeros((2, 0)),
                             C1=np.zeros((1, 0)))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    io.save_plant(plant, first)
    assert json.loads(first.read_text())["A0"] == []
    loaded = io.load_plant(first)
    io.save_plant(loaded, second)
    assert second.read_text() == first.read_text()
    assert (loaded.n0, loaded.C0.shape, loaded.C1.shape) == (0, (2, 0), (1, 0))


def test_beam_file_is_a_fixed_point_of_save_and_load(tmp_path):
    beam, _ = beam_model(BeamParameters(n_modes=4))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    io.save_node(beam, first)
    loaded = io.load_node(first)
    io.save_node(loaded, second)
    assert second.read_text() == first.read_text()
    for key in "ABCDW":
        assert getattr(loaded, key).tobytes() == getattr(beam, key).tobytes()


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
    assert "error: InvalidTimeGrid:" in capsys.readouterr().err


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
_FUZZ_BASE = io.node_to_dict(
    StateSpaceNode([[-1.0, 0.5], [-0.5, -2.0]], [[1.0], [0.0]], [[1.0, 0.0]], [[1.0]])
)


@st.composite
def _fuzzed_node_documents(draw):
    """The base document with one to three entries replaced, sometimes a matrix too.

    Most replacements are [re, im] pairs of finite or non-finite floats and
    of integers up to 400 digits, so many documents reach certification.
    """
    doc = {key: [list(row) for row in val] if key in "ABCD" else val
           for key, val in _FUZZ_BASE.items()}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from("ABCD"))
        i = draw(st.integers(0, len(doc[key]) - 1))
        j = draw(st.integers(0, len(doc[key][0]) - 1))
        bad = draw(st.integers(0, 4)) == 0
        doc[key][i][j] = draw(_BAD_ENTRY) if bad else [draw(_REAL), draw(_REAL)]
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
