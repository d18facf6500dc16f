"""Invertibility decisions and input validation at the library and CLI boundary."""

import json

import numpy as np
import pytest

from passivenode import (
    BeamParameters,
    DiscreteSystem,
    SecondOrderPlant,
    StateSpaceNode,
    beam_model,
    check_impedance,
    closed_loop_spectrum_gate,
    io,
    linalg,
    minimal_E_esad,
    simulate,
)
from passivenode.cli import main
from passivenode.errors import (
    InvalidTimeGrid,
    InvalidTolerance,
    LambdaInOpenLoopSpectrum,
    NonFiniteMatrix,
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


# -- non-finite matrices ---------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
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


@pytest.mark.parametrize("T, steps", [(1.0, 0), (1.0, -3), (0.0, 10), (np.nan, 10)])
def test_simulate_rejects_bad_grid(T, steps, tmp_path, capsys):
    node = random_passive_node(0)
    with pytest.raises(InvalidTimeGrid):
        simulate(node, np.zeros(node.n), lambda t: np.zeros(node.m), T, steps=steps)
    path = _write(tmp_path, io.node_to_dict(node))
    assert main(["simulate", path, "--t-final", str(T), "--steps", str(steps)]) == 1
    assert "error: InvalidTimeGrid:" in capsys.readouterr().err
