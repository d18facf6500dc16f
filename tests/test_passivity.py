"""Passivity certificates, minimal shifts, positive part."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivenode import (
    SecondOrderPlant,
    StateSpaceNode,
    build_colocated,
    check_impedance,
    check_impedance_reciprocal,
    check_scattering,
    minimal_E,
    minimal_E_colocated_at,
    minimal_E_esad,
    minimal_E_selfadjoint,
    positive_part,
    shift_feedthrough,
    unitary_subspace,
)
from passivenode import io, linalg, passivity
from passivenode.cli import main
from passivenode.errors import (
    ASSViolated,
    NotAlmostPassive,
    NotColocated,
    NotESAD,
    NotSelfAdjointDissipative,
    NotSquare,
    OmegaInSpectrum,
    PassiveNodeError,
)

from conftest import (
    esad_colocated_node,
    random_almost_passive,
    random_nonpassive_node,
    random_passive_node,
    random_second_order,
    selfadjoint_colocated_node,
)


def test_passive_certificate_positive():
    for seed in range(10):
        node = random_passive_node(seed, weight=(seed % 2 == 0))
        cert = check_impedance(node)
        assert cert.passive
        assert cert.min_eigenvalue > -1e-9


def test_nonpassive_certificate_negative_with_witness():
    for seed in range(10):
        node = random_nonpassive_node(seed)
        cert = check_impedance(node)
        assert not cert.passive
        assert cert.min_eigenvalue < 0
        assert cert.witness is not None
        assert cert.witness.shape == (node.n + node.m,)


def test_impedance_requires_square():
    node = random_passive_node(0)
    tall = StateSpaceNode(node.A, node.B, np.vstack([node.C, node.C]), np.vstack([node.D, node.D]))
    with pytest.raises(NotSquare):
        check_impedance(tall)


def test_form_point_in_spectrum_raises():
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(OmegaInSpectrum):
        passivity.impedance_form_at(node, -1.0)


def test_scattering_contraction_oracle():
    # G(s) = 1/(s+1): scattering passive; G(s) = 2/(s+1): not (gain 2 at 0)
    ok = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    bad = StateSpaceNode([[-1.0]], [[1.0]], [[2.0]], [[0.0]])
    assert check_scattering(ok).passive
    assert not check_scattering(bad).passive


def test_lossless_oscillator_impedance_passive():
    # undamped oscillator with colocated rate sensing: lossless, passive
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    W = np.diag([4.0, 1.0])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.0, 1.0]])
    node = StateSpaceNode(A, B, C, np.zeros((1, 1)), W=W)
    assert check_impedance(node).passive


def test_reciprocal_form_matches_bounded_form():
    for seed in range(8):
        node = random_passive_node(seed)
        E = np.zeros((node.m, node.m))
        assert check_impedance_reciprocal(node, E, 0.0).passive
        bad = random_nonpassive_node(seed)
        assert not check_impedance_reciprocal(bad, E, 0.0).passive


def test_reciprocal_omega_in_spectrum():
    A = np.array([[0.0, 2.0], [-2.0, 0.0]])  # eigenvalues +-2i
    node = StateSpaceNode(A, np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(OmegaInSpectrum):
        check_impedance_reciprocal(node, np.zeros((1, 1)), 2.0)


def test_minimal_E_esad_s_independent_and_tight():
    for seed in range(5):
        node = esad_colocated_node(seed)
        Es = [minimal_E_esad(node, s) for s in (1.0, 2.0 + 1.0j, 0.5 - 0.3j, 5.0, 3.0 + 2.0j)]
        spread = max(np.linalg.norm(Es[0] - E, 2) for E in Es[1:])
        assert spread < 1e-8
        E = Es[0]
        assert check_impedance(shift_feedthrough(node, E)).passive
        assert not check_impedance(
            shift_feedthrough(node, E - 1e-3 * np.eye(node.m))
        ).passive


def test_minimal_E_esad_rejects_bad_structure():
    expanding = StateSpaceNode([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NotESAD):
        minimal_E_esad(expanding)
    node = esad_colocated_node(0)
    non_col = StateSpaceNode(node.A, node.B, 2.0 * np.asarray(node.C), node.D)
    with pytest.raises(NotColocated):
        minimal_E_esad(non_col)


def test_minimal_E_skew_matches_feedthrough_identity():
    # for skew A the shift reduces to -(D + D*)/2
    for seed in range(5):
        node = esad_colocated_node(seed, skew_only=True)
        E = minimal_E_esad(node, 1.7 + 0.4j)
        D = np.asarray(node.D)
        assert np.linalg.norm(2.0 * E + D + D.conj().T, 2) < 1e-10


def test_minimal_E_selfadjoint_s_independent_and_tight():
    for seed in range(5):
        node = selfadjoint_colocated_node(seed)
        Es = [minimal_E_selfadjoint(node, s) for s in (1.0, 2.0 + 1.0j, 0.5, 4.0 - 1.0j)]
        spread = max(np.linalg.norm(Es[0] - E, 2) for E in Es[1:])
        assert spread < 1e-8
        E = Es[0]
        assert check_impedance(shift_feedthrough(node, E)).passive
        assert not check_impedance(
            shift_feedthrough(node, E - 1e-3 * np.eye(node.m))
        ).passive


def test_minimal_E_selfadjoint_rejects_nonhermitian():
    node = esad_colocated_node(3, skew_only=True)
    with pytest.raises(NotSelfAdjointDissipative):
        minimal_E_selfadjoint(node)


def test_minimal_E_colocated_at_omega():
    # skew A with C = B* satisfies the resolvent-colocation identity at
    # every omega; the result agrees with the ESAD formula
    node = esad_colocated_node(1, skew_only=True)
    E_omega = minimal_E_colocated_at(node, 0.5)
    E_ref = minimal_E_esad(node, 2.0)
    assert np.linalg.norm(E_omega - E_ref, 2) < 1e-10


def test_minimal_E_colocated_rejects_violation():
    node = random_passive_node(0)  # generic node: identity fails
    with pytest.raises(ASSViolated):
        minimal_E_colocated_at(node, 0.3)


def test_minimal_E_rejects_non_square(tmp_path, capsys):
    # p = 1, m = 2: C - B* would broadcast to 2 x 1 instead of failing
    node = StateSpaceNode([[-1.0]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]])
    for fn in (minimal_E, minimal_E_esad, minimal_E_selfadjoint):
        with pytest.raises(NotSquare):
            fn(node)
    with pytest.raises(NotSquare):
        minimal_E_colocated_at(node, 0.0)
    path = tmp_path / "node.json"
    io.save_node(node, path)
    assert main(["minimal-e", str(path), "--method", "esad"]) == 1
    assert "error: NotSquare:" in capsys.readouterr().err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([0, 1, 3, 5]),
       m=st.integers(1, 3), weight=st.booleans())
def test_minimal_E_is_least_passivating_shift(seed, n, m, weight):
    node, _ = random_almost_passive(seed, n=n, m=m, weight=weight)
    E = minimal_E(node)
    assert np.allclose(E, E.conj().T)
    assert check_impedance(shift_feedthrough(node, E)).passive
    assert not check_impedance(shift_feedthrough(node, E - 1e-3 * np.eye(m))).passive


def test_minimal_E_none_when_undamped_and_noncolocated():
    # M = 0 makes A skew in the energy inner product, so ker Q is the whole
    # state space, and C - B* = [0, C0 - B0*] does not vanish on it
    plant = random_second_order(0, with_B0=True)
    undamped = SecondOrderPlant(A0=plant.A0, M=np.zeros((plant.n0, plant.n0)), C0=plant.C0)
    col, _ = build_colocated(undamped)
    B = np.vstack([np.zeros((plant.n0, 2)), plant.B0])
    node = StateSpaceNode(col.A, B, col.C, col.D, W=col.W)
    with pytest.raises(NotAlmostPassive, match="nonzero on ker"):
        minimal_E(node)


def test_minimal_E_colocated_at_without_dissipation_raises():
    # C = B*(iwI + A*)^-1 (iwI - A) satisfies the resolvent-colocation
    # identity at omega for any A; with A + A* indefinite no shift exists
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) + np.diag([1.0, 0.0, -1.0])
    B = rng.standard_normal((3, 2))
    omega = 0.7
    C = B.T @ np.linalg.solve(1j * omega * np.eye(3) + A.T, 1j * omega * np.eye(3) - A)
    node = StateSpaceNode(A, B, C, rng.standard_normal((2, 2)))
    assert np.linalg.eigvalsh(A + A.T)[-1] > 0
    with pytest.raises(NotAlmostPassive, match="eigenvalue"):
        minimal_E_colocated_at(node, omega)


def test_selfadjoint_class_check_agrees_with_minimal_E():
    # a slightly positive eigenvalue of A is caught by the class check, with
    # the same Q >= 0 test the formula makes
    B = np.array([[1.0], [1.0]])
    node = StateSpaceNode(np.diag([-1.0, 5e-9]), B, B.T, [[0.0]])
    with pytest.raises(NotSelfAdjointDissipative):
        minimal_E_selfadjoint(node)
    with pytest.raises(NotAlmostPassive):
        minimal_E(node)


def _decides(call):
    """True when call() returns, False when it raises a PassiveNodeError."""
    try:
        call()
    except PassiveNodeError:
        return False
    return True


@pytest.mark.parametrize("tol", [None, "1e-11", "1e-7"])
@pytest.mark.parametrize("f", [-3.0, 0.3, 3.0])
def test_one_sign_rule_for_every_decision(f, tol, monkeypatch):
    # A = diag(-1, f*tol), C = B*, D = 0: Q = -(A + A*) = diag(2, -2f*tol)
    # has lambda_min >= -tol * (1 + ||Q||) exactly when f <= 1.5, so the
    # certificate, every minimal-E function and the contraction check of
    # unitary_subspace answer alike, whatever PASSIVE_NODE_TOL is
    if tol is None:
        monkeypatch.delenv("PASSIVE_NODE_TOL", raising=False)
    else:
        monkeypatch.setenv("PASSIVE_NODE_TOL", tol)
    B = np.array([[1.0], [1.0]])
    node = StateSpaceNode(np.diag([-1.0, f * linalg.base_tol()]), B, B.T, [[0.0]])
    decisions = {
        "check_impedance": check_impedance(node).passive,
        "minimal_E": _decides(lambda: minimal_E(node)),
        "minimal_E_esad": _decides(lambda: minimal_E_esad(node)),
        "minimal_E_selfadjoint": _decides(lambda: minimal_E_selfadjoint(node)),
        "unitary_subspace": _decides(lambda: unitary_subspace(node)),
    }
    assert decisions == dict.fromkeys(decisions, f <= 0.3)


def test_positive_part():
    E = np.diag([2.0, -1.0, 0.5])
    Eplus, c, kappa0 = positive_part(E)
    assert np.allclose(Eplus, np.diag([2.0, 0.0, 0.5]))
    assert c == pytest.approx(2.0)
    assert kappa0 == pytest.approx(0.5)
    vals = np.linalg.eigvalsh(Eplus - E)
    assert vals[0] > -1e-12  # E+ >= E
    Ez, cz, kz = positive_part(-np.eye(2))
    assert cz == 0.0 and np.isinf(kz) and np.allclose(Ez, 0.0)

