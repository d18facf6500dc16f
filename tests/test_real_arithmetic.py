"""A real node runs in real arithmetic, and agrees with a complex copy of itself.

The complex copy is the phase similarity P = diag(e^{i theta_k}):
(P*AP, P*B, CP, D) with W = P*WP.  It has the transfer function and the
passivity and stability properties of the real node, but complex A, B
and C, so it takes the complex path everywhere.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivenode import (
    BeamParameters,
    StateSpaceNode,
    adversarial_input,
    beam_model,
    check_impedance,
    check_scattering,
    energy_audit,
    io,
    minimal_E,
    positive_part,
    simulate,
    stabilizing_feedback,
    stability_verdict,
)
from passivenode.passivity import impedance_block_bounded, scattering_block_bounded

#: relative agreement of eigenvalues between the real and the complex path
RTOL = 1e-8
EPS = np.finfo(float).eps


def _phases(n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0.1, 2.0 * np.pi - 0.1, n))


def _phase_copy(node, seed):
    P = np.diag(_phases(node.n, seed))
    Ph = P.conj().T
    return StateSpaceNode(Ph @ node.A @ P, Ph @ node.B, node.C @ P, node.D,
                          W=Ph @ node.W @ P)


def _real_passive_node(seed, n, m=2, weight=False):
    """Real impedance-passive node read off a positive-definite bounded form."""
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((n + m, n + m))
    P = L @ L.T + 0.05 * np.eye(n + m)
    S = rng.standard_normal((n, n))
    A = 0.5 * (S - S.T) - 0.5 * P[:n, :n]
    B = rng.standard_normal((n, m))
    C = (P[:n, n:] + B).T
    D = 0.5 * P[n:, n:]
    if not weight:
        return StateSpaceNode(A, B, C, D)
    R = rng.standard_normal((n, n))
    Lh = np.linalg.cholesky(R @ R.T + 0.5 * np.eye(n)).T
    return StateSpaceNode(np.linalg.solve(Lh, A) @ Lh, np.linalg.solve(Lh, B), C @ Lh, D,
                          W=Lh.T @ Lh)


def _real_hidden_mode_node(seed, n, k):
    """Real passive block plus k undamped, unobserved, unactuated 2 x 2
    rotations, conjugated by a random orthogonal matrix."""
    rng = np.random.default_rng(seed + 1)
    base = _real_passive_node(seed, n - 2 * k)
    A = np.zeros((n, n))
    A[: n - 2 * k, : n - 2 * k] = base.A.real
    for j, w in enumerate(rng.uniform(0.3, 3.0, size=k)):
        i = n - 2 * k + 2 * j
        A[i, i + 1], A[i + 1, i] = w, -w
    B = np.vstack([base.B.real, np.zeros((2 * k, base.m))])
    C = np.hstack([base.C.real, np.zeros((base.p, 2 * k))])
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return StateSpaceNode(U @ A @ U.T, U @ B, C @ U.T, base.D)


def _node(kind, seed):
    if kind == "beam":
        return beam_model(BeamParameters(n_modes=(4, 12, 50)[seed % 3]))[0]
    if kind == "passive":
        return _real_passive_node(seed, 3 + seed % 8, weight=seed % 2 == 1)
    return _real_hidden_mode_node(seed, 6 + seed % 6, 1 + seed % 2)


def _close(a, b, M):
    """a and b, eigenvalues of M on the two paths, agree to RTOL relative,
    or to the round-off 100 eps ||M||_2 of an eigenvalue of M when both are
    that close to 0."""
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + 100 * EPS * np.linalg.norm(M, 2)


def _certificates_agree(cert, twin, form):
    assert cert.verdict is twin.verdict
    assert _close(cert.min_eigenvalue, twin.min_eigenvalue, form)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["beam", "passive", "hidden"]), seed=st.integers(0, 10**6))
@example(kind="beam", seed=0)
@example(kind="beam", seed=1)
@example(kind="beam", seed=2)
def test_real_and_complex_paths_agree(kind, seed):
    node = _node(kind, seed)
    twin = _phase_copy(node, seed)
    # the real node takes the real path, its complex copy the complex one
    assert all(M.dtype == np.float64 for M in node.orthonormal)
    assert twin.orthonormal[0].dtype == np.complex128
    # the real node stores float64; its copy stores complex A, B and C (D is shared)
    for M in (node.A, node.B, node.C, node.D, node.W):
        assert M.dtype == np.float64
    for M in (twin.A, twin.B, twin.C):
        assert M.dtype == np.complex128

    _certificates_agree(check_impedance(node), check_impedance(twin),
                        impedance_block_bounded(node))
    _certificates_agree(check_scattering(node), check_scattering(twin),
                        scattering_block_bounded(node))

    E = minimal_E(node)
    assert np.linalg.norm(E - minimal_E(twin), 2) <= RTOL * (1.0 + np.linalg.norm(E, 2))

    c = positive_part(E)[1]
    kappa = 1.0 if c == 0.0 else 0.9 / c
    report, syn = stability_verdict(node, E, kappa)
    report_twin, _ = stability_verdict(twin, E, kappa)
    d, d_twin = report.as_dict(), report_twin.as_dict()
    for key in ("verdict", "cweak_holds", "bweak_holds", "dim_unobservable",
                "dim_uncontrollable_dual", "dim_unitary"):
        assert d[key] == d_twin[key], key
    Acl = syn.scattering_intermediate.orthonormal[0]
    assert Acl.dtype == report.unobservable_basis.dtype == np.float64
    assert _close(report.closed_loop_max_real, report_twin.closed_loop_max_real, Acl)


def test_the_beam_and_its_closed_loop_are_stored_real():
    node, E_min = beam_model(BeamParameters(n_modes=12))
    assert all(M.dtype == np.float64 for M in (node.A, node.B, node.C, node.D, node.W, E_min))
    syn = stabilizing_feedback(node, E_min, 1.0)
    for loop in (syn.closed_loop, syn.scattering_intermediate):
        assert all(M.dtype == np.float64 for M in (loop.A, loop.B, loop.C, loop.D, loop.W))
    # stored real, the file writes every matrix as rows of plain numbers
    doc = io.node_to_dict(node)
    for key in "ABCDW":
        M = getattr(node, key)
        assert len(doc[key]) == M.shape[0]
        assert all(len(row) == M.shape[1] and all(type(x) is float for x in row)
                   for row in doc[key])
        assert np.array(doc[key]).tobytes() == M.tobytes()


@pytest.mark.parametrize("kind, seed", [("beam", 0), ("beam", 1), ("passive", 3),
                                        ("passive", 4), ("hidden", 5)])
def test_real_trajectories_are_float64_and_agree_with_the_complex_copy(kind, seed):
    node = _node(kind, seed)
    twin = _phase_copy(node, seed)
    z0 = np.random.default_rng(seed).standard_normal(node.n)
    u = lambda t: np.array([np.cos(t), np.sin(2.0 * t) - 0.5])
    traj = simulate(node, z0, u, 2.0, steps=200)
    assert traj.states.dtype == traj.inputs.dtype == traj.outputs.dtype == np.float64
    # the copy's coordinates are P* z, with P = diag(phases)
    phases = _phases(node.n, seed)
    twin_traj = simulate(twin, phases.conj() * z0, u, 2.0, steps=200)
    assert twin_traj.states.dtype == np.complex128
    states = traj.states * phases.conj()
    assert np.abs(twin_traj.states - states).max() <= 1e-12 * np.abs(states).max()
    assert np.abs(twin_traj.outputs - traj.outputs).max() <= 1e-12 * np.abs(traj.outputs).max()
    defect = energy_audit(traj, W=node.W).defect
    twin_defect = energy_audit(twin_traj, W=twin.W).defect
    assert np.abs(twin_defect - defect).max() <= 1e-12 * np.abs(defect).max()


def test_adversarial_input_of_a_real_node_is_real():
    node = _real_passive_node(2, 4, weight=True)
    node = StateSpaceNode(node.A, node.B, node.C, node.D - 2.0 * np.eye(2), W=node.W)
    z0, u0, _ = adversarial_input(node, amplitude=2.0)
    assert z0.dtype == u0.dtype == np.float64
    traj = simulate(node, z0, lambda t: u0, 0.2, steps=200)
    assert traj.states.dtype == np.float64
    assert not energy_audit(traj, W=node.W).passed
