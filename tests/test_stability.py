"""Subspace computations and stability verdicts."""

import numpy as np
import pytest

from passivenode import (
    BeamParameters,
    StateSpaceNode,
    beam_model,
    benchimol_conditions,
    closed_loop_spectrum_gate,
    stability_verdict,
    unitary_subspace,
    unobservable_space,
)
from passivenode import linalg
from passivenode.errors import LambdaInOpenLoopSpectrum, NotContraction
from passivenode.stability import StabilityVerdict, uncontrollable_dual_space

from conftest import random_almost_passive, random_passive_node


def _augment_dark_mode(node, omega):
    """Append a decoupled undamped, unobservable, uncontrollable mode."""
    n = node.n
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = node.A
    A[n, n] = 1j * omega
    B = np.vstack([node.B, np.zeros((1, node.m))])
    C = np.hstack([node.C, np.zeros((node.p, 1))])
    return StateSpaceNode(A, B, C, node.D)


def _hidden_mode_node(seed, n, k):
    """Passive block of size n - k plus k decoupled, unobserved, unactuated
    undamped modes (the first two at one repeated frequency), conjugated by a
    random unitary so no coordinate axis lines up with the hidden modes."""
    rng = np.random.default_rng(seed)
    base = random_passive_node(seed, n=n - k)
    freqs = rng.uniform(0.3, 3.0, size=k)
    freqs[1:2] = freqs[0]
    A = np.zeros((n, n), dtype=complex)
    A[: n - k, : n - k] = base.A
    A[n - k :, n - k :] = np.diag(1j * freqs)
    B = np.vstack([base.B, np.zeros((k, base.m))])
    C = np.hstack([base.C, np.zeros((base.p, k))])
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return StateSpaceNode(U @ A @ U.conj().T, U @ B, C @ U.conj().T, base.D)


def _assert_invariant(V, ops):
    P = np.eye(V.shape[0]) - V @ V.conj().T
    for op in ops:
        assert np.linalg.norm(P @ op @ V, 2) <= 1e-8 * (1.0 + np.linalg.norm(op, 2))


def test_largest_invariant_in_edge_shapes():
    A = np.diag([-1.0, -2.0, 1j])
    assert linalg.largest_invariant_in(np.zeros((0, 0)), [np.zeros((0, 0))]).shape == (0, 0)
    assert linalg.largest_invariant_in(np.zeros((3, 0)), [A]).shape == (3, 0)
    # C = 0: ker C is C^n, which every op leaves invariant
    node = StateSpaceNode(A, np.ones((3, 1)), np.zeros((1, 3)), [[0.0]])
    assert unobservable_space(node).shape == (3, 3)
    # a zero op maps everything to 0, which lies in any subspace
    Q = np.eye(3)[:, :2]
    V = linalg.largest_invariant_in(Q, [np.zeros((3, 3))])
    assert V.shape == (3, 2)
    assert np.linalg.norm(V - Q @ (Q.T @ V)) < 1e-12


def test_hidden_mode_subspaces_have_known_dimension():
    for n, seed in [(6, 0), (9, 1), (14, 2)]:
        for k in range(1, n // 2 + 1):
            node = _hidden_mode_node(100 * n + 10 * seed + k, n, k)
            A, B, C, _ = node.orthonormal
            N = unobservable_space(node)
            Nd = uncontrollable_dual_space(node)
            Xu = unitary_subspace(node)
            assert (N.shape[1], Nd.shape[1], Xu.shape[1]) == (k, k, k)
            _assert_invariant(N, [A])
            _assert_invariant(Nd, [A.conj().T])
            _assert_invariant(Xu, [A, A.conj().T])
            assert np.linalg.norm(C @ N, 2) <= 1e-8 * (1.0 + np.linalg.norm(C, 2))
            assert np.linalg.norm(B.conj().T @ Nd, 2) <= 1e-8 * (1.0 + np.linalg.norm(B, 2))


def test_beam_100_modes_strongly_stable_with_trivial_subspaces():
    node, E = beam_model(BeamParameters(n_modes=100))
    report, _ = stability_verdict(node, E, 1.0)
    d = report.as_dict()
    assert (d["dim_unobservable"], d["dim_uncontrollable_dual"], d["dim_unitary"]) == (0, 0, 0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE


def test_unobservable_space_oracle():
    # second state neither observed nor fed back into the first
    A = np.diag([-1.0, -2.0])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    node = StateSpaceNode(A, B, C, np.zeros((1, 1)))
    N = unobservable_space(node)
    assert N.shape[1] == 1
    assert abs(N[1, 0]) == pytest.approx(1.0)
    Nd = uncontrollable_dual_space(node)
    assert Nd.shape[1] == 1


def test_unobservable_space_trivial_for_observable_pair():
    node = random_passive_node(0)
    assert unobservable_space(node).shape[1] == 0


def test_unitary_subspace_strictly_dissipative_is_trivial():
    A = -np.eye(3)
    node = StateSpaceNode(A, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)))
    assert unitary_subspace(node).shape[1] == 0


def test_unitary_subspace_skew_block():
    # skew 2x2 block is unitary; damped scalar block is not
    A = np.zeros((3, 3))
    A[0, 1], A[1, 0] = 2.0, -2.0
    A[2, 2] = -1.0
    node = StateSpaceNode(A, np.zeros((3, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
    Xu = unitary_subspace(node)
    assert Xu.shape[1] == 2
    assert np.max(np.abs(Xu[2, :])) < 1e-10


def test_unitary_subspace_rejects_expansive():
    node = StateSpaceNode([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NotContraction):
        unitary_subspace(node)


def test_spectrum_gate():
    # G(s) = 1/(s+1), K = 2: closed-loop pole at s = 1 (1 - 2G(1) = 0)
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert not closed_loop_spectrum_gate(node, [[2.0]], 1.0)
    assert closed_loop_spectrum_gate(node, [[2.0]], 2.0)
    with pytest.raises(LambdaInOpenLoopSpectrum):
        closed_loop_spectrum_gate(node, [[2.0]], -1.0)


def test_undamped_oscillator_strongly_stabilized():
    # lossless oscillator with colocated rate sensing, kappa = 1
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    W = np.diag([4.0, 1.0])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.0, 1.0]])
    node = StateSpaceNode(A, B, C, np.zeros((1, 1)), W=W)
    report, syn = stability_verdict(node, np.zeros((1, 1)), 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert report.closed_loop_hurwitz
    # closed loop is A - BC here: eigenvalues of [[0,1],[-4,-1]]
    ev = np.sort_complex(np.linalg.eigvals(np.asarray(syn.closed_loop.A)))
    ref = np.sort_complex(np.linalg.eigvals(A - B @ C))
    assert np.linalg.norm(ev - ref) < 1e-12


def test_almost_passive_suite_strongly_stable_and_hurwitz():
    for seed in range(10):
        node, E = random_almost_passive(seed, weight=(seed % 3 == 0))
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        report, _ = stability_verdict(node, E, kappa)
        assert report.cweak_holds or report.bweak_holds
        assert report.verdict is StabilityVerdict.STRONGLY_STABLE
        assert report.closed_loop_max_real < -1e-10


def test_dark_mode_retains_imaginary_eigenvalue():
    for seed, omega in [(0, 1.3), (1, 2.7), (2, 0.4)]:
        base, E = random_almost_passive(seed)
        node = _augment_dark_mode(base, omega)
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        report, _ = stability_verdict(node, E, kappa)
        assert not report.cweak_holds and not report.bweak_holds
        assert report.verdict is StabilityVerdict.NOT_STABLE
        residual = min(abs(lam - 1j * omega) for lam in report.closed_loop_imaginary_spectrum)
        assert residual < 1e-8


def test_benchimol_conditions_shapes():
    node, E = random_almost_passive(4)
    from passivenode import stabilizing_feedback

    syn = stabilizing_feedback(node, E, 0.5 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None)))
    cweak, bweak, N, Nd, Xu = benchimol_conditions(syn.scattering_intermediate)
    assert N.shape[0] == node.n and Nd.shape[0] == node.n and Xu.shape[0] == node.n
    assert cweak and bweak
