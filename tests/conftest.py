"""Shared fixtures and random-model generators for the test suite."""

import numpy as np
import pytest

from passivenode import StateSpaceNode, shift_feedthrough


def random_passive_node(seed, n=4, m=2, margin=0.05, weight=False, real=False):
    """Random impedance-passive node built from a PSD bounded form.

    Draws a positive-definite block matrix P and reads the realization off
    the identity [[-A-A*, C*-B], [C-B*, D+D*]] = P, adding independent
    skew parts to A and D (they do not affect the form).  With real, every
    matrix (W included) is real; the complex draws are unchanged by it.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        X = rng.standard_normal(shape)
        return X if real else X + 1j * rng.standard_normal(shape)

    L = draw((n + m, n + m))
    P = L @ L.conj().T + margin * np.eye(n + m)
    S = draw((n, n))
    skew = 0.5 * (S - S.conj().T)
    A = skew - 0.5 * P[:n, :n]
    B = draw((n, m))
    C = (P[:n, n:] + B).conj().T
    Sd = draw((m, m))
    D = 0.5 * P[n:, n:] + 0.5 * (Sd - Sd.conj().T)
    if not weight:
        return StateSpaceNode(A, B, C, D)
    R = draw((n, n))
    W = R @ R.conj().T + 0.5 * np.eye(n)
    Lh = np.linalg.cholesky(W).conj().T
    # pull the orthonormal-coordinate triple back to x = L^-* x~ coordinates
    Ao = np.linalg.solve(Lh, A) @ Lh
    Bo = np.linalg.solve(Lh, B)
    Co = C @ Lh
    return StateSpaceNode(Ao, Bo, Co, D, W=W)


def assert_derived_on(derived, parent):
    """derived shares parent's W and its factor, and its orthonormal copy is
    read-only and bit for bit a fresh build's, dtype included."""
    assert derived.W is parent.W and derived._chol is parent._chol
    fresh = StateSpaceNode(derived.A, derived.B, derived.C, derived.D, W=derived.W).orthonormal
    for M, X in zip(derived.orthonormal, fresh):
        assert not M.flags.writeable
        assert (M.dtype, M.shape, M.tobytes()) == (X.dtype, X.shape, X.tobytes())


def dense_change(n, seed):
    """The seeded change of coordinates T = I + 0.1 G / sqrt(n), G standard normal."""
    return np.eye(n) + 0.1 * np.random.default_rng(seed).standard_normal((n, n)) / np.sqrt(n)


def dense_coordinates(node, seed):
    """node in the coordinates x = T x' of T = dense_change(n, seed): the
    same system, with the dense weight W' = T* W T."""
    T = dense_change(node.n, seed)
    Ti = np.linalg.inv(T)
    return StateSpaceNode(Ti @ node.A @ T, Ti @ node.B, node.C @ T, node.D,
                          W=T.conj().T @ node.W @ T, meta=node.meta)


def random_nonpassive_node(seed, n=4, m=2):
    """Passive node spoiled by a negative feedthrough shift.

    The shift exceeds half the top eigenvalue of D + D*, so the bounded
    impedance form is guaranteed indefinite afterwards.
    """
    rng = np.random.default_rng(seed + 900)
    node = random_passive_node(seed, n, m)
    D = np.asarray(node.D)
    delta = 0.5 * np.linalg.eigvalsh(D + D.conj().T)[-1] + 0.05 + rng.uniform(0.0, 2.0)
    return shift_feedthrough(node, -delta * np.eye(m))


def random_mixed_node(seed, n=4, m=2):
    """Alternately passive and non-passive, for equivalence sweeps."""
    if seed % 2:
        return random_nonpassive_node(seed, n, m)
    return random_passive_node(seed, n, m, weight=(seed % 4 == 0))


def random_contraction_colocated(seed, n=4, m=2):
    """Contraction-generator node with C = B* and D + D* >= 0."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = 0.5 * (S - S.conj().T)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = skew - 0.5 * (G @ G.conj().T)
    B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    H = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Sd = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    D = 0.5 * (H @ H.conj().T) + 0.5 * (Sd - Sd.conj().T)
    return StateSpaceNode(A, B, B.conj().T, D)


def random_almost_passive(seed, n=4, m=2, weight=False):
    """Almost-passive node and a shift E with Sigma_E passive and c > 0.

    Returns (node, E); E has at least one positive eigenvalue so the
    admissible gain interval (0, 1/||E^+||) is finite.
    """
    rng = np.random.default_rng(seed + 4321)
    base = random_passive_node(seed, n, m, weight=weight)
    H = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    E = 0.5 * (H + H.conj().T) + 0.3 * np.eye(m)
    vals = np.linalg.eigvalsh(E)
    if vals[-1] <= 0.1:
        E = E + (0.1 - vals[-1]) * np.eye(m)
    return shift_feedthrough(base, -E), E


def conditioned_rank_deficient_node(seed, n=6, m=2):
    """Node whose bounded impedance form is PSD of rank 3, so E_min = 0 exactly,
    moved by a similarity x -> Tx with cond(T) = 1e4.

    The form [[-A-A*, C*-B], [C-B*, D+D*]] = F = GG* (G is (n + m) x 3), so
    C - B* vanishes on ker(A + A*) only up to the rounding that
    W = T^-* T^-1, with cond(W) = cond(T)^2, leaves in the orthonormal copy.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    G = draw((n + m, 3))
    F = G @ G.conj().T
    S = draw((n, n))
    A = -0.5 * F[:n, :n] + 0.5 * (S - S.conj().T)
    B = draw((n, m))
    C = B.conj().T + F[n:, :n]
    Sd = draw((m, m))
    D = 0.5 * F[n:, n:] + 0.5 * (Sd - Sd.conj().T)
    Q1, Q2 = np.linalg.qr(draw((n, n)))[0], np.linalg.qr(draw((n, n)))[0]
    T = Q1 @ np.diag(np.logspace(0.0, 4.0, n)) @ Q2
    Ti = np.linalg.inv(T)
    return StateSpaceNode(T @ A @ Ti, T @ B, C @ Ti, D, W=Ti.conj().T @ Ti)


def esad_colocated_node(seed, n=5, m=2, skew_only=False):
    """ESAD node with C = B*: A = skew - Q/2, Q >= 0 (Q = 0 if skew_only)."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = 0.5 * (S - S.conj().T)
    A = skew
    if not skew_only:
        G = rng.standard_normal((n, n))
        A = skew - 0.5 * (G @ G.T)
    B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    D = 0.3 * rng.standard_normal((m, m))
    return StateSpaceNode(A, B, B.conj().T, D)


def selfadjoint_colocated_node(seed, n=5, m=2):
    """Self-adjoint dissipative A with C = B*."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = -(G @ G.T) - 0.1 * np.eye(n)
    B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    D = 0.3 * rng.standard_normal((m, m))
    return StateSpaceNode(A, B, B.conj().T, D)


def random_second_order(seed, n0=5, p=2, with_B0=False, with_C1=False):
    """Random SecondOrderPlant data with A0 > 0 and M > 0."""
    from passivenode import SecondOrderPlant

    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n0, n0))
    A0 = G @ G.T + 0.5 * np.eye(n0)
    H = rng.standard_normal((n0, n0))
    M = H @ H.T + 0.3 * np.eye(n0)
    C0 = rng.standard_normal((p, n0))
    B0 = rng.standard_normal((n0, p)) if with_B0 else None
    C1 = rng.standard_normal((p, n0)) if with_C1 else None
    return SecondOrderPlant(A0=A0, M=M, C0=C0, B0=B0, C1=C1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
