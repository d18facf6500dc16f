"""Small numerical linear-algebra helpers shared across modules.

All subspace computations return orthonormal bases (columns) and make rank
decisions by thresholding singular values, so downstream intersection and
invariant-subspace logic stays robust for the desk-scale problems this
library targets: up to a few hundred states (the 100-mode beam has
n = 198).  Every routine here costs at most O(n^3).
"""

import os

import numpy as np

from .errors import NotSelfAdjoint, SingularResolvent

#: singular values below RCOND * sigma_max are treated as zero
RCOND = 1e-12

#: principal angles closer to zero than this count as a common direction
SUBSPACE_TOL = 1e-8


def base_tol():
    """Base relative tolerance; PASSIVE_NODE_TOL overrides the default."""
    return float(os.environ.get("PASSIVE_NODE_TOL", "1e-9"))


def psd_tol(form):
    """Scale-invariant PSD slack: a form passes if lambda_min >= -psd_tol."""
    return base_tol() * (1.0 + np.linalg.norm(form, 2))


def hermitize(M):
    """Self-adjoint part (M + M*)/2."""
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + M.conj().T)


def assert_hermitian(M, what="matrix"):
    M = np.asarray(M, dtype=complex)
    if np.linalg.norm(M - M.conj().T, 2) > base_tol() * (1.0 + np.linalg.norm(M, 2)):
        raise NotSelfAdjoint(f"{what} is not self-adjoint to tolerance")
    return hermitize(M)


def min_eig_herm(M):
    """Smallest eigenvalue of a self-adjoint matrix."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitize(M))[0])


def min_eig_with_vector(M):
    """Smallest eigenvalue and a corresponding unit eigenvector."""
    vals, vecs = np.linalg.eigh(hermitize(M))
    return float(vals[0]), vecs[:, 0]


def solve_resolvent(A, s, rhs):
    """Solve (sI - A) X = rhs, raising SingularResolvent near the spectrum."""
    n = A.shape[0]
    M = s * np.eye(n) - A
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= RCOND * max(1.0, sv[0]):
        raise SingularResolvent(f"s = {s} is in the spectrum of A to working precision")
    return np.linalg.solve(M, rhs)


def in_resolvent_set(A, s):
    """True when sI - A is invertible to working precision."""
    M = s * np.eye(A.shape[0]) - A
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[-1] > RCOND * max(1.0, sv[0])


def is_invertible(M, rtol=None):
    if M.size == 0:
        return True
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[-1] > (rtol or base_tol()) * max(1.0, sv[0])


def null_basis(M, rtol=SUBSPACE_TOL):
    """Orthonormal basis of the null space of M (columns; may be empty)."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=complex)
    _, sv, vh = np.linalg.svd(M)
    cutoff = rtol * max(1.0, sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


def orthonormalize(V, rtol=SUBSPACE_TOL):
    """Orthonormal basis of the column span of V."""
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    if V.shape[1] == 0:
        return V
    q, sv, _ = np.linalg.svd(V, full_matrices=False)
    rank = int(np.sum(sv > rtol * max(1.0, sv[0])))
    return q[:, :rank]


def subspace_intersection(Q1, Q2, tol=SUBSPACE_TOL):
    """Orthonormal basis of range(Q1) ∩ range(Q2) via principal angles."""
    if Q1.shape[1] == 0 or Q2.shape[1] == 0:
        return np.zeros((Q1.shape[0], 0), dtype=complex)
    u, sv, _ = np.linalg.svd(Q1.conj().T @ Q2)
    k = int(np.sum(sv >= 1.0 - tol))
    return orthonormalize(Q1 @ u[:, :k]) if k else np.zeros((Q1.shape[0], 0), dtype=complex)


def largest_invariant_in(Q, ops, tol=SUBSPACE_TOL):
    """Largest subspace of range(Q) mapped into itself by every op in ops.

    Computed as a complement: it is the orthogonal complement of the
    smallest subspace that contains range(Q)^perp and is invariant under
    every op*.  That subspace is grown by one deflated block-Krylov sweep,
    the orthogonal staircase of Paige (1981, "Properties of numerical
    algorithms related to computing controllability", IEEE TAC 26(1)) and
    Van Dooren (1981, "The generalized eigenstructure problem in linear
    system theory", IEEE TAC 26(1)): each step maps the newest block
    through every op*, orthogonalizes the images against the basis so far
    (twice, for stability) and keeps the directions above tol times the
    block's own largest singular value.  Each direction is found once, and
    the work per step is O(n^2) times the block width, so the sweep costs
    O(n^3) for a fixed number of ops.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=complex))
    n = Q.shape[0]
    adjoints = [op.conj().T for op in ops]
    V = null_basis(Q.conj().T, tol)
    new = V
    while new.shape[1] and V.shape[1] < n:
        W = np.hstack([op @ new for op in adjoints])
        for _ in range(2):
            W = W - V @ (V.conj().T @ W)
        u, sv, _ = np.linalg.svd(W, full_matrices=False)
        # relative to this block, not to ||op||: after deflation the images
        # of a stiff op can be small yet genuinely new
        new = u[:, : int(np.sum(sv > tol * max(1.0, sv[0])))]
        V = np.hstack([V, new])
    return null_basis(V.conj().T, tol)


def spectral_abscissa(A):
    if A.size == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def cholesky_weight(W):
    """Lower factor L with W = L L*."""
    return np.linalg.cholesky(hermitize(W))
