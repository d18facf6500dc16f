"""Small numerical linear-algebra helpers shared across modules.

Every invertibility decision (s in rho(A), I + kD, I - KD, Ad + I, M) is
made by :func:`checked_inv`, which forms the inverse once for the caller to
reuse.  For s in rho(A) of a node its one caller is ``node.resolvent``,
which inverts the W-orthonormal sI - A.  M is singular when LAPACK finds a
zero pivot, M^-1 is not finite, or RCOND * max(1, ||M||_1) * ||M^-1||_1 >= 1
(sigma_min <= RCOND * max(1, sigma_max) in 1-norms, equal up to a factor
n).  RCOND is fixed; PASSIVE_NODE_TOL does not change it.

All subspace computations return orthonormal bases (columns) and make rank
decisions by thresholding singular values at the one relative tolerance
SUBSPACE_TOL, so the invariant-subspace logic behind the stability verdict
stays robust for the desk-scale problems this library targets: up to a
few hundred states (the 100-mode beam has n = 198).  Every routine here
costs at most O(n^3).
"""

import os

import numpy as np

from .errors import DimensionMismatch, InvalidTolerance, NonFiniteMatrix, NotSelfAdjoint

#: M counts as singular when RCOND * max(1, ||M||_1) * ||M^-1||_1 >= 1
RCOND = 1e-12

#: singular values below this (relative) count as zero in every subspace
#: rank decision, and so in the stability verdict
SUBSPACE_TOL = 1e-8

#: slack, relative to 1 + ||A|| (plus ||B||^2 + ||C||^2 where they enter),
#: for "A + A* <= 0" and the dissipation inequalities of a contraction
CONTRACTION_TOL = 1e-8

#: slack, relative to 1 + ||A|| or 1 + ||B||, for the structural identities
#: A = A* and C = B* of the minimal-E class checks, and for C - B* = 0 on
#: ker(A + A*) in the minimal-E formula
STRUCTURE_TOL = 1e-9

#: slack, relative to 1 + ||Q||, for the dissipation Q = -(A + A*) >= 0 of
#: the minimal-E formula and its class checks, and for the damping M >= 0 of
#: a second-order plant
DISSIPATION_TOL = 1e-10

#: slack, relative to 1 + ||C(iwI - A)^-1||, for the resolvent-colocation
#: identity B*(iwI + A*)^-1 = C(iwI - A)^-1
COLOCATION_TOL = 1e-8

#: open-loop eigenvalues within IMAG_AXIS_TOL * (1 + ||A||) of the imaginary
#: axis are reported; the report is informational and decides nothing
IMAG_AXIS_TOL = 1e-9

#: larger entries are rejected, so that a product of up to six entries stays
#: finite (the scattering forms multiply four)
ENTRY_LIMIT = 1e50


def base_tol():
    """Base relative tolerance; PASSIVE_NODE_TOL (finite, > 0) overrides the default."""
    text = os.environ.get("PASSIVE_NODE_TOL", "1e-9")
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not 0.0 < tol < np.inf:
        raise InvalidTolerance(f"PASSIVE_NODE_TOL = {text!r} is not a finite number > 0")
    return tol


def as_matrix(M, name):
    """Read-only 2-D complex copy of M.

    A NaN or inf entry, or a real or imaginary part beyond ENTRY_LIMIT,
    raises NonFiniteMatrix: such an entry makes the forms overflow.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix")
    M = M.copy()
    # one pass over the real and imaginary parts; a NaN fails the comparison too
    if not np.abs(M.view(float)).max(initial=0.0) <= ENTRY_LIMIT:
        if not np.isfinite(M).all():
            raise NonFiniteMatrix(f"{name} has a non-finite entry")
        raise NonFiniteMatrix(f"{name} has an entry beyond {ENTRY_LIMIT:g} in magnitude")
    M.setflags(write=False)
    return M


def checked_inv(M, error, message):
    """Inverse of the square matrix M; raises error(message) if M is singular."""
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise error(message) from None
    # "not <" so that a NaN or inf in M^-1 also counts as singular
    if not RCOND * max(1.0, np.linalg.norm(M, 1)) * np.linalg.norm(Minv, 1) < 1.0:
        raise error(message)
    return Minv


def psd_tol(eigenvalues):
    """Scale-invariant PSD slack of a self-adjoint form, from its eigenvalues.

    A form passes if lambda_min >= -psd_tol; max |lambda| is its 2-norm.
    """
    return base_tol() * (1.0 + np.abs(eigenvalues).max(initial=0.0))


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
    """Smallest eigenvalue of a self-adjoint matrix (+inf for an empty one)."""
    if M.size == 0:
        return np.inf
    return float(np.linalg.eigvalsh(hermitize(M))[0])


def psd_eig(M):
    """Smallest eigenvalue, a unit eigenvector for it, and whether M >= 0.

    M passes when lambda_min >= -psd_tol, the slack read off the same eigh.
    """
    vals, vecs = np.linalg.eigh(hermitize(M))
    return float(vals[0]), vecs[:, 0], bool(vals[0] >= -psd_tol(vals))


def null_basis(M):
    """Orthonormal basis of the null space of M (columns; may be empty)."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=complex)
    _, sv, vh = np.linalg.svd(M)
    cutoff = SUBSPACE_TOL * max(1.0, sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


def largest_invariant_in(Q, ops):
    """Largest subspace of range(Q) mapped into itself by every op in ops.

    Computed as a complement: it is the orthogonal complement of the
    smallest subspace that contains range(Q)^perp and is invariant under
    every op*.  That subspace is grown by one deflated block-Krylov sweep,
    the orthogonal staircase of Paige (1981, "Properties of numerical
    algorithms related to computing controllability", IEEE TAC 26(1)) and
    Van Dooren (1981, "The generalized eigenstructure problem in linear
    system theory", IEEE TAC 26(1)): each step maps the newest block
    through every op*, orthogonalizes the images against the basis so far
    (twice, for stability) and keeps the directions above SUBSPACE_TOL
    times the block's own largest singular value.  Each direction is found
    once, and the work per step is O(n^2) times the block width, so the
    sweep costs O(n^3) for a fixed number of ops.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=complex))
    n = Q.shape[0]
    adjoints = [op.conj().T for op in ops]
    V = null_basis(Q.conj().T)
    new = V
    while new.shape[1] and V.shape[1] < n:
        W = np.hstack([op @ new for op in adjoints])
        for _ in range(2):
            W = W - V @ (V.conj().T @ W)
        u, sv, _ = np.linalg.svd(W, full_matrices=False)
        # relative to this block, not to ||op||: after deflation the images
        # of a stiff op can be small yet genuinely new
        new = u[:, : int(np.sum(sv > SUBSPACE_TOL * max(1.0, sv[0])))]
        V = np.hstack([V, new])
    return null_basis(V.conj().T)

