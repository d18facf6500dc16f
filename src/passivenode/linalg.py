"""Small numerical linear-algebra helpers shared across modules.

Three kinds of numerical question, one rule each:

* Invertibility (s in rho(A), I + kD, I - KD, Ad + I, M): :func:`checked_inv`
  forms the inverse once for the caller to reuse; for s in rho(A) its one
  caller is ``node.resolvent``.  M is singular when LAPACK finds a zero
  pivot, M^-1 is not finite, or RCOND * max(1, ||M||_1) * ||M^-1||_1 >= 1.
  W > 0 and A0 > 0 are the pivots of :func:`cholesky`.
* Rank: subspace routines return orthonormal bases (columns) and cut
  singular values at the relative SUBSPACE_TOL.
* Sign and identity: a form is >= 0 when lambda_min >= -psd_tol, read off
  the same eigh (:func:`psd_eig`); a residual R of an identity is zero when
  ||R||_2 <= :func:`scaled_tol` of the matrix it is measured against.  Both
  are base_tol() (PASSIVE_NODE_TOL, default 1e-9) times 1 + a norm.

RCOND and SUBSPACE_TOL are fixed.  Every routine here costs at most O(n^3)
for the desk-scale problems this library targets (the 100-mode beam has
n = 198).
"""

import os

import numpy as np

from .errors import DimensionMismatch, InvalidTolerance, NonFiniteMatrix, NotSelfAdjoint

#: M counts as singular when RCOND * max(1, ||M||_1) * ||M^-1||_1 >= 1
RCOND = 1e-12

#: singular values below this (relative) count as zero in every subspace
#: rank decision, and so in the stability verdict
SUBSPACE_TOL = 1e-8

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


def scaled_tol(M):
    """Slack base_tol() * (1 + ||M||_2) of an identity residual measured against M."""
    return base_tol() * (1.0 + np.linalg.norm(M, 2))


def hermitize(M):
    """Self-adjoint part (M + M*)/2."""
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + M.conj().T)


def assert_hermitian(M, what="matrix"):
    M = np.asarray(M, dtype=complex)
    if np.linalg.norm(M - M.conj().T, 2) > scaled_tol(M):
        raise NotSelfAdjoint(f"{what} is not self-adjoint to tolerance")
    return hermitize(M)


def psd_eig(M):
    """Eigenvalues (ascending), unit eigenvectors and whether M >= 0.

    The one sign rule: the self-adjoint part of M passes when
    lambda_min >= -psd_tol, the slack read off the same eigh.  An empty M
    passes.
    """
    vals, vecs = np.linalg.eigh(hermitize(M))
    return vals, vecs, bool(np.all(vals >= -psd_tol(vals)))


def cholesky(M, error, message):
    """Lower factor L with M = L L* of a self-adjoint M.

    Raises error(message) unless M is positive definite, which is decided
    by the pivots of the factorization itself.  Reads the lower triangle.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise error(message) from None


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

