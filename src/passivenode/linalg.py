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

Real data runs in real arithmetic.  This is decided once, where a matrix
enters (:func:`as_matrix`): it is stored as float64 when every imaginary
part is +0.0, and as complex128 otherwise.  The routines here keep the
dtype they are given (none of them forces complex), so a real node goes to
the real LAPACK kernels.

RCOND and SUBSPACE_TOL are fixed.  Every routine here costs at most O(n^3)
for the desk-scale problems this library targets (the 100-mode beam has
n = 198).
"""

import math
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
    tol = float_or_nan(text)
    if not 0.0 < tol < np.inf:
        raise InvalidTolerance(f"PASSIVE_NODE_TOL = {text!r} is not a finite number > 0")
    return tol


def float_or_nan(x):
    """float(x), or NaN when x does not convert, so that a range test rejects it.

    An integer too large for a double does not convert either.
    """
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return np.nan


def as_matrix(M, name):
    """Read-only 2-D copy of M: float64 when every imaginary part is +0.0, else complex128.

    The entries are read and checked as complex numbers.  A NaN or inf
    entry, or a real or imaginary part beyond ENTRY_LIMIT, raises
    NonFiniteMatrix: such an entry makes the forms overflow.  The real/
    complex rule is bitwise, so a matrix with an imaginary -0.0 stays
    complex and is written back as it was read.
    """
    M = np.array(M, dtype=complex, order="C", ndmin=2)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix")
    # one pass over the real and imaginary parts; a NaN fails the comparison too
    if not np.abs(M.view(float)).max(initial=0.0) <= ENTRY_LIMIT:
        if not np.isfinite(M).all():
            raise NonFiniteMatrix(f"{name} has a non-finite entry")
        raise NonFiniteMatrix(f"{name} has an entry beyond {ENTRY_LIMIT:g} in magnitude")
    if not M.imag.view(np.uint64).any():
        M = M.real.copy()
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
    """Self-adjoint part (M + M*)/2, real when M is."""
    M = np.asarray(M)
    return 0.5 * (M + M.conj().T)


def assert_hermitian(M, what="matrix"):
    """Self-adjoint part of M; NotSelfAdjoint unless ||M - M*||_2 <= scaled_tol(M).

    A residual that is exactly zero passes under any slack, so an exactly
    self-adjoint M (a W handed on to a derived node) takes no norm, and is
    returned as it is: hermitize would flip the sign of some of its zeros.
    A real M stays real.
    """
    M = np.asarray(M)
    M = M.astype(np.result_type(M, float), copy=False)
    resid = M - M.conj().T
    if not resid.any():
        return M
    # a NaN is nonzero, so it takes the norm path
    if np.linalg.norm(resid, 2) > scaled_tol(M):
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
    """Orthonormal basis of the null space of M (columns; may be empty), real when M is."""
    M = np.atleast_2d(np.asarray(M))
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=np.result_type(M, float))
    _, sv, vh = np.linalg.svd(M)
    return vh[_rank(sv):].conj().T


def _rank(sv):
    """Count of the singular values sv (descending) above SUBSPACE_TOL * max(1, sv[0])."""
    return int(np.sum(sv > SUBSPACE_TOL * max(1.0, sv[0] if sv.size else 0.0)))


def _range_basis(X):
    """Orthonormal basis of range(X) from a thin SVD, cut by the rule of _rank."""
    u, sv, _ = np.linalg.svd(X, full_matrices=False)
    return u[:, :_rank(sv)]


def largest_invariant_in(M, ops):
    """Largest subspace of ker M mapped into itself by every op in ops.

    M is an annihilator (k x n, any k >= 0), not a basis of the subspace.
    Computed as a complement: the subspace is the orthogonal complement of
    the smallest subspace that contains range(M*) = (ker M)^perp and is
    invariant under every op*.  That subspace is grown by one deflated
    block-Krylov sweep, the orthogonal staircase of Paige (1981,
    "Properties of numerical algorithms related to computing
    controllability", IEEE TAC 26(1)) and Van Dooren (1981, "The
    generalized eigenstructure problem in linear system theory", IEEE TAC
    26(1)).  It starts from a thin SVD of M*, cut by the rank rule of
    :func:`null_basis`; each step maps the newest block through every op*,
    orthogonalizes the images against the basis so far (twice, for
    stability) and keeps the directions above SUBSPACE_TOL times the
    block's own largest singular value.  Each direction is found once, and
    the work per step is O(n^2) times the block width, so the sweep costs
    O(n^3) for a fixed number of ops.  The basis lives in one preallocated
    n x n column-major buffer: each block is written into its next columns
    (clipped to the columns left) and the images are orthogonalized in
    place against the columns filled so far, so no step copies the basis.
    When the sweep fills all n dimensions the result is an empty n x 0
    basis, with no n x n factorization; otherwise one complement SVD
    returns it.  The basis is real when M and every op are.
    """
    M = np.atleast_2d(np.asarray(M))
    n = M.shape[1]
    adjoints = [op.conj().T for op in ops]
    start = _range_basis(M.conj().T)
    V = np.empty((n, n), dtype=np.result_type(start, *adjoints), order="F")
    real = not np.iscomplexobj(V)
    lo, k = 0, start.shape[1]
    V[:, :k] = start
    while lo < k < n:
        W = np.hstack([op @ V[:, lo:k] for op in adjoints])
        B = V[:, :k]
        Bh = B.T if real else B.conj().T
        for _ in range(2):
            W -= B @ (Bh @ W)
        # the cut is relative to this block, not to ||op||: after deflation
        # the images of a stiff op can be small yet genuinely new
        new = _range_basis(W)[:, :n - k]
        lo, k = k, k + new.shape[1]
        V[:, lo:k] = new
    if k >= n:
        return np.zeros((n, 0), dtype=V.dtype)
    return null_basis(V[:, :k].conj().T)


#: coefficients b_0..b_13 of the degree-13 Pade approximant to e^x, and the
#: 1-norm up to which it is accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A):
    """Matrix exponential e^A by scaling and squaring.

    One fixed degree-13 Pade approximant r(X) = (V - U)^-1 (V + U) at
    X = A / 2^s, with s the least power that brings ||X||_1 down to
    theta_13, squared s times (Higham 2005, "The scaling and squaring
    method for the matrix exponential revisited", SIAM J. Matrix Anal.
    Appl. 26).  A non-finite A gives an all-NaN result.  A real A
    (integers included) gives a float64 result, a complex A a complex one.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A, float), copy=False)
    norm = np.linalg.norm(A, 1) if A.size else 0.0
    if not np.isfinite(norm):
        return np.full(A.shape, np.nan, dtype=A.dtype)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    X = A / 2.0**s
    b = _PADE13
    eye = np.eye(A.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def simpson(y, x):
    """Composite Simpson integral over x of y, which has one row per point of x.

    x must be uniform with an even number of panels: weights h/3 (1, 4, 2, 4, ..., 4, 1).
    """
    x = np.asarray(x, dtype=float)
    panels = x.size - 1
    if panels < 2 or panels % 2 or np.shape(y)[:1] != (x.size,):
        raise DimensionMismatch(f"Simpson needs an even panel count and one row of y per point, "
                                f"got {panels} panels and y of shape {np.shape(y)}")
    w = np.full(x.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.tensordot(w * ((x[-1] - x[0]) / (3 * panels)), y, axes=1)
