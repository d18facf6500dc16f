"""Finite-dimensional system-node realizations.

A :class:`StateSpaceNode` is a quadruple (A, B, C, D) together with a
self-adjoint positive-definite weight W defining the state inner product
<x, y> = y* W x.  The transfer function is G(s) = C (sI - A)^-1 B + D.
Every matrix is stored as linalg.as_matrix reads it (float64 when all its
imaginary parts are +0.0, complex128 otherwise) and is immutable after
construction; a node may mix the two.

The weight is decided once, at construction (:func:`_weight_factor`), and
kept as the two maps T = L* and Ti = L^-* of its factor W = L L*: for a
diagonal W (every off-diagonal entry exactly zero, as the beam's energy
weight), W > 0 when each w > 0 and the maps are the vectors sqrt(w) and
1/sqrt(w); for any other W, the matrices L* and L^-* of the Cholesky
factor, whose pivots decide W > 0.  The W-orthonormal copy (x~ = T x),
to_state and dual_node are each one product formula in T and Ti, so every
downstream PSD/eigen test is a plain unweighted test on the copy, in the
dtypes of the stored matrices.  A node derived on the same state space (a
closed loop, the diagonal transform, the dual, a feedthrough shift) shares
W and both maps with its parent (:func:`_derived`): its A, B, C and D are
validated again, and its copy is formed from its own matrices like any
node's.  The same copy carries the resolvent: :func:`resolvent` decides
whether one s is in rho(A) and computes G(s), and the stacked test points
of a passivity check (passivity._point_forms) are decided by the same
RCOND rule of linalg.inverses.  n = 0 is a valid node (its transfer
function is the constant D).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch, SingularResolvent


@dataclass(frozen=True)
class StateSpaceNode:
    """Realization (A, B, C, D) with state inner-product weight W.

    Parameters
    ----------
    A : (n, n) array_like
        Semigroup generator realization.
    B : (n, m) array_like
        Control operator.
    C : (p, n) array_like
        Observation operator.
    D : (p, m) array_like
        Feedthrough, so G(s) = C (sI - A)^-1 B + D.
    W : (n, n) array_like, optional
        Self-adjoint positive-definite state weight; identity by default.
    meta : str
        Free-form label / provenance.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    W: np.ndarray = None
    meta: str = ""

    def __post_init__(self):
        A = linalg.as_matrix(self.A, "A")
        B = linalg.as_matrix(self.B, "B")
        C = linalg.as_matrix(self.C, "C")
        D = linalg.as_matrix(self.D, "D")
        check_conformable(A, B, C, D)
        n = A.shape[0]
        W = weight_matrix(self.W, n)
        T, Ti = _weight_factor(W)
        W.setflags(write=False)
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D), ("W", W),
                          ("_chol", T), ("_chol_inv", Ti)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @cached_property
    def is_identity_weight(self):
        return self._chol.ndim == 1 and bool((np.diagonal(self.W) == 1.0).all())

    @cached_property
    def orthonormal(self):
        """(A~, B~, C~, D) = (T A Ti, T B, C Ti, D) in coordinates x~ = T x, read-only.

        Computed from the stored matrices as they are, so each keeps the
        dtype numpy promotion gives it: a real node (the beam) gets four
        float64 arrays and runs in real arithmetic downstream.
        """
        A, B, C, D, T, Ti = self.A, self.B, self.C, self.D, self._chol, self._chol_inv
        if self.is_identity_weight:
            return A, B, C, D
        A, B, C = _left(T, _right(A, Ti)), _left(T, B), _right(C, Ti)
        for M in (A, B, C):
            M.setflags(write=False)
        return A, B, C, D

    def orthonormalized(self):
        """Equivalent node with W = I (same transfer function)."""
        A, B, C, D = self.orthonormal
        return StateSpaceNode(A, B, C, D, meta=self.meta)

    def to_state(self, x_orth):
        """x = Ti x~: a W-orthonormal-coordinate vector in the original coordinates.

        Real for a real vector and a real weight.
        """
        return _left(self._chol_inv, np.asarray(x_orth))

    def weighted_norm_sq(self, x):
        """||x||_W^2 = x* W x (real)."""
        x = np.asarray(x)
        return float(np.real(x.conj() @ (self.W @ x)))

    def dissipation_form(self):
        """WA + A*W expressed in orthonormal coordinates (A~ + A~*)."""
        A, _, _, _ = self.orthonormal
        return A + A.conj().T


def check_conformable(A, B, C, D):
    """DimensionMismatch unless A is n x n, B is n x m, C is p x n and D is p x m.

    The one shape rule of a quadruple, continuous (StateSpaceNode) or
    discrete (cayley.DiscreteSystem).
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch("A must be square")
    if B.shape[0] != n:
        raise DimensionMismatch("B must have n rows")
    if C.shape[1] != n:
        raise DimensionMismatch("C must have n columns")
    if D.shape != (C.shape[0], B.shape[1]):
        raise DimensionMismatch("D must be p x m")


def resolvent(node, s, error, message):
    """(R, G(s)) with R = (sI - A~)^-1 in W-orthonormal coordinates.

    G(s) = C~ R B~ + D equals C (sI - A)^-1 B + D.  Both are real for a
    real node at a real s.  s is read by linalg.as_point (DimensionMismatch);
    raises error(message) when it is not in rho(A) (linalg.checked_inv).
    """
    A, B, C, D = node.orthonormal
    s = linalg.as_point(s, "s", DimensionMismatch)
    # a real s keeps a real node in real arithmetic
    R = linalg.checked_inv((s if s.imag else s.real) * np.eye(node.n) - A, error, message)
    return R, C @ (R @ B) + D


def eval_transfer(node, s):
    """Evaluate G(s) = C (sI - A)^-1 B + D, as a complex array.

    Raises SingularResolvent when sI - A is singular to working precision.
    """
    G = resolvent(node, s, SingularResolvent,
                  f"s = {s} is in the spectrum of A to working precision")[1]
    return np.asarray(G, dtype=np.complex128)


def dual_node(node):
    """Dual node with generating triple (A*, C*, B*) and feedthrough D*.

    Adjoints are taken in the W-weighted state inner product, the plain
    one in W-orthonormal coordinates: the dual is the adjoint of the copy,
    mapped back by the weight's maps, (Ti A~^H T, Ti C~^H, B~^H T, D^H) =
    (W^-1 A^H W, W^-1 C^H, B^H W, D^H).  The dual transfer function
    satisfies G_dual(s) = G(conj(s))*.
    """
    # the adjoint of the copy; + 0.0 turns the -0.0 that conj leaves on a zero
    # imaginary part into +0.0, so a real-valued copy has a real dual
    Ah, Bh, Ch = (M.conj().T + 0.0 for M in node.orthonormal[:3])
    T, Ti = node._chol, node._chol_inv
    quad = (_left(Ti, _right(Ah, T)), _left(Ti, Ch), _right(Bh, T), node.D.conj().T)
    return _derived(node, quad, f"dual({node.meta})" if node.meta else "dual")


def weight_matrix(W, n):
    """W checked as a state weight (linalg.as_matrix, n x n, W = W*); I when None.

    The self-adjoint part is stored by linalg.real_or_complex, so a W whose
    imaginary parts cancel to +0.0 in it is real.
    """
    if W is None:
        return np.eye(n)
    W = linalg.as_matrix(W, "W")
    if W.shape != (n, n):
        raise DimensionMismatch(f"W must be {n} x {n}, got {W.shape}")
    return linalg.real_or_complex(linalg.assert_hermitian(W, "W"))


def _weight_factor(W):
    """The maps (T, Ti) = (L*, L^-*) of the factor of W = L L*; DimensionMismatch unless W > 0.

    A W whose off-diagonal entries are all exactly zero (O(n^2), no copy) is
    > 0 when every w > 0, and its maps are the vectors d = sqrt(w), in W's
    dtype as its Cholesky factor would be, and 1/d.  Any other W is decided
    by the pivots of its Cholesky factor, and L^-* is formed once.
    """
    w = np.diagonal(W)
    if np.count_nonzero(W) != np.count_nonzero(w):
        Lh = linalg.cholesky(W, DimensionMismatch, "W must be positive definite").conj().T
        return Lh, np.linalg.inv(Lh)
    # the diagonal of a self-adjoint W is real
    if not np.all(w.real > 0.0):
        raise DimensionMismatch("W must be positive definite")
    d = np.sqrt(w.real).astype(W.dtype, copy=False)
    return d, 1.0 / d


def _left(M, X):
    """M X for a map M stored as a vector (a diagonal) or as a matrix; X may be a vector."""
    return (X.T * M).T if M.ndim == 1 else M @ X


def _right(X, M):
    """X M for a map M stored as a vector (a diagonal) or as a matrix."""
    return X * M if M.ndim == 1 else X @ M


def shift_matrix(E, shape):
    """E as a finite matrix (linalg.as_matrix) of the given shape.

    The one check of a feedthrough shift wherever it enters; raises
    DimensionMismatch when E does not have the shape.
    """
    E = linalg.as_matrix(E, "E")
    if E.shape != shape:
        raise DimensionMismatch(f"shift must be {shape[0]} x {shape[1]}, got {E.shape}")
    return E


def shift_feedthrough(node, E):
    """Node Sigma_E: same generating triple, transfer function G + E."""
    return _derived(node, (node.A, node.B, node.C, node.D + shift_matrix(E, node.D.shape)))


def _derived(node, quad, meta=None):
    """Node (A, B, C, D) = quad on the state space of node, with its W.

    The new node shares W and both its maps with node, so W is neither
    validated nor factored again.  The matrices pass linalg.as_matrix and
    check_conformable as in the constructor.  meta defaults to node.meta.
    """
    A, B, C, D = (linalg.as_matrix(M, name) for M, name in zip(quad, "ABCD"))
    check_conformable(A, B, C, D)
    new = object.__new__(StateSpaceNode)
    for name, val in (("A", A), ("B", B), ("C", C), ("D", D), ("W", node.W), ("_chol", node._chol),
                      ("_chol_inv", node._chol_inv), ("meta", node.meta if meta is None else meta)):
        object.__setattr__(new, name, val)
    return new
