"""Finite-dimensional system-node realizations.

A :class:`StateSpaceNode` is a quadruple (A, B, C, D) together with a
self-adjoint positive-definite weight W defining the state inner product
<x, y> = y* W x.  The transfer function is G(s) = C (sI - A)^-1 B + D.
Every matrix is stored as linalg.as_matrix reads it (float64 when all its
imaginary parts are +0.0, complex128 otherwise) and is immutable after
construction; a node may mix the two.

The weight is handled once, at construction, by its factor L (W = L L*),
which decides W > 0; a W-orthonormal copy of the realization (coordinates
x~ = L* x) is cached from it, so every downstream PSD/eigen test can run as
a plain unweighted test on that copy.  That copy keeps the dtypes of the
stored matrices, so a real node runs in real arithmetic.  A diagonal W
(every off-diagonal entry exactly zero, as for the energy weight of a
modal truncation such as the beam) is decided by its entries, W > 0 when
each is > 0, and is scaled, not factored: L = diag(sqrt(w)), and the copy,
to_state and dual_node scale rows and columns, with no factorization and no
solve.  Any other W gets its Cholesky factor, whose pivots decide W > 0,
and triangular solves.  A node derived on the same state space (a closed
loop, the diagonal transform, the dual, a feedthrough shift) shares W and
its factor (and with it the diagonal decision) with its parent
(:func:`_derived`): its A, B, C and D are validated again, W is not, and
its orthonormal copy is formed from its own matrices like any node's.
The same copy carries the resolvent: :func:`resolvent` is the one place
that decides whether s is in rho(A) and that computes G(s).  n = 0 is a
valid node (its transfer function is the constant D).
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
        L = _weight_factor(W)
        W.setflags(write=False)
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D), ("W", W), ("_chol", L)):
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
        """(A~, B~, C~, D) in W-orthonormal coordinates x~ = L* x, read-only.

        Computed from the stored matrices as they are, so each keeps the
        dtype numpy promotion gives it: a real node (the beam) gets four
        float64 arrays and runs in real arithmetic downstream.
        """
        A, B, C, D, L = self.A, self.B, self.C, self.D, self._chol
        if self.is_identity_weight:
            return A, B, C, D
        if L.ndim == 1:  # L = diag(d): scale rows by d and columns by 1/d
            r = 1.0 / L
            A = L[:, None] * (A * r)
            B = L[:, None] * B
            C = C * r
        else:
            Lh = L.conj().T
            A = Lh @ np.linalg.solve(Lh.T, A.T).T  # L* A L^-*
            B = Lh @ B
            C = np.linalg.solve(Lh.T, C.T).T       # C L^-*
        for M in (A, B, C):
            M.setflags(write=False)
        return A, B, C, D

    def orthonormalized(self):
        """Equivalent node with W = I (same transfer function)."""
        A, B, C, D = self.orthonormal
        return StateSpaceNode(A, B, C, D, meta=self.meta)

    def to_state(self, x_orth):
        """Map a W-orthonormal-coordinate vector back to original coordinates.

        Keeps the dtype numpy promotion gives it: real for a real vector and
        a real weight.
        """
        x_orth = np.asarray(x_orth)
        if self.is_identity_weight:
            return x_orth
        L = self._chol
        if L.ndim == 1:
            return (x_orth.T * (1.0 / L)).T
        return np.linalg.solve(L.conj().T, x_orth)

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

    Adjoints are taken in the W-weighted state inner product, so
    A* = W^-1 A^H W, C* = W^-1 C^H and B* = B^H W.  W^-1 is applied by
    two solves with the Cholesky factor W = L L* that decided W > 0, or, for
    a diagonal W = diag(d)^2, by scaling twice with 1/d.  The dual transfer
    function satisfies G_dual(s) = G(conj(s))*.
    """
    W, L = node.W, node._chol
    if L.ndim == 1:
        w, r = np.diagonal(W), (1.0 / L)[:, None]
        Ad, Bd = r * (r * (node.A.conj().T * w)), r * (r * node.C.conj().T)
        Cd = node.B.conj().T * w
    else:
        X = np.hstack([node.A.conj().T @ W, node.C.conj().T])
        X = np.linalg.solve(L.conj().T, np.linalg.solve(L, X))
        Ad, Bd = X[:, :node.n], X[:, node.n:]
        Cd = node.B.conj().T @ W
    Dd = node.D.conj().T
    return _derived(node, (Ad, Bd, Cd, Dd), f"dual({node.meta})" if node.meta else "dual")


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
    """Factor L of W = L L*, stored as its diagonal d = sqrt(w) when W is diagonal.

    W is diagonal when every off-diagonal entry is exactly zero (O(n^2),
    no copy), and then W > 0 when every w > 0; otherwise L is the Cholesky
    factor, whose pivots decide W > 0 (linalg.cholesky).  d has W's dtype,
    as the Cholesky factor of that W would.  DimensionMismatch unless W > 0.
    """
    w = np.diagonal(W)
    if np.count_nonzero(W) != np.count_nonzero(w):
        return linalg.cholesky(W, DimensionMismatch, "W must be positive definite")
    # the diagonal of a self-adjoint W is real
    if not np.all(w.real > 0.0):
        raise DimensionMismatch("W must be positive definite")
    return np.sqrt(w.real).astype(W.dtype, copy=False)


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

    The new node shares W and its factor with node, so W is neither
    validated nor factored again.  The matrices pass linalg.as_matrix and
    check_conformable as in the constructor.  meta defaults to node.meta.
    """
    A, B, C, D = (linalg.as_matrix(M, name) for M, name in zip(quad, "ABCD"))
    check_conformable(A, B, C, D)
    new = object.__new__(StateSpaceNode)
    for name, val in (("A", A), ("B", B), ("C", C), ("D", D), ("W", node.W),
                      ("_chol", node._chol), ("meta", node.meta if meta is None else meta)):
        object.__setattr__(new, name, val)
    return new
