"""Finite-dimensional system-node realizations.

A :class:`StateSpaceNode` is a quadruple (A, B, C, D) together with a
self-adjoint positive-definite weight W defining the state inner product
<x, y> = y* W x.  The transfer function is G(s) = C (sI - A)^-1 B + D.
All matrices are stored as complex arrays and are immutable after
construction.

The weight is handled once, at construction: a W-orthonormal copy of the
realization is cached (coordinates x~ = L* x with W = L L*), so every
downstream PSD/eigen test can run as a plain unweighted test on that copy.
"""

from dataclasses import dataclass, replace
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
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatch("B must have n rows")
        if C.shape[1] != n:
            raise DimensionMismatch("C must have n columns")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatch("D must be p x m")
        W = self.W
        if W is None:
            W = np.eye(n, dtype=complex)
        W = linalg.as_matrix(W, "W")
        if W.shape != (n, n):
            raise DimensionMismatch("W must be n x n")
        W = linalg.assert_hermitian(W, "W")
        if linalg.min_eig_herm(W) <= 0:
            raise DimensionMismatch("W must be positive definite")
        W.setflags(write=False)
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D), ("W", W)):
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

    @property
    def is_identity_weight(self):
        return np.array_equal(self.W, np.eye(self.n))

    @cached_property
    def _chol(self):
        """Lower factor L with W = L L*."""
        return linalg.cholesky_weight(self.W)

    @cached_property
    def orthonormal(self):
        """(A~, B~, C~, D) in W-orthonormal coordinates x~ = L* x."""
        if self.is_identity_weight:
            return self.A, self.B, self.C, self.D
        L = self._chol
        Lh = L.conj().T
        A = Lh @ np.linalg.solve(Lh.T, self.A.T).T  # L* A L^-*
        B = Lh @ self.B
        C = np.linalg.solve(Lh.T, self.C.T).T       # C L^-*
        return A, B, C, self.D

    def orthonormalized(self):
        """Equivalent node with W = I (same transfer function)."""
        A, B, C, D = self.orthonormal
        return StateSpaceNode(A, B, C, D, meta=self.meta)

    def to_state(self, x_orth):
        """Map a W-orthonormal-coordinate vector back to original coordinates."""
        if self.is_identity_weight:
            return np.asarray(x_orth, dtype=complex)
        return np.linalg.solve(self._chol.conj().T, np.asarray(x_orth, dtype=complex))

    def weighted_norm_sq(self, x):
        """||x||_W^2 = x* W x (real)."""
        x = np.asarray(x, dtype=complex)
        return float(np.real(x.conj() @ (self.W @ x)))

    def dissipation_form(self):
        """WA + A*W expressed in orthonormal coordinates (A~ + A~*)."""
        A, _, _, _ = self.orthonormal
        return A + A.conj().T

    def spectral_abscissa(self):
        return linalg.spectral_abscissa(self.A)


def eval_transfer(node, s):
    """Evaluate G(s) = C (sI - A)^-1 B + D.

    Raises SingularResolvent when sI - A is singular to working precision.
    """
    R = linalg.checked_inv(s * np.eye(node.n) - node.A, SingularResolvent,
                           f"s = {s} is in the spectrum of A to working precision")
    return node.C @ (R @ node.B) + node.D


def dual_node(node):
    """Dual node with generating triple (A*, C*, B*) and feedthrough D*.

    Adjoints are taken in the W-weighted state inner product, so
    A* = W^-1 A^H W, C* = W^-1 C^H and B* = B^H W.  The dual transfer
    function satisfies G_dual(s) = G(conj(s))*.
    """
    W = node.W
    Winv = np.linalg.inv(W)
    Ad = Winv @ node.A.conj().T @ W
    Bd = Winv @ node.C.conj().T
    Cd = node.B.conj().T @ W
    Dd = node.D.conj().T
    return StateSpaceNode(Ad, Bd, Cd, Dd, W=W, meta=f"dual({node.meta})" if node.meta else "dual")


def shift_feedthrough(node, E):
    """Node Sigma_E: same generating triple, transfer function G + E."""
    E = np.atleast_2d(np.asarray(E, dtype=complex))
    if E.shape != node.D.shape:
        raise DimensionMismatch(
            f"shift must be {node.D.shape[0]} x {node.D.shape[1]}, got {E.shape}"
        )
    return replace(node, D=np.asarray(node.D) + E)


def apply_combined_observation(node, x, v, beta=None):
    """Combined observation/feedthrough C&D [x; v] = C[x - (bI-A)^-1 B v] + G(b) v.

    The result is independent of the resolvent point beta; at finite
    dimension it collapses to C x + D v.  beta defaults to
    1 + max(0, spectral abscissa of A) and is bumped on singularity.
    """
    x = np.asarray(x, dtype=complex).reshape(node.n)
    v = np.asarray(v, dtype=complex).reshape(node.m)
    if beta is None:
        beta = 1.0 + max(0.0, node.spectral_abscissa())
    for attempt in range(4):
        b = beta + attempt
        try:
            R = linalg.checked_inv(b * np.eye(node.n) - node.A, SingularResolvent, "")
        except SingularResolvent:
            continue
        RB = R @ node.B
        return node.C @ (x - RB @ v) + (node.C @ RB + node.D) @ v
    raise SingularResolvent("could not find a resolvent point beta for C&D")
