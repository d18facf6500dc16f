"""Strong/weak stability analysis of the closed loop.

At finite dimension the Benchimol-style conditions reduce to subspace
computations: the unobservable space N (largest A-invariant subspace of
ker C), its dual counterpart, and the unitary part X^u of the contraction
semigroup (largest subspace invariant under both A and A* on which the
generator is skew).  The closed loop is strongly stable whenever N or N^d
meets X^u only at the origin; a persistent imaginary-axis eigenvalue of
the closed loop rules stability out.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import LambdaInOpenLoopSpectrum, NotContraction, SingularResolvent
from .feedback import stabilizing_feedback


class StabilityVerdict(enum.Enum):
    STRONGLY_STABLE = "StronglyStable"
    WEAKLY_STABLE = "WeaklyStable"
    INCONCLUSIVE = "Inconclusive"
    NOT_STABLE = "NotStable"


def _imag_axis_tol(A):
    return 1e-9 * (1.0 + np.linalg.norm(A, 2))


def unobservable_space(node):
    """Orthonormal basis (in W-orthonormal coordinates) of the largest
    A-invariant subspace contained in ker C."""
    A, _, C, _ = node.orthonormal
    return linalg.largest_invariant_in(linalg.null_basis(C), [A])


def uncontrollable_dual_space(node):
    """Largest A*-invariant subspace contained in ker B* (orthonormal coords)."""
    A, B, _, _ = node.orthonormal
    return linalg.largest_invariant_in(linalg.null_basis(B.conj().T), [A.conj().T])


def unitary_subspace(node, require_contraction=True):
    """Unitary part X^u of the semigroup, in W-orthonormal coordinates.

    The largest subspace invariant under both A and A* on which
    A + A* = 0; equivalently the span of imaginary-axis eigenvectors when
    the semigroup is a contraction.  Raises NotContraction when
    WA + A*W <= 0 fails (unless require_contraction=False).
    """
    A, _, _, _ = node.orthonormal
    Q = linalg.hermitize(A + A.conj().T)
    if require_contraction and linalg.spectral_abscissa(Q) > 1e-8 * (1.0 + np.linalg.norm(A, 2)):
        raise NotContraction("WA + A*W is not negative semidefinite")
    kernel = linalg.null_basis(Q)
    return linalg.largest_invariant_in(kernel, [A, A.conj().T])


@dataclass(frozen=True)
class StabilityReport:
    """Subspace bases, spectra and verdict of the stability analysis."""

    unobservable_basis: np.ndarray
    uncontrollable_dual_basis: np.ndarray
    unitary_basis: np.ndarray
    imaginary_spectrum: tuple
    cweak_holds: bool
    bweak_holds: bool
    verdict: StabilityVerdict
    closed_loop_imaginary_spectrum: tuple
    closed_loop_max_real: float

    @property
    def closed_loop_hurwitz(self):
        return self.closed_loop_max_real < 0.0

    def as_dict(self):
        return {
            "verdict": self.verdict.value,
            "cweak_holds": self.cweak_holds,
            "bweak_holds": self.bweak_holds,
            "dim_unobservable": int(self.unobservable_basis.shape[1]),
            "dim_uncontrollable_dual": int(self.uncontrollable_dual_basis.shape[1]),
            "dim_unitary": int(self.unitary_basis.shape[1]),
            "imaginary_spectrum": [[w.real, w.imag] for w in self.imaginary_spectrum],
            "closed_loop_imaginary_spectrum": [
                [w.real, w.imag] for w in self.closed_loop_imaginary_spectrum
            ],
            "closed_loop_max_real": self.closed_loop_max_real,
        }


def benchimol_conditions(node, require_contraction=True):
    """Evaluate the two sufficient conditions for strong stability.

    cweak: N ∩ X^u = {0} (unobservable space meets the unitary part
    trivially); bweak: the dual counterpart with ker B*.  Returns
    (cweak, bweak, N_basis, Nd_basis, Xu_basis), all in W-orthonormal
    coordinates.
    """
    N = unobservable_space(node)
    Nd = uncontrollable_dual_space(node)
    Xu = unitary_subspace(node, require_contraction=require_contraction)
    cweak = linalg.subspace_intersection(N, Xu).shape[1] == 0
    bweak = linalg.subspace_intersection(Nd, Xu).shape[1] == 0
    return cweak, bweak, N, Nd, Xu


def closed_loop_spectrum_gate(node, K, lam):
    """Spectrum membership of the closed loop at a point lam in rho(A).

    For lam in the open-loop resolvent set, lam is in rho(A^K) exactly
    when I - K G(lam) is invertible.  Raises LambdaInOpenLoopSpectrum
    when lam is not in rho(A).
    """
    lam = complex(lam)
    R = linalg.checked_inv(lam * np.eye(node.n) - node.A, LambdaInOpenLoopSpectrum,
                           f"lambda = {lam} is in the open-loop spectrum")
    K = np.atleast_2d(np.asarray(K, dtype=complex))
    G = node.C @ (R @ node.B) + node.D
    try:
        linalg.checked_inv(np.eye(node.m) - K @ G, SingularResolvent, "")
    except SingularResolvent:
        return False
    return True


def _imag_eigs(vals, tol):
    return tuple(complex(v) for v in vals if abs(v.real) < tol)


def stability_verdict(node, E, kappa):
    """Full stability analysis of the closed loop under u = -kappa y.

    Runs the stabilizing-feedback synthesis, evaluates the Benchimol
    conditions on the scattering intermediate, and inspects the closed-loop
    spectrum.  At finite dimension either sufficient condition already
    yields strong (in fact exponential, when no imaginary eigenvalues
    remain) stability.
    """
    syn = stabilizing_feedback(node, E, kappa)
    closed = syn.closed_loop
    cweak, bweak, N, Nd, Xu = benchimol_conditions(
        syn.scattering_intermediate, require_contraction=False
    )
    Acl = closed.orthonormal[0]
    cl_eigs = np.linalg.eigvals(Acl)
    cl_imag = _imag_eigs(cl_eigs, _imag_axis_tol(Acl))
    max_real = float(np.max(cl_eigs.real, initial=-np.inf))
    A = node.orthonormal[0]
    open_imag = _imag_eigs(np.linalg.eigvals(A), _imag_axis_tol(A))
    if cweak or bweak:
        verdict = StabilityVerdict.STRONGLY_STABLE
    elif cl_imag:
        verdict = StabilityVerdict.NOT_STABLE
    else:
        verdict = StabilityVerdict.INCONCLUSIVE
    report = StabilityReport(
        unobservable_basis=N,
        uncontrollable_dual_basis=Nd,
        unitary_basis=Xu,
        imaginary_spectrum=open_imag,
        cweak_holds=cweak,
        bweak_holds=bweak,
        verdict=verdict,
        closed_loop_imaginary_spectrum=cl_imag,
        closed_loop_max_real=max_real,
    )
    return report, syn
