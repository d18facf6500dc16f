"""Strong stability of the closed loop, decided once.

At finite dimension sigma(A) is finite, so weak, strong and exponential
stability of the closed loop are one fact.  It is decided on the scattering
intermediate Sigma^s of the stabilizing-feedback synthesis, whose A is the
closed-loop A.  Sigma^s is scattering passive, so A + A* <= -C*C and
A + A* <= -BB*: an eigenvector x for an eigenvalue i*omega has
0 = x*(A + A*)x <= -||Cx||^2, hence Cx = 0, B*x = 0 and (A + A*)x = 0
(the Hautus/PBH argument; Hautus 1969, Benchimol 1978, SIAM J. Control
Optim. 16).  So the unitary part X^u lies in both the unobservable space N
and its dual N^d, and these are equivalent: cweak (N ∩ X^u = {0}), bweak
(N^d ∩ X^u = {0}), X^u = {0}, no closed-loop eigenvalue on the imaginary
axis, and a Hurwitz closed loop.

benchimol_conditions computes N and N^d by two staircase sweeps and then
X^u as the largest {A, A*}-invariant subspace H of ker(A + A*) ∩ N ∩ N^d,
so dim X^u never exceeds dim N or dim N^d.  Every rank decision uses the
one relative tolerance linalg.SUBSPACE_TOL, and stability_verdict reads
every field of its report from the one decision "H = {0}".
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import LambdaInOpenLoopSpectrum, NotContraction, SingularResolvent
from .feedback import gain_matrix, stabilizing_feedback
from .node import resolvent


class StabilityVerdict(enum.Enum):
    STRONGLY_STABLE = "StronglyStable"
    NOT_STABLE = "NotStable"


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
    WA + A*W <= 0 fails, by the sign rule of linalg.psd_eig (unless
    require_contraction=False).
    """
    A, _, _, _ = node.orthonormal
    Q = linalg.hermitize(A + A.conj().T)
    if require_contraction and not linalg.psd_eig(-Q)[2]:
        raise NotContraction("WA + A*W is not negative semidefinite")
    return linalg.largest_invariant_in(linalg.null_basis(Q), [A, A.conj().T])


@dataclass(frozen=True)
class StabilityReport:
    """Subspace bases, spectra and verdict of the stability analysis.

    Every field but the informational open-loop imaginary_spectrum and the
    raw closed_loop_max_real follows from unitary_basis (H): the verdict is
    StronglyStable exactly when H = {0}.
    """

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
        return self.verdict is StabilityVerdict.STRONGLY_STABLE

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
    """Decide cweak and bweak for a scattering-passive node.

    Precondition: A + A* <= -C*C and A + A* <= -BB* in W-orthonormal
    coordinates, as for every scattering-passive node.  Then ker(A + A*)
    lies in ker C and in ker B*, so X^u lies in N and in N^d, and
    X^u = N ∩ X^u = N^d ∩ X^u = H, the largest {A, A*}-invariant subspace
    of ker(A + A*) ∩ N ∩ N^d.  H is found by one staircase sweep, and is {0}
    without one when N or N^d is.  cweak and bweak both hold exactly when
    H = {0}.  Returns (cweak, bweak, N_basis, Nd_basis, H_basis), all in
    W-orthonormal coordinates.  With require_contraction (the default) the
    precondition is checked, by the sign rule of linalg.psd_eig, and
    NotContraction raised when it fails.
    """
    A, B, C, _ = node.orthonormal
    Q = linalg.hermitize(A + A.conj().T)
    if require_contraction and not all(
        linalg.psd_eig(-F)[2] for F in (Q + C.conj().T @ C, Q + B @ B.conj().T)
    ):
        raise NotContraction("A + A* <= -C*C or A + A* <= -BB* fails")
    N = unobservable_space(node)
    Nd = uncontrollable_dual_space(node)
    H = np.zeros((node.n, 0), dtype=complex)
    if N.shape[1] and Nd.shape[1]:
        # x = N c lies in ker(A + A*) and in N^d; Q is scaled as in null_basis(Q)
        M = np.vstack([Q @ N / max(1.0, np.linalg.norm(Q, 2)), N - Nd @ (Nd.conj().T @ N)])
        H = linalg.largest_invariant_in(N @ linalg.null_basis(M), [A, A.conj().T])
    holds = H.shape[1] == 0
    return holds, holds, N, Nd, H


def closed_loop_spectrum_gate(node, K, lam):
    """Spectrum membership of the closed loop at a point lam in rho(A).

    For lam in the open-loop resolvent set, lam is in rho(A^K) exactly
    when I - K G(lam) is invertible.  K is read as in output_feedback.
    Raises LambdaInOpenLoopSpectrum when lam is not in rho(A).
    """
    K = gain_matrix(node, K)
    lam = complex(lam)
    _, G = resolvent(node, lam, LambdaInOpenLoopSpectrum,
                     f"lambda = {lam} is in the open-loop spectrum")
    try:
        linalg.checked_inv(np.eye(node.m) - K @ G, SingularResolvent, "")
    except SingularResolvent:
        return False
    return True


def stability_verdict(node, E, kappa):
    """Full stability analysis of the closed loop under u = -kappa y.

    Runs the stabilizing-feedback synthesis and decides benchimol_conditions
    on its scattering intermediate, whose A is the closed-loop A.  The
    verdict is StronglyStable (in fact exponentially stable) exactly when
    H = X^u = {0}; otherwise the closed-loop imaginary spectrum is the
    spectrum of A on H.  closed_loop_max_real is the raw spectral abscissa
    of the closed loop and decides nothing; imaginary_spectrum lists the
    open-loop eigenvalues within linalg.scaled_tol(A) of the axis.
    """
    syn = stabilizing_feedback(node, E, kappa)
    cweak, bweak, N, Nd, H = benchimol_conditions(
        syn.scattering_intermediate, require_contraction=False
    )
    Acl = syn.closed_loop.orthonormal[0]
    cl_imag = tuple(complex(v) for v in np.linalg.eigvals(H.conj().T @ Acl @ H))
    max_real = float(np.max(np.linalg.eigvals(Acl).real, initial=-np.inf))
    A = node.orthonormal[0]
    axis_tol = linalg.scaled_tol(A)
    open_imag = tuple(complex(v) for v in np.linalg.eigvals(A) if abs(v.real) < axis_tol)
    report = StabilityReport(
        unobservable_basis=N,
        uncontrollable_dual_basis=Nd,
        unitary_basis=H,
        imaginary_spectrum=open_imag,
        cweak_holds=cweak,
        bweak_holds=bweak,
        verdict=StabilityVerdict.STRONGLY_STABLE if cweak else StabilityVerdict.NOT_STABLE,
        closed_loop_imaginary_spectrum=cl_imag,
        closed_loop_max_real=max_real,
    )
    return report, syn
