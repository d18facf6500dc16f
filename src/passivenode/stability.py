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
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotContraction
from .feedback import stabilizing_feedback


class StabilityVerdict(enum.Enum):
    STRONGLY_STABLE = "StronglyStable"
    NOT_STABLE = "NotStable"


def unobservable_space(node):
    """Orthonormal basis (in W-orthonormal coordinates) of the largest
    A-invariant subspace contained in ker C."""
    A, _, C, _ = node.orthonormal
    return linalg.largest_invariant_in(C, [A])


def uncontrollable_dual_space(node):
    """Largest A*-invariant subspace contained in ker B* (orthonormal coords)."""
    A, B, _, _ = node.orthonormal
    return linalg.largest_invariant_in(B.conj().T, [A.conj().T])


def unitary_subspace(node):
    """Unitary part X^u of the semigroup, in W-orthonormal coordinates.

    The largest subspace invariant under both A and A* on which
    A + A* = 0; equivalently the span of imaginary-axis eigenvectors when
    the semigroup is a contraction.  Raises NotContraction when
    WA + A*W <= 0 fails, by the sign rule of linalg.psd_vals.
    """
    A, _, _, _ = node.orthonormal
    Q = linalg.hermitize(A + A.conj().T)
    if not linalg.psd_vals(-Q)[1]:
        raise NotContraction("WA + A*W is not negative semidefinite")
    return linalg.largest_invariant_in(Q, [A, A.conj().T])


@dataclass(frozen=True)
class StabilityReport:
    """Subspace bases, spectra and verdict of the stability analysis.

    Every field but the informational open-loop imaginary_spectrum and the
    raw closed_loop_max_real follows from unitary_basis (H): the verdict is
    StronglyStable exactly when H = {0}.  imaginary_spectrum lists each
    eigenvalue lambda of the W-orthonormal A with
    |Re lambda| < tol (1 + |lambda|) + eps ||A||_F.
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
            # the spectrum of a node with n = 0 is empty, and JSON has no -inf
            "closed_loop_max_real": (None if math.isinf(self.closed_loop_max_real)
                                     else self.closed_loop_max_real),
        }


def benchimol_conditions(node):
    """Decide cweak and bweak for a scattering-passive node.

    Precondition: A + A* <= -C*C and A + A* <= -BB* in W-orthonormal
    coordinates, as for every scattering-passive node.  Then ker(A + A*)
    lies in ker C and in ker B*, so X^u lies in N and in N^d, and
    X^u = N ∩ X^u = N^d ∩ X^u = H, the largest {A, A*}-invariant subspace
    of ker(A + A*) ∩ N ∩ N^d.  H is found by one staircase sweep, and is {0}
    without one when N or N^d is.  cweak and bweak both hold exactly when
    H = {0}.  Returns (cweak, bweak, N_basis, Nd_basis, H_basis), all in
    W-orthonormal coordinates.  The precondition is checked first, by the
    sign rule of linalg.psd_vals, and NotContraction raised when it fails.
    """
    A, B, C, _ = node.orthonormal
    Q = linalg.hermitize(A + A.conj().T)
    if not linalg.psd_vals(-np.stack([Q + C.conj().T @ C, Q + B @ B.conj().T]))[1].all():
        raise NotContraction("A + A* <= -C*C or A + A* <= -BB* fails")
    return _benchimol_sweep(node)


def _benchimol_sweep(node):
    """benchimol_conditions on a node that meets its precondition, unchecked."""
    A = node.orthonormal[0]
    N = unobservable_space(node)
    Nd = uncontrollable_dual_space(node)
    H = np.zeros((node.n, 0), dtype=N.dtype)
    if N.shape[1] and Nd.shape[1]:
        Q = linalg.hermitize(A + A.conj().T)
        # x = N c lies in ker(A + A*) and in N^d; Q is scaled as in null_basis(Q)
        M = np.vstack([Q @ N / max(1.0, np.linalg.norm(Q, 2)), N - Nd @ (Nd.conj().T @ N)])
        K = N @ linalg.null_basis(M)
        # I - KK* annihilates exactly range(K), which lies in N ∩ N^d
        H = linalg.largest_invariant_in(np.eye(node.n) - K @ K.conj().T, [A, A.conj().T])
    holds = H.shape[1] == 0
    return holds, holds, N, Nd, H


def _axis_eigenvalues(A):
    """Eigenvalues lambda of A with |Re lambda| < tol (1 + |lambda|) + eps ||A||_F.

    Each eigenvalue is measured on its own scale, tol = base_tol(), so a
    stiff A does not widen the slack of its slow modes.  eps ||A||_F is the
    rounding floor of eigvals, whose backward error is about eps ||A||
    (Golub and Van Loan, Matrix Computations, 7.5): it keeps a zero whose
    computed |lambda| is a rounding error larger than its slack.
    """
    lam = np.linalg.eigvals(A)
    slack = linalg.base_tol() * (1.0 + np.abs(lam)) + np.finfo(float).eps * np.linalg.norm(A)
    return tuple(complex(v) for v in lam[np.abs(lam.real) < slack])


def stability_verdict(node, E, kappa):
    """Full stability analysis of the closed loop under u = -kappa y.

    Runs the stabilizing-feedback synthesis and decides benchimol_conditions
    on its scattering intermediate, whose A is the closed-loop A, without
    checking the precondition the construction guarantees.  The
    verdict is StronglyStable (in fact exponentially stable) exactly when
    H = X^u = {0}; otherwise the closed-loop imaginary spectrum is the
    spectrum of A on H.  closed_loop_max_real is the raw spectral abscissa
    of the closed loop (-inf for n = 0, written as null by as_dict) and
    decides nothing; imaginary_spectrum lists the open-loop eigenvalues
    lambda with |Re lambda| < tol (1 + |lambda|) + eps ||A||_F, the slack
    of the eigenvalue itself plus the rounding floor of eigvals
    (:func:`_axis_eigenvalues`).
    """
    syn = stabilizing_feedback(node, E, kappa)
    # the intermediate is scattering passive by construction
    cweak, bweak, N, Nd, H = _benchimol_sweep(syn.scattering_intermediate)
    # the closed-loop A in W-orthonormal coordinates
    Acl = syn.scattering_intermediate.orthonormal[0]
    cl_imag = tuple(complex(v) for v in np.linalg.eigvals(H.conj().T @ Acl @ H))
    max_real = float(np.max(np.linalg.eigvals(Acl).real, initial=-np.inf))
    report = StabilityReport(
        unobservable_basis=N,
        uncontrollable_dual_basis=Nd,
        unitary_basis=H,
        imaginary_spectrum=_axis_eigenvalues(node.orthonormal[0]),
        cweak_holds=cweak,
        bweak_holds=bweak,
        verdict=StabilityVerdict.STRONGLY_STABLE if cweak else StabilityVerdict.NOT_STABLE,
        closed_loop_imaginary_spectrum=cl_imag,
        closed_loop_max_real=max_real,
    )
    return report, syn
