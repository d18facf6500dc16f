"""Passivity certification and minimal feedthrough shifts.

The impedance / scattering tests are fixed quadratic forms evaluated in the
W-orthonormal coordinates of the node; a form passes when its minimum
eigenvalue is above the scale-invariant slack -tol*(1+||form||) of
linalg.psd_eig, and the minimal-E functions decide Q >= 0 by the same call.
The smallest self-adjoint E making Sigma_E = (A, B, C, D+E) impedance passive
comes from one formula, :func:`minimal_E`: the Schur complement of the
bounded impedance form.  The structured functions (``minimal_E_esad``,
``minimal_E_selfadjoint``, ``minimal_E_colocated_at``) are class checks
followed by a call to it.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ASSViolated,
    NotColocated,
    NotAlmostPassive,
    NotESAD,
    NotSelfAdjointDissipative,
    NotSquare,
    OmegaInSpectrum,
    SingularResolvent,
)
from .node import resolvent, shift_matrix

DEFAULT_TEST_POINTS = (1.0 + 0.0j, 2.0 + 1.0j, 2.0 - 1.0j, 10.0 + 0.0j)


class PassivityKind(enum.Enum):
    SCATTERING = "Scattering"
    IMPEDANCE = "Impedance"


class Verdict(enum.Enum):
    PASSIVE = "Passive"
    NOT_PASSIVE = "NotPassive"


@dataclass(frozen=True)
class PassivityCertificate:
    """Verdict plus witness data for a passivity test."""

    kind: PassivityKind
    verdict: Verdict
    test_points: tuple
    min_eigenvalue: float
    witness: np.ndarray = None

    @property
    def passive(self):
        return self.verdict is Verdict.PASSIVE

    def as_dict(self):
        d = {
            "kind": self.kind.value,
            "verdict": self.verdict.value,
            "min_eigenvalue": self.min_eigenvalue,
            "test_points": [[float(s.real), float(s.imag)] for s in self.test_points],
        }
        if self.witness is not None:
            d["witness"] = [[float(w.real), float(w.imag)] for w in np.ravel(self.witness)]
        return d


def impedance_block_bounded(node):
    """Bounded-triple impedance form [[-A-A*, C*-B], [C-B*, D+D*]] (orthonormal)."""
    A, B, C, D = node.orthonormal
    top = np.hstack([-(A + A.conj().T), C.conj().T - B])
    bot = np.hstack([C - B.conj().T, D + D.conj().T])
    return linalg.hermitize(np.vstack([top, bot]))


def _resolvent_blocks(node, s):
    A, B, C, _ = node.orthonormal
    R, G = resolvent(node, s, OmegaInSpectrum, f"test point {s} is in the spectrum of A")
    RB = R @ B
    M11 = A + A.conj().T
    M12 = (s * np.eye(node.n) + A.conj().T) @ RB
    M22 = 2.0 * s.real * (RB.conj().T @ RB)
    return A, B, C, G, M11, M12, M22


def impedance_form_at(node, s):
    """Impedance test form at a resolvent point s (PSD iff passive)."""
    A, B, C, G, M11, M12, M22 = _resolvent_blocks(node, complex(s))
    top = np.hstack([-M11, C.conj().T - M12])
    bot = np.hstack([C - M12.conj().T, G + G.conj().T - M22])
    return linalg.hermitize(np.vstack([top, bot]))


def scattering_form_at(node, s):
    """Scattering test form at a resolvent point s (PSD iff passive)."""
    A, B, C, G, M11, M12, M22 = _resolvent_blocks(node, complex(s))
    m = G.shape[1]
    top = np.hstack([-(M11 + C.conj().T @ C), -(M12 + C.conj().T @ G)])
    bot = np.hstack([-(M12 + C.conj().T @ G).conj().T, np.eye(m) - M22 - G.conj().T @ G])
    return linalg.hermitize(np.vstack([top, bot]))


def _point_forms(node, form_at, test_points):
    """form_at(node, s) at the test points in rho(A); one inverse per point."""
    pts, forms = [], []
    for s in map(complex, DEFAULT_TEST_POINTS if test_points is None else test_points):
        try:
            forms.append(form_at(node, s))
        except OmegaInSpectrum:
            continue
        pts.append(s)
    return tuple(pts), forms


def _certify(kind, forms, test_points):
    worst = np.inf
    witness = None
    passive = True
    for form in forms:
        vals, vecs, psd = linalg.psd_eig(form)
        if vals[0] < worst:
            worst, witness = vals[0], vecs[:, 0]
        passive = passive and psd
    return PassivityCertificate(
        kind=kind,
        verdict=Verdict.PASSIVE if passive else Verdict.NOT_PASSIVE,
        test_points=tuple(test_points),
        min_eigenvalue=float(worst),
        witness=witness,
    )


def check_impedance(node, test_points=None):
    """Certify impedance passivity.

    The bounded-triple block form is always tested; the resolvent-point
    form is additionally evaluated at the given test points (default
    {1, 2+i, 2-i, 10} intersected with rho(A)) -- the verdicts agree
    ("for some, hence for every, s").
    """
    _require_square(node)
    pts, forms = _point_forms(node, impedance_form_at, test_points)
    return _certify(PassivityKind.IMPEDANCE, [impedance_block_bounded(node)] + forms, pts)


def check_scattering(node, test_points=None):
    """Certify scattering passivity via the resolvent-point test form."""
    pts, forms = _point_forms(node, scattering_form_at, test_points)
    if not pts:
        raise OmegaInSpectrum("no usable test points in rho(A)")
    return _certify(PassivityKind.SCATTERING, forms, pts)


def check_impedance_reciprocal(node, E, omega):
    """Impedance test for Sigma_E through the reciprocal-system block form.

    With Aw = A - i*omega*I the form is
    [[-Aw^-1 - Aw^-*, Aw^-1 B + Aw^-* C*],
     [B* Aw^-* + C Aw^-1, 2E + G(iw) + G(iw)*]] >= 0.
    Agrees with check_impedance(shift_feedthrough(node, E)).  E must be
    m x m (DimensionMismatch otherwise).
    """
    _require_square(node)
    s = 1j * float(omega)
    _, B, C, _ = node.orthonormal
    E = linalg.assert_hermitian(shift_matrix(E, (node.m, node.m)), "E")
    R, G = resolvent(node, s, OmegaInSpectrum, f"i*omega = {s} is in the spectrum of A")
    X = -(R @ B + R.conj().T @ C.conj().T)  # Aw^-1 = -R
    top = np.hstack([R + R.conj().T, X])
    bot = np.hstack([X.conj().T, 2.0 * E + G + G.conj().T])
    form = linalg.hermitize(np.vstack([top, bot]))
    return _certify(PassivityKind.IMPEDANCE, [form], (s,))


def _require_square(node):
    if node.p != node.m:
        raise NotSquare("impedance passivity needs p = m")


def _require_colocated(node):
    _require_square(node)
    _, B, C, _ = node.orthonormal
    if np.linalg.norm(C - B.conj().T, 2) > linalg.scaled_tol(B):
        raise NotColocated("C = B* (in the W inner product) does not hold")


def _require_resolvent_point(node, s):
    s = complex(s)
    resolvent(node, s, SingularResolvent, f"s = {s} is in the spectrum of A")


def minimal_E(node):
    """Least self-adjoint E making Sigma_E = (A, B, C, D + E) impedance passive.

    With Q = -(A + A*) in W-orthonormal coordinates, Sigma_E is passive iff
    the bounded form of :func:`impedance_block_bounded`,
    [[Q, C* - B], [C - B*, D + D* + 2E]], is positive semidefinite.  Its
    Schur complement in the Q block gives the least such E in the Loewner
    order (Willems 1972, "Dissipative dynamical systems", Arch. Rational
    Mech. Anal. 45):

        E_min = 1/2 [(C - B*) Q^+ (C* - B) - (D + D*)].

    An E exists iff Q >= 0 and C - B* vanishes on ker Q; otherwise
    NotAlmostPassive is raised.  Q >= 0 is linalg.psd_eig, the test the
    certificate makes.  ker Q holds every eigenvalue up to SUBSPACE_TOL, the
    rank rule of linalg.null_basis, so a slightly negative one that the sign
    rule accepted is never divided by; C - B* counts as zero on it to
    linalg.scaled_tol(B), the rule of the C = B* class check.  Raises
    NotSquare when p != m.
    """
    _require_square(node)
    _, B, C, D = node.orthonormal
    lam, V, dissipative = linalg.psd_eig(-node.dissipation_form())
    if not dissipative:
        raise NotAlmostPassive(
            f"Q = -(A + A*) has the eigenvalue {lam[0]:.3e} < 0: no shift E "
            "makes the node impedance passive"
        )
    F = (C - B.conj().T) @ V
    kernel = lam <= linalg.SUBSPACE_TOL * max(1.0, np.abs(lam).max(initial=0.0))
    resid = np.linalg.norm(F[:, kernel], 2)
    if resid > linalg.scaled_tol(B):
        raise NotAlmostPassive(
            f"C - B* is nonzero on ker(A + A*): ||(C - B*)k|| = {resid:.3e} for the "
            "worst unit k in the kernel, so no shift E makes the node impedance passive"
        )
    Fr = F[:, ~kernel]
    return linalg.hermitize(0.5 * (Fr / lam[~kernel]) @ Fr.conj().T - 0.5 * (D + D.conj().T))


def minimal_E_colocated_at(node, omega):
    """Minimal shift of a resolvent-colocated node: :func:`minimal_E` after a class check.

    Requires iw in rho(A) (OmegaInSpectrum otherwise) and the
    resolvent-colocation identity B*(iwI + A*)^-1 = C(iwI - A)^-1 to hold
    to linalg.scaled_tol of C(iwI - A)^-1 (ASSViolated otherwise).  Where
    an E exists it equals -1/2 [G(iw) + G(iw)*].
    """
    _require_square(node)
    _, B, C, _ = node.orthonormal
    s = 1j * float(omega)
    R, _ = resolvent(node, s, OmegaInSpectrum, f"i*omega = {s} is in the spectrum of A")
    # (iwI + A*)^-1 = -((iwI - A)^-1)* = -R*
    CR = C @ R
    resid = np.linalg.norm(B.conj().T @ R.conj().T + CR, 2)
    if resid > linalg.scaled_tol(CR):
        raise ASSViolated(
            f"colocation resolvent identity fails at omega={omega} (residual {resid:.2e})"
        )
    return minimal_E(node)


def minimal_E_esad(node, s=1.0 + 0.0j):
    """Minimal shift of an essentially skew-adjoint dissipative colocated node.

    Class check (Q = -(A + A*) >= 0, p = m, C = B*) followed by
    :func:`minimal_E`; at finite dimension the value is -1/2 (D + D*).  s
    is kept from the resolvent form of the formula, whose value does not
    depend on s: it is only checked to lie in rho(A), and
    SingularResolvent is raised when it does not.
    """
    if not linalg.psd_eig(-node.dissipation_form())[2]:
        raise NotESAD("Q = -(A + A*) is not positive semidefinite")
    _require_colocated(node)
    _require_resolvent_point(node, s)
    return minimal_E(node)


def minimal_E_selfadjoint(node, s=1.0 + 0.0j):
    """Minimal shift for self-adjoint dissipative A with C = B*.

    Class check (A = A* <= 0, p = m, C = B*) followed by
    :func:`minimal_E`.  A <= 0 is decided as Q = -(A + A*) >= 0, by the
    test minimal_E makes.  s is only checked to lie in rho(A), as in
    :func:`minimal_E_esad`.
    """
    A, _, _, _ = node.orthonormal
    if np.linalg.norm(A - A.conj().T, 2) > linalg.scaled_tol(A):
        raise NotSelfAdjointDissipative("A is not self-adjoint")
    if not linalg.psd_eig(-node.dissipation_form())[2]:
        raise NotSelfAdjointDissipative("A is not negative semidefinite")
    _require_colocated(node)
    _require_resolvent_point(node, s)
    return minimal_E(node)


def positive_part(E):
    """Positive spectral part of a self-adjoint E.

    Returns (E_plus, c, kappa0) with c = ||E_plus|| and kappa0 = 1/c
    (kappa0 = inf when c = 0).  ||E|| I >= E_plus >= E holds.
    """
    E = linalg.assert_hermitian(E, "E")
    vals, vecs = np.linalg.eigh(E)
    pos = np.clip(vals, 0.0, None)
    Eplus = linalg.hermitize(vecs @ np.diag(pos) @ vecs.conj().T)
    c = float(pos.max(initial=0.0))
    kappa0 = np.inf if c == 0.0 else 1.0 / c
    return Eplus, c, kappa0
