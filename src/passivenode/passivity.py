"""Passivity certification and minimal feedthrough shifts.

The impedance / scattering tests are fixed quadratic forms evaluated in the
W-orthonormal coordinates of the node; a form passes when its minimum
eigenvalue is above the scale-invariant slack -tol*(1+||form||).  The
minimal-shift operations return the smallest self-adjoint E making
Sigma_E = (A, B, C, G+E) impedance passive, for the structured classes that
admit a closed formula.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ASSViolated,
    GridPointInSpectrum,
    NotColocated,
    NotESAD,
    NotSelfAdjointDissipative,
    NotSquare,
    OmegaInSpectrum,
    SingularResolvent,
)
from .node import resolvent

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
        val, vec = linalg.min_eig_with_vector(form)
        if val < worst:
            worst, witness = val, vec
        if val < -linalg.psd_tol(form):
            passive = False
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
    if node.p != node.m:
        raise NotSquare("impedance passivity needs p = m")
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
    Agrees with check_impedance(shift_feedthrough(node, E)).
    """
    if node.p != node.m:
        raise NotSquare("impedance passivity needs p = m")
    s = 1j * float(omega)
    _, B, C, _ = node.orthonormal
    E = linalg.assert_hermitian(E, "E")
    R, G = resolvent(node, s, OmegaInSpectrum, f"i*omega = {s} is in the spectrum of A")
    X = -(R @ B + R.conj().T @ C.conj().T)  # Aw^-1 = -R
    top = np.hstack([R + R.conj().T, X])
    bot = np.hstack([X.conj().T, 2.0 * E + G + G.conj().T])
    form = linalg.hermitize(np.vstack([top, bot]))
    return _certify(PassivityKind.IMPEDANCE, [form], (s,))


def colocation_residual_at(node, omega):
    """Residual of B*(iwI + A*)^-1 = C(iwI - A)^-1 (orthonormal coordinates).

    Returns (residual, ||C(iwI - A)^-1||, G(iw)); raises OmegaInSpectrum
    when iw is in the spectrum of A.
    """
    _, B, C, _ = node.orthonormal
    s = 1j * float(omega)
    R, G = resolvent(node, s, OmegaInSpectrum, f"i*omega = {s} is in the spectrum of A")
    # (iwI + A*)^-1 = -((iwI - A)^-1)* = -R*
    lhs = -B.conj().T @ R.conj().T
    rhs = C @ R
    return float(np.linalg.norm(lhs - rhs, 2)), float(np.linalg.norm(rhs, 2)), G


def minimal_E_colocated_at(node, omega):
    """Minimal shift E = -1/2 [G(iw) + G(iw)*] for resolvent-colocated nodes.

    Requires iw in rho(A) and the resolvent-colocation identity
    B*(iwI + A*)^-1 = C(iwI - A)^-1 to hold to tolerance.
    """
    resid, scale, G = colocation_residual_at(node, omega)
    if resid > 1e-8 * (1.0 + scale):
        raise ASSViolated(
            f"colocation resolvent identity fails at omega={omega} (residual {resid:.2e})"
        )
    return -linalg.hermitize(G)


def _require_colocated(node):
    _, B, C, _ = node.orthonormal
    scale = 1.0 + np.linalg.norm(B, 2)
    if np.linalg.norm(C - B.conj().T, 2) > 1e-9 * scale:
        raise NotColocated("C = B* (in the W inner product) does not hold")


def minimal_E_esad(node, s=1.0 + 0.0j):
    """Minimal shift for essentially skew-adjoint dissipative colocated nodes.

    E = -1/2 [G(s) + G(s)*] + 1/2 B*(s̄I - A*)^-1 [2 Re(s) I + Q] (sI - A)^-1 B
    with Q = -(A + A*) >= 0; the value is independent of s in rho(A).
    Raises SingularResolvent when s is in the spectrum of A.
    """
    A, B, _, _ = node.orthonormal
    Q = linalg.hermitize(-(A + A.conj().T))
    if linalg.min_eig_herm(Q) < -1e-10 * (1.0 + np.linalg.norm(Q, 2)):
        raise NotESAD("Q = -(A + A*) is not positive semidefinite")
    _require_colocated(node)
    s = complex(s)
    R, G = resolvent(node, s, SingularResolvent, f"s = {s} is in the spectrum of A")
    RB = R @ B
    E = -0.5 * (G + G.conj().T) + 0.5 * RB.conj().T @ (2.0 * s.real * np.eye(node.n) + Q) @ RB
    return linalg.hermitize(E)


def minimal_E_selfadjoint(node, s=1.0 + 0.0j):
    """Minimal shift for self-adjoint dissipative A with C = B*.

    E = -1/2 [G(s) + G(s)*] + B*(s̄I - A)^-1 [Re(s) I - A] (sI - A)^-1 B,
    independent of s in the open right half-plane.  Raises SingularResolvent
    when s is in the spectrum of A.
    """
    A, B, _, _ = node.orthonormal
    scale = 1.0 + np.linalg.norm(A, 2)
    if np.linalg.norm(A - A.conj().T, 2) > 1e-9 * scale:
        raise NotSelfAdjointDissipative("A is not self-adjoint")
    if linalg.spectral_abscissa(linalg.hermitize(A)) > 1e-9 * scale:
        raise NotSelfAdjointDissipative("A is not negative semidefinite")
    _require_colocated(node)
    s = complex(s)
    R, G = resolvent(node, s, SingularResolvent, f"s = {s} is in the spectrum of A")
    RB = R @ B
    # A = A*, so (s̄I - A)^-1 = ((sI - A)^-1)* and B*(s̄I - A)^-1 = (RB)*
    term = RB.conj().T @ (s.real * np.eye(node.n) - A) @ RB
    E = -0.5 * (G + G.conj().T) + term
    return linalg.hermitize(E)


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


@dataclass(frozen=True)
class PositiveRealScan:
    """Grid scan of the positive-real necessary condition G(s)+G(s)* >= 0."""

    points: tuple
    min_eigenvalues: tuple
    min_eigenvalue: float
    worst_point: complex

    @property
    def nonnegative(self):
        return self.min_eigenvalue >= -linalg.base_tol() * 10.0

    def as_dict(self):
        return {
            "points": [[s.real, s.imag] for s in self.points],
            "min_eigenvalues": list(self.min_eigenvalues),
            "min_eigenvalue": self.min_eigenvalue,
            "worst_point": [self.worst_point.real, self.worst_point.imag],
        }


def positive_real_scan(node, grid):
    """Minimum eigenvalue of G(s) + G(s)* over a right-half-plane grid.

    A negative result disproves impedance passivity; a nonnegative scan is
    only necessary, not sufficient (the condition depends on the
    realization).
    """
    pts, vals = [], []
    for s in map(complex, grid):
        if s.real <= 0:
            raise GridPointInSpectrum(f"grid point {s} is not in the open right half-plane")
        _, G = resolvent(node, s, GridPointInSpectrum,
                         f"grid point {s} is in the spectrum of A")
        pts.append(s)
        vals.append(linalg.min_eig_herm(G + G.conj().T))
    worst = int(np.argmin(vals))
    return PositiveRealScan(
        points=tuple(pts),
        min_eigenvalues=tuple(vals),
        min_eigenvalue=float(vals[worst]),
        worst_point=pts[worst],
    )
