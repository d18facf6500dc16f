"""Passivity certification and minimal feedthrough shifts.

Each kind of passivity has one bounded form, a quadratic form in (x, u)
with y = Cx + Du, in the W-orthonormal coordinates of the node:
:func:`impedance_block_bounded` and :func:`scattering_block_bounded`.  Every
resolvent form is that bounded form in the variables x = x' + (sI - A)^-1 B u
(the reciprocal form then sets x' = -(sI - A)^-1 x''): a congruence T* F T
with T invertible, which by Sylvester's law of inertia has the inertia of F,
so the verdict holds for some, hence for every, s.  A form passes when its
minimum eigenvalue is above the scale-invariant slack -tol*(1+||form||), a
rule read off its eigenvalues alone (linalg.psd_vals).  A check builds its
test-point forms as stacks, one per dtype, with one inverse of the stacked
sI - A each, decides every form by one eigvalsh per stack, and computes
eigenvectors once, for the witness of the worst form (:func:`_certify`).
The minimal-E functions decide Q >= 0 by the same rule, in the eigh
(linalg.psd_eig) whose eigenvectors the formula reads.
The smallest self-adjoint E making Sigma_E = (A, B, C, D+E) impedance passive
comes from one formula, :func:`minimal_E`: the Schur complement of the
bounded impedance form.  The structured functions (``minimal_E_esad``,
``minimal_E_selfadjoint``, ``minimal_E_colocated_at``) are class checks
followed by a call to it.  Whether an E exists is decided once, by the
certificate of the bounded form of Sigma_E alone (:func:`_certify_shifted`):
minimal_E applies it to its own candidate, and the feedback synthesis and
sim.adversarial_input apply it to the E they are given, so they accept
exactly the E that minimal_E returns; :func:`check_impedance` also ANDs its
point forms.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ASSViolated,
    DimensionMismatch,
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
    """Bounded-triple impedance form [[-A-A*, C*-B], [C-B*, D+D*]] (orthonormal).

    As a quadratic form in (x, u) it is 2 Re<y, u> - 2 Re<Ax + Bu, x>.
    """
    A, B, C, D = node.orthonormal
    top = np.hstack([-(A + A.conj().T), C.conj().T - B])
    bot = np.hstack([C - B.conj().T, D + D.conj().T])
    return linalg.hermitize(np.vstack([top, bot]))


def scattering_block_bounded(node):
    """Bounded-triple scattering form (orthonormal)
    [[-(A + A*) - C*C, -(B + C*D)], [-(B + C*D)*, I - D*D]].

    As a quadratic form in (x, u) it is ||u||^2 - ||y||^2 - 2 Re<Ax + Bu, x>.
    """
    A, B, C, D = node.orthonormal
    X = -(B + C.conj().T @ D)
    top = np.hstack([-(A + A.conj().T) - C.conj().T @ C, X])
    bot = np.hstack([X.conj().T, np.eye(node.m) - D.conj().T @ D])
    return linalg.hermitize(np.vstack([top, bot]))


def _congruence(form, RB):
    """T* form T for T = [[I, RB], [0, I]], at each RB of a stack (..., n, m).

    T is the change of variables x = x' + RB u, applied blockwise in
    O((n + m) n m) per form.  Returns a stack (..., n + m, n + m) of the
    dtype np.result_type(form, RB), not hermitized.
    """
    n = RB.shape[-2]
    F = np.empty(RB.shape[:-2] + form.shape, dtype=np.result_type(form, RB))
    F[...] = form
    F[..., n:] += F[..., :n] @ RB
    F[..., n:, :] += RB.conj().swapaxes(-1, -2) @ F[..., :n, :]
    return F


def impedance_form_at(node, s):
    """Impedance test form at s in rho(A): the bounded form in x = x' + (sI - A)^-1 B u."""
    return _form_at(node, impedance_block_bounded(node), s)


def scattering_form_at(node, s):
    """Scattering test form at s in rho(A): the bounded form in x = x' + (sI - A)^-1 B u."""
    return _form_at(node, scattering_block_bounded(node), s)


def _form_at(node, form, s):
    """The form at the one point s of :func:`_point_forms`; OmegaInSpectrum unless s is in rho(A)."""
    pts, stacks = _point_forms(node, form, (s,))
    if not pts:
        raise OmegaInSpectrum(f"test point {s} is in the spectrum of A")
    return linalg.hermitize(stacks[0][0])


def _point_forms(node, form, test_points, with_form=False):
    """(points, stacks): the test points in rho(A), and the form at them stacked by dtype.

    The points (default {1, 2+i, 2-i, 10}) are read by linalg.as_point.
    A form that equals one already formed is listed but not formed again:
    the form at a repeated point, and, when the form is real (a real node),
    the form at conj(s), which is the exact conjugate of the form at s, with
    the same eigenvalues.  The forms of one dtype make one stack
    (k, n + m, n + m), so the real points of a real node stay float64, and
    each stack takes one inverse of the stacked sI - A (linalg.inverses, by
    the node's blocks) and one stacked :func:`_congruence`.  A point whose
    sI - A is singular is in the spectrum of A: it is neither formed nor
    listed.  With with_form the form itself heads the stack of its dtype.
    """
    A, B, _, _ = node.orthonormal
    real = not np.iscomplexobj(form)
    points = [(s, linalg.as_point(s, "s", DimensionMismatch))
              for s in (DEFAULT_TEST_POINTS if test_points is None else test_points)]
    formed = {}  # point -> the point whose form it reads
    groups = {form.dtype: []} if with_form else {}  # dtype -> the points formed in it
    for _, z in points:
        if z not in formed:
            formed[z] = z
            if real:
                formed[z.conjugate()] = z
            dtype = np.dtype(float if real and not z.imag else complex)
            groups.setdefault(dtype, []).append(z)
    kept, stacks = set(), []
    for dtype, zs in groups.items():
        s = np.array(zs, dtype=complex)
        s = s.real if dtype == float else s
        R, invertible = linalg.inverses(s[:, None, None] * np.eye(node.n) - A, node.blocks)
        kept.update(z for z, ok in zip(zs, invertible) if ok)
        # the product over a singular slice, NaN or inf, is discarded unread
        with np.errstate(over="ignore", invalid="ignore"):
            RB = (R @ B)[invertible]
        if with_form and dtype == form.dtype:
            # the form itself is its congruence at RB = 0
            RB = np.concatenate([np.zeros((1,) + B.shape), RB])
        stacks.append(_congruence(form, RB))
    return tuple(s for s, z in points if formed[z] in kept), stacks


def _certify(kind, stacks, test_points, witness=True, labels=None):
    """Certificate of the stacks (k, N, N) of forms, which pass when each form is >= 0.

    The sign of every form is decided from its eigenvalues alone, by one
    linalg.psd_vals per stack (by blocks, given labels).  With witness, the
    worst form, the one with the least eigenvalue (the first on a tie), is
    then decomposed by linalg.psd_eig, the one eigh: its least eigenvalue is
    min_eigenvalue and its eigenvector the witness.  Without, min_eigenvalue
    is read off the eigenvalues and the witness is None.  A form of size 0
    (n + m = 0) passes, and when every form is empty the certificate
    reports min_eigenvalue 0.0 and an empty witness.
    """
    least, worst = np.inf, None
    passive = True
    for stack in stacks:
        if not stack.size:
            continue
        vals, psd = linalg.psd_vals(stack, labels)
        passive = passive and bool(psd.all())
        i = int(np.argmin(vals[:, 0]))
        if vals[i, 0] < least:
            least, worst = vals[i, 0], stack[i]
    if worst is None:
        least, vec = 0.0, np.zeros(0)
    elif witness:
        vals, vecs, _ = linalg.psd_eig(worst)
        least, vec = vals[0], vecs[:, 0]
    return PassivityCertificate(
        kind=kind,
        verdict=Verdict.PASSIVE if passive else Verdict.NOT_PASSIVE,
        test_points=tuple(test_points),
        min_eigenvalue=float(least),
        witness=vec if witness else None,
    )


def check_impedance(node, test_points=None):
    """Certify impedance passivity.

    The bounded form is always tested; its congruences at the given test
    points (default {1, 2+i, 2-i, 10} intersected with rho(A)) are tested
    too, and the verdict ANDs them all.  The forms are built and decided as
    stacks (:func:`_point_forms`, :func:`_certify`): one inverse, one
    eigvalsh per dtype, and one eigh, for the witness of the worst form.
    """
    _require_square(node)
    pts, stacks = _point_forms(node, impedance_block_bounded(node), test_points, with_form=True)
    return _certify(PassivityKind.IMPEDANCE, stacks, pts)


def check_scattering(node, test_points=None):
    """Certify scattering passivity at the test points (default as for impedance).

    Each point form is a congruence of :func:`scattering_block_bounded`,
    built and decided as stacks, as in :func:`check_impedance`.  Raises
    OmegaInSpectrum when no test point lies in rho(A).
    """
    pts, stacks = _point_forms(node, scattering_block_bounded(node), test_points)
    if not pts:
        raise OmegaInSpectrum("no usable test points in rho(A)")
    return _certify(PassivityKind.SCATTERING, stacks, pts)


def _shifted_form(node, E):
    """(F, E): the bounded impedance form F of Sigma_E and the checked shift E.

    F is :func:`impedance_block_bounded` with D + D* + 2E in its u block:
    the form whose Schur complement :func:`minimal_E` takes.  Raises
    NotSquare when p != m; E must be a self-adjoint m x m matrix
    (DimensionMismatch or NotSelfAdjoint otherwise), and None reads as 0.
    A real node with a real E keeps a real F.
    """
    _require_square(node)
    m = node.m
    E = linalg.assert_hermitian(shift_matrix(np.zeros((m, m)) if E is None else E, (m, m)), "E")
    F = impedance_block_bounded(node)
    F = F.astype(np.result_type(F, E), copy=False)
    F[node.n:, node.n:] += 2.0 * E
    return F, E


def _certify_shifted(node, E=None):
    """(certificate, E) of Sigma_E from the bounded form of :func:`_shifted_form` alone.

    At finite dimension that form decides impedance passivity of Sigma_E
    exactly, and it is the form minimal_E solves, so Sigma_E passes at
    E = minimal_E(node).  Its callers read the verdict and min_eigenvalue
    only, so only the form's eigenvalues are computed, and the certificate
    has no witness.  It is split by the node's blocks, under which
    Q = -(A + A*) is block diagonal, and the inputs as one more block.
    """
    F, E = _shifted_form(node, E)
    labels, (_, B, C, _) = node.blocks, node.orthonormal
    if labels is not None:  # C* - B joins the inputs to the blocks it touches
        labels = linalg.bordered(labels, (C != B.conj().T).any(axis=0)[None])
        labels = labels[np.minimum(np.arange(node.n + node.m), node.n)]
    return _certify(PassivityKind.IMPEDANCE, [F[None]], (), False, labels), E


def _reciprocal_form(node, E, s):
    """Reciprocal-system impedance form of Sigma_E at s = i*omega (orthonormal).

    With Aw = A - i*omega*I = -R^-1 it reads
    [[-Aw^-1 - Aw^-*, Aw^-1 B + Aw^-* C*],
     [B* Aw^-* + C Aw^-1, 2E + G(iw) + G(iw)*]]:
    the bounded form of Sigma_E under the resolvent change of variables
    followed by x' = -R x'', so T = [[-R, RB], [0, I]].
    """
    n = node.n
    F, _ = _shifted_form(node, E)
    R, _ = resolvent(node, s, OmegaInSpectrum, f"i*omega = {s} is in the spectrum of A")
    F = _congruence(F, R @ node.orthonormal[1])
    F[:, :n] = -F[:, :n] @ R
    F[:n, :] = -R.conj().T @ F[:n, :]
    return linalg.hermitize(F)


def check_impedance_reciprocal(node, E, omega):
    """Impedance test for Sigma_E through the reciprocal-system form.

    That form (:func:`_reciprocal_form`) is a congruence of the bounded form
    of Sigma_E, so the verdict agrees with
    check_impedance(shift_feedthrough(node, E)).  E must be m x m and omega
    real (DimensionMismatch otherwise).
    """
    s = 1j * linalg.as_real(omega, "omega", DimensionMismatch)
    return _certify(PassivityKind.IMPEDANCE, [_reciprocal_form(node, E, s)[None]], (s,))


def _require_square(node):
    if node.p != node.m:
        raise NotSquare("impedance passivity needs p = m")


def _require_colocated(node):
    _require_square(node)
    _, B, C, _ = node.orthonormal
    if np.linalg.norm(C - B.conj().T, 2) > linalg.scaled_tol(B):
        raise NotColocated("C = B* (in the W inner product) does not hold")


def _require_resolvent_point(node, s):
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

    Q >= 0 is decided first, by linalg.psd_eig (NotAlmostPassive
    otherwise).  Q^+ inverts only the eigenvalues above linalg.rank_floor, the
    rank rule of linalg.null_basis, so a slightly negative one that the sign
    rule accepted is never divided by.  Whether an E exists is decided by
    :func:`_certify_shifted` of this candidate, the certificate the
    synthesis makes, and NotAlmostPassive is raised when it rejects it, as
    it does when C - B* is nonzero on ker Q.  "Least" is exact when C - B*
    vanishes on ker Q; a coupling on ker Q within the certificate's slack
    is left out of E.  Raises NotSquare when p != m.
    """
    _require_square(node)
    return _minimal_E(node, *linalg.psd_eig(-node.dissipation_form()))


def _minimal_E(node, lam, V, dissipative):
    """:func:`minimal_E` of a square node from (lam, V, dissipative) = linalg.psd_eig(Q)."""
    if not dissipative:
        raise NotAlmostPassive(
            f"Q = -(A + A*) has the eigenvalue {lam[0]:.3e} < 0: no shift E "
            "makes the node impedance passive"
        )
    _, B, C, D = node.orthonormal
    F = (C - B.conj().T) @ V
    kernel = lam <= linalg.rank_floor(np.abs(lam).max(initial=0.0))
    Fr = F[:, ~kernel]
    E = linalg.hermitize(0.5 * (Fr / lam[~kernel]) @ Fr.conj().T - 0.5 * (D + D.conj().T))
    cert, _ = _certify_shifted(node, E)
    if not cert.passive:
        raise NotAlmostPassive(
            "C - B* is nonzero on ker(A + A*): the bounded form of Sigma_E at "
            f"the least candidate E has the eigenvalue {cert.min_eigenvalue:.3e}, "
            "so no shift E makes the node impedance passive"
        )
    return E


def minimal_E_colocated_at(node, omega):
    """Minimal shift of a resolvent-colocated node: :func:`minimal_E` after a class check.

    Requires iw in rho(A) (OmegaInSpectrum otherwise) and the
    resolvent-colocation identity B*(iwI + A*)^-1 = C(iwI - A)^-1 to hold
    to linalg.scaled_tol of C(iwI - A)^-1 (ASSViolated otherwise).  Where
    an E exists it equals -1/2 [G(iw) + G(iw)*].
    """
    _require_square(node)
    _, B, C, _ = node.orthonormal
    s = 1j * linalg.as_real(omega, "omega", DimensionMismatch)
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
    return _minimal_E_of_class(node, s, NotESAD("Q = -(A + A*) is not positive semidefinite"))


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
    return _minimal_E_of_class(node, s, NotSelfAdjointDissipative("A is not negative semidefinite"))


def _minimal_E_of_class(node, s, error):
    """:func:`minimal_E` after the class checks Q >= 0 (else error), C = B* and s in rho(A)."""
    eig = linalg.psd_eig(-node.dissipation_form())
    if not eig[2]:
        raise error
    _require_colocated(node)
    _require_resolvent_point(node, s)
    return _minimal_E(node, *eig)


def positive_part(E):
    """Positive spectral part of a self-adjoint E.

    Returns (E_plus, c, kappa0) with c = ||E_plus|| and kappa0 = 1/c
    (kappa0 = inf when c = 0).  ||E|| I >= E_plus >= E holds.
    """
    E = linalg.assert_hermitian(linalg.as_matrix(E, "E"), "E")
    vals, vecs = np.linalg.eigh(E)
    pos = np.clip(vals, 0.0, None)
    Eplus = linalg.hermitize(vecs @ np.diag(pos) @ vecs.conj().T)
    c = float(pos.max(initial=0.0))
    kappa0 = np.inf if c == 0.0 else 1.0 / c
    return Eplus, c, kappa0
