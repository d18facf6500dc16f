"""Internal Cayley transform and discrete-time passivity checks.

The internal Cayley transform at a point alpha in the open right half-plane
maps a continuous-time realization to the discrete quadruple

    Ad = (conj(alpha) I + A)(alpha I - A)^-1,
    Bd = sqrt(2 Re alpha) (alpha I - A)^-1 B,
    Cd = sqrt(2 Re alpha) C (alpha I - A)^-1,
    Dd = G(alpha),

with discrete transfer function Gd(z) = G((alpha z - conj(alpha)) / (z + 1)).
Impedance / scattering passivity of the node is equivalent to the matching
discrete property of (Ad, Bd, Cd, Dd).  Also includes the Laguerre basis
that realizes this correspondence on signals.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from . import linalg
from .errors import (
    AlphaInSpectrum,
    AlphaNotRightHalfPlane,
    MinusOneEigenvalue,
    NonPositiveAlpha,
    SingularResolvent,
)
from .node import StateSpaceNode, resolvent
from .passivity import PassivityCertificate, PassivityKind, Verdict


@dataclass(frozen=True)
class DiscreteSystem:
    """Discrete quadruple (Ad, Bd, Cd, Dd) tagged with its Cayley point."""

    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray
    Dd: np.ndarray
    alpha: complex

    def __post_init__(self):
        if complex(self.alpha).real <= 0:
            raise AlphaNotRightHalfPlane("alpha must have positive real part")
        for name in ("Ad", "Bd", "Cd", "Dd"):
            object.__setattr__(self, name, linalg.as_matrix(getattr(self, name), name))
        object.__setattr__(self, "alpha", complex(self.alpha))

    @property
    def n(self):
        return self.Ad.shape[0]

    @property
    def m(self):
        return self.Bd.shape[1]

    @property
    def p(self):
        return self.Cd.shape[0]


def internal_cayley(node, alpha=1.0 + 0.0j):
    """Internal Cayley transform of a node at alpha (Re alpha > 0).

    Works in the W-orthonormal coordinates of the node, so passivity
    equivalences hold with plain Euclidean norms on the discrete side.
    """
    alpha = complex(alpha)
    if alpha.real <= 0:
        raise AlphaNotRightHalfPlane(f"alpha = {alpha} must have Re(alpha) > 0")
    A, B, C, _ = node.orthonormal
    R, Dd = resolvent(node, alpha, AlphaInSpectrum, f"alpha = {alpha} is in the spectrum of A")
    root = np.sqrt(2.0 * alpha.real)
    Ad = (np.conj(alpha) * np.eye(node.n) + A) @ R
    Bd = root * (R @ B)
    Cd = root * (C @ R)
    return DiscreteSystem(Ad=Ad, Bd=Bd, Cd=Cd, Dd=Dd, alpha=alpha)


def inverse_cayley(disc):
    """Recover the continuous-time node from a discrete quadruple.

    Requires -1 not an eigenvalue of Ad.  Returns a node with W = I whose
    internal Cayley transform at the same alpha reproduces the input.
    """
    Ad, Bd, Cd, Dd, alpha = disc.Ad, disc.Bd, disc.Cd, disc.Dd, disc.alpha
    n = Ad.shape[0]
    P = linalg.checked_inv(Ad + np.eye(n), MinusOneEigenvalue,
                           "-1 is an eigenvalue of Ad; inverse transform undefined")
    root = np.sqrt(2.0 * alpha.real)
    aIA = 2.0 * alpha.real * P  # alpha I - A
    A = alpha * np.eye(n) - aIA
    B = aIA @ Bd / root
    C = Cd @ aIA / root
    # (alpha I - A)^-1 = (Ad + I) / (2 Re alpha)
    D = Dd - C @ (Ad + np.eye(n)) @ B / (2.0 * alpha.real)
    return StateSpaceNode(A, B, C, D)


def discrete_transfer(disc, z):
    """Gd(z) = Cd (zI - Ad)^-1 Bd + Dd."""
    R = linalg.checked_inv(complex(z) * np.eye(disc.n) - disc.Ad, SingularResolvent,
                           f"z = {z} is in the spectrum of Ad to working precision")
    return disc.Cd @ (R @ disc.Bd) + disc.Dd


def check_discrete_passivity(disc, kind):
    """Certify discrete passivity of the quadruple.

    Scattering: the block matrix [[Ad, Bd], [Cd, Dd]] is a contraction.
    Impedance: [[I, Cd*], [Cd, Dd + Dd*]] - [[Ad* Ad, Ad* Bd],
    [Bd* Ad, Bd* Bd]] >= 0.
    """
    kind = PassivityKind(kind) if not isinstance(kind, PassivityKind) else kind
    Ad, Bd, Cd, Dd = disc.Ad, disc.Bd, disc.Cd, disc.Dd
    n = Ad.shape[0]
    if kind is PassivityKind.SCATTERING:
        M = np.block([[Ad, Bd], [Cd, Dd]])
        form = np.eye(M.shape[1]) - M.conj().T @ M
    else:
        top = np.hstack([np.eye(n) - Ad.conj().T @ Ad, Cd.conj().T - Ad.conj().T @ Bd])
        bot = np.hstack([Cd - Bd.conj().T @ Ad, Dd + Dd.conj().T - Bd.conj().T @ Bd])
        form = np.vstack([top, bot])
    form = linalg.hermitize(form)
    vals, vecs, passive = linalg.psd_eig(form)
    return PassivityCertificate(
        kind=kind,
        verdict=Verdict.PASSIVE if passive else Verdict.NOT_PASSIVE,
        test_points=(),
        min_eigenvalue=float(vals[0]),
        witness=vecs[:, 0],
    )


def laguerre_functions(t, alpha, K):
    """Values ell_k(t), k = 0..K-1, of the Laguerre basis for L^2(0, inf).

    With alpha = a + i b (a > 0):

        ell_k(t) = (-1)^k sqrt(2a) e^{i b t} e^{-a t} L_k(2 a t),

    computed through the stable recurrence for f_k(x) = e^{-x/2} L_k(x):
    (k+1) f_{k+1} = (2k+1-x) f_k - k f_{k-1}.  Returns shape (K, len(t)).
    """
    alpha = complex(alpha)
    a, b = alpha.real, alpha.imag
    if a <= 0:
        raise NonPositiveAlpha(f"alpha = {alpha} must have Re(alpha) > 0")
    t = np.asarray(t, dtype=float)
    x = 2.0 * a * t
    out = np.empty((K, t.size), dtype=complex)
    fk_prev = np.zeros_like(x)
    fk = np.exp(-0.5 * x)
    phase = np.sqrt(2.0 * a) * np.exp(1j * b * t)
    for k in range(K):
        out[k] = ((-1.0) ** k) * phase * fk
        fk_next = ((2 * k + 1 - x) * fk - k * fk_prev) / (k + 1)
        fk_prev, fk = fk, fk_next
    return out


def laguerre_coefficients(u, alpha, K, T, steps=4000):
    """Laguerre coefficients u_k = int_0^T u(t) conj(ell_k(t)) dt.

    u is a callable t -> vector (or scalar); returns shape (K, m).
    Simpson quadrature on a uniform grid with `steps` panels; T should
    cover the support of u up to the decay of e^{-Re(alpha) t}.
    """
    steps = int(steps)
    if steps % 2:
        steps += 1
    t = np.linspace(0.0, float(T), steps + 1)
    U = np.array([np.atleast_1d(np.asarray(u(ti), dtype=complex)) for ti in t])
    ell = laguerre_functions(t, alpha, K)
    coeffs = np.empty((K, U.shape[1]), dtype=complex)
    for k in range(K):
        integ = U * np.conj(ell[k])[:, None]
        coeffs[k] = simpson(integ, x=t, axis=0)
    return coeffs


def discrete_response(disc, u_coeffs):
    """Run the discrete recursion x+ = Ad x + Bd u_k, y_k = Cd x + Dd u_k.

    Starts from x = 0; returns the output coefficient sequence with the
    same leading length as u_coeffs.
    """
    u_coeffs = np.atleast_2d(np.asarray(u_coeffs, dtype=complex))
    K = u_coeffs.shape[0]
    x = np.zeros(disc.n, dtype=complex)
    y = np.empty((K, disc.p), dtype=complex)
    for k in range(K):
        y[k] = disc.Cd @ x + disc.Dd @ u_coeffs[k]
        x = disc.Ad @ x + disc.Bd @ u_coeffs[k]
    return y
