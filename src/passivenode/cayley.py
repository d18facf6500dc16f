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

from . import linalg
from .errors import (
    AlphaInSpectrum,
    AlphaNotRightHalfPlane,
    DimensionMismatch,
    MinusOneEigenvalue,
    NonFiniteState,
    NonPositiveAlpha,
    SingularResolvent,
)
from .node import StateSpaceNode, check_conformable, resolvent
from .passivity import PassivityKind, _certify, _require_square
from .sim import _recur


def _right_half_plane(alpha, error):
    """alpha read by linalg.as_point, with Re(alpha) > 0 (error otherwise)."""
    alpha = linalg.as_point(alpha, "alpha", error)
    if alpha.real <= 0:
        raise error(f"alpha = {alpha} must have Re(alpha) > 0")
    return alpha


@dataclass(frozen=True)
class DiscreteSystem:
    """Discrete quadruple (Ad, Bd, Cd, Dd) tagged with its Cayley point."""

    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray
    Dd: np.ndarray
    alpha: complex

    def __post_init__(self):
        alpha = _right_half_plane(self.alpha, AlphaNotRightHalfPlane)
        for name in ("Ad", "Bd", "Cd", "Dd"):
            object.__setattr__(self, name, linalg.as_matrix(getattr(self, name), name))
        check_conformable(self.Ad, self.Bd, self.Cd, self.Dd)
        object.__setattr__(self, "alpha", alpha)

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
    alpha = _right_half_plane(alpha, AlphaNotRightHalfPlane)
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
    """Gd(z) = Cd (zI - Ad)^-1 Bd + Dd; z must be a finite complex number (DimensionMismatch)."""
    z = linalg.as_point(z, "z", DimensionMismatch)
    R = linalg.checked_inv(z * np.eye(disc.n) - disc.Ad, SingularResolvent,
                           f"z = {z} is in the spectrum of Ad to working precision")
    return disc.Cd @ (R @ disc.Bd) + disc.Dd


def check_discrete_passivity(disc, kind):
    """Certify discrete passivity of the quadruple.

    Scattering (any p and m): the block matrix [[Ad, Bd], [Cd, Dd]] is a
    contraction.  Impedance: [[I, Cd*], [Cd, Dd + Dd*]] - [[Ad* Ad, Ad* Bd],
    [Bd* Ad, Bd* Bd]] >= 0, which needs p = m (NotSquare otherwise).
    """
    kind = PassivityKind(kind) if not isinstance(kind, PassivityKind) else kind
    Ad, Bd, Cd, Dd = disc.Ad, disc.Bd, disc.Cd, disc.Dd
    n = Ad.shape[0]
    if kind is PassivityKind.SCATTERING:
        M = np.block([[Ad, Bd], [Cd, Dd]])
        form = np.eye(M.shape[1]) - M.conj().T @ M
    else:
        _require_square(disc)
        top = np.hstack([np.eye(n) - Ad.conj().T @ Ad, Cd.conj().T - Ad.conj().T @ Bd])
        bot = np.hstack([Cd - Bd.conj().T @ Ad, Dd + Dd.conj().T - Bd.conj().T @ Bd])
        form = np.vstack([top, bot])
    return _certify(kind, [form[None]], ())


def laguerre_functions(t, alpha, K):
    """Values ell_k(t), k = 0..K-1, of the Laguerre basis for L^2(0, inf).

    With alpha = a + i b (a > 0):

        ell_k(t) = (-1)^k sqrt(2a) e^{i b t} e^{-a t} L_k(2 a t),

    computed through the stable recurrence for f_k(x) = e^{-x/2} L_k(x):
    (k+1) f_{k+1} = (2k+1-x) f_k - k f_{k-1}.  Returns shape (K, len(t)).
    K must be an integer >= 0 and t finite reals (DimensionMismatch otherwise).
    """
    alpha = _right_half_plane(alpha, NonPositiveAlpha)
    a, b = alpha.real, alpha.imag
    K = linalg.as_count(K, "the number K of Laguerre functions", 0, DimensionMismatch)
    try:
        t = np.asarray(t)
    except ValueError:  # ragged
        t = np.asarray(None)
    if t.dtype.kind not in "biuf" or not np.isfinite(t).all():
        raise DimensionMismatch("the times t must be finite real numbers")
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

    u is a callable t -> vector (or scalar), read by linalg.sample
    (DimensionMismatch unless u is callable and its values are numbers with
    the same number m of entries at every time, NonFiniteState if one is not
    finite); returns shape (K, m).  A linalg.simpson over the uniform grid
    linalg.time_grid(T, steps, even=True) (InvalidTimeGrid); T should cover the
    support of u up to the decay of e^{-Re(alpha) t}.  The composite rule is
    a sum over pieces of an even panel count, so it runs over pieces of
    linalg.CHUNK panels, each forming its own Laguerre values and products
    u(t) conj(ell_k(t)): the memory held is the samples of u (m numbers per
    time) and one piece of K m products.  Each product is formed before it
    is weighted, so a huge u overflows as it would in the integrand.
    Coefficients that overflow raise NonFiniteState.
    """
    t = linalg.time_grid(T, steps, even=True)
    if not callable(u):
        raise DimensionMismatch(f"u must be a callable t -> input value, got {u!r}")
    U = linalg.sample(u, t, "input u(t)")
    coeffs = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, t.size - 1, linalg.CHUNK):
            piece = slice(lo, lo + linalg.CHUNK + 1)  # shares its last time with the next piece
            ell = laguerre_functions(t[piece], alpha, K)
            coeffs = coeffs + linalg.simpson(ell.conj().T[:, :, None] * U[piece, None, :],
                                             t[piece])
    if not np.isfinite(coeffs).all():
        raise NonFiniteState("the Laguerre coefficients overflow")
    return coeffs


def discrete_response(disc, u_coeffs):
    """Run the discrete recursion x+ = Ad x + Bd u_k, y_k = Cd x + Dd u_k.

    Starts from x = 0; returns the output coefficient sequence with the
    same leading length as u_coeffs.  u_coeffs is read by linalg.as_signal
    with disc.m entries per coefficient (a 1-D array is one number per
    coefficient); the outputs are real when the quadruple and u_coeffs are,
    and raise NonFiniteState when they overflow.  The states run through
    the blocked recurrence of the simulation (sim._recur), and the outputs
    come from them in one product.
    """
    u_coeffs = linalg.as_signal(u_coeffs, "u_coeffs", width=disc.m)
    K = u_coeffs.shape[0]
    dtype = np.result_type(disc.Ad, disc.Bd, disc.Cd, disc.Dd, u_coeffs)
    # the states x_0 = 0, ..., x_{K-1}: X[1:] first holds the forcing Bd u_k
    X = np.zeros((K, disc.n), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(u_coeffs[:-1], disc.Bd.T, out=X[1:])
        _recur(disc.Ad.astype(dtype, copy=False), X)
        y = X @ disc.Cd.T + u_coeffs @ disc.Dd.T
    finite = np.all(np.isfinite(y), axis=1)
    if not finite.all():
        raise NonFiniteState(f"the discrete response overflows at k = {np.argmin(finite)}")
    return y
