"""Static output feedback, the diagonal transform, and stabilizing synthesis.

Each node here is the closed loop of u = K y + v from one inverse of
I - KD (_closed_loop), read through a recombination of its signals.  The
diagonal transform at k > 0 is the loop at K = -kI: it turns an
impedance-passive node Sigma into the scattering-passive node realizing
G^s = (I - kG)(I + kG)^-1.  The stabilizing synthesis reads the loop at
K = -kappa I both as it is and, rescaled, as a scattering-passive node.
Both take their precondition (Sigma, or Sigma_E, impedance passive) from
one eigendecomposition of the bounded impedance form of Sigma_E, the form
passivity.minimal_E solves; no shifted node and no resolvent is formed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    KappaOutOfRange,
    NotAlmostPassive,
    NotImpedancePassive,
    SingularIMinusKD,
    SingularIPlusKD,
)
from .node import StateSpaceNode, _derived
from .passivity import _certify_shifted, positive_part


def diagonal_transform(node, k):
    """Scattering-passive node with transfer (I - kG)(I + kG)^-1, k > 0.

    The closed loop of u = -k y + v read through v = sqrt(2k) u^s and
    y^s = u^s - sqrt(2k) y, so u^s = (u + ky)/sqrt(2k), y^s = (u - ky)/sqrt(2k):

        A^s = A^K,  B^s = sqrt(2k) B^K,  C^s = -sqrt(2k) C^K,  D^s = I - 2k D^K

    at K = -kI.  The signal identity ||u^s||^2 - ||y^s||^2 = 2 Re <y, u>
    makes the result scattering passive exactly when the input is impedance
    passive.  That is certified first, by the bounded impedance form alone
    (NotImpedancePassive otherwise; NotSquare when p != m).  Raises
    SingularIPlusKD when I + kD is singular.
    """
    k = linalg.as_real(k, "diagonal transform parameter k", KappaOutOfRange)
    if k <= 0:
        raise KappaOutOfRange(f"diagonal transform parameter k = {k} must be positive")
    cert, _ = _certify_shifted(node)
    if not cert.passive:
        raise NotImpedancePassive(
            f"node is not impedance passive (min eigenvalue {cert.min_eigenvalue:.3e})"
        )
    m = node.m
    AK, BK, CK, DK = _closed_loop(node, -k * np.eye(m), SingularIPlusKD, "I + k D is singular")
    root = math.sqrt(2.0 * k)
    return _derived(node, (AK, root * BK, -root * CK, np.eye(m) - 2.0 * k * DK))


def gain_matrix(node, K):
    """K read by linalg.as_matrix and broadcast like numpy to m x p (a scalar fills it).

    A real K stays real, so the closed loop of a real node under a real gain
    is built in real arithmetic.  Raises DimensionMismatch when K does not
    broadcast to (m, p).
    """
    K = linalg.as_matrix(K, "K")
    try:
        return np.broadcast_to(K, (node.m, node.p))
    except ValueError:
        raise DimensionMismatch(f"K must broadcast to {node.m} x {node.p}") from None


def _closed_loop(node, K, error, message):
    """Loop of u = K y + v as (A^K, B^K, C^K, D^K).

        A^K = A + B K (I - DK)^-1 C,  B^K = B (I - KD)^-1,
        C^K = (I - DK)^-1 C,          D^K = D (I - KD)^-1.

    Only I - KD is inverted, once: K (I - DK)^-1 = (I - KD)^-1 K and
    (I - DK)^-1 = I + D (I - KD)^-1 K.  error(message) if I - KD is
    singular.  K is read by gain_matrix.
    """
    K = gain_matrix(node, K)
    A, B, C, D = node.A, node.B, node.C, node.D
    IKD_inv = linalg.checked_inv(np.eye(node.m) - K @ D, error, message)
    IKD_inv_K = IKD_inv @ K
    return A + B @ IKD_inv_K @ C, B @ IKD_inv, C + D @ IKD_inv_K @ C, D @ IKD_inv


def output_feedback(node, K):
    """Closed loop under static output feedback u = K y + v.

    The node of _closed_loop; K is read by gain_matrix.  Raises
    SingularIMinusKD when I - KD is singular.
    """
    return _derived(node, _closed_loop(node, K, SingularIMinusKD,
                                       "I - K D is singular; feedback inadmissible"))


@dataclass(frozen=True)
class FeedbackSynthesis:
    """Result of the stabilizing-feedback construction for Sigma with shift E."""

    E: np.ndarray
    c: float
    kappa0: float
    kappa: float
    alpha: float
    beta: float
    closed_loop: StateSpaceNode
    scattering_intermediate: StateSpaceNode

    def as_dict(self):
        return {
            "c": self.c,
            "kappa0": None if math.isinf(self.kappa0) else self.kappa0,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def stabilizing_feedback(node, E, kappa):
    """Closed loop of an almost impedance-passive node under u = -kappa y.

    E is a self-adjoint shift making Sigma_E impedance passive (None reads
    as 0).  That is certified by the bounded impedance form of Sigma_E,
    [[-(A + A*), C* - B], [C - B*, D + D* + 2E]] >= 0, whose least solution
    E is passivity.minimal_E, so minimal_E(node) itself is accepted
    (NotAlmostPassive otherwise; NotSquare when p != m).  With c = ||E^+||
    the admissible gains are 0 < kappa < kappa0 = 1/c (any kappa > 0 when
    c = 0).  One closed loop (A^kappa, B^kappa, C^kappa, D^kappa) of
    u = -kappa y + v, from the one inverse of I + kappa D, gives both
    nodes, and no other node is built: closed_loop is that loop, and with

        alpha = sqrt(2 kappa (1 - kappa c)),  beta = (1 - 2 kappa c)/alpha,

    scattering_intermediate is (A^kappa, alpha B^kappa, -alpha C^kappa,
    alpha beta I - alpha^2 D^kappa).  Since
    I + k(D + cI) = (I + kappa D)/(1 - kappa c), the intermediate is the
    diagonal transform of Sigma_{cI} at k = kappa/(1 - kappa c), so it is
    scattering passive.  E must be m x m (DimensionMismatch otherwise).
    """
    kappa = linalg.as_real(kappa, "kappa", KappaOutOfRange)
    cert, E = _certify_shifted(node, E)
    _, c, kappa0 = positive_part(E)
    if not cert.passive:
        raise NotAlmostPassive(
            f"Sigma_E is not impedance passive (min eigenvalue {cert.min_eigenvalue:.3e})"
        )
    if not (0.0 < kappa < kappa0):
        raise KappaOutOfRange(
            f"kappa = {kappa} outside the admissible open interval (0, {kappa0})"
        )
    m = node.m
    loop = _closed_loop(node, -kappa * np.eye(m), SingularIPlusKD, "I + kappa D is singular")
    AK, BK, CK, DK = loop
    alpha = math.sqrt(2.0 * kappa * (1.0 - kappa * c))
    beta = (1.0 - 2.0 * kappa * c) / alpha
    return FeedbackSynthesis(
        E=E,
        c=c,
        kappa0=kappa0,
        kappa=kappa,
        alpha=alpha,
        beta=beta,
        closed_loop=_derived(node, loop),
        scattering_intermediate=_derived(
            node, (AK, alpha * BK, -alpha * CK, (alpha * beta) * np.eye(m) - alpha**2 * DK)
        ),
    )
