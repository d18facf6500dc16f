"""Diagonal transform, static output feedback, and stabilizing synthesis.

The diagonal transform with parameter k > 0 turns an impedance-passive node
Sigma into the scattering-passive node realizing
G^s = (I - kG)(I + kG)^-1.  The stabilizing-feedback route composes the
minimal shift E, its positive part, and the diagonal transform into the
closed loop produced by the static output feedback u = -kappa y, and the
two constructions are algebraically identical.
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
from .node import StateSpaceNode, shift_feedthrough, shift_matrix
from .passivity import check_impedance, positive_part


def diagonal_transform(node, k, certify=True):
    """Scattering-passive node with transfer (I - kG)(I + kG)^-1, k > 0.

        A^s = A - k B (I + kD)^-1 C,   B^s = sqrt(2k) B (I + kD)^-1,
        C^s = -sqrt(2k) (I + kD)^-1 C, D^s = (I + kD)^-1 (I - kD).

    The signal identity ||u^s||^2 - ||y^s||^2 = 2 Re <y, u> with
    u^s = sqrt(k/2)(u/k + y), y^s = sqrt(k/2)(u/k - y) makes the result
    scattering passive exactly when the input is impedance passive, which
    is certified up front unless certify=False.
    """
    k = float(k)
    if k <= 0:
        raise KappaOutOfRange(f"diagonal transform parameter k = {k} must be positive")
    if certify:
        cert = check_impedance(node)
        if not cert.passive:
            raise NotImpedancePassive(
                f"node is not impedance passive (min eigenvalue {cert.min_eigenvalue:.3e})"
            )
    m = node.m
    IkD_inv = linalg.checked_inv(np.eye(m) + k * np.asarray(node.D), SingularIPlusKD,
                                 "I + k D is singular")
    root = math.sqrt(2.0 * k)
    As = node.A - k * node.B @ IkD_inv @ node.C
    Bs = root * node.B @ IkD_inv
    Cs = -root * IkD_inv @ node.C
    Ds = IkD_inv @ (np.eye(m) - k * np.asarray(node.D))
    return StateSpaceNode(As, Bs, Cs, Ds, W=node.W,
                          meta=node.meta)


def gain_matrix(node, K):
    """K as an m x p complex array, broadcast like numpy (a scalar fills it).

    Raises DimensionMismatch when K does not broadcast to (m, p).
    """
    try:
        return np.broadcast_to(np.atleast_2d(np.asarray(K, dtype=complex)), (node.m, node.p))
    except ValueError:
        raise DimensionMismatch(f"K must broadcast to {node.m} x {node.p}") from None


def output_feedback(node, K):
    """Closed loop under static output feedback u = K y + v.

        A^K = A + B K (I - DK)^-1 C,  B^K = B (I - KD)^-1,
        C^K = (I - DK)^-1 C,          D^K = D (I - KD)^-1.

    Only I - KD is inverted: K (I - DK)^-1 = (I - KD)^-1 K and
    (I - DK)^-1 = I + D (I - KD)^-1 K.  K is read by gain_matrix.  Raises
    SingularIMinusKD when I - KD is singular.
    """
    K = gain_matrix(node, K)
    D = np.asarray(node.D)
    IKD_inv = linalg.checked_inv(np.eye(node.m) - K @ D, SingularIMinusKD,
                                 "I - K D is singular; feedback inadmissible")
    IKD_inv_K = IKD_inv @ K
    AK = node.A + node.B @ IKD_inv_K @ node.C
    BK = node.B @ IKD_inv
    CK = node.C + D @ IKD_inv_K @ node.C
    DK = D @ IKD_inv
    return StateSpaceNode(AK, BK, CK, DK, W=node.W,
                          meta=node.meta)


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


def stabilizing_feedback(node, E, kappa, certify=True):
    """Closed loop of an almost impedance-passive node under u = -kappa y.

    E is a self-adjoint shift making Sigma_E impedance passive (certified
    unless certify=False); with c = ||E^+|| the admissible gains are
    0 < kappa < kappa0 = 1/c (any kappa > 0 when c = 0).  The construction
    passes Sigma_{cI} through the diagonal transform at
    k = kappa / (1 - kappa c) and rescales:

        alpha = sqrt(2 kappa (1 - kappa c)),  beta = (1 - 2 kappa c)/alpha,
        A^kappa = A^s,  B^kappa = B^s / alpha,  C^kappa = -C^s / alpha,

    which coincides with output_feedback(node, -kappa I).  E must be m x m
    (DimensionMismatch otherwise).
    """
    E = linalg.assert_hermitian(shift_matrix(E, (node.m, node.m)), "E")
    kappa = float(kappa)
    Eplus, c, kappa0 = positive_part(E)
    if certify:
        cert = check_impedance(shift_feedthrough(node, E))
        if not cert.passive:
            raise NotAlmostPassive(
                f"Sigma_E is not impedance passive (min eigenvalue {cert.min_eigenvalue:.3e})"
            )
    if not (0.0 < kappa < kappa0):
        raise KappaOutOfRange(
            f"kappa = {kappa} outside the admissible open interval (0, {kappa0})"
        )
    k = kappa if c == 0.0 else kappa / (1.0 - kappa * c)
    node_c = shift_feedthrough(node, c * np.eye(node.m))
    sigma_s = diagonal_transform(node_c, k, certify=False)
    alpha = math.sqrt(2.0 * kappa * (1.0 - kappa * c))
    beta = (1.0 - 2.0 * kappa * c) / alpha
    closed = StateSpaceNode(
        sigma_s.A,
        np.asarray(sigma_s.B) / alpha,
        -np.asarray(sigma_s.C) / alpha,
        (beta / alpha) * np.eye(node.m) - np.asarray(sigma_s.D) / alpha**2,
        W=node.W,
        meta=node.meta,
    )
    return FeedbackSynthesis(
        E=E,
        c=c,
        kappa0=kappa0,
        kappa=kappa,
        alpha=alpha,
        beta=beta,
        closed_loop=closed,
        scattering_intermediate=sigma_s,
    )
