"""Second-order (mechanical) plants and the flexible-beam example.

A second-order plant  q'' + M q' + A0 q = (input coupling)  with stiffness
A0 > 0 and damping M >= 0 is realized in first-order form on the state
x = (q, q') with energy weight W = diag(A0, I):

    A = [[0, I], [-A0, -M]].

Three couplings are provided: a colocated velocity channel, a non-colocated
channel and a two-channel configuration mixing position-type and
velocity-type measurements; each builder returns the node together with
its minimal impedance shift.  The flexible-beam builder discretizes a
free-free Euler-Bernoulli beam by modal truncation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from . import linalg
from .errors import DimensionMismatch, RootFindingFailure, SingularA0, SingularM
from .node import StateSpaceNode
from .passivity import minimal_E


@dataclass(frozen=True)
class SecondOrderPlant:
    """Ingredients (A0, M, C0 [, B0, C1]) of a second-order plant."""

    A0: np.ndarray
    M: np.ndarray
    C0: np.ndarray
    B0: np.ndarray = None
    C1: np.ndarray = None

    def __post_init__(self):
        A0 = linalg.assert_hermitian(linalg.as_matrix(self.A0, "A0"), "A0")
        M = linalg.assert_hermitian(linalg.as_matrix(self.M, "M"), "M")
        C0 = linalg.as_matrix(self.C0, "C0")
        n0 = A0.shape[0]
        if M.shape != (n0, n0) or C0.shape[1] != n0:
            raise DimensionMismatch("A0, M, C0 dimensions do not conform")
        linalg.cholesky(A0, SingularA0, "stiffness A0 must be positive definite")
        if not linalg.psd_eig(M)[2]:
            raise DimensionMismatch("damping M must be positive semidefinite")
        for name, val in (("A0", A0), ("M", M), ("C0", C0)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        for name in ("B0", "C1"):
            val = getattr(self, name)
            if val is not None:
                val = linalg.as_matrix(val, name)
                # B0 may come as n0 x m or as m x n0; C1 is always p1 x n0
                if val.shape[1] != n0 and (name == "C1" or val.shape[0] != n0):
                    raise DimensionMismatch(f"{name} does not conform with A0")
            object.__setattr__(self, name, val)

    @property
    def n0(self):
        return self.A0.shape[0]


def _first_order(plant):
    n0 = plant.n0
    Z = np.zeros((n0, n0), dtype=complex)
    A = np.block([[Z, np.eye(n0)], [-plant.A0, -plant.M]])
    W = np.block([[plant.A0, Z], [Z, np.eye(n0)]])
    return A, W


def build_colocated(plant):
    """Colocated velocity actuation/sensing: B = [0; C0*], y = C0 q'.

    Impedance passive with E = 0; B* = C in the W inner product.
    """
    A, W = _first_order(plant)
    n0, p = plant.n0, plant.C0.shape[0]
    B = np.vstack([np.zeros((n0, p), dtype=complex), plant.C0.conj().T])
    C = np.hstack([np.zeros((p, n0), dtype=complex), plant.C0])
    D = np.zeros((p, p), dtype=complex)
    node = StateSpaceNode(A, B, C, D, W=W, meta="second-order colocated")
    E_min = np.zeros((p, p), dtype=complex)
    return node, E_min


def build_noncolocated(plant):
    """Velocity sensing C0 with a different input coupling B0.

    B = [0; B0], y = C0 q'.  Damping M must be invertible.  The minimal
    impedance shift is passivity.minimal_E of the node, which here
    evaluates to E = 1/4 (C0 - B0*) M^-1 (C0* - B0), the Schur complement
    of the damping block in the bounded impedance form.
    """
    if plant.B0 is None:
        raise DimensionMismatch("plant must provide B0 for the non-colocated build")
    linalg.checked_inv(plant.M, SingularM,
                       "damping M must be invertible for the non-colocated shift")
    A, W = _first_order(plant)
    n0 = plant.n0
    B0 = plant.B0 if plant.B0.shape[0] == n0 else plant.B0.conj().T
    m = B0.shape[1]
    p = plant.C0.shape[0]
    if p != m:
        raise DimensionMismatch("non-colocated build needs p = m")
    B = np.vstack([np.zeros((n0, m), dtype=complex), B0])
    C = np.hstack([np.zeros((p, n0), dtype=complex), plant.C0])
    D = np.zeros((p, m), dtype=complex)
    node = StateSpaceNode(A, B, C, D, W=W, meta="second-order non-colocated")
    return node, minimal_E(node)


def build_two_channel(plant):
    """Two-channel configuration mixing position- and velocity-type outputs.

    With couplings C0 (velocity channel) and C1 (position-type channel):

        B = [[0, A0^-1 C1*], [C0*, 0]],
        C = [[0, C0], [C1, 2 C2]],  C2 = C1 A0^-1 M,
        D = [[0, D0], [0, D2]],  D0 = C0 A0^-1 C1*,  D2 = C2 A0^-1 C1*,

    and the minimal shift, passivity.minimal_E of the node, evaluates to
    E = -1/2 [[0, D1*], [D1, 0]] with D1 = C1 A0^-1 C0*.  The realization
    satisfies C A^-1 + B* A^-* = 0.
    """
    if plant.C1 is None:
        raise DimensionMismatch("plant must provide C1 for the two-channel build")
    A, W = _first_order(plant)
    n0 = plant.n0
    C0, C1 = plant.C0, plant.C1
    p0, p1 = C0.shape[0], C1.shape[0]
    A0inv_C1h = np.linalg.solve(plant.A0, C1.conj().T)
    C2 = C1 @ np.linalg.solve(plant.A0, plant.M)
    D0 = C0 @ A0inv_C1h
    D2 = C2 @ A0inv_C1h
    Z = np.zeros
    B = np.block([[Z((n0, p0), dtype=complex), A0inv_C1h],
                  [C0.conj().T, Z((n0, p1), dtype=complex)]])
    C = np.block([[Z((p0, n0), dtype=complex), C0],
                  [C1, 2.0 * C2]])
    D = np.block([[Z((p0, p0), dtype=complex), D0],
                  [Z((p1, p0), dtype=complex), D2]])
    node = StateSpaceNode(A, B, C, D, W=W, meta="second-order two-channel")
    return node, minimal_E(node)


# ---------------------------------------------------------------------------
# Free-free Euler-Bernoulli beam on (-1, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamParameters:
    """Physical data of the free-free beam on (-1, 1).

    rho_a : mass per unit length, rho_a > 0.
    EI : flexural rigidity in the stiffness term, EI > 0.
    EbarI : Kelvin-Voigt damping coefficient (proportional to stiffness),
        EbarI >= 0.
    n_modes : number of modes kept in the modal truncation, including the
        two rigid-body modes.
    """

    rho_a: float = 1.0
    EI: float = 1.0
    EbarI: float = 0.01
    n_modes: int = 8

    def __post_init__(self):
        if self.rho_a <= 0 or self.EI <= 0 or self.EbarI < 0:
            raise DimensionMismatch("beam parameters must satisfy rho_a, EI > 0, EbarI >= 0")
        if int(self.n_modes) < 2:
            raise DimensionMismatch("need at least the two rigid-body modes")
        object.__setattr__(self, "n_modes", int(self.n_modes))


def beam_frequencies(n_modes):
    """First n_modes positive roots beta of cos(2 beta) cosh(2 beta) = 1.

    Split by symmetry into the numerically benign equations
    tan(beta) + tanh(beta) = 0 (symmetric modes) and
    tan(beta) - tanh(beta) = 0 (antisymmetric modes), bracketed inside the
    tangent branches.  Returns betas in increasing order together with
    their parity flags (True = symmetric shape).
    """
    roots = []
    j_sym = 0
    j_anti = 0
    # The j-th symmetric root lies in ((2j+1)pi/2, (j+1)pi); the j-th
    # antisymmetric root in ((j+1)pi, (2j+3)pi/2), j = 0, 1, ...
    while len(roots) < n_modes:
        a = (2 * j_sym + 1) * np.pi / 2 + 1e-9
        b = (j_sym + 1) * np.pi - 1e-9
        try:
            r = brentq(lambda x: np.tan(x) + np.tanh(x), a, b, xtol=1e-14, rtol=1e-15)
        except ValueError as exc:
            raise RootFindingFailure(f"symmetric-mode bracket [{a}, {b}] failed") from exc
        roots.append((r, True))
        j_sym += 1
        if len(roots) >= n_modes:
            break
        a = (j_anti + 1) * np.pi + 1e-9
        b = (2 * j_anti + 3) * np.pi / 2 - 1e-9
        try:
            r = brentq(lambda x: np.tan(x) - np.tanh(x), a, b, xtol=1e-14, rtol=1e-15)
        except ValueError as exc:
            raise RootFindingFailure(f"antisymmetric-mode bracket [{a}, {b}] failed") from exc
        roots.append((r, False))
        j_anti += 1
    roots.sort(key=lambda t: t[0])
    betas = np.array([r for r, _ in roots[:n_modes]])
    sym = [s for _, s in roots[:n_modes]]
    return betas, sym


def beam_mode_shape(beta, symmetric, x):
    """Unnormalized free-free mode shape on (-1, 1).

    Symmetric:      phi(x) = sinh(b) cos(bx) - sin(b) cosh(bx)
    Antisymmetric:  phi(x) = sinh(b) sin(bx) + sin(b) sinh(bx)

    These combinations stay O(e^b) without the catastrophic cancellation
    of the textbook cosh-cos form.
    """
    x = np.asarray(x, dtype=float)
    if symmetric:
        return np.sinh(beta) * np.cos(beta * x) - np.sin(beta) * np.cosh(beta * x)
    return np.sinh(beta) * np.sin(beta * x) + np.sin(beta) * np.sinh(beta * x)


def beam_mode_slope(beta, symmetric, x):
    """Derivative of the unnormalized free-free mode shape."""
    x = np.asarray(x, dtype=float)
    if symmetric:
        return beta * (-np.sinh(beta) * np.sin(beta * x) - np.sin(beta) * np.sinh(beta * x))
    return beta * (np.sinh(beta) * np.cos(beta * x) + np.sin(beta) * np.cosh(beta * x))


def beam_model(params):
    """Modal realization of the damped free-free beam on (-1, 1).

    The input is a force/moment pair applied at the midpoint x = 0 and the
    output is the colocated (velocity, angular velocity) pair there.
    n_modes counts the retained modes including the two rigid-body modes
    (translation phi = 1/sqrt(2) and rotation phi = sqrt(3/2) x); the
    flexible frequencies solve cos(2 beta) cosh(2 beta) = 1 and carry
    Kelvin-Voigt damping proportional to stiffness.

    Rigid displacements move freely without storing energy, so they are
    quotiented out of the state: the realization keeps the flexible
    positions and velocities plus the two rigid-body velocities,

        A = [[0, I, 0], [-A0f, -Mf, 0], [0, 0, 0]],
        B = [0; C0f*; C0r*],  C = [0, C0f, C0r],  W = diag(A0f, I, I),

    which is impedance passive and colocated (B* = C).  The open loop has
    a double eigenvalue at 0 carried by the rigid velocities; since the
    (velocity, angular velocity) pair observes both of them, colocated
    negative output feedback makes the closed loop Hurwitz.

    Returns (node, E_min) with E_min = 0.
    """
    nf = params.n_modes - 2
    rho = params.rho_a
    if nf:
        betas, sym = beam_frequencies(nf)
        modes_val = []
        modes_slope = []
        x = np.linspace(-1.0, 1.0, 4001)
        for beta, s in zip(betas, sym):
            phi = beam_mode_shape(beta, s, x)
            nrm = np.sqrt(simpson(phi**2, x=x))
            modes_val.append(float(beam_mode_shape(beta, s, 0.0)) / nrm)
            modes_slope.append(float(beam_mode_slope(beta, s, 0.0)) / nrm)
        lam = betas**4
        A0f = np.diag(params.EI / rho * lam).astype(complex)
        Mf = np.diag(params.EbarI / rho * lam).astype(complex)
        C0f = (np.vstack([modes_val, modes_slope]) / rho).astype(complex)
    else:
        A0f = np.zeros((0, 0), dtype=complex)
        Mf = np.zeros((0, 0), dtype=complex)
        C0f = np.zeros((2, 0), dtype=complex)
    # rigid modes at x=0: translation (phi, phi') = (1/sqrt(2), 0),
    # rotation (0, sqrt(3/2))
    C0r = (np.array([[1.0 / np.sqrt(2.0), 0.0], [0.0, np.sqrt(1.5)]]) / rho).astype(complex)
    n = 2 * nf + 2
    A = np.zeros((n, n), dtype=complex)
    A[:nf, nf:2 * nf] = np.eye(nf)
    A[nf:2 * nf, :nf] = -A0f
    A[nf:2 * nf, nf:2 * nf] = -Mf
    B = np.vstack([np.zeros((nf, 2), dtype=complex), C0f.conj().T, C0r.conj().T])
    C = np.hstack([np.zeros((2, nf), dtype=complex), C0f, C0r])
    D = np.zeros((2, 2), dtype=complex)
    W = np.eye(n, dtype=complex)
    W[:nf, :nf] = A0f
    node = StateSpaceNode(A, B, C, D, W=W, meta="free-free beam, midpoint sensing")
    E_min = np.zeros((2, 2), dtype=complex)
    return node, E_min
