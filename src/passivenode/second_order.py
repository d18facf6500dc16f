"""Second-order (mechanical) plants and the flexible-beam example.

A second-order plant  q'' + M q' + A0 q = (input coupling)  with stiffness
A0 > 0 and damping M >= 0 is realized in first-order form on the state
x = (q, q') with energy weight W = diag(A0, I):

    A = [[0, I], [-A0, -M]].

Three couplings are provided: a velocity channel B = [0; B0], y = C0 q'
(colocated at B0 = C0*, non-colocated otherwise) and a two-channel
configuration mixing position-type and velocity-type measurements; each
builder returns the node together with its minimal impedance shift.  The
flexible-beam builder discretizes a free-free Euler-Bernoulli beam by
modal truncation.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, SingularA0
from .node import MAX_STATES, StateSpaceNode
from .passivity import minimal_E


@dataclass(frozen=True)
class SecondOrderPlant:
    """Ingredients (A0, M, C0 [, B0, C1]) of a second-order plant.

    A0 > 0 and M >= 0 (possibly singular) are n0 x n0, C0 is p x n0, B0 is
    n0 x m (one column per input) and C1 is p1 x n0; any other shape is a
    DimensionMismatch.
    """

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
        if not linalg.psd_vals(M)[1]:
            raise DimensionMismatch("damping M must be positive semidefinite")
        for name, val in (("A0", A0), ("M", M), ("C0", C0)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        for name, axis, layout in (("B0", 0, "n0 x m"), ("C1", 1, "p1 x n0")):
            val = getattr(self, name)
            if val is not None:
                val = linalg.as_matrix(val, name)
                if val.shape[axis] != n0:
                    raise DimensionMismatch(f"{name} must be {layout}, n0 = {n0}, got {val.shape}")
            object.__setattr__(self, name, val)

    @property
    def n0(self):
        return self.A0.shape[0]


def _first_order(plant):
    n0 = plant.n0
    Z = np.zeros((n0, n0))
    A = np.block([[Z, np.eye(n0)], [-plant.A0, -plant.M]])
    W = np.block([[plant.A0, Z], [Z, np.eye(n0)]])
    return A, W


def _velocity_channel(plant, B0, meta):
    """(node, minimal_E(node)) of B = [0; B0], C = [0, C0], D = 0."""
    A, W = _first_order(plant)
    n0, m, p = plant.n0, B0.shape[1], plant.C0.shape[0]
    B = np.vstack([np.zeros((n0, m)), B0])
    C = np.hstack([np.zeros((p, n0)), plant.C0])
    node = StateSpaceNode(A, B, C, np.zeros((p, m)), W=W, meta=meta)
    return node, minimal_E(node)


def build_colocated(plant):
    """Colocated velocity actuation/sensing: the velocity channel at B0 = C0*.

    B* = C in the W inner product, so minimal_E returns E = 0.
    """
    return _velocity_channel(plant, plant.C0.conj().T, "second-order colocated")


def build_noncolocated(plant):
    """Velocity sensing C0 with the plant's input coupling B0: B = [0; B0], y = C0 q'.

    The minimal impedance shift is passivity.minimal_E of the node, here
    E = 1/4 (C0 - B0*) M^+ (C0* - B0) when C0 - B0* vanishes on ker M and
    NotAlmostPassive otherwise; NotSquare unless p = m.
    """
    if plant.B0 is None:
        raise DimensionMismatch("plant must provide B0 for the non-colocated build")
    return _velocity_channel(plant, plant.B0, "second-order non-colocated")


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
    B = np.block([[Z((n0, p0)), A0inv_C1h],
                  [C0.conj().T, Z((n0, p1))]])
    C = np.block([[Z((p0, n0)), C0],
                  [C1, 2.0 * C2]])
    D = np.block([[Z((p0, p0)), D0],
                  [Z((p1, p0)), D2]])
    node = StateSpaceNode(A, B, C, D, W=W, meta="second-order two-channel")
    return node, minimal_E(node)


# ---------------------------------------------------------------------------
# Free-free Euler-Bernoulli beam on (-1, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamParameters:
    """Physical data of the free-free beam on (-1, 1).

    rho_a : mass per unit length, 0 < rho_a < inf.
    EI : flexural rigidity in the stiffness term, 0 < EI < inf.
    EbarI : Kelvin-Voigt damping coefficient (proportional to stiffness),
        0 <= EbarI < inf.
    n_modes : number of modes kept in the modal truncation, including the
        two rigid-body modes; an int or numpy integer >= 2 whose state
        dimension n = 2 n_modes - 2 is at most node.MAX_STATES.

    The physical data must be finite real numbers (a bool or a string is not)
    and are stored as float.  Any other value raises DimensionMismatch.
    """

    rho_a: float = 1.0
    EI: float = 1.0
    EbarI: float = 0.01
    n_modes: int = 8

    def __post_init__(self):
        # n_modes counts the two rigid-body modes
        n_modes = linalg.as_count(self.n_modes, "n_modes", 2, DimensionMismatch)
        if 2 * n_modes - 2 > MAX_STATES:
            raise DimensionMismatch(f"n_modes = {n_modes}: n > MAX_STATES = {MAX_STATES}")
        rho_a, EI, EbarI = (linalg.as_real(getattr(self, name), f"beam parameters: {name}",
                                           DimensionMismatch)
                            for name in ("rho_a", "EI", "EbarI"))
        if not (rho_a > 0 and EI > 0 and EbarI >= 0):
            raise DimensionMismatch("beam parameters must have 0 < rho_a, EI and 0 <= EbarI, "
                                    f"got rho_a={rho_a}, EI={EI}, EbarI={EbarI}")
        for name, value in (("rho_a", rho_a), ("EI", EI), ("EbarI", EbarI), ("n_modes", n_modes)):
            object.__setattr__(self, name, value)


def beam_frequencies(n_modes):
    """First n_modes positive roots beta of cos(2 beta) cosh(2 beta) = 1.

    Split by symmetry into tan(beta) + tanh(beta) = 0 (symmetric modes) and
    tan(beta) - tanh(beta) = 0 (antisymmetric modes).  Root k = 0, 1, ...
    lies in ((k+1) pi/2, (k+2) pi/2), is symmetric for even k, and is the
    fixed point of beta = c_k -+ arctan(tanh beta), with c_k = (k+2) pi/2
    and "-" for even k, c_k = (k+1) pi/2 and "+" for odd k.  Since
    0 < arctan(tanh beta) < pi/4, every iterate stays in the branch and
    above 3 pi/4, where the map contracts by sech^2 / (1 + tanh^2) < 0.018.
    From (2k+3) pi/4, within pi/4 of the root, 12 iterations of all roots
    at once leave an error below 0.018^12 pi/4 < 1e-20, far below one ulp.
    Returns betas in increasing order and their parities (True = symmetric).
    """
    k = np.arange(n_modes)
    symmetric = k % 2 == 0
    c = np.where(symmetric, k + 2, k + 1) * (np.pi / 2)
    sign = np.where(symmetric, -1.0, 1.0)
    betas = (2 * k + 3) * (np.pi / 4)
    for _ in range(12):
        betas = c + sign * np.arctan(np.tanh(betas))
    return betas, symmetric.tolist()


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

    The flexible couplings are the value (symmetric modes) or slope
    (antisymmetric modes) at 0 of the unit-norm mode shape, with the norm
    integral taken in closed form for all modes at once.  It is written
    relative to sinh^2 beta, as the integral N of (phi / sinh beta)^2 over
    (-1, 1), so that nothing overflows at any beta.  With
    r = sin b / sinh b = 2 sin b e^-b / (1 - e^-2b), q = coth b and
    sigma = sin 2b / (2b):

        symmetric:      N = 1 + sigma + r^2 + (q sin^2 b - 2 sin b (q sin b + cos b)) / b,
        antisymmetric:  N = 1 - sigma - r^2 + (q sin^2 b + 2 sin b (q sin b - cos b)) / b,

    and the couplings are (1 - r) / sqrt(N) and b (1 + r) / sqrt(N).  The
    last term of N vanishes at the roots of tan b +- tanh b = 0.

    The blocks are assembled in real arithmetic, so every matrix of the
    node, and E_min, is float64.

    Returns (node, E_min) with E_min = 0.
    """
    nf = params.n_modes - 2
    rho = params.rho_a
    if nf:
        betas, sym = beam_frequencies(nf)
        sign = np.where(sym, 1.0, -1.0)
        sin, cos = np.sin(betas), np.cos(betas)
        decay = np.exp(-2.0 * betas)
        r = 2.0 * sin * np.exp(-betas) / (1.0 - decay)
        q = (1.0 + decay) / (1.0 - decay)
        sigma = np.sin(2.0 * betas) / (2.0 * betas)
        root = np.sqrt(1.0 + sign * (sigma + r**2)
                       + (q * sin**2 - 2.0 * sin * (sign * q * sin + cos)) / betas)
        modes_val = np.where(sym, (1.0 - r) / root, 0.0)
        modes_slope = np.where(sym, 0.0, betas * (1.0 + r) / root)
        lam = betas**4
        A0f = np.diag(params.EI / rho * lam)
        Mf = np.diag(params.EbarI / rho * lam)
        C0f = np.vstack([modes_val, modes_slope]) / rho
    else:
        A0f = np.zeros((0, 0))
        Mf = np.zeros((0, 0))
        C0f = np.zeros((2, 0))
    # rigid modes at x=0: translation (phi, phi') = (1/sqrt(2), 0),
    # rotation (0, sqrt(3/2))
    C0r = np.array([[1.0 / np.sqrt(2.0), 0.0], [0.0, np.sqrt(1.5)]]) / rho
    n = 2 * nf + 2
    A = np.zeros((n, n))
    A[:nf, nf:2 * nf] = np.eye(nf)
    A[nf:2 * nf, :nf] = -A0f
    A[nf:2 * nf, nf:2 * nf] = -Mf
    B = np.vstack([np.zeros((nf, 2)), C0f.T, C0r.T])
    C = np.hstack([np.zeros((2, nf)), C0f, C0r])
    D = np.zeros((2, 2))
    W = np.eye(n)
    W[:nf, :nf] = A0f
    node = StateSpaceNode(A, B, C, D, W=W, meta="free-free beam, midpoint sensing")
    E_min = np.zeros((2, 2))
    return node, E_min
