"""Time-domain simulation with an energy audit.

Fixed-step classical RK4 on z' = A z + B u(t), y = C z + D u.  The energy
audit integrates the passivity balance

    ||z(tau)||_W^2 - ||z(0)||_W^2 <= 2 int_0^tau Re <u, y> dt
                                     + 2 int_0^tau Re <E u, u> dt

(trapezoid rule on the simulation grid) and reports the defect, i.e. the
right-hand side minus the left-hand side, which must stay nonnegative up
to tolerance for an (almost) impedance-passive node with shift E.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DimensionMismatch, InvalidTimeGrid, NonFiniteState


@dataclass(frozen=True)
class Trajectory:
    """Sampled simulation result on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray   # (steps+1, n)
    inputs: np.ndarray   # (steps+1, m)
    outputs: np.ndarray  # (steps+1, p)


@dataclass(frozen=True)
class EnergyAudit:
    """Running passivity defect along a trajectory."""

    times: np.ndarray
    defect: np.ndarray
    min_defect: float
    tol: float

    @property
    def passed(self):
        return self.min_defect >= -self.tol


def _input_callable(u, node, T, steps):
    if callable(u):
        return lambda t: np.atleast_1d(np.asarray(u(t), dtype=complex)).reshape(node.m)
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    if u.shape == (node.m, steps + 1):
        u = u.T
    if u.shape != (steps + 1, node.m):
        raise DimensionMismatch(
            f"sampled input must have shape ({steps + 1}, {node.m}), got {u.shape}"
        )
    grid = np.linspace(0.0, T, steps + 1)
    spline_re = CubicSpline(grid, u.real, axis=0)
    spline_im = CubicSpline(grid, u.imag, axis=0)
    return lambda t: spline_re(t) + 1j * spline_im(t)


def simulate(node, z0, u, T, steps=2000):
    """Integrate the node from z0 under input u over [0, T].

    u is either a callable t -> input vector or an array sampled on the
    uniform grid with steps+1 points (interpolated with a cubic spline for
    the RK4 half-steps).  Raises InvalidTimeGrid unless steps >= 1 and T is
    finite and > 0, and NonFiniteState if the state blows up.
    """
    steps = int(steps)
    T = float(T)
    if steps < 1 or not 0.0 < T < np.inf:
        raise InvalidTimeGrid(f"need steps >= 1 and a finite T > 0, got steps={steps}, T={T}")
    z = np.asarray(z0, dtype=complex).reshape(node.n)
    uf = _input_callable(u, node, T, steps)
    A, B, C, D = (np.asarray(M) for M in (node.A, node.B, node.C, node.D))
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1, node.n), dtype=complex)
    inputs = np.empty((steps + 1, node.m), dtype=complex)
    outputs = np.empty((steps + 1, node.p), dtype=complex)

    def rhs(t, x):
        return A @ x + B @ uf(t)

    for i, t in enumerate(times):
        ui = uf(t)
        states[i] = z
        inputs[i] = ui
        outputs[i] = C @ z + D @ ui
        if i == steps:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(t, z)
            k2 = rhs(t + 0.5 * h, z + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, z + 0.5 * h * k2)
            k4 = rhs(t + h, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise NonFiniteState(f"state became non-finite at t = {t + h:.6g}")
    return Trajectory(times=times, states=states, inputs=inputs, outputs=outputs)


def energy_audit(traj, W=None, E=None, tol=None):
    """Audit the passivity balance along a trajectory.

    defect(tau) = 2 int_0^tau Re<u, y> dt + 2 int_0^tau Re<E u, u> dt
                  - (||z(tau)||_W^2 - ||z(0)||_W^2)

    integrated with the trapezoid rule on the simulation grid.  The
    tolerance scales with the energy magnitude along the trajectory.
    """
    times = traj.times
    n = traj.states.shape[1]
    W = np.eye(n) if W is None else np.asarray(W, dtype=complex)
    energy = np.real(np.einsum("ti,ij,tj->t", traj.states.conj(), W, traj.states))
    supply = 2.0 * np.real(np.einsum("ti,ti->t", traj.inputs.conj(), traj.outputs))
    if E is not None:
        E = np.asarray(E, dtype=complex)
        supply = supply + 2.0 * np.real(
            np.einsum("ti,ij,tj->t", traj.inputs.conj(), E, traj.inputs)
        )
    dt = np.diff(times)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (supply[:-1] + supply[1:]))]
    )
    defect = cumulative - (energy - energy[0])
    scale = np.max(np.abs(energy)) + np.max(np.abs(cumulative)) + 1.0
    tol = (1e-6 * scale) if tol is None else float(tol)
    return EnergyAudit(
        times=times,
        defect=defect,
        min_defect=float(np.min(defect)),
        tol=tol,
    )


def export_csv(traj, path, audit=None):
    """Write the trajectory (and optional running defect) as CSV.

    Columns: t, Re/Im of each state, input and output component, and the
    running defect when an audit is supplied.
    """
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    p = traj.outputs.shape[1]
    header = ["t"]
    header += [f"z{i}_{part}" for i in range(n) for part in ("re", "im")]
    header += [f"u{i}_{part}" for i in range(m) for part in ("re", "im")]
    header += [f"y{i}_{part}" for i in range(p) for part in ("re", "im")]
    if audit is not None:
        header.append("defect")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            row = [f"{t:.17g}"]
            for vec in (traj.states[i], traj.inputs[i], traj.outputs[i]):
                for v in vec:
                    row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
            if audit is not None:
                row.append(f"{audit.defect[i]:.17g}")
            writer.writerow(row)


def adversarial_input(node, E=None, amplitude=1.0):
    """Constant input exposing a passivity violation, when one exists.

    Takes the eigenvector for the most negative eigenvalue of the bounded
    impedance form of Sigma_E, splits it into (state, input) components and
    returns (z0, u0, eigenvalue).  Driving the node from z0 with the
    constant input u0 makes the instantaneous defect rate negative, so a
    short simulation yields a strictly negative energy-audit defect.
    """
    from . import linalg
    from .node import shift_feedthrough
    from .passivity import impedance_block_bounded

    probe = node if E is None else shift_feedthrough(node, E)
    form = impedance_block_bounded(probe)
    val, vec = linalg.min_eig_with_vector(form)
    x_orth = vec[: node.n]
    u0 = vec[node.n:]
    z0 = node.to_state(amplitude * x_orth)
    return z0, amplitude * u0, val
