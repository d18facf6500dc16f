"""Time-domain simulation with an energy audit.

Fixed-step classical RK4 on z' = A z + B u(t), y = C z + D u.  For this
LTI right-hand side one RK4 step is exactly the linear recurrence

    z_{k+1} = P z_k + G0 u(t_k) + Gh u(t_k + h/2) + G1 u(t_k + h)

with M = hA, P = I + M + M^2/2 + M^3/6 + M^4/24 (the degree-4 Taylor
propagator), G0 = (I + M + M^2/2 + M^3/4) hB/6, Gh = (4I + 2M + M^2/2) hB/6
and G1 = hB/6.  The matrices are formed once per simulation, so the input
is evaluated once per distinct time: 2 evaluations per step.

The energy audit integrates the passivity balance

    ||z(tau)||_W^2 - ||z(0)||_W^2 <= 2 int_0^tau Re <u, y> dt
                                     + 2 int_0^tau Re <E u, u> dt

(trapezoid rule on the simulation grid) and reports the defect, i.e. the
right-hand side minus the left-hand side, which must stay nonnegative up
to tolerance for an (almost) impedance-passive node with shift E.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidTimeGrid, NonFiniteState
from .node import shift_matrix


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


def _input_values(u, m, times, h):
    """The input at the grid points t_k and at the half-points t_k + h/2.

    A callable is called once per distinct time, in time order.  A sampled
    input keeps its samples at the grid points; the half-points come from a
    cubic spline through them.
    """
    steps = len(times) - 1
    mid = times[:-1] + 0.5 * h
    if callable(u):
        def value(t):
            v = np.atleast_1d(np.asarray(u(t), dtype=complex))
            if v.size != m:
                raise DimensionMismatch(f"input u(t) must have {m} entries, got shape {v.shape}")
            return v.reshape(m)

        grid = np.empty((steps + 1, m), dtype=complex)
        half = np.empty((steps, m), dtype=complex)
        for k in range(steps):
            grid[k] = value(times[k])
            half[k] = value(mid[k])
        grid[steps] = value(times[steps])
        return grid, half
    grid = np.array(np.atleast_2d(u), dtype=complex)
    if grid.shape == (m, steps + 1):
        grid = grid.T
    if grid.shape != (steps + 1, m):
        raise DimensionMismatch(
            f"sampled input must have shape ({steps + 1}, {m}), got {grid.shape}"
        )
    if not np.all(np.isfinite(grid)):
        raise NonFiniteState("sampled input holds a non-finite value")
    from scipy.interpolate import CubicSpline

    re = CubicSpline(times, grid.real, axis=0)(mid)
    im = CubicSpline(times, grid.imag, axis=0)(mid)
    return grid, re + 1j * im


def simulate(node, z0, u, T, steps=2000):
    """Integrate the node from z0 under input u over [0, T] with classical RK4.

    u is either a callable t -> input vector or an array sampled on the
    uniform grid with steps+1 points.  Each step is the exact linear form of
    RK4 (see the module docstring), so u is needed at 2*steps + 1 distinct
    times: a callable is called once at each, and a sampled input is used
    as given at the grid points and interpolated with a cubic spline at the
    half-points only.  Raises InvalidTimeGrid unless steps >= 1 and T is
    finite and > 0, DimensionMismatch if z0 or an input value has the wrong
    size, and NonFiniteState if the state is or becomes non-finite.
    """
    steps = int(steps)
    T = float(T)
    if steps < 1 or not 0.0 < T < np.inf:
        raise InvalidTimeGrid(f"need steps >= 1 and a finite T > 0, got steps={steps}, T={T}")
    z0 = np.asarray(z0, dtype=complex)
    if z0.size != node.n:
        raise DimensionMismatch(f"z0 must have {node.n} entries, got shape {z0.shape}")
    A, B, C, D = (np.asarray(M) for M in (node.A, node.B, node.C, node.D))
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    inputs, half = _input_values(u, node.m, times, h)
    states = np.empty((steps + 1, node.n), dtype=complex)
    states[0] = z0.reshape(node.n)
    with np.errstate(over="ignore", invalid="ignore"):
        eye = np.eye(node.n)
        M = h * A
        M2 = M @ M
        M3 = M2 @ M
        P = eye + M + M2 / 2.0 + M3 / 6.0 + (M2 @ M2) / 24.0
        G1 = (h / 6.0) * B
        G0 = (eye + M + M2 / 2.0 + M3 / 4.0) @ G1
        Gh = (4.0 * eye + 2.0 * M + M2 / 2.0) @ G1
        # states[1:] first holds every forcing term F_k = G0 u_k + Gh u_{k+1/2}
        # + G1 u_{k+1}; the recurrence then adds P z_k to each in turn
        forcing = np.hstack([inputs[:-1], half, inputs[1:]])
        np.matmul(forcing, np.hstack([G0, Gh, G1]).T, out=states[1:])
        for k in range(steps):
            states[k + 1] += P @ states[k]
    finite = np.all(np.isfinite(states), axis=1)
    if not finite.all():
        raise NonFiniteState(f"state became non-finite at t = {times[np.argmin(finite)]:.6g}")
    outputs = states @ C.T + inputs @ D.T
    return Trajectory(times=times, states=states, inputs=inputs, outputs=outputs)


def energy_audit(traj, W=None, E=None, tol=None):
    """Audit the passivity balance along a trajectory.

    defect(tau) = 2 int_0^tau Re<u, y> dt + 2 int_0^tau Re<E u, u> dt
                  - (||z(tau)||_W^2 - ||z(0)||_W^2)

    integrated with the trapezoid rule on the simulation grid.  The
    tolerance scales with the energy magnitude along the trajectory.  E is
    checked as in shift_feedthrough (m x m, finite entries).  Raises
    NonFiniteState when the stored or the supplied energy (or their
    balance) overflows, as it does for a finite but huge trajectory.
    """
    times = traj.times
    n = traj.states.shape[1]
    W = np.eye(n) if W is None else np.asarray(W, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.real(np.einsum("ti,ij,tj->t", traj.states.conj(), W, traj.states))
        supply = 2.0 * np.real(np.einsum("ti,ti->t", traj.inputs.conj(), traj.outputs))
        if E is not None:
            m = traj.inputs.shape[1]
            E = shift_matrix(E, (m, m))
            supply = supply + 2.0 * np.real(
                np.einsum("ti,ij,tj->t", traj.inputs.conj(), E, traj.inputs)
            )
        dt = np.diff(times)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * dt * (supply[:-1] + supply[1:]))]
        )
        defect = cumulative - (energy - energy[0])
        scale = np.max(np.abs(energy)) + np.max(np.abs(cumulative)) + 1.0
    finite = np.isfinite(energy) & np.isfinite(cumulative) & np.isfinite(defect)
    if not (finite.all() and np.isfinite(scale)):
        t = times[np.argmin(finite)] if not finite.all() else times[-1]
        raise NonFiniteState(f"stored or supplied energy overflows by t = {t:.6g}")
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
    vals, vecs, _ = linalg.psd_eig(form)
    x_orth = vecs[: node.n, 0]
    u0 = vecs[node.n:, 0]
    z0 = node.to_state(amplitude * x_orth)
    return z0, amplitude * u0, float(vals[0])
