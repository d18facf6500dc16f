"""Time-domain simulation with an energy audit.

Exact exponential stepping of z' = A z + B u(t), y = C z + D u, on a uniform
grid of step h.  Each step is the linear recurrence

    z_{k+1} = P z_k + G0 u(t_k) + Gh u(t_k + h/2) + G1 u(t_k + h),

exact when u is the quadratic through its three values on the step.  The
matrices come from one block exponential (Van Loan 1978, "Computing
integrals involving the matrix exponential", IEEE TAC 23): the top block
row of e^K, K = [[hA, hB, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]],
is [e^{hA}, F1, F2, F3] with F_j = h phi_j(hA) B, and then P = e^{hA},
G0 = F1 - 3 F2 + 4 F3, Gh = 4 F2 - 8 F3 and G1 = -F2 + 4 F3.  The matrices
are formed once per simulation, so the input is evaluated once per distinct
time: 2 evaluations per step.  Being exact, the step is stable at any h,
also for a stiff node such as the many-mode beam.

The recurrence itself runs in blocks of about sqrt(steps) steps
(:func:`_recur`): all blocks are scanned at once from a zero start, the
block starts are carried by P^b, and P^(j+1) times each start is added
back, so a simulation costs about 3 sqrt(steps) batched matrix products
(about 2 steps n^2 multiplications) instead of one Python-level product
per step.  The power P^b must be finite: b is halved until it is, and
b = 1 is the plain step-by-step recurrence.

The input is read by linalg.sample, the values of a callable at the
2 steps + 1 times, linalg.CHUNK times at a time, or by linalg.as_signal,
samples in the one layout (steps + 1, m).  The trajectory takes the dtype
of its data: a real node from a real z0 under a real input runs in
float64, and anything complex makes it complex128.

The energy audit integrates the passivity balance

    ||z(tau)||_W^2 - ||z(0)||_W^2 <= 2 int_0^tau Re <u, y> dt
                                     + 2 int_0^tau Re <E u, u> dt

(trapezoid rule on the simulation grid) and reports the defect, i.e. the
right-hand side minus the left-hand side, which must stay nonnegative up
to tolerance for an (almost) impedance-passive node with shift E.

A trajectory holds at most TRAJECTORY_MAX_ENTRIES entries
(steps + 1)(n + m + p); a longer grid raises InvalidTimeGrid before
anything is allocated.  The cap bounds the memory of a simulation too:
beyond the trajectory it holds the input at the half-points (m values per
step), one chunk of a callable's values and one temporary of 3m or p
columns per step.  At n = m = p = 1, whose trajectory is 32 B per step, a
simulation under a callable input peaks at 58 B per step (tracemalloc,
20,000 steps) and an energy audit at 40.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidTolerance, NonFiniteState, NotSquare, file_errors
from .node import shift_matrix, weight_matrix
from .passivity import _shifted_form

#: most entries (steps + 1)(n + m + p) of a trajectory: 50 times the 1e6 of the
#: n = 498 beam (the top of desk scale) at the default 2000 steps, 400 MB of
#: states, inputs and outputs in float64.  simulate holds the trajectory plus
#: one chunk of input values and per-step temporaries: at most about 2.5 times
#: the trajectory's bytes (1.8 at n = m = p = 1, 58 B per step)
TRAJECTORY_MAX_ENTRIES = 5 * 10**7


@dataclass(frozen=True)
class Trajectory:
    """Sampled simulation result on a uniform time grid.

    The arrays have the dtype of the data (see :func:`simulate`): float64
    for a real node under a real z0 and input, complex128 otherwise.
    """

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


def _midpoints(g):
    """Values halfway between consecutive rows of the uniform samples g.

    Each is read off the cubic through the four nearest samples: in the
    interior (-g[k-1] + 9 g[k] + 9 g[k+1] - g[k+2]) / 16, one-sided at the
    two ends.  Two or three samples give the line or the parabola through
    all of them.
    """
    if len(g) == 2:
        return 0.5 * (g[:1] + g[1:])
    if len(g) == 3:
        return np.stack([3.0 * g[0] + 6.0 * g[1] - g[2], -g[0] + 6.0 * g[1] + 3.0 * g[2]]) / 8.0
    half = np.empty((len(g) - 1,) + g.shape[1:], dtype=g.dtype)
    half[1:-1] = (9.0 * (g[1:-2] + g[2:-1]) - g[:-3] - g[3:]) / 16.0
    half[0] = (5.0 * g[0] + 15.0 * g[1] - 5.0 * g[2] + g[3]) / 16.0
    half[-1] = (g[-4] - 5.0 * g[-3] + 15.0 * g[-2] + 5.0 * g[-1]) / 16.0
    return half


def _input_values(u, m, times, h):
    """The input at the grid points t_k and at the half-points t_k + h/2.

    A callable is called once per distinct time, in time order, through
    linalg.sample, and both halves are copied out of the interleaved
    samples: the trajectory keeps a contiguous array of its own inputs, not
    a strided view of twice as many values.  A sampled input, in the layout
    (steps + 1, m), keeps its samples at the grid points; the half-points
    come from the cubic midpoint rule of :func:`_midpoints`.  It is read by
    linalg.as_signal.
    """
    steps = len(times) - 1
    if callable(u):
        t = np.empty(2 * steps + 1)
        t[0::2] = times
        t[1::2] = times[:-1] + 0.5 * h
        values = linalg.sample(u, t, "input u(t)", width=m)
        return values[0::2].copy(), values[1::2].copy()
    grid = linalg.as_signal(u, "sampled input", width=m)
    if len(grid) != steps + 1:
        raise DimensionMismatch(
            f"sampled input must have shape ({steps + 1}, {m}), got {grid.shape}"
        )
    return grid, _midpoints(grid)


def _propagator(A, B, h):
    """P, G0, Gh and G1 of the exact step (see the module docstring).

    The block matrix K, and so its exponential, has the dtype
    np.result_type(A, B): float64 for a real node.
    """
    n, m = B.shape
    K = np.zeros((n + 3 * m, n + 3 * m), dtype=np.result_type(A, B))
    K[:n, :n] = h * A
    K[:n, n:n + m] = h * B
    K[n:n + 2 * m, n + m:] = np.eye(2 * m)
    top = linalg.expm(K)[:n]
    P, F1, F2, F3 = top[:, :n], top[:, n:n + m], top[:, n + m:n + 2 * m], top[:, n + 2 * m:]
    return P, F1 - 3.0 * F2 + 4.0 * F3, 4.0 * F2 - 8.0 * F3, -F2 + 4.0 * F3


def _recur(P, S):
    """Run the recurrence S[k+1] = P S[k] + F_k in place, in blocks of about sqrt(steps).

    On entry S[0] holds z0 and S[1:] the forcing F_0, F_1, ...; P has the
    dtype of S.  The block length b is the largest power of two with
    b^2 <= steps whose power P^b, formed by repeated squaring, is finite:
    a non-finite P^b would turn a zero start into 0 * inf = NaN, so the
    squaring stops short of it, and b = 1 is the plain recurrence.  The
    steps run in three passes of batched products, each a loop of about
    sqrt(steps) iterations (Kogge and Stone 1973, "A parallel algorithm for
    the efficient solution of a general class of recurrence equations";
    Blelloch 1990, "Prefix sums and their applications"):

    1. every block is scanned from a zero start at once: b - 1 products
       (blocks x n) @ P^T;
    2. the block starts are carried, z <- P^b z + (end of the block's scan):
       one product per block;
    3. P^(j+1) z_c is added to row j of block c: b - 1 more batched
       products, iterating @ P^T on the block starts.

    The tail of fewer than b steps after the last block is stepped one by
    one.  That is about 2 steps n^2 multiplications in matrix products, plus
    log2(b) n x n squarings.  Works on views of S: no second trajectory is
    formed.
    """
    steps = max(len(S) - 1, 0)
    b, Pb = 1, P
    while 4 * b * b <= steps:
        square = Pb @ Pb
        if not np.isfinite(square).all():
            break
        b, Pb = 2 * b, square
    blocks = steps // b
    V = S[1:blocks * b + 1].reshape(blocks, b, S.shape[1])
    PT = P.T
    for j in range(1, b):
        V[:, j] += V[:, j - 1] @ PT
    for c in range(blocks):
        V[c, -1] += Pb @ S[c * b]
    Z = S[0:blocks * b:b]
    for j in range(b - 1):
        Z = Z @ PT
        V[:, j] += Z
    for k in range(blocks * b, steps):
        S[k + 1] += P @ S[k]


def simulate(node, z0, u, T, steps=2000):
    """Integrate the node from z0 under input u over [0, T] with exact exponential steps.

    u is either a callable t -> input vector or an array sampled on the
    uniform grid with steps+1 points, in the layout (steps+1, m).  Each step
    is exact for the quadratic through the input at its start, midpoint and
    end (see the module docstring), so u is needed at 2*steps + 1 distinct
    times: a callable is called once at each, and a sampled input is used
    as given at the grid points and interpolated by the cubic midpoint rule
    at the half-points only.  Raises InvalidTimeGrid unless T and steps pass
    linalg.time_grid and the trajectory holds at most
    TRAJECTORY_MAX_ENTRIES entries (steps + 1)(n + m + p), which is checked
    before the grid, the input values or the states are allocated;
    DimensionMismatch if z0 or an
    input value is not made of numbers or has the wrong size, and
    NonFiniteState if an input value is not finite, the state is or
    becomes non-finite, or an output overflows.  The trajectory takes the
    dtype of its data, np.result_type(z0, inputs, step matrices): a real
    node with a real z0 and a real input runs in float64, and anything
    complex makes it complex128.  The recurrence runs in blocks of about
    sqrt(steps) steps, as batched matrix products of about 2 steps n^2
    multiplications in all; the block length b is halved until P^b is
    finite (see the module docstring).
    """
    width = node.n + node.m + node.p
    times = linalg.time_grid(T, steps, max_points=TRAJECTORY_MAX_ENTRIES // max(width, 1))
    steps = times.size - 1
    try:
        z0 = np.asarray(z0)
    except ValueError:  # a ragged sequence
        z0 = np.asarray(None)
    if z0.dtype.kind not in linalg.NUMBER_KINDS or z0.size != node.n:
        raise DimensionMismatch(f"z0 must be {node.n} numbers, got {z0.dtype} of shape {z0.shape}")
    z0 = linalg.real_or_complex(z0)
    A, B, C, D = (np.asarray(M) for M in (node.A, node.B, node.C, node.D))
    h = times[-1] / steps
    inputs, half = _input_values(u, node.m, times, h)
    with np.errstate(over="ignore", invalid="ignore"):
        step = _propagator(A, B, h)
        dtype = np.result_type(z0, inputs, *step)
        P, G0, Gh, G1 = (M.astype(dtype, copy=False) for M in step)
        states = np.empty((steps + 1, node.n), dtype=dtype)
        states[0] = z0.reshape(node.n)
        # states[1:] first holds every forcing term F_k = G0 u_k + Gh u_{k+1/2}
        # + G1 u_{k+1}; the recurrence then adds P z_k to each.  The stacked
        # inputs are a temporary, freed before the outputs are formed
        np.matmul(np.hstack([inputs[:-1], half, inputs[1:]]), np.hstack([G0, Gh, G1]).T,
                  out=states[1:])
        _recur(P, states)
    finite = np.all(np.isfinite(states), axis=1)
    if not finite.all():
        raise NonFiniteState(f"state became non-finite at t = {times[np.argmin(finite)]:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = states @ C.T + inputs @ D.T
    finite = np.all(np.isfinite(outputs), axis=1)
    if not finite.all():
        raise NonFiniteState(f"output overflows at t = {times[np.argmin(finite)]:.6g}")
    return Trajectory(times=times, states=states, inputs=inputs, outputs=outputs)


def _re_inner(X, Y):
    """Re <x_t, y_t> of each pair of rows; a real X is read without a conjugated copy."""
    return np.real(np.einsum("ti,ti->t", X.conj() if np.iscomplexobj(X) else X, Y))


def energy_audit(traj, W=None, E=None, tol=None):
    """Audit the passivity balance along a trajectory.

    defect(tau) = 2 int_0^tau Re<u, y> dt + 2 int_0^tau Re<E u, u> dt
                  - (||z(tau)||_W^2 - ||z(0)||_W^2)

    integrated with the trapezoid rule on the simulation grid.  The audit
    passes when min defect >= -tol.  The default tol is 1e-6 times the
    energy scale max|stored| + max|supplied| + 1, not base_tol(): the step
    is exact for quadratic inputs, so the O(h^2) error of the trapezoid
    supply integral is what sets the floor under the defect, and that
    floor depends on the grid, not on the slack of the eigenvalue
    decisions.  A given tol must be a finite number >= 0 (InvalidTolerance
    otherwise).  The supply <u, y> needs p = m: NotSquare otherwise, raised
    before W is read.  W is checked by weight_matrix; E by shift_matrix and
    linalg.assert_hermitian (NotSelfAdjoint unless E = E*), as for the
    synthesis and adversarial_input.
    Raises NonFiniteState when the stored or the supplied energy (or their
    balance) overflows, as it does for a finite but huge trajectory.
    """
    if tol is not None:
        tol = linalg.as_real(tol, "audit tol", InvalidTolerance)
        if tol < 0:
            raise InvalidTolerance(f"audit tol = {tol} is not >= 0")
    m, p = traj.inputs.shape[1], traj.outputs.shape[1]
    if p != m:
        raise NotSquare(f"the energy audit needs p = m, got p = {p} and m = {m}")
    times = traj.times
    n = traj.states.shape[1]
    W = weight_matrix(W, n)
    with np.errstate(over="ignore", invalid="ignore"):
        # <z, Wz> per row through one BLAS product S @ W^T (a three-operand einsum is unblocked)
        energy = _re_inner(traj.states, traj.states @ W.T)
        supply = 2.0 * _re_inner(traj.inputs, traj.outputs)
        if E is not None:
            E = linalg.assert_hermitian(shift_matrix(E, (m, m)), "E")
            supply = supply + 2.0 * _re_inner(traj.inputs, traj.inputs @ E.T)
        # the running supply integral in one array: the trapezoids, then their running sum
        cumulative = np.zeros(len(times))
        np.add(supply[:-1], supply[1:], out=cumulative[1:])
        cumulative[1:] *= 0.5 * np.diff(times)
        np.cumsum(cumulative[1:], out=cumulative[1:])
        defect = energy - energy[0]
        np.subtract(cumulative, defect, out=defect)
        scale = np.max(np.abs(energy)) + np.max(np.abs(cumulative)) + 1.0
    finite = np.isfinite(energy) & np.isfinite(cumulative) & np.isfinite(defect)
    if not (finite.all() and np.isfinite(scale)):
        t = times[np.argmin(finite)] if not finite.all() else times[-1]
        raise NonFiniteState(f"stored or supplied energy overflows by t = {t:.6g}")
    tol = 1e-6 * scale if tol is None else tol
    return EnergyAudit(
        times=times,
        defect=defect,
        min_defect=float(np.min(defect)),
        tol=tol,
    )


def export_csv(traj, path, audit=None):
    """Write the trajectory (and optional running defect) as CSV.

    Columns: t, Re/Im of each state, input and output component, and the
    running defect when an audit is supplied.  Every value is written with
    17 significant digits, so it reads back bit-exactly; lines end in CRLF.
    The rows are formatted linalg.CHUNK at a time, so the file costs one
    block of rows beyond the trajectory.
    Raises ParseError when the file cannot be written.
    """
    signals = (("z", traj.states), ("u", traj.inputs), ("y", traj.outputs))
    header = ["t"]
    for sym, M in signals:
        header += [f"{sym}{i}_{part}" for i in range(M.shape[1]) for part in ("re", "im")]
    if audit is not None:
        header.append("defect")

    def rows(lo, hi):
        columns = [traj.times[lo:hi, None]]
        for _, M in signals:
            M = M[lo:hi]
            columns.append(np.stack([M.real, M.imag], -1).reshape(len(M), 2 * M.shape[1]))
        if audit is not None:
            columns.append(audit.defect[lo:hi, None])
        return np.hstack(columns)

    with file_errors(path), open(path, "w", newline="", encoding="utf-8") as fh:
        for lo in range(0, len(traj.times), linalg.CHUNK):
            np.savetxt(fh, rows(lo, lo + linalg.CHUNK), fmt="%.17g", delimiter=",",
                       header=",".join(header) if lo == 0 else "", comments="",
                       newline="\r\n")


def adversarial_input(node, E=None, amplitude=1.0):
    """Constant input exposing a passivity violation, when one exists.

    Takes the bounded impedance form of Sigma_E (E = None reads as 0) and
    its bottom eigenspace, that of the eigenvalues within linalg.psd_tol of
    the least.  The witness is the unit projection onto that eigenspace of
    the first of two unit reference vectors whose projection is not zero:
    (0, 1_m / sqrt(m)), then (B~ 1_m, 0) / ||B~ 1_m|| with B~ the
    W-orthonormal B.  Both move with the realization, so the rounding of
    eigh does not pick the witness within a repeated eigenvalue.  Whether a
    projection is zero is a rank decision, cut at linalg.SUBSPACE_TOL: the
    rounding of the eigenvectors, not the sign slack, sets its floor.  When
    both projections are zero the witness is the eigenvector of the least
    eigenvalue.  The witness is split into (state, input) components, and
    (z0, u0, least eigenvalue) returned.  Driving the node from z0 with the
    constant input u0 makes the instantaneous defect rate negative, so a
    short simulation yields a strictly negative energy-audit defect.
    Raises NotSquare when p != m.
    """
    amplitude = linalg.as_real(amplitude, "amplitude", DimensionMismatch)
    F, _ = _shifted_form(node, E)
    vals, vecs, _ = linalg.psd_eig(F)
    if not vals.size:  # n = m = 0
        return np.zeros(0), np.zeros(0), 0.0
    bottom = vecs[:, vals <= vals[0] + linalg.psd_tol(vals)]
    refs = np.zeros((node.n + node.m, 2), dtype=vecs.dtype)
    refs[node.n:, 0] = 1.0
    refs[:node.n, 1] = node.orthonormal[1].sum(axis=1)
    # each reference made a unit vector; a zero one stays zero
    refs /= np.maximum(np.linalg.norm(refs, axis=0), np.finfo(float).tiny)
    c = bottom.conj().T @ refs
    norms = np.linalg.norm(c, axis=0)
    usable = np.flatnonzero(norms > linalg.SUBSPACE_TOL)
    w = bottom @ c[:, usable[0]] / norms[usable[0]] if usable.size else vecs[:, 0]
    z0 = node.to_state(amplitude * w[:node.n])
    return z0, amplitude * w[node.n:], float(vals[0])
