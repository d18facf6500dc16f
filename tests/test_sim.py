"""Exact exponential simulation, energy audits, CSV export."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

from passivenode import (
    BeamParameters,
    StateSpaceNode,
    adversarial_input,
    beam_model,
    energy_audit,
    linalg,
    shift_feedthrough,
    simulate,
)
from passivenode.errors import DimensionMismatch, NonFiniteState
from passivenode.linalg import CHUNK
from passivenode.passivity import impedance_block_bounded
from passivenode.sim import _propagator, _recur, export_csv

from conftest import (
    dense_change,
    dense_coordinates,
    random_almost_passive,
    random_nonpassive_node,
    random_passive_node,
)


def test_rk4_matches_exact_exponential():
    # z' = -z, z(0) = 1: z(T) = e^{-T}
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = simulate(node, [1.0], lambda t: np.zeros(1), 2.0, steps=200)
    assert traj.states[-1, 0].real == pytest.approx(np.exp(-2.0), abs=1e-9)
    assert traj.outputs[-1, 0].real == pytest.approx(np.exp(-2.0), abs=1e-9)


def test_driven_oscillator_matches_scipy_reference():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    node = random_passive_node(0)
    u = lambda t: np.array([np.sin(t), np.cos(2.0 * t)])
    rhs = lambda t, z: np.asarray(node.A) @ z + np.asarray(node.B) @ u(t)
    z0 = np.array([1.0, 0.0, -0.5, 0.25], dtype=complex)
    ref = solve_ivp(rhs, (0.0, 3.0), z0, rtol=1e-11, atol=1e-12)
    traj = simulate(node, z0, u, 3.0, steps=3000)
    assert np.linalg.norm(traj.states[-1] - ref.y[:, -1]) < 1e-7


def test_sampled_input_accepted():
    node = random_passive_node(1)
    grid = np.linspace(0.0, 2.0, 201)
    samples = np.stack([np.sin(grid), np.cos(grid)], axis=1)
    traj = simulate(node, np.zeros(4), samples, 2.0, steps=200)
    assert traj.inputs.shape == (201, 2)
    with pytest.raises(DimensionMismatch):
        simulate(node, np.zeros(4), samples[:-5], 2.0, steps=200)


def test_blowup_detected():
    node = StateSpaceNode([[500.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NonFiniteState):
        simulate(node, [1.0], lambda t: np.zeros(1), 10.0, steps=50)


def test_blocks_keep_the_answers_of_an_unstable_node():
    # P = e^100 on these grids, so P^8 = e^800 overflows: carrying a block
    # start by it would turn the zero start into 0 * inf = NaN
    node = StateSpaceNode([[500.0]], [[1.0]], [[1.0]], [[0.0]])
    zero = lambda t: np.zeros(1)
    traj = simulate(node, [0.0], zero, 20.0, steps=100)
    assert traj.states.dtype == np.float64
    assert not traj.states.any()
    with pytest.raises(NonFiniteState, match="state became non-finite at t = 3$"):
        simulate(node, [1e-300], zero, 20.0, steps=100)
    with pytest.raises(NonFiniteState, match="state became non-finite at t = 1.6$"):
        simulate(node, [1.0], zero, 10.0, steps=50)


def _step_matrix(kind, n, dtype, rng):
    M = rng.standard_normal((n, n))
    if dtype == np.complex128:
        M = M + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(M)[0]
    if kind == "contractive":
        return (0.95 * Q).astype(dtype)
    if kind == "non-normal":
        N = np.triu(M, 1)
        return (0.8 * np.eye(n) + N / max(1.0, np.linalg.norm(N, 2))).astype(dtype)
    return (1.002 * Q).astype(dtype)  # growing: 1.002^1000 is about 7


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("kind", ["contractive", "non-normal", "growing"])
def test_blocked_recurrence_matches_the_step_by_step_loop(kind, dtype):
    # an exact square, one below and one above it, and a short tail
    rng = np.random.default_rng(7)
    for n in (0, 1, 4, 14):
        P = _step_matrix(kind, n, dtype, rng)
        for steps in (1, 2, 3, 15, 16, 17, 1000):
            S = rng.standard_normal((steps + 1, n)).astype(dtype)
            if dtype == np.complex128:
                S += 1j * rng.standard_normal((steps + 1, n))
            ref = S.copy()
            for k in range(steps):
                ref[k + 1] += P @ ref[k]
            _recur(P, S)
            assert S.dtype == ref.dtype
            scale = 1.0 + np.linalg.norm(ref, axis=1, keepdims=True)
            assert np.all(np.abs(S - ref) <= 1e-12 * scale), (n, steps)


def test_passive_audit_nonnegative():
    for seed in range(5):
        node = random_passive_node(seed, weight=(seed % 2 == 0))
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.3, 2.0, 2)
        u = lambda t: np.array([np.cos(w[0] * t), np.sin(w[1] * t)])
        traj = simulate(node, np.zeros(4), u, 3.0, steps=600)
        audit = energy_audit(traj, W=node.W)
        assert audit.passed
        assert audit.min_defect >= -audit.tol
        assert audit.defect[0] == pytest.approx(0.0)


def test_shifted_audit_uses_E():
    # almost-passive node fails the plain audit but passes with its shift
    node = random_passive_node(2)
    E = 0.8 * np.eye(2)
    from passivenode import shift_feedthrough

    shifted = shift_feedthrough(node, -E)
    u = lambda t: np.array([np.cos(t), np.sin(0.7 * t)])
    traj = simulate(shifted, np.zeros(4), u, 4.0, steps=800)
    with_shift = energy_audit(traj, W=shifted.W, E=E)
    plain = energy_audit(traj, W=shifted.W)
    assert with_shift.passed
    # the E term strictly enlarges the audited supply along a driven run
    assert plain.defect[-1] < with_shift.defect[-1] - 1e-6


def test_adversarial_input_produces_violation():
    for seed in range(5):
        node = random_nonpassive_node(seed)
        z0, u0, lam = adversarial_input(node, amplitude=2.0)
        assert lam < 0
        traj = simulate(node, z0, lambda t: u0, 0.2, steps=200)
        audit = energy_audit(traj, W=node.W)
        assert audit.min_defect < -1e-3


def test_adversarial_input_is_the_bottom_of_the_bounded_form_of_sigma_E():
    # the eigenvalue of the form of the shifted node, D + E + (D + E)*, which
    # the shift now enters as D + D* + 2E
    for seed in range(6):
        node, E = random_almost_passive(seed, weight=(seed % 2 == 0))
        for shift in (None, E, 0.5 * E):
            F = impedance_block_bounded(node if shift is None else shift_feedthrough(node, shift))
            expected = np.linalg.eigvalsh(F)[0]
            z0, u0, lam = adversarial_input(node, E=shift, amplitude=3.0)
            assert abs(lam - expected) <= 1e-12 * (1.0 + np.linalg.norm(F, 2))
            # a unit witness (x, u) in W-orthonormal coordinates, scaled by 3
            assert node.weighted_norm_sq(z0) + np.linalg.norm(u0) ** 2 == pytest.approx(9.0)


def test_adversarial_input_does_not_depend_on_the_realization():
    # the form of the colocated beam has the least eigenvalue 0 on the input
    # block and on the rigid pair, so eigh's first vector of it is up to rounding
    node = beam_model(BeamParameters(n_modes=24))[0]
    z0, u0, _ = adversarial_input(node)
    z0d, u0d, _ = adversarial_input(dense_coordinates(node, 24))
    assert np.abs(u0d - u0).max() <= 1e-8
    assert np.abs(dense_change(node.n, 24) @ z0d - z0).max() <= 1e-8


def test_adversarial_input_is_realization_free_when_the_input_block_is_lifted():
    # E = 0.5 I lifts the input block above the repeated least eigenvalue 0 of
    # the rigid pair, so (0, 1_m) projects to zero and the witness is the
    # projection of (B~ 1_m, 0), which moves with the realization
    node = beam_model(BeamParameters(n_modes=24))[0]
    E = 0.5 * np.eye(node.m)
    z0, u0, lam = adversarial_input(node, E=E)
    z0d, u0d, lamd = adversarial_input(dense_coordinates(node, 24), E=E)
    assert np.abs(u0).max() <= 1e-8 and np.abs(u0d).max() <= 1e-8
    assert np.abs(dense_change(node.n, 24) @ z0d - z0).max() <= 1e-8
    assert node.weighted_norm_sq(z0) == pytest.approx(1.0)
    assert abs(lam - lamd) <= 1e-8


def test_the_beam_passes_its_audit_under_each_input_form():
    # the 4-mode beam under a sampled and a callable cosine, in float64; the
    # 24-mode beam in dense coordinates under its adversarial input; and the
    # stiff 100-mode beam over 20000 steps, 156 blocks of 128 and a tail of 32
    beam = beam_model(BeamParameters(n_modes=4))[0]
    samples = np.cos(np.linspace(0.0, 10.0, 2001))[:, None] * np.ones(beam.m)
    for u, steps in ((samples, 2000), (lambda t: np.cos(t) * np.ones(beam.m), 200)):
        traj = simulate(beam, np.zeros(beam.n), u, 10.0, steps=steps)
        assert traj.states.dtype == np.float64
        assert energy_audit(traj, W=beam.W).passed
    dense = dense_coordinates(beam_model(BeamParameters(n_modes=24))[0], 24)
    z0, u0, _ = adversarial_input(dense)
    assert energy_audit(simulate(dense, z0, lambda t: u0, 10.0), W=dense.W).passed
    stiff = beam_model(BeamParameters(n_modes=100))[0]
    traj = simulate(stiff, np.zeros(stiff.n), lambda t: np.cos(t) * np.ones(stiff.m), 10.0,
                    steps=20000)
    assert energy_audit(traj, W=stiff.W).passed


def test_csv_export(tmp_path):
    node = random_passive_node(0)
    u = lambda t: np.array([np.cos(t), np.sin(t)])
    traj = simulate(node, np.zeros(4), u, 1.0, steps=50)
    audit = energy_audit(traj, W=node.W)
    path = tmp_path / "traj.csv"
    export_csv(traj, path, audit=audit)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t" and rows[0][-1] == "defect"
    assert len(rows) == 52
    assert float(rows[1][0]) == 0.0


def test_csv_cells_read_back_bit_exactly(tmp_path):
    # a transposed square sampled input: traj.inputs is not C-contiguous
    node = StateSpaceNode(-np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)))
    samples = np.array([[-0.0, 1 / 3, 5e-324], [0.1, -0.0, -2.5], [1e-300, 0.0, -1 / 7]])
    traj = simulate(node, np.array([-0.0, 1.0, 1j]), samples.T, 1.0, steps=2)
    assert not traj.inputs.flags.c_contiguous
    audit = energy_audit(traj, W=node.W)
    path = tmp_path / "traj.csv"
    export_csv(traj, path, audit=audit)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n") == 4
    table = np.array([[float(x) for x in line.split(b",")] for line in raw.splitlines()[1:]])
    expected = []
    for i, t in enumerate(traj.times):
        row = [t]
        for vec in (traj.states[i], traj.inputs[i], traj.outputs[i]):
            for v in vec:
                row += [v.real, v.imag]
        expected.append(row + [audit.defect[i]])
    assert table.tobytes() == np.array(expected).tobytes()
    assert np.signbit(table[table == 0.0]).any()  # a -0.0 made the trip


def _one_shot_csv(traj, audit=None):
    """The CSV text of the whole trajectory written by one np.savetxt."""
    header, columns = ["t"], [traj.times[:, None]]
    for sym, M in (("z", traj.states), ("u", traj.inputs), ("y", traj.outputs)):
        header += [f"{sym}{i}_{part}" for i in range(M.shape[1]) for part in ("re", "im")]
        columns.append(np.stack([M.real, M.imag], -1).reshape(len(M), 2 * M.shape[1]))
    if audit is not None:
        header.append("defect")
        columns.append(audit.defect[:, None])
    out = io.StringIO(newline="")
    np.savetxt(out, np.hstack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="", newline="\r\n")
    return out.getvalue().encode()


def test_csv_blocks_write_the_bytes_of_one_savetxt(tmp_path):
    # 2.5 chunks of rows: a real, a complex and an audited trajectory
    steps = 5 * CHUNK // 2
    node = StateSpaceNode(-np.eye(3), np.ones((3, 2)), np.ones((2, 3)), np.eye(2))
    u = lambda t: np.array([np.cos(t), np.sin(t)])
    real = simulate(node, np.zeros(3), u, 1.0, steps=steps)
    cplx = simulate(node, np.full(3, 0.1j), u, 1.0, steps=steps)
    assert real.states.dtype == np.float64 and cplx.states.dtype == np.complex128
    path = tmp_path / "traj.csv"
    for traj, audit in ((real, None), (cplx, None), (cplx, energy_audit(cplx, W=node.W))):
        export_csv(traj, path, audit=audit)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == steps + 2
        assert raw == _one_shot_csv(traj, audit)


# -- the callable input, read one chunk at a time -------------------------------


def _trajectory_bytes(traj):
    return sum(a.nbytes for a in (traj.times, traj.states, traj.inputs, traj.outputs))


def test_simulation_memory_is_proportional_to_the_trajectory():
    # n = m = p = 1: the trajectory is 32 B per step, and the input's values
    # are read one chunk at a time, not held as one Python object per time
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.5]])
    u = lambda t: np.array([np.cos(t)])
    simulate(node, [0.0], u, 1.0, steps=4)
    tracemalloc.start()
    try:
        traj = simulate(node, [0.0], u, 10.0, steps=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * _trajectory_bytes(traj)


def test_a_callable_input_leaves_the_trajectory_its_own_inputs():
    # the inputs are copied out of the samples that interleave the grid and the
    # half-points, so the trajectory does not keep the half-point values alive
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.5]])
    u = lambda t: np.array([np.cos(t)])
    traj = simulate(node, [0.0], u, 1.0, steps=100)
    assert traj.inputs.flags.owndata and traj.inputs.flags.c_contiguous
    assert np.array_equal(traj.inputs, [u(t) for t in traj.times])


class _RecordingInput:
    """Records each time it is called at; its value changes at time index `at`."""

    def __init__(self, late, at):
        self.times, self.late, self.at = [], late, at

    def __call__(self, t):
        self.times.append(t)
        return self.late if len(self.times) > self.at else np.array([np.cos(t), 2.0])


def test_sampling_keeps_its_answers_across_chunk_boundaries():
    times = np.linspace(0.0, 1.0, 2 * CHUNK + 100)
    late = 2 * CHUNK + 10  # a time index in the third chunk
    u = _RecordingInput(np.array([1.0, 0.5j]), late)
    S = linalg.sample(u, times, "u", width=2)
    assert u.times == list(times)  # once per time, in order
    u.times = []
    one_shot = linalg.as_signal([u(t) for t in times], "u", width=2)
    assert S.dtype == np.complex128 and S.tobytes() == one_shot.tobytes()
    # a real late value keeps the signal real
    real = linalg.sample(_RecordingInput(np.array([1.0, 0.5]), late), times, "u")
    assert real.dtype == np.float64 and real.shape == (times.size, 2)
    for value, error in ((np.array([1.0, 0.5, 0.0]), DimensionMismatch),
                         (np.array([np.nan, 0.5]), NonFiniteState)):
        for width in (2, None):
            with pytest.raises(error):
                linalg.sample(_RecordingInput(value, late), times, "u", width=width)


# -- the exponential propagator ------------------------------------------------


def test_one_step_is_exact_for_a_quadratic_input():
    # u(t) = c0 + c1 t + c2 t^2 makes (z, u, u', u'') one linear system with
    # generator [[A, B, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]]; at
    # h = 0.3 the node has |h lambda| = 5.3, beyond where RK4 is stable
    expm = pytest.importorskip("scipy.linalg").expm

    node = random_passive_node(3, weight=True)
    A, B = np.asarray(node.A), np.asarray(node.B)
    n, m = B.shape
    c0, c1, c2 = np.array([1.0 + 0.5j, -2.0]), np.array([0.5, 3.0j]), np.array([-4.0, 1.0 - 2.0j])
    u = lambda t: c0 + c1 * t + c2 * t**2
    z0 = np.array([1.0, -0.5j, 0.25, 2.0], dtype=complex)
    h = 0.3
    G = np.zeros((n + 3 * m, n + 3 * m), dtype=complex)
    G[:n, :n], G[:n, n:n + m] = A, B
    G[n:n + 2 * m, n + m:] = np.eye(2 * m)
    expected = (expm(h * G) @ np.concatenate([z0, c0, c1, 2.0 * c2]))[:n]
    z1 = simulate(node, z0, u, h, steps=1).states[1]
    assert np.linalg.norm(z1 - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [0, 1, 4, 12])
@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 10.0, 1e2])
def test_expm_matches_scipy(n, norm):
    expm = pytest.importorskip("scipy.linalg").expm

    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if n:
        M *= norm / np.linalg.norm(M, 1)
    expected = expm(M)
    result = linalg.expm(M)
    assert result.shape == (n, n)
    assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [0, 3, 12])
def test_expm_keeps_a_real_matrix_real(n):
    expm = pytest.importorskip("scipy.linalg").expm

    M = np.random.default_rng(n).standard_normal((n, n)) * 2.0
    result = linalg.expm(M)
    assert result.dtype == np.float64
    assert np.linalg.norm(result - expm(M)) <= 1e-12 * max(1.0, np.linalg.norm(expm(M)))
    assert linalg.expm(np.eye(3, dtype=int)).dtype == np.float64
    bad = linalg.expm(np.full((2, 2), np.inf))
    assert bad.dtype == np.float64 and np.isnan(bad).all()
    assert linalg.expm(np.full((2, 2), np.nan, dtype=complex)).dtype == np.complex128


class _CountingInput:
    def __init__(self):
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return np.array([np.cos(t), np.sin(t)])


@pytest.mark.parametrize("steps", [1, 7, 300])
def test_input_is_evaluated_once_per_distinct_time(steps):
    u = _CountingInput()
    simulate(random_passive_node(0), np.zeros(4), u, 2.0, steps=steps)
    assert u.calls == 2 * steps + 1


def test_node_without_state_passes_the_input_through():
    node = StateSpaceNode(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
    traj = simulate(node, np.zeros(0), lambda t: np.array([np.cos(t), 2.0]), 1.0, steps=10)
    assert traj.states.shape == (11, 0)
    assert np.array_equal(traj.outputs, traj.inputs)


def test_sampled_input_is_kept_exactly_at_the_grid_points():
    node = random_passive_node(1)
    grid = np.linspace(0.0, 2.0, 201)
    samples = np.stack([np.sin(3.0 * grid), np.cos(grid) + 1j * grid], axis=1)
    traj = simulate(node, np.zeros(4), samples, 2.0, steps=200)
    assert np.array_equal(traj.inputs, samples)
    # the one layout is (steps + 1, m): the transpose is not guessed
    with pytest.raises(DimensionMismatch, match="sampled input"):
        simulate(node, np.zeros(4), samples.T, 2.0, steps=200)


def test_square_sampled_input_keeps_its_layout():
    # m = steps + 1 = 3: the samples are read as (steps + 1, m), never transposed
    node = StateSpaceNode(-np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)))
    samples = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(simulate(node, np.zeros(3), samples, 1.0, steps=2).inputs, samples)


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 50])
def test_sampled_half_points_are_exact_for_cubics(steps):
    # a cubic in t is reproduced at every half-point (a line and a parabola
    # through all the samples when there are two or three); the half-points
    # enter the state only, so compare with the same input given as a callable
    node = random_passive_node(4)
    coef = np.array([[1.0, 2.0j], [-2.0, 0.5], [0.7j, 3.0], [0.5, -1.0j]])[:min(steps, 3) + 1]
    cubic = lambda t: sum(c * t**j for j, c in enumerate(coef))
    times = np.linspace(0.0, 2.0, steps + 1)
    samples = np.array([cubic(t) for t in times])
    sampled = simulate(node, np.zeros(4), samples, 2.0, steps=steps).states
    called = simulate(node, np.zeros(4), cubic, 2.0, steps=steps).states
    assert np.linalg.norm(sampled - called) <= 1e-13 * np.linalg.norm(called)


# -- typed shape and finiteness errors ---------------------------------------------


def test_wrong_sizes_raise_dimension_mismatch():
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(DimensionMismatch, match="z0"):
        simulate(node, [1.0, 2.0], lambda t: np.zeros(1), 1.0, steps=10)
    with pytest.raises(DimensionMismatch, match="u\\(t\\)"):
        simulate(node, [1.0], lambda t: np.zeros(2), 1.0, steps=10)
    with pytest.raises(DimensionMismatch, match="u\\(t\\)"):
        simulate(node, [1.0], lambda t: [], 1.0, steps=10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_raises_non_finite_state(bad):
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NonFiniteState, match="t = 0$"):
        simulate(node, [bad], lambda t: np.zeros(1), 1.0, steps=10)
    samples = np.zeros((11, 1))
    samples[4] = bad
    with pytest.raises(NonFiniteState):
        simulate(node, [1.0], samples, 1.0, steps=10)


def test_propagator_of_a_real_node_is_real():
    node = beam_model(BeamParameters(n_modes=12))[0]
    h = 10.0 / 2000
    real = _propagator(node.A, node.B, h)
    assert all(M.dtype == np.float64 for M in real)
    # the same step matrices as the complex path
    for M, ref in zip(real, _propagator(node.A.astype(complex), node.B, h)):
        assert ref.dtype == np.complex128
        assert np.abs(M - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
