"""RK4 simulation, energy audits, CSV export."""

import csv

import numpy as np
import pytest

from passivenode import StateSpaceNode, adversarial_input, energy_audit, simulate
from passivenode.errors import DimensionMismatch, NonFiniteState
from passivenode.sim import export_csv

from conftest import random_nonpassive_node, random_passive_node


def test_rk4_matches_exact_exponential():
    # z' = -z, z(0) = 1: z(T) = e^{-T}
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = simulate(node, [1.0], lambda t: np.zeros(1), 2.0, steps=200)
    assert traj.states[-1, 0].real == pytest.approx(np.exp(-2.0), abs=1e-9)
    assert traj.outputs[-1, 0].real == pytest.approx(np.exp(-2.0), abs=1e-9)


def test_driven_oscillator_matches_scipy_reference():
    from scipy.integrate import solve_ivp

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


# -- the RK4 propagator ----------------------------------------------------------


def test_one_step_is_classical_rk4():
    node = random_passive_node(3, weight=True)
    A, B = np.asarray(node.A), np.asarray(node.B)
    u = lambda t: np.array([np.cos(3.0 * t) + 0.5j, np.exp(-t) * np.sin(5.0 * t)])
    z0 = np.array([1.0, -0.5j, 0.25, 2.0], dtype=complex)
    h = 0.3
    f = lambda t, z: A @ z + B @ u(t)
    k1 = f(0.0, z0)
    k2 = f(h / 2, z0 + h / 2 * k1)
    k3 = f(h / 2, z0 + h / 2 * k2)
    k4 = f(h, z0 + h * k3)
    expected = z0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    z1 = simulate(node, z0, u, h, steps=1).states[1]
    assert np.linalg.norm(z1 - expected) <= 1e-13 * np.linalg.norm(expected)


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
    assert np.array_equal(simulate(node, np.zeros(4), samples.T, 2.0, steps=200).inputs, samples)


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
