"""Second-order builders and the free-free beam model."""

import numpy as np
import pytest
from scipy.integrate import simpson

from passivenode import (
    BeamParameters,
    SecondOrderPlant,
    beam_model,
    build_colocated,
    build_noncolocated,
    build_two_channel,
    check_impedance,
    check_impedance_reciprocal,
    shift_feedthrough,
    stability_verdict,
)
from passivenode.errors import DimensionMismatch, SingularM
from passivenode.second_order import beam_frequencies, beam_mode_shape
from passivenode.stability import StabilityVerdict

from conftest import random_second_order


def test_plant_validation():
    with pytest.raises(DimensionMismatch):
        SecondOrderPlant(A0=np.eye(3), M=np.eye(2), C0=np.ones((1, 3)))
    with pytest.raises(Exception):
        SecondOrderPlant(A0=-np.eye(3), M=np.eye(3), C0=np.ones((1, 3)))


def test_build_colocated_passive_and_colocated():
    for seed in range(5):
        plant = random_second_order(seed)
        node, E = build_colocated(plant)
        assert np.allclose(E, 0.0)
        # C = B* in the weighted inner product
        assert np.linalg.norm(node.B.conj().T @ node.W - node.C, 2) < 1e-12
        assert check_impedance(node).passive


def test_build_colocated_closed_loop_hurwitz_when_observable():
    plant = random_second_order(1)
    node, E = build_colocated(plant)
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert report.closed_loop_hurwitz


def test_build_noncolocated_minimal_shift():
    for seed in range(5):
        plant = random_second_order(seed, with_B0=True)
        node, E = build_noncolocated(plant)
        assert check_impedance(shift_feedthrough(node, E)).passive
        assert not check_impedance(
            shift_feedthrough(node, E - 1e-3 * np.eye(node.m))
        ).passive


def test_build_noncolocated_requires_invertible_damping():
    plant = random_second_order(0, with_B0=True)
    singular = SecondOrderPlant(
        A0=plant.A0, M=np.zeros_like(np.asarray(plant.M)), C0=plant.C0, B0=plant.B0
    )
    with pytest.raises(SingularM):
        build_noncolocated(singular)


def test_build_two_channel_identities():
    for seed in range(5):
        plant = random_second_order(seed, with_C1=True)
        node, E = build_two_channel(plant)
        # C A^-1 + B* A^-* = 0 with the weighted adjoint B* = B^H W
        Ainv = np.linalg.inv(np.asarray(node.A))
        lhs = node.C @ Ainv + node.B.conj().T @ Ainv.conj().T @ node.W
        assert np.linalg.norm(lhs, 2) < 1e-8
        assert check_impedance(shift_feedthrough(node, E)).passive
        assert not check_impedance(
            shift_feedthrough(node, E - 1e-3 * np.eye(node.m))
        ).passive
        # the reciprocal test at omega = 0 certifies the same shift
        assert check_impedance_reciprocal(node, E, 0.0).passive


def test_beam_frequencies_solve_characteristic_equation():
    betas, sym = beam_frequencies(10)
    assert np.all(np.diff(betas) > 0)
    # cos(2b) cosh(2b) = 1, checked in relative form to tame cosh growth
    resid = np.abs(np.cos(2.0 * betas) - 1.0 / np.cosh(2.0 * betas))
    assert np.max(resid) < 1e-8
    # parities alternate starting with the symmetric mode
    assert sym[:4] == [True, False, True, False]


def test_beam_mode_shapes_satisfy_free_end_conditions():
    betas, sym = beam_frequencies(6)
    h = 1e-6
    for beta, s in zip(betas, sym):
        # second derivative (bending moment) vanishes at the free ends
        x = np.array([1.0 - h, 1.0, 1.0 + h])
        vals = beam_mode_shape(beta, s, x)
        second = (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
        scale = np.max(np.abs(vals)) * beta**2
        assert abs(second) < 1e-3 * scale


def test_beam_modes_orthogonal():
    betas, sym = beam_frequencies(5)
    x = np.linspace(-1.0, 1.0, 8001)
    shapes = [beam_mode_shape(b, s, x) for b, s in zip(betas, sym)]
    shapes = [phi / np.sqrt(simpson(phi**2, x=x)) for phi in shapes]
    # mutual orthogonality and orthogonality to the rigid modes
    rigid = [np.full_like(x, 1.0 / np.sqrt(2.0)), np.sqrt(1.5) * x]
    for i, phi in enumerate(shapes):
        for j, psi in enumerate(shapes):
            val = simpson(phi * psi, x=x)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-6)
        for r in rigid:
            assert simpson(phi * r, x=x) == pytest.approx(0.0, abs=1e-6)


def test_beam_model_structure():
    params = BeamParameters(n_modes=8)
    node, E = beam_model(params)
    assert node.n == 2 * (8 - 2) + 2
    assert node.m == node.p == 2
    assert np.allclose(E, 0.0)
    assert np.linalg.norm(node.B.conj().T @ node.W - node.C, 2) < 1e-12
    assert check_impedance(node).passive
    # double eigenvalue at zero from the rigid-body velocities
    ev = np.linalg.eigvals(np.asarray(node.A))
    assert np.sum(np.abs(ev) < 1e-10) == 2


def test_beam_closed_loop_strongly_stable():
    params = BeamParameters(n_modes=8)
    node, E = beam_model(params)
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert report.closed_loop_hurwitz


def test_beam_parameter_validation():
    with pytest.raises(DimensionMismatch):
        BeamParameters(rho_a=-1.0)
    with pytest.raises(DimensionMismatch):
        BeamParameters(n_modes=1)
