"""Second-order builders and the free-free beam model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    stabilizing_feedback,
    stability_verdict,
)
from passivenode import io
from passivenode.errors import DimensionMismatch, NotAlmostPassive, NotSquare
from passivenode.node import MAX_STATES
from passivenode.second_order import beam_frequencies, beam_mode_shape
from passivenode.stability import StabilityVerdict

from conftest import random_second_order


def test_plant_validation():
    with pytest.raises(DimensionMismatch):
        SecondOrderPlant(A0=np.eye(3), M=np.eye(2), C0=np.ones((1, 3)))
    with pytest.raises(Exception):
        SecondOrderPlant(A0=-np.eye(3), M=np.eye(3), C0=np.ones((1, 3)))


def test_plant_C1_must_have_n0_columns():
    A0, M, C0 = np.eye(3), np.eye(3), np.ones((1, 3))
    with pytest.raises(DimensionMismatch):
        SecondOrderPlant(A0=A0, M=M, C0=C0, C1=np.ones((3, 2)))
    # B0 is n0 x m; the m x n0 layout is refused, not transposed
    node, _ = build_noncolocated(SecondOrderPlant(A0=A0, M=M, C0=C0, B0=np.ones((3, 1))))
    assert node.m == 1
    with pytest.raises(DimensionMismatch, match="B0 must be n0 x m"):
        SecondOrderPlant(A0=A0, M=M, C0=C0, B0=np.ones((1, 3)))


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


def test_build_noncolocated_undamped_needs_B0_equal_C0_star():
    # M = 0: ker M holds every velocity, and C0 - B0* does not vanish on it
    plant = random_second_order(0, with_B0=True)
    undamped = SecondOrderPlant(
        A0=plant.A0, M=np.zeros_like(np.asarray(plant.M)), C0=plant.C0, B0=plant.B0
    )
    with pytest.raises(NotAlmostPassive):
        build_noncolocated(undamped)


def test_build_noncolocated_with_singular_damping_is_tight(tmp_path):
    # C0 - B0* = diag(-1, 0) vanishes on ker M = span(e2), so the shift is
    # 1/4 (C0 - B0*) M^+ (C0* - B0) = diag(0.25, 0); the plant's file is a
    # fixed point of load -> save, and the plant is built as read back from it
    plant = SecondOrderPlant(A0=np.diag([1.0, 2.0]), M=np.diag([1.0, 0.0]), C0=np.eye(2),
                             B0=np.diag([2.0, 1.0]))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    io.save_plant(plant, first)
    io.save_plant(io.load_plant(first), second)
    assert second.read_text() == first.read_text()
    node, E = build_noncolocated(io.load_plant(second))
    np.testing.assert_allclose(E, np.diag([0.25, 0.0]), rtol=0.0, atol=1e-14)
    assert stabilizing_feedback(node, E, 1.0).kappa0 == pytest.approx(4.0)
    with pytest.raises(NotAlmostPassive):
        stabilizing_feedback(node, E - 1e-3 * np.eye(2), 1.0)


def test_build_noncolocated_needs_p_equal_m():
    plant = random_second_order(0)  # p = 2
    with pytest.raises(NotSquare):
        build_noncolocated(SecondOrderPlant(A0=plant.A0, M=plant.M, C0=plant.C0,
                                            B0=np.ones((plant.n0, 1))))


def _plant(rng, n0, p, kind):
    """A real, complex or undamped plant with A0 > 0 and M >= 0 of rank n0 - 1 or n0."""
    def rand(*shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if kind == "complex" else X

    G, H = rand(n0, n0), rand(n0, n0 - int(rng.integers(0, 2)))
    M = np.zeros((n0, n0)) if kind == "undamped" else H @ H.conj().T
    return SecondOrderPlant(A0=G @ G.conj().T + 0.5 * np.eye(n0), M=M, C0=rand(p, n0))


@pytest.mark.parametrize("kind", ["real", "complex", "undamped"])
def test_build_colocated_is_the_velocity_channel_with_B0_equal_C0_star(kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        plant = _plant(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)), kind)
        node, E = build_colocated(plant)
        same = SecondOrderPlant(A0=plant.A0, M=plant.M, C0=plant.C0, B0=plant.C0.conj().T)
        other, _ = build_noncolocated(same)
        for key in "ABCDW":
            assert getattr(node, key).tobytes() == getattr(other, key).tobytes()
        assert E.shape == (node.m, node.m) and not E.any()


@st.composite
def _small_plants(draw):
    """A plant with n0 <= 3 and m, p <= 2, and a diagonal M that may hold zeros.

    When m = p, B0 copies C0* on some of the rows where M is zero, so that
    C0 - B0* may vanish on ker M and a shift exist.
    """
    n0 = draw(st.sampled_from([1, 2, 3]))
    m, p = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    entry = st.floats(-2.0, 2.0)
    damping = [draw(st.just(0.0) | st.floats(0.25, 2.0)) for _ in range(n0)]
    C0 = np.array([[draw(entry) for _ in range(n0)] for _ in range(p)])
    B0 = np.array([[draw(entry) for _ in range(m)] for _ in range(n0)])
    if m == p:
        for i in range(n0):
            if damping[i] == 0.0 and draw(st.booleans()):
                B0[i] = C0[:, i]
    return SecondOrderPlant(A0=np.diag([draw(st.floats(0.5, 2.0)) for _ in range(n0)]),
                            M=np.diag(damping), C0=C0, B0=B0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(plant=_small_plants())
def test_build_noncolocated_gives_a_tight_shift_or_a_typed_refusal(plant):
    # tightness is decided by the bounded form the synthesis certifies
    try:
        node, E = build_noncolocated(plant)
    except (NotAlmostPassive, NotSquare):
        return
    kappa = 0.5 / (1.0 + np.linalg.norm(E, 2))
    stabilizing_feedback(node, E, kappa)
    with pytest.raises(NotAlmostPassive):
        stabilizing_feedback(node, E - 1e-3 * np.eye(node.m), kappa)


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


def _beam_frequencies_brentq(n_modes):
    """Reference: one brentq per tan(b) +- tanh(b) bracket, in increasing order."""
    brentq = pytest.importorskip("scipy.optimize").brentq

    roots = []
    for j in range(n_modes):
        roots.append((brentq(lambda x: np.tan(x) + np.tanh(x), (2 * j + 1) * np.pi / 2 + 1e-9,
                             (j + 1) * np.pi - 1e-9, xtol=1e-14, rtol=1e-15), True))
        roots.append((brentq(lambda x: np.tan(x) - np.tanh(x), (j + 1) * np.pi + 1e-9,
                             (2 * j + 3) * np.pi / 2 - 1e-9, xtol=1e-14, rtol=1e-15), False))
    roots.sort()
    return np.array([r for r, _ in roots[:n_modes]]), [s for _, s in roots[:n_modes]]


@pytest.mark.parametrize("n_modes", [1, 2, 3, 10, 300])
def test_beam_frequencies_match_brentq(n_modes):
    betas, sym = beam_frequencies(n_modes)
    ref, ref_sym = _beam_frequencies_brentq(n_modes)
    np.testing.assert_allclose(betas, ref, rtol=1e-14, atol=0.0)
    assert sym == ref_sym


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
    simpson = pytest.importorskip("scipy.integrate").simpson
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


def _beam_couplings(node, n_modes):
    """Coupling of each flexible mode in B: its value at 0 if symmetric, else its slope."""
    nf = n_modes - 2
    _, sym = beam_frequencies(nf)
    return np.where(sym, node.B[nf:2 * nf, 0], node.B[nf:2 * nf, 1])


@pytest.mark.parametrize("n_modes", [8, 24, 50, 100])
def test_beam_couplings_match_the_simpson_norm(n_modes):
    # the closed-form norm against the 4001-point Simpson rule on the unscaled shape
    simpson = pytest.importorskip("scipy.integrate").simpson
    node, _ = beam_model(BeamParameters(n_modes=n_modes))
    betas, sym = beam_frequencies(n_modes - 2)
    x = np.linspace(-1.0, 1.0, 4001)
    expected = []
    for beta, s in zip(betas, sym):
        norm = np.sqrt(simpson(beam_mode_shape(beta, s, x)**2, x=x))
        value = beam_mode_shape(beta, s, 0.0) if s else beta * (np.sinh(beta) + np.sin(beta))
        expected.append(value / norm)
    np.testing.assert_allclose(_beam_couplings(node, n_modes), expected, rtol=1e-9, atol=0.0)


def _scaled_mode_shape(betas, sym, x):
    """phi / sinh(beta) with every exponential decaying, so that no beta overflows."""
    tail = np.sin(betas) / (1.0 - np.exp(-2.0 * betas))
    up, down = np.exp(betas * (x - 1.0)), np.exp(-betas * (x + 1.0))
    return np.where(sym, np.cos(betas * x) - tail * (up + down),
                    np.sin(betas * x) + tail * (up - down))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_modes", [300, 500])
def test_wide_beam_is_built_without_a_warning(n_modes):
    # the unscaled shapes overflow a double from n_modes 228 up, which warned
    # and left modes uncoupled; the scaled ones keep every coupling nonzero
    node, _ = beam_model(BeamParameters(n_modes=n_modes))
    nf = n_modes - 2
    assert np.all(np.abs(node.B[nf:2 * nf]).max(axis=1) > 0)
    assert np.all(np.abs(node.C[:, nf:2 * nf]).max(axis=0) > 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_modes", [300, 500])
def test_wide_beam_couples_every_flexible_mode(n_modes):
    # the unscaled shapes overflow from n_modes 228 up, which made modes uncoupled
    quad_vec = pytest.importorskip("scipy.integrate").quad_vec
    node, _ = beam_model(BeamParameters(n_modes=n_modes))
    nf = n_modes - 2
    assert np.all(np.abs(node.B[nf:2 * nf]).max(axis=1) > 0)
    assert np.all(np.abs(node.C[:, nf:2 * nf]).max(axis=0) > 0)
    betas, sym = beam_frequencies(nf)
    sym = np.array(sym)
    # phi^2 is even: twice its integral over (0, 1)
    half, _ = quad_vec(lambda x: _scaled_mode_shape(betas, sym, x)**2, 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-13, norm="max", limit=10000)
    # the antisymmetric coupling is the slope at 0 of the scaled shape
    tail = 2.0 * np.sin(betas) * np.exp(-betas) / (1.0 - np.exp(-2.0 * betas))
    value = np.where(sym, _scaled_mode_shape(betas, sym, 0.0), betas * (1.0 + tail))
    np.testing.assert_allclose(_beam_couplings(node, n_modes), value / np.sqrt(2.0 * half),
                               rtol=1e-12, atol=0.0)


def test_beam_parameter_validation():
    with pytest.raises(DimensionMismatch):
        BeamParameters(rho_a=-1.0)
    with pytest.raises(DimensionMismatch):
        BeamParameters(n_modes=1)


def test_beam_n_modes_is_bounded_above_before_anything_is_allocated(monkeypatch):
    # the smallest n_modes whose n = 2 n_modes - 2 exceeds the limit; no array is built
    n_modes = MAX_STATES // 2 + 2
    for name in ("zeros", "eye", "arange"):
        monkeypatch.setattr(np, name, None)
    with pytest.raises(DimensionMismatch, match=f"n > MAX_STATES = {MAX_STATES}"):
        BeamParameters(n_modes=n_modes)
    with pytest.raises(DimensionMismatch, match=f"n > MAX_STATES = {MAX_STATES}"):
        BeamParameters(n_modes=np.int64(n_modes))


@pytest.mark.parametrize("field, value", [
    ("n_modes", 8.5), ("n_modes", 8.0), ("n_modes", np.nan), ("n_modes", np.inf),
    ("n_modes", None), ("n_modes", True), ("n_modes", "8"),
    ("EI", "1"), ("rho_a", True), ("EbarI", False), ("EI", None), ("rho_a", np.bool_(True)),
    ("rho_a", 1j), ("EI", [1.0]), pytest.param("EI", 10**400, id="EI-int-1e400"),
])
def test_beam_parameters_reject_non_numbers(field, value):
    with pytest.raises(DimensionMismatch):
        BeamParameters(**{field: value})


def test_beam_parameters_read_numpy_scalars():
    params = BeamParameters(rho_a=np.float32(2.0), EI=3, EbarI=np.int64(0), n_modes=np.int64(6))
    assert (params.rho_a, params.EI, params.EbarI, params.n_modes) == (2.0, 3.0, 0.0, 6)
    assert type(params.n_modes) is int


@pytest.mark.parametrize("field", ["rho_a", "EI", "EbarI"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_beam_parameters_must_be_finite(field, value):
    with pytest.raises(DimensionMismatch):
        BeamParameters(**{field: value})
