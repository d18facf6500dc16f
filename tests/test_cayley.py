"""Internal Cayley transform, discrete passivity, Laguerre basis."""

import tracemalloc

import numpy as np
import pytest

from passivenode import (
    StateSpaceNode,
    linalg,
    check_discrete_passivity,
    discrete_response,
    discrete_transfer,
    eval_transfer,
    internal_cayley,
    inverse_cayley,
    laguerre_coefficients,
    laguerre_functions,
)
from passivenode.cayley import DiscreteSystem
from passivenode.errors import (
    AlphaInSpectrum,
    AlphaNotRightHalfPlane,
    DimensionMismatch,
    MinusOneEigenvalue,
    NonPositiveAlpha,
)

from conftest import random_nonpassive_node, random_passive_node


def test_alpha_validation():
    node = random_passive_node(0)
    with pytest.raises(AlphaNotRightHalfPlane):
        internal_cayley(node, -1.0)
    osc = StateSpaceNode([[2.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(AlphaInSpectrum):
        internal_cayley(osc, 2.0)


def test_scalar_oracle():
    # A=-1, B=C=1, D=0, alpha=1: Ad=0, Bd=Cd=1/sqrt(2), Dd=G(1)=1/2
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    disc = internal_cayley(node, 1.0)
    assert disc.Ad[0, 0] == pytest.approx(0.0)
    assert disc.Bd[0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert disc.Cd[0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert disc.Dd[0, 0] == pytest.approx(0.5)


def test_roundtrip_and_transfer_correspondence():
    for seed in range(5):
        node = random_passive_node(seed, weight=(seed % 2 == 0))
        for alpha in (1.0, 1.5 + 0.3j):
            disc = internal_cayley(node, alpha)
            back = inverse_cayley(disc)
            for s in (1.0, 2.0 + 1.0j, 0.3 - 0.5j):
                err = np.linalg.norm(eval_transfer(node, s) - eval_transfer(back, s))
                assert err < 1e-10
            # Gd(z) = G((alpha z - conj(alpha)) / (z + 1))
            for z in (0.3 + 0.2j, 2.0, -0.4 + 0.9j):
                s = (alpha * z - np.conj(alpha)) / (z + 1.0)
                err = np.linalg.norm(
                    discrete_transfer(disc, z) - eval_transfer(node, s)
                )
                assert err < 1e-9


def test_inverse_rejects_minus_one_eigenvalue():
    disc = DiscreteSystem(
        Ad=[[-1.0]], Bd=[[1.0]], Cd=[[1.0]], Dd=[[0.0]], alpha=1.0
    )
    with pytest.raises(MinusOneEigenvalue):
        inverse_cayley(disc)


def test_discrete_passivity_tracks_continuous():
    for seed in range(8):
        node = random_passive_node(seed)
        disc = internal_cayley(node, 1.0)
        assert check_discrete_passivity(disc, "Impedance").passive
        bad = internal_cayley(random_nonpassive_node(seed), 1.0)
        assert not check_discrete_passivity(bad, "Impedance").passive


def test_discrete_scattering_contraction():
    # scattering-passive scalar node maps to a contractive block matrix
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    disc = internal_cayley(node, 1.0)
    assert check_discrete_passivity(disc, "Scattering").passive
    M = np.block([[disc.Ad, disc.Bd], [disc.Cd, disc.Dd]])
    assert np.linalg.norm(M, 2) <= 1.0 + 1e-12


def test_laguerre_orthonormality():
    simpson = pytest.importorskip("scipy.integrate").simpson

    t = np.linspace(0.0, 200.0, 200001)
    for alpha in (1.0, 0.8 + 0.5j):
        ell = laguerre_functions(t, alpha, 6)
        gram = simpson(ell.conj()[:, None, :] * ell[None, :, :], x=t, axis=2)
        assert np.linalg.norm(gram - np.eye(6), 2) < 1e-8


def test_laguerre_alpha_validation():
    with pytest.raises(NonPositiveAlpha):
        laguerre_functions([0.0, 1.0], -1.0, 3)


def test_laguerre_coefficient_oracle():
    # u(t) = e^{-t} has coefficients (1/sqrt(2), 0, 0, ...) at alpha = 1
    coeffs = laguerre_coefficients(lambda t: np.atleast_1d(np.exp(-t)), 1.0, 6, 60.0, steps=20000)
    assert coeffs[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
    assert np.max(np.abs(coeffs[1:])) < 1e-9


@pytest.mark.parametrize("panels", [2, 4, 4000])
def test_simpson_matches_scipy(panels):
    simpson = pytest.importorskip("scipy.integrate").simpson

    x = np.linspace(-0.5, 2.0, panels + 1)
    real = np.exp(x) * (2.0 + np.cos(3.0 * x))
    cplx = np.exp((1.0 + 2.0j) * x)
    columns = np.stack([real, cplx, 1.0 + x**2 - 1j * x], axis=1)
    for y in (real, cplx, columns):
        ref = simpson(y, x=x, axis=0)
        np.testing.assert_allclose(linalg.simpson(y, x), ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("panels", [1, 3, 4001])
def test_simpson_rejects_an_odd_panel_count(panels):
    x = np.linspace(0.0, 1.0, panels + 1)
    with pytest.raises(DimensionMismatch):
        linalg.simpson(np.ones_like(x), x)


def test_laguerre_coefficients_match_per_k_scipy_simpson():
    simpson = pytest.importorskip("scipy.integrate").simpson

    def u(t):
        return np.array([np.exp(-t) * np.cos(3.0 * t), np.sin(t) * np.exp(-0.5 * t)])

    alpha, K, T, steps = 0.8 + 0.3j, 10, 40.0, 4000
    t = np.linspace(0.0, T, steps + 1)
    U = np.array([u(ti) for ti in t])
    ell = laguerre_functions(t, alpha, K)
    ref = np.array([simpson(U * np.conj(ell[k])[:, None], x=t, axis=0) for k in range(K)])
    coeffs = laguerre_coefficients(u, alpha, K, T, steps=steps)
    assert np.max(np.abs(coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_laguerre_coefficients_sum_in_memory_proportional_to_the_grid():
    # 80,001 times: the samples of u are 0.64 MB, one (times, K, m) product
    # of the whole grid would be 10 MB
    u = lambda t: np.exp(-t)
    laguerre_coefficients(u, 1.0, 8, 1.0, steps=4)
    tracemalloc.start()
    try:
        laguerre_coefficients(u, 1.0, 8, 30.0, steps=80000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_laguerre_io_correspondence_scalar_oracle():
    # G(s) = 1/(s+1), u = e^{-t}: y = t e^{-t} with coefficients
    # (sqrt(2)/4, sqrt(2)/4, 0, ...); matches the discrete recursion
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    disc = internal_cayley(node, 1.0)
    ucoef = laguerre_coefficients(
        lambda t: np.atleast_1d(np.exp(-t)), 1.0, 6, 60.0, steps=20000
    )
    ycoef = laguerre_coefficients(
        lambda t: np.atleast_1d(t * np.exp(-t)), 1.0, 6, 60.0, steps=20000
    )
    assert ycoef[0, 0] == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-9)
    assert ycoef[1, 0] == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-9)
    ypred = discrete_response(disc, ucoef)
    assert np.max(np.abs(ycoef - ypred)) < 1e-9


@pytest.mark.parametrize("node, alpha", [
    (StateSpaceNode([[-1.0, 2.0], [-2.0, -0.5]], [[1.0], [0.5]], [[1.0, 0.5]], [[0.2]]), 1.0),
    (random_passive_node(3).orthonormalized(), 1.5 + 0.4j),
])
def test_discrete_response_is_the_step_by_step_recursion(node, alpha):
    disc = internal_cayley(node, alpha)
    rng = np.random.default_rng(3)
    for K in (0, 1, 2, 17, 300):
        u = rng.standard_normal((K, disc.m))
        x = np.zeros(disc.n, dtype=complex)
        ref = np.empty((K, disc.p), dtype=complex)
        for k in range(K):
            ref[k] = disc.Cd @ x + disc.Dd @ u[k]
            x = disc.Ad @ x + disc.Bd @ u[k]
        y = discrete_response(disc, u)
        assert y.shape == (K, disc.p)
        # real for a real quadruple under real coefficients
        assert y.dtype == np.result_type(disc.Ad, disc.Bd, disc.Cd, disc.Dd, u)
        scale = 1.0 + np.linalg.norm(ref, axis=1, keepdims=True)
        assert np.all(np.abs(y - ref) <= 1e-12 * scale), K
