"""Passivity certificates, minimal shifts, positive part."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivenode import (
    BeamParameters,
    SecondOrderPlant,
    StateSpaceNode,
    beam_model,
    build_colocated,
    check_impedance,
    check_impedance_reciprocal,
    check_scattering,
    minimal_E,
    minimal_E_colocated_at,
    minimal_E_esad,
    minimal_E_selfadjoint,
    positive_part,
    shift_feedthrough,
    unitary_subspace,
)
from passivenode import io, linalg, passivity
from passivenode.cli import main
from passivenode.errors import (
    ASSViolated,
    DimensionMismatch,
    NotAlmostPassive,
    NotColocated,
    NotESAD,
    NotSelfAdjointDissipative,
    NotSquare,
    OmegaInSpectrum,
    PassiveNodeError,
)

from conftest import (
    conditioned_rank_deficient_node,
    dense_coordinates,
    esad_colocated_node,
    random_almost_passive,
    random_contraction_colocated,
    random_nonpassive_node,
    random_passive_node,
    random_second_order,
    selfadjoint_colocated_node,
)


def test_passive_certificate_positive():
    for seed in range(10):
        node = random_passive_node(seed, weight=(seed % 2 == 0))
        cert = check_impedance(node)
        assert cert.passive
        assert cert.min_eigenvalue > -1e-9


def test_nonpassive_certificate_negative_with_witness():
    for seed in range(10):
        node = random_nonpassive_node(seed)
        cert = check_impedance(node)
        assert not cert.passive
        assert cert.min_eigenvalue < 0
        assert cert.witness is not None
        assert cert.witness.shape == (node.n + node.m,)


def test_impedance_requires_square():
    node = random_passive_node(0)
    tall = StateSpaceNode(node.A, node.B, np.vstack([node.C, node.C]), np.vstack([node.D, node.D]))
    with pytest.raises(NotSquare):
        check_impedance(tall)


def test_form_point_in_spectrum_raises():
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(OmegaInSpectrum):
        passivity.impedance_form_at(node, -1.0)


def test_scattering_contraction_oracle():
    # G(s) = 1/(s+1): scattering passive; G(s) = 2/(s+1): not (gain 2 at 0)
    ok = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    bad = StateSpaceNode([[-1.0]], [[1.0]], [[2.0]], [[0.0]])
    assert check_scattering(ok).passive
    assert not check_scattering(bad).passive


def test_lossless_oscillator_impedance_passive():
    # undamped oscillator with colocated rate sensing: lossless, passive
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    W = np.diag([4.0, 1.0])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.0, 1.0]])
    node = StateSpaceNode(A, B, C, np.zeros((1, 1)), W=W)
    assert check_impedance(node).passive


def test_reciprocal_form_matches_bounded_form():
    for seed in range(8):
        node = random_passive_node(seed)
        E = np.zeros((node.m, node.m))
        assert check_impedance_reciprocal(node, E, 0.0).passive
        bad = random_nonpassive_node(seed)
        assert not check_impedance_reciprocal(bad, E, 0.0).passive


def test_reciprocal_omega_in_spectrum():
    A = np.array([[0.0, 2.0], [-2.0, 0.0]])  # eigenvalues +-2i
    node = StateSpaceNode(A, np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(OmegaInSpectrum):
        check_impedance_reciprocal(node, np.zeros((1, 1)), 2.0)


# -- every resolvent form is a congruence of the bounded form of its kind -------


def _oracle_point_forms(node, s):
    """The impedance and scattering forms at s, as the block formulas read."""
    A, B, C, D = node.orthonormal
    Ch = C.conj().T
    R = np.linalg.inv(s * np.eye(node.n) - A)
    RB = R @ B
    G = C @ RB + D
    M11 = A + A.conj().T
    M12 = (s * np.eye(node.n) + A.conj().T) @ RB
    M22 = 2.0 * s.real * (RB.conj().T @ RB)
    impedance = np.block([[-M11, Ch - M12], [C - M12.conj().T, G + G.conj().T - M22]])
    X = -(M12 + Ch @ G)
    scattering = np.block([[-(M11 + Ch @ C), X],
                           [X.conj().T, np.eye(node.m) - M22 - G.conj().T @ G]])
    return impedance, scattering


def _oracle_reciprocal_form(node, E, omega):
    """[[R + R*, X], [X*, 2E + G + G*]], R = (iw - A)^-1, X = -(RB + R*C*)."""
    A, B, C, D = node.orthonormal
    R = np.linalg.inv(1j * omega * np.eye(node.n) - A)
    G = C @ R @ B + D
    X = -(R @ B + R.conj().T @ C.conj().T)
    return np.block([[R + R.conj().T, X], [X.conj().T, 2.0 * E + G + G.conj().T]])


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_point_forms_match_the_block_formulas():
    worst = 0.0
    for seed in range(32):
        m = 1 + seed % 3
        node = shift_feedthrough(
            random_passive_node(seed, n=2 + seed % 5, m=m, weight=seed % 2 == 0),
            -0.2 * (seed % 4) * np.eye(m),
        )
        for s in (1.0, 2.0 + 1.0j, 2.0 - 1.0j, 10.0):
            impedance, scattering = _oracle_point_forms(node, complex(s))
            worst = max(worst, _rel(passivity.impedance_form_at(node, s), impedance),
                        _rel(passivity.scattering_form_at(node, s), scattering))
        H = np.random.default_rng(seed).standard_normal((m, m))
        E = H + H.T
        for omega in (0.0, 0.7, -2.0):
            form = passivity._reciprocal_form(node, E, 1j * omega)
            worst = max(worst, _rel(form, _oracle_reciprocal_form(node, E, omega)))
    assert worst <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6), m=st.integers(1, 3),
       weight=st.booleans(), shift=st.floats(-3.0, 3.0))
def test_point_forms_have_the_inertia_of_the_bounded_form(seed, n, m, weight, shift):
    # Sylvester's law of inertia: T* F T has the inertia of F for invertible T
    node = shift_feedthrough(random_passive_node(seed, n, m, weight=weight),
                             shift * np.eye(m))
    kinds = ((passivity.impedance_block_bounded, passivity.impedance_form_at),
             (passivity.scattering_block_bounded, passivity.scattering_form_at))
    for bounded, form_at in kinds:
        vals = np.linalg.eigvalsh(bounded(node))
        if np.abs(vals).min() < 1e-6:
            continue
        negative = np.sum(vals < 0)
        for s in passivity.DEFAULT_TEST_POINTS:
            assert np.sum(np.linalg.eigvalsh(form_at(node, s)) < 0) == negative


def _per_point_certificate(node, kind, points=passivity.DEFAULT_TEST_POINTS):
    """(passive, min_eigenvalue, listed points, forms) of the per-point method.

    linalg.psd_eig of the bounded form (impedance) and of the form at each
    point in rho(A), one point at a time, and the AND of their verdicts.
    """
    impedance = kind is passivity.PassivityKind.IMPEDANCE
    form_at = passivity.impedance_form_at if impedance else passivity.scattering_form_at
    forms = [passivity.impedance_block_bounded(node)] if impedance else []
    listed = []
    for s in points:
        try:
            forms.append(form_at(node, s))
        except OmegaInSpectrum:
            continue
        listed.append(s)
    eigs = [linalg.psd_eig(F) for F in forms]
    least = min((vals[0] for vals, _, _ in eigs if vals.size), default=0.0)
    return all(psd for _, _, psd in eigs), least, tuple(listed), forms


def _assert_per_point_certificate(node, cert, points=passivity.DEFAULT_TEST_POINTS):
    """cert agrees with the per-point method: verdict, listed points, min_eigenvalue
    to 1e-12 (1 + |lambda|), and a unit witness that is an eigenvector of a worst form."""
    passive, least, listed, forms = _per_point_certificate(node, cert.kind, points)
    assert cert.passive is passive
    assert cert.test_points == listed
    lam = cert.min_eigenvalue
    assert abs(lam - least) <= 1e-12 * (1.0 + abs(least))
    w = cert.witness
    if not w.size:
        return
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert any(np.linalg.norm(F @ w - lam * w) <= linalg.base_tol() * (1.0 + np.linalg.norm(F, 2))
               for F in forms)


def _edge_node(f):
    """A = diag(-1, f 1e-9), B = [1; 1], C = B*, D = 0: Q = -(A + A*) is at the
    edge of the default slack."""
    B = np.array([[1.0], [1.0]])
    return StateSpaceNode(np.diag([-1.0, f * 1e-9]), B, B.T, [[0.0]])


def _conftest_family_nodes():
    nodes = []
    for seed in range(6):
        nodes += [random_passive_node(seed, weight=seed % 2 == 0),
                  random_passive_node(seed, n=6, m=3, weight=True, real=True),
                  random_nonpassive_node(seed), random_almost_passive(seed, weight=True)[0],
                  random_contraction_colocated(seed), conditioned_rank_deficient_node(seed),
                  esad_colocated_node(seed), selfadjoint_colocated_node(seed),
                  dense_coordinates(random_passive_node(seed, real=True), seed)]
    return nodes


def test_the_stacked_checks_agree_with_the_per_point_method():
    nodes = _conftest_family_nodes()
    nodes += [_edge_node(f) for f in np.linspace(0.97, 1.49, 750)]
    nodes += [beam_model(BeamParameters(n_modes=k))[0] for k in (4, 24, 100)]
    for node in nodes:
        _assert_per_point_certificate(node, check_impedance(node))
        _assert_per_point_certificate(node, check_scattering(node))


def test_a_real_node_forms_the_conjugate_point_once():
    # the form at 2 - i of a real node is the conjugate of the form at 2 + i:
    # same verdict, min_eigenvalue to round-off, every point still listed.  A
    # real node stacks its real points as float64 and 2 + i alone as complex
    real_nodes = [beam_model(BeamParameters(n_modes=k))[0] for k in (4, 8, 24, 50, 100)]
    real_nodes += [random_passive_node(seed, n=5, weight=seed % 2 == 0, real=True)
                   for seed in range(8)]
    real_nodes += [shift_feedthrough(node, -2.0 * np.eye(node.m)) for node in real_nodes[-4:]]
    for node in real_nodes + [random_passive_node(3, weight=True)]:
        real = not np.iscomplexobj(node.orthonormal[0])
        formed = [1.0, 10.0, 2.0 + 1.0j] if real else list(passivity.DEFAULT_TEST_POINTS)
        for form_at, bounded, with_form in (
                (passivity.impedance_form_at, passivity.impedance_block_bounded, True),
                (passivity.scattering_form_at, passivity.scattering_block_bounded, False)):
            F = bounded(node)
            pts, stacks = passivity._point_forms(node, F, None, with_form)
            assert pts == passivity.DEFAULT_TEST_POINTS
            dtypes = [np.float64, np.complex128] if real else [np.complex128]
            assert [stack.dtype for stack in stacks] == dtypes
            forms = np.concatenate(stacks)
            assert len(forms) == with_form + len(formed)
            if with_form:
                assert np.array_equal(forms[0], F)
            for form, s in zip(forms[with_form:], formed):
                assert np.array_equal(linalg.hermitize(form), form_at(node, s))
        _assert_per_point_certificate(node, check_impedance(node))
        _assert_per_point_certificate(node, check_scattering(node))
    assert not np.iscomplexobj(real_nodes[0].orthonormal[0])
    # a point given twice, or with its conjugate, is formed once; one in the
    # spectrum is skipped, and a point that is not a number is rejected as before
    node = real_nodes[0]
    points = [3.0 - 1.0j, 3.0 + 1.0j, 0.0, 3.0 - 1.0j]
    F = passivity.impedance_block_bounded(node)
    pts, stacks = passivity._point_forms(node, F, points)
    assert [(stack.dtype, len(stack)) for stack in stacks] == [(np.complex128, 1), (np.float64, 0)]
    assert np.array_equal(linalg.hermitize(stacks[0][0]),
                          passivity.impedance_form_at(node, 3.0 - 1.0j))
    cert = check_impedance(node, test_points=points)
    assert pts == cert.test_points == (3.0 - 1.0j, 3.0 + 1.0j, 3.0 - 1.0j)
    with pytest.raises(DimensionMismatch):
        check_impedance(node, test_points=[1.0, "abc"])


def test_a_check_skips_the_points_in_the_spectrum_and_keeps_the_others():
    beam = beam_model(BeamParameters(n_modes=4))[0]
    rng = np.random.default_rng(0)
    B, C = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    node = StateSpaceNode(np.diag([1j, -1.0 + 2.0j, -0.5 - 1.0j, -2.0]), B, C.T, 5.0 * np.eye(2))
    # s0 is exactly in the spectrum, where LAPACK stops at a zero pivot; s1 is
    # 1e-14 from the rigid-body eigenvalue 0 (1e-13 from i), so only RCOND rejects it
    for target, s0, s1 in ((beam, 0.0, 1e-14), (node, 1j, 1j + 1e-13)):
        A = target.orthonormal[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(s0 * np.eye(target.n) - A)
        np.linalg.inv(s1 * np.eye(target.n) - A)
        with pytest.raises(OmegaInSpectrum):
            passivity.impedance_form_at(target, s1)
        points = (1.0, s0, 2.0 + 1.0j, s1, 2.0 - 1.0j, 10.0)
        for check in (check_impedance, check_scattering):
            cert = check(target, points)
            assert cert.test_points == (1.0, 2.0 + 1.0j, 2.0 - 1.0j, 10.0)
            _assert_per_point_certificate(target, cert, points)
        with pytest.raises(OmegaInSpectrum):
            check_scattering(target, (s0, s1))


def test_a_check_makes_one_inverse_and_one_eigh_per_stack(monkeypatch):
    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    nodes = ((random_passive_node(16, n=16, weight=True), 1),
             (random_passive_node(16, n=16, weight=True, real=True), 2))
    for node, stacks in nodes:
        node.orthonormal  # the cached copy is formed outside the count
        for check in (check_impedance, check_scattering):
            counts.clear()
            with monkeypatch.context() as patch:
                for name in ("inv", "eigh", "eigvalsh"):
                    patch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
                check(node)
            # one stack per dtype: the real points of a real node, and the complex ones
            assert counts == {"inv": stacks, "eigh": 1, "eigvalsh": stacks}


def test_minimal_E_esad_s_independent_and_tight():
    for seed in range(5):
        node = esad_colocated_node(seed)
        Es = [minimal_E_esad(node, s) for s in (1.0, 2.0 + 1.0j, 0.5 - 0.3j, 5.0, 3.0 + 2.0j)]
        spread = max(np.linalg.norm(Es[0] - E, 2) for E in Es[1:])
        assert spread < 1e-8
        E = Es[0]
        assert check_impedance(shift_feedthrough(node, E)).passive
        assert not check_impedance(
            shift_feedthrough(node, E - 1e-3 * np.eye(node.m))
        ).passive


def test_minimal_E_esad_rejects_bad_structure():
    expanding = StateSpaceNode([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NotESAD):
        minimal_E_esad(expanding)
    node = esad_colocated_node(0)
    non_col = StateSpaceNode(node.A, node.B, 2.0 * np.asarray(node.C), node.D)
    with pytest.raises(NotColocated):
        minimal_E_esad(non_col)


def test_minimal_E_skew_matches_feedthrough_identity():
    # for skew A the shift reduces to -(D + D*)/2
    for seed in range(5):
        node = esad_colocated_node(seed, skew_only=True)
        E = minimal_E_esad(node, 1.7 + 0.4j)
        D = np.asarray(node.D)
        assert np.linalg.norm(2.0 * E + D + D.conj().T, 2) < 1e-10


def test_minimal_E_selfadjoint_s_independent_and_tight():
    for seed in range(5):
        node = selfadjoint_colocated_node(seed)
        Es = [minimal_E_selfadjoint(node, s) for s in (1.0, 2.0 + 1.0j, 0.5, 4.0 - 1.0j)]
        spread = max(np.linalg.norm(Es[0] - E, 2) for E in Es[1:])
        assert spread < 1e-8
        E = Es[0]
        assert check_impedance(shift_feedthrough(node, E)).passive
        assert not check_impedance(
            shift_feedthrough(node, E - 1e-3 * np.eye(node.m))
        ).passive


def test_minimal_E_selfadjoint_rejects_nonhermitian():
    node = esad_colocated_node(3, skew_only=True)
    with pytest.raises(NotSelfAdjointDissipative):
        minimal_E_selfadjoint(node)


def test_minimal_E_colocated_at_omega():
    # skew A with C = B* satisfies the resolvent-colocation identity at
    # every omega; the result agrees with the ESAD formula
    node = esad_colocated_node(1, skew_only=True)
    E_omega = minimal_E_colocated_at(node, 0.5)
    E_ref = minimal_E_esad(node, 2.0)
    assert np.linalg.norm(E_omega - E_ref, 2) < 1e-10


def test_minimal_E_colocated_rejects_violation():
    node = random_passive_node(0)  # generic node: identity fails
    with pytest.raises(ASSViolated):
        minimal_E_colocated_at(node, 0.3)


def test_minimal_E_rejects_non_square(tmp_path, capsys):
    # p = 1, m = 2: C - B* would broadcast to 2 x 1 instead of failing
    node = StateSpaceNode([[-1.0]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]])
    for fn in (minimal_E, minimal_E_esad, minimal_E_selfadjoint):
        with pytest.raises(NotSquare):
            fn(node)
    with pytest.raises(NotSquare):
        minimal_E_colocated_at(node, 0.0)
    path = tmp_path / "node.json"
    io.save_node(node, path)
    assert main(["minimal-e", str(path), "--method", "esad"]) == 1
    assert "error: NotSquare:" in capsys.readouterr().err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([0, 1, 3, 5]),
       m=st.integers(1, 3), weight=st.booleans())
def test_minimal_E_is_least_passivating_shift(seed, n, m, weight):
    node, _ = random_almost_passive(seed, n=n, m=m, weight=weight)
    E = minimal_E(node)
    assert np.allclose(E, E.conj().T)
    assert check_impedance(shift_feedthrough(node, E)).passive
    assert not check_impedance(shift_feedthrough(node, E - 1e-3 * np.eye(m))).passive


@pytest.mark.parametrize("seed", range(4))
def test_the_split_shifted_certificate_decides_as_the_dense_form(seed):
    # a permuted direct sum of dissipative 2 x 2 blocks, n = 80 >= BLOCK_CUT,
    # whose inputs reach a few blocks through C - B*: those blocks join the
    # input block, and the split form decides as the dense one
    rng = np.random.default_rng(seed)
    n, m = 80, 2
    A = np.zeros((n, n))
    for i in range(0, n, 2):
        G, S = rng.standard_normal((2, 2, 2))
        A[i:i + 2, i:i + 2] = 0.5 * (S - S.T) - 0.5 * (G @ G.T) - 0.05 * np.eye(2)
    B = np.zeros((n, m))
    B[rng.choice(n, 6, replace=False)] = rng.standard_normal((6, m))
    C = B.T.copy()
    C[:, rng.choice(n, 4, replace=False)] += rng.standard_normal((m, 4))
    perm = rng.permutation(n)
    node = StateSpaceNode(A[np.ix_(perm, perm)], B[perm], C[:, perm], np.zeros((m, m)))
    assert node.n >= linalg.BLOCK_CUT
    E_min = minimal_E(node)
    for shift in (0.0, -1e-3, 1e-3):
        E = E_min + shift * np.eye(m)
        cert, _ = passivity._certify_shifted(node, E)
        F, _ = passivity._shifted_form(node, E)
        vals, passive = linalg.psd_vals(F)
        assert cert.passive == bool(passive) == (shift >= 0.0)
        assert abs(cert.min_eigenvalue - vals[0]) <= 64 * np.finfo(float).eps * np.linalg.norm(F)


def test_minimal_E_none_when_undamped_and_noncolocated():
    # M = 0 makes A skew in the energy inner product, so ker Q is the whole
    # state space, and C - B* = [0, C0 - B0*] does not vanish on it
    plant = random_second_order(0, with_B0=True)
    undamped = SecondOrderPlant(A0=plant.A0, M=np.zeros((plant.n0, plant.n0)), C0=plant.C0)
    col, _ = build_colocated(undamped)
    B = np.vstack([np.zeros((plant.n0, 2)), plant.B0])
    node = StateSpaceNode(col.A, B, col.C, col.D, W=col.W)
    with pytest.raises(NotAlmostPassive, match="nonzero on ker"):
        minimal_E(node)


def test_minimal_E_returns_the_E_the_certificate_accepts_under_an_ill_conditioned_W():
    # E_min = 0 exactly, but cond(W) = 1e8 leaves C - B* a residual of about
    # 1e-8 on ker(A + A*), beyond the slack of an identity residual yet a
    # coupling the bounded form of Sigma_E accepts
    accepted = 0
    for seed in range(300):
        node = conditioned_rank_deficient_node(seed)
        try:
            E = minimal_E(node)
        except NotAlmostPassive:
            continue
        assert passivity._certify_shifted(node, E)[0].passive
        accepted += 1
    # at the default slack and looser every node has an E; at 1e-11 the
    # rounding of cond(W) = 1e8 exceeds the slack of the form itself
    assert accepted == 300 or linalg.base_tol() < 1e-9


def test_minimal_E_colocated_at_without_dissipation_raises():
    # C = B*(iwI + A*)^-1 (iwI - A) satisfies the resolvent-colocation
    # identity at omega for any A; with A + A* indefinite no shift exists
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) + np.diag([1.0, 0.0, -1.0])
    B = rng.standard_normal((3, 2))
    omega = 0.7
    C = B.T @ np.linalg.solve(1j * omega * np.eye(3) + A.T, 1j * omega * np.eye(3) - A)
    node = StateSpaceNode(A, B, C, rng.standard_normal((2, 2)))
    assert np.linalg.eigvalsh(A + A.T)[-1] > 0
    with pytest.raises(NotAlmostPassive, match="eigenvalue"):
        minimal_E_colocated_at(node, omega)


def test_selfadjoint_class_check_agrees_with_minimal_E():
    # a slightly positive eigenvalue of A is caught by the class check, with
    # the same Q >= 0 test the formula makes; Q = diag(2, -10 tol) is outside
    # the slack tol (1 + ||Q||) whatever PASSIVE_NODE_TOL is
    B = np.array([[1.0], [1.0]])
    node = StateSpaceNode(np.diag([-1.0, 5 * linalg.base_tol()]), B, B.T, [[0.0]])
    with pytest.raises(NotSelfAdjointDissipative):
        minimal_E_selfadjoint(node)
    with pytest.raises(NotAlmostPassive):
        minimal_E(node)


def test_the_structured_minimal_E_decomposes_Q_once(monkeypatch):
    # the class check Q >= 0 and the formula share one eigh; the certificate
    # of the candidate E reads eigenvalues alone, from one eigvalsh; E is
    # minimal_E's, bit for bit
    cases = [(minimal_E_esad, esad_colocated_node(seed)) for seed in range(4)]
    cases += [(minimal_E_selfadjoint, selfadjoint_colocated_node(seed)) for seed in range(4)]
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    for fn, node in cases:
        calls, vals_calls = [], []
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M) or eigh(M))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: vals_calls.append(M) or eigvalsh(M))
        E = fn(node)
        monkeypatch.undo()
        assert len(calls) == 1 and len(vals_calls) == 1
        E_general = minimal_E(node)
        assert (E.dtype, E.tobytes()) == (E_general.dtype, E_general.tobytes())


def _decides(call):
    """True when call() returns, False when it raises a PassiveNodeError."""
    try:
        call()
    except PassiveNodeError:
        return False
    return True


@pytest.mark.parametrize("tol", [None, "1e-11", "1e-7"])
@pytest.mark.parametrize("f", [-3.0, 0.3, 3.0])
def test_one_sign_rule_for_every_decision(f, tol, monkeypatch):
    # A = diag(-1, f*tol), C = B*, D = 0: Q = -(A + A*) = diag(2, -2f*tol)
    # has lambda_min >= -tol * (1 + ||Q||) exactly when f <= 1.5, so the
    # certificate, every minimal-E function and the contraction check of
    # unitary_subspace answer alike, whatever PASSIVE_NODE_TOL is
    if tol is None:
        monkeypatch.delenv("PASSIVE_NODE_TOL", raising=False)
    else:
        monkeypatch.setenv("PASSIVE_NODE_TOL", tol)
    B = np.array([[1.0], [1.0]])
    node = StateSpaceNode(np.diag([-1.0, f * linalg.base_tol()]), B, B.T, [[0.0]])
    decisions = {
        "check_impedance": check_impedance(node).passive,
        "minimal_E": _decides(lambda: minimal_E(node)),
        "minimal_E_esad": _decides(lambda: minimal_E_esad(node)),
        "minimal_E_selfadjoint": _decides(lambda: minimal_E_selfadjoint(node)),
        "unitary_subspace": _decides(lambda: unitary_subspace(node)),
    }
    assert decisions == dict.fromkeys(decisions, f <= 0.3)


def test_positive_part():
    E = np.diag([2.0, -1.0, 0.5])
    Eplus, c, kappa0 = positive_part(E)
    assert np.allclose(Eplus, np.diag([2.0, 0.0, 0.5]))
    assert c == pytest.approx(2.0)
    assert kappa0 == pytest.approx(0.5)
    vals = np.linalg.eigvalsh(Eplus - E)
    assert vals[0] > -1e-12  # E+ >= E
    Ez, cz, kz = positive_part(-np.eye(2))
    assert cz == 0.0 and np.isinf(kz) and np.allclose(Ez, 0.0)

