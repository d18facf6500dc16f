"""Diagonal transform, output feedback, stabilizing synthesis."""

import numpy as np
import pytest

from passivenode import (
    BeamParameters,
    StateSpaceNode,
    beam_model,
    check_scattering,
    diagonal_transform,
    eval_transfer,
    feedback,
    linalg,
    minimal_E,
    output_feedback,
    positive_part,
    shift_feedthrough,
    stabilizing_feedback,
    stability_verdict,
)
from passivenode.errors import (
    KappaOutOfRange,
    NonFiniteMatrix,
    NotAlmostPassive,
    NotImpedancePassive,
    SingularIMinusKD,
    SingularIPlusKD,
)
from passivenode.node import dual_node

from conftest import (
    assert_derived_on,
    random_almost_passive,
    random_nonpassive_node,
    random_passive_node,
)


def test_diagonal_transform_scalar_oracle():
    # G(s) = 1/(s+1), k=1: G^s(s) = (1 - G)/(1 + G) = s/(s+2)
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    sct = diagonal_transform(node, 1.0)
    for s in (0.0, 1.0, 2.0 + 1.0j):
        assert eval_transfer(sct, s)[0, 0] == pytest.approx(s / (s + 2.0))


def _rel_err(X, Y):
    return np.linalg.norm(np.asarray(X) - np.asarray(Y), 2) / max(1.0, np.linalg.norm(Y, 2))


def test_diagonal_transform_scattering_passive():
    for seed in range(6):
        node = random_passive_node(seed, weight=(seed % 2 == 0))
        m = node.m
        for k in (0.5, 1.0, 3.0):
            sct = diagonal_transform(node, k)
            assert check_scattering(sct).passive
            # the closed loop of u = -k y + v, recombined as v = sqrt(2k) u^s,
            # y^s = u^s - sqrt(2k) y
            loop = output_feedback(node, -k * np.eye(m))
            root = np.sqrt(2.0 * k)
            for X, Y in ((sct.A, loop.A), (sct.B, root * loop.B), (sct.C, -root * loop.C),
                         (sct.D, np.eye(m) - 2.0 * k * loop.D), (sct.W, node.W)):
                assert _rel_err(X, Y) < 1e-12
            # Moebius transfer identity (I - kG)(I + kG)^-1
            for s in (1.0, 2.0 + 1.0j, 0.5 - 0.4j):
                G = eval_transfer(node, s)
                lhs = eval_transfer(sct, s)
                rhs = np.linalg.solve(
                    (np.eye(m) + k * G).conj().T, (np.eye(m) - k * G).conj().T
                ).conj().T
                assert np.linalg.norm(lhs - rhs, 2) < 1e-9


def test_diagonal_transform_rejects_nonpassive():
    with pytest.raises(NotImpedancePassive):
        diagonal_transform(random_nonpassive_node(0), 1.0)


def test_diagonal_transform_singular_feedthrough():
    # impedance passive (D + D* = -2e-12 is within the slack), yet I + kD = 0
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[-1e-12]])
    with pytest.raises(SingularIPlusKD):
        diagonal_transform(node, 1e12)


def test_output_feedback_transfer_identity():
    node = random_passive_node(2)
    K = np.array([[0.2, -0.1], [0.1, 0.3]])
    closed = output_feedback(node, K)
    for s in (1.0, 2.0 + 1.0j, 5.0):
        G = eval_transfer(node, s)
        GK = eval_transfer(closed, s)
        ref = G @ np.linalg.inv(np.eye(2) - K @ G)
        assert np.linalg.norm(GK - ref, 2) < 1e-9


def test_output_feedback_singular_gate():
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(SingularIMinusKD):
        output_feedback(node, [[1.0]])


def test_stabilizing_feedback_matches_direct_feedback():
    for seed in range(8):
        node, E = random_almost_passive(seed, weight=(seed % 2 == 0))
        _, c, kappa0 = positive_part(E)
        kappa = 0.9 * kappa0
        syn = stabilizing_feedback(node, E, kappa)
        direct = output_feedback(node, -kappa * np.eye(node.m))
        for name in "ABCD":
            err = np.linalg.norm(
                np.asarray(getattr(syn.closed_loop, name))
                - np.asarray(getattr(direct, name)),
                2,
            )
            assert err < 1e-9
        assert syn.c == pytest.approx(c)
        assert syn.kappa0 == pytest.approx(kappa0)
        # both nodes are read from the one closed loop
        loop, inter = syn.closed_loop, syn.scattering_intermediate
        alpha = syn.alpha
        assert np.array_equal(loop.A, inter.A)
        assert np.array_equal(inter.B, alpha * loop.B)
        assert np.array_equal(inter.C, -alpha * loop.C)
        assert np.array_equal(inter.D, (1.0 - 2.0 * kappa * syn.c) * np.eye(node.m)
                              - 2.0 * kappa * (1.0 - kappa * syn.c) * loop.D)
        # the intermediate is the diagonal transform of Sigma_{cI} at kappa/(1 - kappa c)
        sct = diagonal_transform(shift_feedthrough(node, c * np.eye(node.m)),
                                 kappa / (1.0 - kappa * c))
        for name in "ABCD":
            assert _rel_err(getattr(inter, name), getattr(sct, name)) < 1e-12


def test_stabilizing_feedback_closed_loop_contraction():
    for seed in range(5):
        node, E = random_almost_passive(seed)
        kappa = 0.5 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        syn = stabilizing_feedback(node, E, kappa)
        diss = syn.closed_loop.dissipation_form()
        top = np.linalg.eigvalsh(diss)[-1]
        assert top < 1e-8 * (1.0 + np.linalg.norm(diss, 2))


def test_stabilizing_feedback_transfer_identity():
    node, E = random_almost_passive(2)
    kappa = 0.7 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
    syn = stabilizing_feedback(node, E, kappa)
    for s in (1.0, 2.0 + 1.0j, 0.5 - 0.4j):
        Gk = eval_transfer(syn.closed_loop, s)
        Gs = eval_transfer(syn.scattering_intermediate, s)
        ref = (syn.beta / syn.alpha) * np.eye(node.m) - Gs / syn.alpha**2
        assert np.linalg.norm(Gk - ref, 2) < 1e-9


def test_stabilizing_feedback_gain_range():
    node, E = random_almost_passive(1)
    _, _, kappa0 = positive_part(E)
    with pytest.raises(KappaOutOfRange):
        stabilizing_feedback(node, E, kappa0)
    with pytest.raises(KappaOutOfRange):
        stabilizing_feedback(node, E, -0.1)
    with pytest.raises(KappaOutOfRange):
        stabilizing_feedback(node, E, 1.5 * kappa0)


@pytest.mark.parametrize("gain", [1.0000000000000002e50, 1e308])
def test_a_gain_beyond_the_entry_limit_is_out_of_range_not_a_bad_matrix(gain):
    # kappa0 = inf admits any positive gain, but -gain I would be refused as
    # a K the caller never passed (NonFiniteMatrix); the limit itself is kept
    node = random_passive_node(5)
    with pytest.raises(KappaOutOfRange, match="^kappa = .* is beyond 1e\\+50$"):
        stabilizing_feedback(node, None, gain)
    with pytest.raises(KappaOutOfRange, match="^diagonal transform parameter k = "):
        diagonal_transform(node, gain)
    assert stabilizing_feedback(node, None, linalg.ENTRY_LIMIT).kappa == linalg.ENTRY_LIMIT
    diagonal_transform(node, linalg.ENTRY_LIMIT)


def test_a_gain_that_puts_the_loop_beyond_the_entry_limit_is_out_of_range():
    # A - kappa B C = -1 - 1e51 at kappa = 1e49, a gain within ENTRY_LIMIT: the
    # loop it builds, not a matrix the caller passed, is out of range
    node = StateSpaceNode([[-1.0]], [[10.0]], [[10.0]], [[0.0]])
    with pytest.raises(KappaOutOfRange, match="^kappa = 1e\\+49 is out of range for this node: "
                                              "A of the diagonal transform has an entry beyond"):
        stabilizing_feedback(node, None, 1e49)
    with pytest.raises(KappaOutOfRange,
                       match="^diagonal transform parameter k = 1e\\+49 is out of range"):
        diagonal_transform(node, 1e49)
    assert stabilizing_feedback(node, None, 1e47).closed_loop.A[0, 0] == pytest.approx(-1e49)


@pytest.mark.parametrize("build, name", [
    (lambda: output_feedback(StateSpaceNode([[-1.0]], [[1e30]], [[1e30]], [[0.0]]), 1.0),
     "A of the closed loop"),
    # W = 1e-40: the dual's B = W^-1 C* = 1e51
    (lambda: dual_node(StateSpaceNode([[-1.0]], [[1.0]], [[1e11]], [[0.0]], W=[[1e-40]])),
     "B of the dual"),
    (lambda: shift_feedthrough(StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[1e50]]), [[1e50]]),
     "D of the shifted node"),
])
def test_a_derived_node_out_of_range_names_the_node(build, name):
    with pytest.raises(NonFiniteMatrix, match=f"^{name} has an entry beyond 1e\\+50"):
        build()


def test_stabilizing_feedback_rejects_wrong_shift():
    node, E = random_almost_passive(3)
    with pytest.raises(NotAlmostPassive):
        stabilizing_feedback(node, np.zeros_like(E), 0.1)


def test_stabilizing_feedback_passive_node_any_gain():
    # E with no positive part: kappa0 = inf, any positive gain admissible
    node = random_passive_node(5)
    E = np.zeros((node.m, node.m))
    syn = stabilizing_feedback(node, E, 10.0)
    assert np.isinf(syn.kappa0)
    assert syn.c == 0.0


# -- the synthesis certifies Sigma_E by the bounded form minimal_E solves -------


def test_stability_verdict_accepts_minimal_E_on_the_edge_family():
    # Q = diag(2, -2f e-9): its negative eigenvalue is inside the slack, so
    # minimal_E returns E = 0 here, and the synthesis must accept that E
    accepted = 0
    for f in np.linspace(0.97, 1.49, 750):
        node = StateSpaceNode(np.diag([-1.0, f * 1e-9]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        try:
            E = minimal_E(node)
        except NotAlmostPassive:
            continue
        stability_verdict(node, E, 1.0)
        accepted += 1
    # at the default slack and looser every node has an E (at 1e-11 none has)
    assert accepted == 750 or linalg.base_tol() < 1e-9


def test_stabilizing_feedback_accepts_exactly_minimal_E():
    for seed in range(50):
        node, _ = random_almost_passive(seed)
        E = minimal_E(node)
        _, _, kappa0 = positive_part(E)
        kappa = 1.0 if np.isinf(kappa0) else 0.5 * kappa0
        stabilizing_feedback(node, E, kappa)
        with pytest.raises(NotAlmostPassive):
            stabilizing_feedback(node, E - 1e-3 * np.eye(node.m), kappa)


def test_stabilizing_feedback_makes_one_inverse_and_two_nodes(monkeypatch):
    # both nodes are derived on the plant's state space: W is neither
    # validated nor factored again, and the beam's diagonal W is a scaling,
    # so the intermediate's W-orthonormal copy takes no solve either
    beam, E = beam_model(BeamParameters(n_modes=100))
    assert beam.n == 198
    counts = {"inv": 0, "cholesky": 0, "post_init": 0, "derived": 0, "solve": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(linalg, "checked_inv", spy("inv", linalg.checked_inv))
    monkeypatch.setattr(linalg, "cholesky", spy("cholesky", linalg.cholesky))
    monkeypatch.setattr(StateSpaceNode, "__post_init__",
                        spy("post_init", StateSpaceNode.__post_init__))
    monkeypatch.setattr(feedback, "_derived", spy("derived", feedback._derived))
    syn = stabilizing_feedback(beam, E, 1.0)
    nodes = (syn.closed_loop, syn.scattering_intermediate)
    assert all(isinstance(node, StateSpaceNode) for node in nodes)
    assert len({id(beam), *map(id, nodes)}) == 3
    assert counts == {"inv": 1, "cholesky": 0, "post_init": 0, "derived": 2, "solve": 0}

    monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
    A, B, C, D = syn.scattering_intermediate.orthonormal
    assert counts["solve"] == 0
    assert A.shape == (198, 198) and D is syn.scattering_intermediate.D


def _parent_loop(node, K):
    """The closed loop of u = K y + v by its formulas on the stored matrices."""
    D = node.D
    IKD_inv = linalg.checked_inv(np.eye(node.m) - K @ D, SingularIMinusKD, "")
    IKD_inv_K = IKD_inv @ K
    return (node.A + node.B @ IKD_inv_K @ node.C, node.B @ IKD_inv,
            node.C + D @ IKD_inv_K @ node.C, D @ IKD_inv)


def _assert_derived(derived, parent, expected):
    """derived stores expected bit for bit and is derived on parent's state space."""
    for M, X in zip((derived.A, derived.B, derived.C, derived.D), expected):
        X = linalg.as_matrix(X, "expected")
        assert (M.dtype, M.shape, M.tobytes()) == (X.dtype, X.shape, X.tobytes())
    assert_derived_on(derived, parent)


def _derivation_cases():
    """(node, E): the beam (real, diagonal W) and dense-W nodes, real and complex."""
    for n_modes in (4, 24, 100):
        yield beam_model(BeamParameters(n_modes=n_modes))
    for seed in range(3):
        yield random_almost_passive(seed, weight=True)
        E = 0.3 * np.eye(2)
        yield shift_feedthrough(random_passive_node(seed, weight=True, real=True), -E), E
    yield random_almost_passive(5)


def test_derived_nodes_keep_the_weight_and_its_orthonormal_copy():
    rng = np.random.default_rng(23)
    for node, E in _derivation_cases():
        m = node.m
        _, _, kappa0 = positive_part(E)
        kappa = 1.0 if np.isinf(kappa0) else 0.5 * kappa0
        syn = stabilizing_feedback(node, E, kappa)
        AK, BK, CK, DK = _parent_loop(node, -kappa * np.eye(m))
        _assert_derived(syn.closed_loop, node, (AK, BK, CK, DK))
        # the diagonal transform of Sigma_{cI} at k = kappa/(1 - kappa c)
        a, c = syn.alpha, syn.c
        _assert_derived(syn.scattering_intermediate, node,
                        (AK, a * BK, -a * CK, (1.0 - 2.0 * kappa * c) * np.eye(m)
                         - 2.0 * kappa * (1.0 - kappa * c) * DK))

        K = 0.3 * rng.standard_normal((m, node.p))
        _assert_derived(output_feedback(node, K), node, _parent_loop(node, K))

        shifted = shift_feedthrough(node, E)
        _assert_derived(shifted, node, (node.A, node.B, node.C, node.D + linalg.as_matrix(E, "E")))
        k = 0.7
        AK, BK, CK, DK = _parent_loop(shifted, -k * np.eye(m))
        root = np.sqrt(2.0 * k)
        _assert_derived(diagonal_transform(shifted, k), node,
                        (AK, root * BK, -root * CK, np.eye(m) - 2.0 * k * DK))
