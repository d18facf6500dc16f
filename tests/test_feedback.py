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
    NotAlmostPassive,
    NotImpedancePassive,
    SingularIMinusKD,
    SingularIPlusKD,
)

from conftest import random_almost_passive, random_nonpassive_node, random_passive_node


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
        # both nodes are scalar multiples of the one closed loop
        loop, inter = syn.closed_loop, syn.scattering_intermediate
        alpha, beta = syn.alpha, syn.beta
        assert np.array_equal(loop.A, inter.A)
        assert np.array_equal(inter.B, alpha * loop.B)
        assert np.array_equal(inter.C, -alpha * loop.C)
        assert np.array_equal(inter.D, (alpha * beta) * np.eye(node.m) - alpha**2 * loop.D)
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
    beam, E = beam_model(BeamParameters(n_modes=100))
    assert beam.n == 198
    counts = {"inv": 0, "node": 0}
    checked_inv, post_init = linalg.checked_inv, StateSpaceNode.__post_init__

    def spy_inv(*args):
        counts["inv"] += 1
        return checked_inv(*args)

    def spy_node(self):
        counts["node"] += 1
        post_init(self)

    monkeypatch.setattr(linalg, "checked_inv", spy_inv)
    monkeypatch.setattr(StateSpaceNode, "__post_init__", spy_node)
    stabilizing_feedback(beam, E, 1.0)
    assert counts == {"inv": 1, "node": 2}
