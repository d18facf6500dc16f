"""Node construction, weighting, transfer evaluation, duality."""

import numpy as np
import pytest

from passivenode import (
    StateSpaceNode,
    dual_node,
    eval_transfer,
    shift_feedthrough,
)
from passivenode.errors import DimensionMismatch, NotSelfAdjoint, SingularResolvent

from conftest import random_passive_node


def test_dimension_validation():
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))


def test_weight_must_be_hermitian_positive():
    A = -np.eye(2)
    B = np.ones((2, 1))
    C = np.ones((1, 2))
    D = np.zeros((1, 1))
    with pytest.raises(NotSelfAdjoint):
        StateSpaceNode(A, B, C, D, W=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(A, B, C, D, W=np.diag([1.0, -1.0]))


def test_transfer_scalar_oracle():
    # G(s) = 1/(s+1) for A=-1, B=C=1, D=0
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    for s in (0.0, 1.0, 2.0 + 1.0j):
        assert eval_transfer(node, s)[0, 0] == pytest.approx(1.0 / (s + 1.0))


def test_transfer_pole_raises():
    node = StateSpaceNode([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(SingularResolvent):
        eval_transfer(node, -1.0)


def test_orthonormalization_preserves_transfer():
    node = random_passive_node(3, weight=True)
    ortho = node.orthonormalized()
    assert ortho.is_identity_weight
    for s in (1.0, 2.0 + 1.0j, 0.5 - 0.3j):
        assert np.linalg.norm(eval_transfer(node, s) - eval_transfer(ortho, s)) < 1e-10


def test_weighted_norm_matches_orthonormal_coordinates():
    node = random_passive_node(5, weight=True)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(node.n) + 1j * rng.standard_normal(node.n)
    Lh = np.linalg.cholesky(np.asarray(node.W)).conj().T
    assert node.weighted_norm_sq(x) == pytest.approx(np.linalg.norm(Lh @ x) ** 2)
    # to_state inverts the coordinate change
    assert np.linalg.norm(node.to_state(Lh @ x) - x) < 1e-10


def test_dual_transfer_conjugation():
    node = random_passive_node(7, weight=True)
    dual = dual_node(node)
    for s in (1.0, 2.0 + 1.0j, 0.4 - 0.8j):
        G = eval_transfer(node, np.conj(s))
        Gd = eval_transfer(dual, s)
        assert np.linalg.norm(Gd - G.conj().T) < 1e-9


def test_shift_feedthrough_adds_to_transfer():
    node = random_passive_node(9)
    E = np.array([[0.5, 0.1], [0.1, -0.2]])
    shifted = shift_feedthrough(node, E)
    G = eval_transfer(node, 2.0)
    Gs = eval_transfer(shifted, 2.0)
    assert np.linalg.norm(Gs - G - E) < 1e-12
