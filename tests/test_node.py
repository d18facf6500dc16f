"""Node construction, weighting, transfer evaluation, duality."""

import numpy as np
import pytest

from passivenode import (
    BeamParameters,
    StateSpaceNode,
    beam_model,
    diagonal_transform,
    dual_node,
    eval_transfer,
    output_feedback,
    shift_feedthrough,
    stabilizing_feedback,
)
from passivenode import io, linalg
from passivenode.errors import (
    DimensionMismatch,
    NonFiniteMatrix,
    NotSelfAdjoint,
    SingularResolvent,
)
from passivenode.node import MAX_STATES

from conftest import assert_derived_on, dense_coordinates, random_passive_node


def test_dimension_validation():
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))


def test_a_node_above_the_size_limit_is_refused_before_any_n_by_n_work(monkeypatch):
    # n = MAX_STATES + 1: the constructor refuses it before W is formed or
    # factored, and a node document before any of its matrices is built
    n = MAX_STATES + 1
    message = f"n = {n} exceeds MAX_STATES = {MAX_STATES}"
    A, B, C, D = np.zeros((n, n)), np.zeros((n, 1)), np.zeros((1, n)), np.zeros((1, 1))
    dense = np.eye(n)
    dense[0, 1] = dense[1, 0] = 0.5
    for name in ("zeros", "eye"):
        monkeypatch.setattr(np, name, None)
    monkeypatch.setattr(np.linalg, "cholesky", None)
    for W in (None, dense):
        with pytest.raises(DimensionMismatch, match=message):
            StateSpaceNode(A, B, C, D, W=W)
    monkeypatch.setattr(np, "array", None)
    doc = {"n": n, "m": 1, "p": 1, "A": [[0.0]], "B": [[0.0]], "C": [[0.0]], "D": [[0.0]]}
    with pytest.raises(DimensionMismatch, match=message):
        io.node_from_dict(doc)


def test_a_plant_above_the_size_limit_is_refused_before_any_matrix_is_built(monkeypatch):
    # n0 = 1001 makes a node of n = 2002: the document is refused on its row
    # count, before A0 or M (1001 x 1001) is read
    n0 = MAX_STATES // 2 + 1
    rows = [[0.0] * n0] * n0
    doc = {"A0": rows, "M": rows, "C0": [[0.0] * n0]}
    monkeypatch.setattr(np, "array", None)
    with pytest.raises(DimensionMismatch, match=f"n = {2 * n0} exceeds MAX_STATES"):
        io.plant_from_dict(doc)


def test_weight_must_be_hermitian_positive():
    A = -np.eye(2)
    B = np.ones((2, 1))
    C = np.ones((1, 2))
    D = np.zeros((1, 1))
    with pytest.raises(NotSelfAdjoint):
        StateSpaceNode(A, B, C, D, W=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        StateSpaceNode(A, B, C, D, W=np.diag([1.0, -1.0]))


def _dense_path(node):
    """(L, (A~, B~, C~), to_state of x~ = 1..n, dual (A, B, C)) by a Cholesky factor
    and triangular solves, as a dense W takes them."""
    A, B, C, W = node.A, node.B, node.C, node.W
    L = np.linalg.cholesky(W)
    Lh = L.conj().T
    orth = (Lh @ np.linalg.solve(Lh.T, A.T).T, Lh @ B, np.linalg.solve(Lh.T, C.T).T)
    x = np.arange(1.0, node.n + 1.0)
    # a node stores its matrices as linalg.as_matrix reads them
    dual = (linalg.as_matrix(M, "M") for M in (np.linalg.solve(W, A.conj().T @ W),
                                               np.linalg.solve(W, C.conj().T), B.conj().T @ W))
    return L, orth, np.linalg.solve(Lh, x), dual


def _diagonal_weight_nodes():
    rng = np.random.default_rng(24)
    for n_modes in (4, 24, 100, 250):
        yield beam_model(BeamParameters(n_modes=n_modes))[0]
    for seed in range(6):
        n = 5
        w = rng.uniform(0.1, 10.0, n)
        # imaginary parts -0.0 keep W complex128 (linalg.as_matrix)
        for W in (np.diag(w), np.diag(np.conj(w + 0j))):
            for real in (True, False):
                node = random_passive_node(seed, n=n, real=real)
                yield StateSpaceNode(node.A, node.B, node.C, node.D, W=W)


def test_a_diagonal_W_is_scaled_as_the_dense_path_factors_it():
    # the factor, the orthonormal copy, to_state and the dual agree with the
    # Cholesky path, dtypes included, to 1e-12 (1 + ||.||_2)
    def close(X, Y):
        assert X.dtype == Y.dtype and X.shape == Y.shape
        assert np.linalg.norm(X - Y) <= 1e-12 * (1.0 + np.linalg.norm(Y, 2))

    for node in _diagonal_weight_nodes():
        L, orth, x, dual = _dense_path(node)
        assert node._chol.ndim == 1
        close(np.diag(node._chol), L)
        for X, Y in zip(node.orthonormal, orth):
            close(X, Y)
            assert not X.flags.writeable
        assert node.orthonormal[3] is node.D
        close(node.to_state(np.arange(1.0, node.n + 1.0)), x)
        d = dual_node(node)
        for X, Y in zip((d.A, d.B, d.C), dual):
            close(X, Y)
        assert_derived_on(d, node)


def test_a_dense_W_is_inverted_once_and_never_solved(monkeypatch):
    # L^-* is formed once, at construction, and handed on with L*: the closed
    # loop, the scattering intermediate and the dual invert nothing
    dense = dense_coordinates(beam_model(BeamParameters(n_modes=24))[0], 24)
    n = dense.n
    counts = {"inv": 0, "solve": 0}
    inv, solve = np.linalg.inv, np.linalg.solve

    def counted_inv(M):
        # feedback inverts the m x m I + kappa D; only state-sized inverses count here
        counts["inv"] += np.shape(M) == (n, n)
        return inv(M)

    def counted_solve(*args):
        counts["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    node = StateSpaceNode(dense.A, dense.B, dense.C, dense.D, W=dense.W)
    assert counts == {"inv": 1, "solve": 0}
    syn = stabilizing_feedback(node, np.zeros((2, 2)), 1.0)
    derived = (syn.closed_loop, syn.scattering_intermediate, dual_node(node))
    for x in (node, *derived):
        x.orthonormal
        x.to_state(np.ones(n))
    assert counts == {"inv": 1, "solve": 0}
    monkeypatch.undo()
    for x in derived:
        assert x._chol_inv is node._chol_inv
        assert_derived_on(x, node)


def test_the_dual_of_the_dual_is_the_node():
    # the dual is the adjoint of the orthonormal copy mapped back, an involution;
    # the rounding grows with cond(W), which is 3e2 for the dense beam here
    beam = beam_model(BeamParameters(n_modes=4))[0]
    nodes = [dense_coordinates(beam, 4), random_passive_node(7, weight=True),
             random_passive_node(7, weight=True, real=True)]
    for node in [*nodes, *_diagonal_weight_nodes()]:
        twice = dual_node(dual_node(node))
        for X, Y in zip((twice.A, twice.B, twice.C, twice.D), (node.A, node.B, node.C, node.D)):
            assert np.linalg.norm(X - Y) <= 1e-12 * (1.0 + np.linalg.norm(Y))


def test_a_diagonal_W_must_have_positive_entries():
    A, B, C, D = -np.eye(3), np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1))
    for w in ([1.0, 0.0, 2.0], [1.0, -1e-300, 2.0], [-1.0, 2.0, 3.0]):
        for W in (np.diag(w), np.diag(np.conj(np.array(w) + 0j)), np.diag(np.array(w) + 1e-13j)):
            with pytest.raises(DimensionMismatch, match="W must be positive definite"):
                StateSpaceNode(A, B, C, D, W=W)
    # a dense W is still decided by its Cholesky pivots
    with pytest.raises(DimensionMismatch, match="W must be positive definite"):
        StateSpaceNode(A, B, C, D, W=[[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    empty = np.zeros((0, 0))
    node = StateSpaceNode(empty, np.zeros((0, 1)), np.zeros((1, 0)), D, W=empty)
    assert node.is_identity_weight and node.orthonormal[0].shape == (0, 0)
    assert dual_node(node).n == 0 and node.to_state(np.zeros(0)).shape == (0,)


def test_the_identity_weight_is_the_diagonal_of_ones():
    A, B, C, D = -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))
    for W, identity in ((None, True), (np.eye(2), True), (np.diag([1.0, 1.0 + 2e-16]), False),
                        (np.diag([1.0 + 0j, 1.0 - 1e-13j]), True),
                        ([[1.0, 1e-300], [1e-300, 1.0]], False)):
        node = StateSpaceNode(A, B, C, D, W=W)
        assert node.is_identity_weight is identity
        assert (node.orthonormal[0] is node.A) is identity


def test_a_W_whose_imaginary_parts_cancel_is_real():
    # W - W* passes the slack; its self-adjoint part has imaginary parts +0.0
    w = np.array([0.5, 2.0, 3.0])
    for seed, real in ((3, True), (4, False)):
        node = random_passive_node(seed, n=3, real=real)
        node = StateSpaceNode(node.A, node.B, node.C, node.D, W=np.diag(w + 1e-13j))
        assert node.W.dtype == np.float64 and node._chol.dtype == np.float64
        assert np.array_equal(node.W, np.diag(w)) and not node.W.flags.writeable
        dual = dual_node(node)
        assert_derived_on(dual, node)
        assert all(M.dtype == node.A.dtype for M in (dual.A, *dual.orthonormal[:3]))


def test_derived_nodes_take_no_2_norm_of_an_unchanged_W(monkeypatch):
    beam, E = beam_model(BeamParameters(n_modes=6))
    W_shaped = []
    norm = np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2 and np.shape(x) == beam.W.shape:
            W_shaped.append(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    derived = [
        shift_feedthrough(beam, E),
        output_feedback(beam, -1.0),
        diagonal_transform(beam, 1.0),
        stabilizing_feedback(beam, E, 1.0).closed_loop,
    ]
    assert W_shaped == []
    for node in derived:
        assert np.array_equal(node.W, beam.W)


def test_a_W_off_self_adjoint_beyond_the_slack_is_rejected():
    A, B, C, D = -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    StateSpaceNode(A, B, C, D, W=W + 1e-12 * skew)  # within the slack
    with pytest.raises(NotSelfAdjoint):
        StateSpaceNode(A, B, C, D, W=W + 1e-6 * skew)


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
    for node in (random_passive_node(7, weight=True),
                 random_passive_node(7, weight=True, real=True)):
        dual = dual_node(node)
        for s in (1.0, 2.0 + 1.0j, 0.4 - 0.8j):
            G = eval_transfer(node, np.conj(s))
            Gd = eval_transfer(dual, s)
            assert np.linalg.norm(Gd - G.conj().T) < 1e-9
        # the dual keeps W: its orthonormal copy is (A~*, C~*, B~*, D*) of node's
        assert_derived_on(dual, node)


def test_shift_feedthrough_adds_to_transfer():
    node = random_passive_node(9)
    E = np.array([[0.5, 0.1], [0.1, -0.2]])
    shifted = shift_feedthrough(node, E)
    G = eval_transfer(node, 2.0)
    Gs = eval_transfer(shifted, 2.0)
    assert np.linalg.norm(Gs - G - E) < 1e-12


def test_a_w_orthonormal_entry_beyond_the_entry_limit_is_refused():
    # C~ = C / sqrt(w) = 4.5e161: its square would overflow every form
    node = StateSpaceNode([[0.0]], [[0.0]], [[1.0]], [[0.0]], W=[[5e-324]])
    with pytest.raises(NonFiniteMatrix, match="^W-orthonormal C has an entry beyond 1e\\+50"):
        node.orthonormal
