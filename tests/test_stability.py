"""Subspace computations and stability verdicts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivenode import (
    BeamParameters,
    StateSpaceNode,
    beam_model,
    benchimol_conditions,
    check_impedance,
    check_scattering,
    minimal_E,
    stability_verdict,
    unitary_subspace,
    unobservable_space,
)
from passivenode import io, linalg, passivity, stability
from passivenode.cli import main
from passivenode.errors import NotContraction
from passivenode.stability import StabilityVerdict, uncontrollable_dual_space

from conftest import dense_coordinates, random_almost_passive, random_passive_node


def _augment_dark_mode(node, omega, r=None):
    """Append an undamped mode at i*omega, with B row r and C column r*
    (colocated coupling; without r it is unobservable and uncontrollable)."""
    n = node.n
    r = np.zeros((1, node.m)) if r is None else r
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = node.A
    A[n, n] = 1j * omega
    B = np.vstack([node.B, r])
    C = np.hstack([node.C, r.conj().T])
    return StateSpaceNode(A, B, C, node.D)


def _hidden_mode_node(seed, n, k):
    """Passive block of size n - k plus k decoupled, unobserved, unactuated
    undamped modes (the first two at one repeated frequency), conjugated by a
    random unitary so no coordinate axis lines up with the hidden modes."""
    rng = np.random.default_rng(seed)
    base = random_passive_node(seed, n=n - k)
    freqs = rng.uniform(0.3, 3.0, size=k)
    freqs[1:2] = freqs[0]
    A = np.zeros((n, n), dtype=complex)
    A[: n - k, : n - k] = base.A
    A[n - k :, n - k :] = np.diag(1j * freqs)
    B = np.vstack([base.B, np.zeros((k, base.m))])
    C = np.hstack([base.C, np.zeros((base.p, k))])
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return StateSpaceNode(U @ A @ U.conj().T, U @ B, C @ U.conj().T, base.D)


def _assert_invariant(V, ops):
    P = np.eye(V.shape[0]) - V @ V.conj().T
    for op in ops:
        assert np.linalg.norm(P @ op @ V, 2) <= 1e-8 * (1.0 + np.linalg.norm(op, 2))


def test_largest_invariant_in_edge_shapes():
    A = np.diag([-1.0, -2.0, 1j])
    # n = 0
    assert linalg.largest_invariant_in(np.zeros((2, 0)), [np.zeros((0, 0))]).shape == (0, 0)
    assert linalg.largest_invariant_in(np.zeros((0, 0)), [np.zeros((0, 0))]).shape == (0, 0)
    # no constraint (M of shape (0, n)): ker M is C^n, which every op leaves invariant
    V = linalg.largest_invariant_in(np.zeros((0, 3)), [A])
    assert V.shape == (3, 3)
    assert np.linalg.norm(V.conj().T @ V - np.eye(3)) < 1e-12
    # C = 0 annihilates nothing either
    node = StateSpaceNode(A, np.ones((3, 1)), np.zeros((1, 3)), [[0.0]])
    assert unobservable_space(node).shape == (3, 3)
    # M of full column rank: ker M = {0}, without a sweep
    assert linalg.largest_invariant_in(np.eye(3), [A]).shape == (3, 0)
    assert linalg.largest_invariant_in(np.ones((4, 3)) + np.eye(4, 3), [A]).shape == (3, 0)
    # a zero op maps everything to 0, which lies in any subspace: the result is ker M
    M = np.eye(3)[2:]
    V = linalg.largest_invariant_in(M, [np.zeros((3, 3))])
    assert V.shape == (3, 2)
    assert np.linalg.norm(M @ V) < 1e-12
    assert np.linalg.norm(V.conj().T @ V - np.eye(2)) < 1e-12


def test_hidden_mode_subspaces_have_known_dimension():
    for n, seed in [(6, 0), (9, 1), (14, 2)]:
        for k in range(1, n // 2 + 1):
            node = _hidden_mode_node(100 * n + 10 * seed + k, n, k)
            A, B, C, _ = node.orthonormal
            N = unobservable_space(node)
            Nd = uncontrollable_dual_space(node)
            Xu = unitary_subspace(node)
            assert (N.shape[1], Nd.shape[1], Xu.shape[1]) == (k, k, k)
            _assert_invariant(N, [A])
            _assert_invariant(Nd, [A.conj().T])
            _assert_invariant(Xu, [A, A.conj().T])
            assert np.linalg.norm(C @ N, 2) <= 1e-8 * (1.0 + np.linalg.norm(C, 2))
            assert np.linalg.norm(B.conj().T @ Nd, 2) <= 1e-8 * (1.0 + np.linalg.norm(B, 2))


def _double_complement_invariant_in(Q, ops):
    """Reference staircase from a basis Q of the subspace: it starts from
    null_basis(Q*), the complement of the complement, and ends with a
    complement SVD whatever the sweep found."""
    n = Q.shape[0]
    V = linalg.null_basis(Q.conj().T)
    new = V
    while new.shape[1] and V.shape[1] < n:
        W = np.hstack([op.conj().T @ new for op in ops])
        for _ in range(2):
            W = W - V @ (V.conj().T @ W)
        u, sv, _ = np.linalg.svd(W, full_matrices=False)
        new = u[:, : int(np.sum(sv > linalg.SUBSPACE_TOL * max(1.0, sv[0])))]
        V = np.hstack([V, new])
    return linalg.null_basis(V.conj().T)


def _projector_distance(U, V):
    return np.linalg.norm(U @ U.conj().T - V @ V.conj().T, 2)


def test_annihilator_staircase_matches_double_complement():
    for n, seed in [(6, 0), (9, 1), (14, 2)]:
        for k in range(1, n // 2 + 1):
            node = _hidden_mode_node(100 * n + 10 * seed + k, n, k)
            A, B, C, _ = node.orthonormal
            Q = linalg.hermitize(A + A.conj().T)
            N = _double_complement_invariant_in(linalg.null_basis(C), [A])
            Nd = _double_complement_invariant_in(linalg.null_basis(B.conj().T), [A.conj().T])
            Xu = _double_complement_invariant_in(linalg.null_basis(Q), [A, A.conj().T])
            for new, old in [(unobservable_space(node), N),
                             (uncontrollable_dual_space(node), Nd),
                             (unitary_subspace(node), Xu)]:
                assert new.shape == old.shape == (n, k)
                assert _projector_distance(new, old) <= 1e-10
            # H inside N ∩ N^d, from the same N and N^d
            M = np.vstack([Q @ N / max(1.0, np.linalg.norm(Q, 2)), N - Nd @ (Nd.conj().T @ N)])
            H_old = _double_complement_invariant_in(N @ linalg.null_basis(M), [A, A.conj().T])
            H = stability._benchimol_sweep(node)[4]
            assert H.shape == H_old.shape == (n, k)
            assert _projector_distance(H, H_old) <= 1e-10


@st.composite
def _planted_pairs(draw):
    """(M, ops) with planted invariant subspaces inside ker M.

    In a random orthonormal basis (S, P, R, T), M annihilates S, P and R
    but not T.  A leaves S and S + P invariant, and with ops = {A, A*}
    S also reduces A, while S + P is not A*-invariant.  So the answer is
    generically S + P for [A] and S for [A, A*]."""
    n = draw(st.integers(1, 20))
    k = draw(st.integers(0, n))
    j = draw(st.integers(0, n - k))
    r = draw(st.integers(0, n - k - j))
    complex_ = draw(st.booleans())
    both = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if complex_ else X

    U, _ = np.linalg.qr(gauss(n, n))
    A = gauss(n, n)
    A[k:, :k] = 0.0
    A[k + j:, k:k + j] = 0.0
    if both:
        A[:k, k:] = 0.0
    A = U @ A @ U.conj().T
    M = gauss(draw(st.integers(0, n)), n - k - j - r) @ U[:, k + j + r:].conj().T
    return M, [A, A.conj().T] if both else [A]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pair=_planted_pairs())
def test_staircase_matches_double_complement_on_planted_pairs(pair):
    M, ops = pair
    V = linalg.largest_invariant_in(M, ops)
    ref = _double_complement_invariant_in(linalg.null_basis(M), ops)
    assert V.shape == ref.shape
    assert _projector_distance(V, ref) <= 1e-10
    assert np.iscomplexobj(V) == np.iscomplexobj(M)


def test_beam_verdict_makes_no_n_by_n_svd(monkeypatch):
    node, E = beam_model(BeamParameters(n_modes=100))
    n = node.n
    svd = np.linalg.svd
    sides = []

    def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
        rows, cols = np.shape(a)[-2:]
        # the largest square factor: U and V^H with full matrices, else the thin width
        sides.append(max(rows, cols) if full_matrices and compute_uv else min(rows, cols))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", spy)
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert sides, "the staircase ran no SVD"
    assert max(sides) < n


def test_beam_verdict_factors_nothing_and_solves_nothing(monkeypatch):
    # the beam's W = diag(A0f, I, I) is scaled, not factored
    counts = {"cholesky": 0, "solve": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "cholesky", spy("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
    node, E = beam_model(BeamParameters(n_modes=100))
    assert node.n == 198 and node.orthonormal[0].shape == (198, 198)
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert counts == {"cholesky": 0, "solve": 0}


@pytest.mark.parametrize("n_modes", [24, 100])
def test_a_dense_change_of_coordinates_keeps_the_beam_verdicts(n_modes):
    # the same system under x = T x', with a dense W (cond 2e6 and 7e8), takes
    # the Cholesky path and must read as the diagonal beam does
    beam, E = beam_model(BeamParameters(n_modes=n_modes))
    dense = dense_coordinates(beam, n_modes)
    assert np.count_nonzero(dense.W) == dense.n**2
    reports = [stability_verdict(node, E, 1.0)[0] for node in (beam, dense)]
    docs = [report.as_dict() for report in reports]
    for key, value in (("verdict", "StronglyStable"), ("dim_unobservable", 0),
                       ("dim_uncontrollable_dual", 0), ("dim_unitary", 0)):
        assert docs[0][key] == docs[1][key] == value
    for check in (check_impedance, check_scattering):
        assert check(beam).passive == check(dense).passive
    top = [report.closed_loop_max_real for report in reports]
    assert abs(top[1] - top[0]) <= 1e-8 * abs(top[0])


def test_the_verdict_forms_no_dissipation_on_trivial_subspaces(monkeypatch):
    # without the contraction check, A + A* is read only when N and N^d are both nonempty
    node, E = beam_model(BeamParameters(n_modes=24))
    calls = []
    hermitize = linalg.hermitize
    monkeypatch.setattr(linalg, "hermitize", lambda M: calls.append(M) or hermitize(M))
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert not any(np.shape(M) == (node.n, node.n) for M in calls)


@pytest.mark.parametrize("n_modes", [4, 100, 250, 300])
def test_the_beam_lists_only_its_rigid_pair_on_the_axis(n_modes):
    # Kelvin-Voigt damping gives ||A||_2 = 2.3e8 at 250 modes, where a slack of
    # tol (1 + ||A||_2) would also list the first flexible pair (Re -0.156);
    # the loop at kappa = 1 is strongly stable, with N, N^d and X^u all {0}
    node, E = beam_model(BeamParameters(n_modes=n_modes))
    report, _ = stability_verdict(node, E, 1.0)
    assert report.imaginary_spectrum == (0j, 0j)
    d = report.as_dict()
    assert (d["verdict"], d["dim_unobservable"], d["dim_uncontrollable_dual"],
            d["dim_unitary"]) == ("StronglyStable", 0, 0, 0)


def test_the_axis_list_keeps_a_zero_that_rounding_moved_off_its_own_slack():
    # in these coordinates eigvals returns one rigid zero at about -1.1e-9,
    # beyond tol (1 + |lambda|) = 1e-9 at the default tolerance but within
    # the rounding floor eps ||A||_F (about 3e-8)
    node, E = beam_model(BeamParameters(n_modes=150))
    report, _ = stability_verdict(dense_coordinates(node, 152), E, 1.0)
    assert len(report.imaginary_spectrum) == 2
    assert all(abs(lam) < 1e-6 for lam in report.imaginary_spectrum)


@pytest.mark.parametrize("f, on_axis", [(0.5, True), (3.8, False)])
def test_an_eigenvalue_is_on_the_axis_by_its_own_scale(f, on_axis):
    # A = diag(-3, -3, -3, -f tol): |lambda| = f tol gives the slack about
    # tol, not tol (1 + ||A||_2) = 4 tol
    tol = linalg.base_tol()
    A = np.diag([-3.0, -3.0, -3.0, -f * tol])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    report, _ = stability_verdict(StateSpaceNode(A, B, B.T, np.zeros((2, 2))), None, 1.0)
    assert report.imaginary_spectrum == ((complex(-f * tol),) if on_axis else ())


@pytest.mark.parametrize("seed, omega", [(0, 1.3), (1, 2.7), (2, 0.4)])
def test_the_axis_list_holds_a_dark_mode(seed, omega):
    base, E = random_almost_passive(seed)
    node = _augment_dark_mode(base, omega)
    kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
    report, _ = stability_verdict(node, E, kappa)
    assert any(abs(lam - 1j * omega) < 1e-12 for lam in report.imaginary_spectrum)


# -- spectra one decoupled block at a time ----------------------------------------


def _block_diagonal(seed, count, complex_entries):
    """A permuted block-diagonal matrix of count dense blocks of sizes 1 to 4,
    some of them a zero row and column, and the rows of each block."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 5, size=count)  # 0 stands for a zero row and column
    n = sum(max(size, 1) for size in sizes)
    M = np.zeros((n, n), dtype=complex if complex_entries else float)
    perm = rng.permutation(n)
    blocks, start = [], 0
    for size in sizes:
        rows = np.sort(perm[start:start + max(size, 1)])
        start += rows.size
        if size:
            block = rng.standard_normal((size, size))
            if complex_entries:
                block = block + 1j * rng.standard_normal((size, size))
            M[np.ix_(rows, rows)] = block
        blocks.append(rows)
    return M, blocks


def _sorted(lam):
    lam = np.asarray(lam, dtype=complex)
    return lam[np.lexsort((lam.imag, lam.real))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, linalg.BLOCK_CUT),
       complex_entries=st.booleans())
def test_eigvals_is_the_union_of_the_block_spectra(seed, count, complex_entries):
    # about 2.4 rows a block: n runs from 0 to about 2.4 BLOCK_CUT
    M, blocks = _block_diagonal(seed, count, complex_entries)
    lam, dense = linalg.eigvals(M, linalg.find_blocks(M)), np.linalg.eigvals(M)
    n = M.shape[0]
    if n < linalg.BLOCK_CUT:
        assert lam.dtype == dense.dtype and lam.tobytes() == dense.tobytes()
        return
    per_block = [np.linalg.eigvals(M[np.ix_(rows, rows)]) for rows in blocks]
    assert lam.shape == (n,)
    assert np.iscomplexobj(lam) == any(np.iscomplexobj(w) for w in per_block)
    assert np.array_equal(_sorted(lam), _sorted(np.concatenate(per_block)))
    # each eigenvalue is near one of the dense solve's, and the other way round
    gap = np.abs(lam[:, None] - dense[None, :])
    floor = 64 * np.finfo(float).eps * np.linalg.norm(M)
    assert gap.min(axis=1).max() <= floor and gap.min(axis=0).max() <= floor


@pytest.mark.parametrize("n", [0, 1, 2, linalg.BLOCK_CUT - 1, linalg.BLOCK_CUT, 150])
def test_eigvals_of_one_block_is_the_dense_solve(n):
    # a dense matrix, and a tridiagonal chain under a permutation, are one block
    rng = np.random.default_rng(n)
    chain = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(max(n - 1, 0)), 1)
    chain += np.diag(rng.standard_normal(max(n - 1, 0)), -1)
    perm = rng.permutation(n)
    for M in (rng.standard_normal((n, n)), chain[np.ix_(perm, perm)]):
        lam, dense = linalg.eigvals(M, linalg.find_blocks(M)), np.linalg.eigvals(M)
        assert lam.dtype == dense.dtype and lam.tobytes() == dense.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(linalg.BLOCK_CUT, 2 * linalg.BLOCK_CUT),
       complex_entries=st.booleans())
def test_blockwise_inverses_are_the_dense_inverses(seed, count, complex_entries):
    # s I - M at a few points: s = 0 makes the slices with a zero row and
    # column singular, which LAPACK meets as a zero pivot
    M, blocks = _block_diagonal(seed, count, complex_entries)
    n = M.shape[0]
    s = np.array([3.0 + 1.0j, 0.0] if complex_entries else [3.0, -2.5, 0.0])
    S = s[:, None, None] * np.eye(n) - M
    (inv, ok), (dense, dense_ok) = linalg.inverses(S, linalg.find_blocks(M)), linalg.inverses(S)
    assert np.array_equal(ok, dense_ok)
    assert ok[0] and (not ok[-1]) == any(not M[np.ix_(rows, rows)].any() for rows in blocks)
    same_block = np.zeros((n, n), dtype=bool)
    for rows in blocks:
        same_block[np.ix_(rows, rows)] = True
    for Si, Ri, Di in zip(S[ok], inv[ok], dense[ok]):
        assert not Ri[~same_block].any()
        eps = np.finfo(float).eps
        assert np.linalg.norm(Ri - Di) <= n * eps * np.linalg.cond(Si) * np.linalg.norm(Di)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(linalg.BLOCK_CUT, 2 * linalg.BLOCK_CUT),
       complex_entries=st.booleans())
def test_the_blockwise_sign_rule_decides_as_the_dense_one(seed, count, complex_entries):
    # forms whose least eigenvalue is 1, 0 and -1, and one whose extra
    # coupling joins two blocks of the stack's union pattern
    M, blocks = _block_diagonal(seed, count, complex_entries)
    F = linalg.hermitize(M)
    n = F.shape[0]
    low = np.linalg.eigvalsh(F)[0]
    forms = [F - (low + shift) * np.eye(n) for shift in (-1.0, 0.0, 1.0)]
    joined = forms[0].copy()
    i, j = blocks[0][0], blocks[-1][0]
    if i != j:
        joined[i, j] = joined[j, i] = 0.5
    stack = np.stack(forms + [joined])
    vals, psd = linalg.psd_vals(stack, linalg.find_blocks((stack != 0).any(axis=0)))
    dense, dense_psd = linalg.psd_vals(stack)
    assert np.array_equal(psd, dense_psd) and psd[0] and not psd[2]
    assert np.abs(vals - dense).max() <= 64 * np.finfo(float).eps * np.linalg.norm(stack[0])
    assert np.array_equal(vals, np.sort(vals, axis=-1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40), rows=st.integers(0, 6))
def test_bordered_labels_are_the_labels_of_the_bordered_pattern(seed, count, rows):
    # rows of M touch a few states each, or none; the merge through them must
    # give what a scan of the (n + k)^2 pattern gives, labels included
    M, _ = _block_diagonal(seed, count, False)
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    R = (rng.random((rows, n)) < rng.choice([0.0, 1.0 / n, 0.05])) * 1.0
    pattern = np.zeros((n + rows, n + rows))
    pattern[:n, :n], pattern[n:, :n] = M, R
    joined = linalg.bordered(linalg._block_labels(M), R)
    assert joined.tolist() == linalg._block_labels(pattern).tolist()


def test_the_beam_verdict_solves_no_n_by_n_eigenvalue_problem(monkeypatch):
    # A is two rigid singletons and 98 decoupled modes, and the colocated
    # closed loop is two halves of 99 states
    node, E = beam_model(BeamParameters(n_modes=100))
    eigvals = np.linalg.eigvals
    sides = []
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: sides.append(np.shape(a)[-1]) or eigvals(a))
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert sides and max(sides) <= node.n // 2


@pytest.mark.parametrize("n_modes", [50, 100, 250])
def test_blockwise_spectra_keep_the_dense_report(n_modes, monkeypatch):
    node, E = beam_model(BeamParameters(n_modes=n_modes))
    blockwise = stability_verdict(node, E, 1.0)[0].as_dict()
    monkeypatch.setattr(linalg, "eigvals", lambda M, labels=None: np.linalg.eigvals(M))
    dense = stability_verdict(node, E, 1.0)[0].as_dict()
    top = [doc.pop("closed_loop_max_real") for doc in (blockwise, dense)]
    assert blockwise == dense
    assert abs(top[1] - top[0]) <= 1e-8 * abs(top[1])


def test_the_beam_finds_its_blocks_once_per_node(block_scans):
    # the plant's blocks serve the synthesis certificate and the axis list,
    # the intermediate's the N, N^d sweep and the closed-loop abscissa, and
    # no bordered (n + m)^2 or (n + k)^2 pattern is scanned
    node, E = beam_model(BeamParameters(n_modes=100))
    n = node.n
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert block_scans == [(n, n), (n, n)]
    node, _ = beam_model(BeamParameters(n_modes=100))
    block_scans.clear()
    check_impedance(node)
    assert block_scans == [(n, n)]
    minimal_E(node)  # reads the blocks the check found
    assert block_scans == [(n, n)]


@pytest.mark.parametrize("n_modes", [33, 50])
def test_a_permutation_of_the_states_keeps_every_answer(n_modes):
    # n = 64 and 98, at or above BLOCK_CUT: a permutation lists the blocks in
    # another order, which changes the rounding of each stacked solve but no
    # verdict, dimension or axis eigenvalue.  The check's min_eigenvalue moves
    # by at most 0.8 eps ||F||_F over these draws; the bound is 64 eps ||F||_F
    node, E = beam_model(BeamParameters(n_modes=n_modes))
    assert node.n >= linalg.BLOCK_CUT
    report, cert, E_min = stability_verdict(node, E, 1.0)[0], check_impedance(node), minimal_E(node)
    floor = 64 * np.finfo(float).eps * np.linalg.norm(passivity.impedance_block_bounded(node))
    doc = report.as_dict()
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(node.n)
        at = np.ix_(perm, perm)
        moved = StateSpaceNode(node.A[at], node.B[perm], node.C[:, perm], node.D, W=node.W[at])
        other = stability_verdict(moved, E, 1.0)[0]
        for key in ("verdict", "dim_unobservable", "dim_uncontrollable_dual", "dim_unitary"):
            assert other.as_dict()[key] == doc[key]
        assert np.array_equal(np.sort_complex(np.array(other.imaginary_spectrum)),
                              np.sort_complex(np.array(report.imaginary_spectrum)))
        moved_cert = check_impedance(moved)
        assert moved_cert.verdict is cert.verdict
        assert abs(moved_cert.min_eigenvalue - cert.min_eigenvalue) <= floor
        assert np.linalg.norm(minimal_E(moved) - E_min, 2) <= linalg.scaled_tol(E_min)


def test_the_beam_verdict_makes_a_handful_of_svds(monkeypatch):
    # the N and N^d sweeps of the closed loop's two single-input halves share
    # one stacked start SVD, and a one-column step block needs none
    node, E = beam_model(BeamParameters(n_modes=100))
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    report, _ = stability_verdict(node, E, 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert 1 <= len(calls) <= 4


@st.composite
def _decoupled_problems(draw, exponents):
    """(problems, planted): two (M, ops) problems on one permuted direct sum
    of planted subsystems.

    Subsystem b has, in a random orthonormal basis (S_b, T_b) of its
    states, an op A_b that leaves S_b invariant (and reduces it when both is
    drawn) and up to three rows of M that annihilate S_b, scaled by 10^e for
    an e of exponents.  The first problem takes the ops, the second its own
    rows and the adjoints, as N and N^d do.  A subsystem without rows lies
    in the result whole; a start of two or three rows whose Krylov space is
    not a multiple of its width loses rank mid-sweep; and rows scaled 1e-9
    fall below the start cut of the whole M.  planted lists (states, S_b)
    for the first problem.
    """
    complex_ = draw(st.booleans())
    both = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if complex_ else X

    subsystems = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 7))
        d = draw(st.integers(0, size))
        U, _ = np.linalg.qr(gauss(size, size))
        A = gauss(size, size)
        A[d:, :d] = 0.0
        if both:
            A[:d, d:] = 0.0
        rows = [gauss(draw(st.integers(0, 3)), size - d) @ U[:, d:].conj().T
                * 10.0 ** draw(st.sampled_from(exponents)) for _ in range(2)]
        subsystems.append((U @ A @ U.conj().T, rows, U[:, :d]))
    n = sum(len(A) for A, _, _ in subsystems)
    perm = rng.permutation(n)
    A = np.zeros((n, n), dtype=complex if complex_ else float)
    Ms = [[np.zeros((draw(st.integers(0, 1)), n), dtype=A.dtype)] for _ in range(2)]
    planted, start = [], 0
    for Ab, rows, S in subsystems:
        at = perm[start:start + len(Ab)]
        start += len(Ab)
        A[np.ix_(at, at)] = Ab
        planted.append((at, S))
        for blocks, R in zip(Ms, rows):
            block = np.zeros((len(R), n), dtype=A.dtype)
            block[:, at] = R
            blocks.append(block)
    M, Md = (np.vstack(blocks) for blocks in Ms)
    M, Md = M[rng.permutation(len(M))], Md[rng.permutation(len(Md))]
    Ah = A.conj().T
    return [(M, [A, Ah] if both else [A]), (Md, [Ah, A] if both else [Ah])], planted


def _stacked_sweep(problems, side):
    """largest_invariants_in of problems, with the blocks of their ops found
    under a BLOCK_CUT below, at or above their n: split into subsystems, or
    each problem swept whole."""
    n = problems[0][0].shape[1]
    pattern = np.any([op != 0 for _, ops in problems for op in ops], axis=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BLOCK_CUT", {"split": 1, "at the cut": n, "whole": n + 1}[side])
        return linalg.largest_invariants_in(problems, linalg.find_blocks(pattern))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_decoupled_problems([-9, -3, 0]),
       side=st.sampled_from(["split", "at the cut", "whole"]))
def test_the_stacked_sweep_spans_the_subspaces_of_the_whole_sweep(case, side):
    problems, _ = case
    for (M, ops), V in zip(problems, _stacked_sweep(problems, side)):
        whole = _stacked_sweep([(M, ops)], "whole")[0]
        assert V.shape == whole.shape
        assert np.iscomplexobj(V) == np.iscomplexobj(whole)
        assert np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1])) <= 1e-12 * max(1, V.shape[1])
        assert _projector_distance(V, whole) <= 1e-10


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_decoupled_problems([-9, -3, 0, 3]))
def test_the_split_sweep_finds_the_planted_subspace_at_any_row_scale(case):
    # kept rows 1e6 apart: an SVD of the whole M is accurate to eps times its
    # largest singular value, so the whole sweep's start leaks into states its
    # rows never touch, and A can grow the leak into new directions; split,
    # no subsystem sees another's rounding.  A subsystem whose rows fall
    # below the start cut of the whole M lies in the result whole
    problems, planted = case
    M, ops = problems[0]
    V = _stacked_sweep(problems[:1], "split")[0]

    def sigma_max(X):
        return np.linalg.svd(X, compute_uv=False).max(initial=0.0)

    floor = linalg.rank_floor(sigma_max(M))
    pieces = []
    for at, S in planted:
        kept = sigma_max(M[:, at]) > floor
        piece = np.zeros((M.shape[1], S.shape[1] if kept else len(at)), dtype=V.dtype)
        piece[at] = S if kept else np.eye(len(at))
        pieces.append(piece)
    truth = np.hstack(pieces)
    assert V.shape == truth.shape
    assert _projector_distance(V, truth) <= 1e-10


def test_beam_100_modes_strongly_stable_with_trivial_subspaces():
    node, E = beam_model(BeamParameters(n_modes=100))
    report, _ = stability_verdict(node, E, 1.0)
    d = report.as_dict()
    assert (d["dim_unobservable"], d["dim_uncontrollable_dual"], d["dim_unitary"]) == (0, 0, 0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE


def test_unobservable_space_oracle():
    # second state neither observed nor fed back into the first
    A = np.diag([-1.0, -2.0])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    node = StateSpaceNode(A, B, C, np.zeros((1, 1)))
    N = unobservable_space(node)
    assert N.shape[1] == 1
    assert abs(N[1, 0]) == pytest.approx(1.0)
    Nd = uncontrollable_dual_space(node)
    assert Nd.shape[1] == 1


def test_unobservable_space_trivial_for_observable_pair():
    node = random_passive_node(0)
    assert unobservable_space(node).shape[1] == 0


def test_unitary_subspace_strictly_dissipative_is_trivial():
    A = -np.eye(3)
    node = StateSpaceNode(A, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)))
    assert unitary_subspace(node).shape[1] == 0


def test_unitary_subspace_skew_block():
    # skew 2x2 block is unitary; damped scalar block is not
    A = np.zeros((3, 3))
    A[0, 1], A[1, 0] = 2.0, -2.0
    A[2, 2] = -1.0
    node = StateSpaceNode(A, np.zeros((3, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
    Xu = unitary_subspace(node)
    assert Xu.shape[1] == 2
    assert np.max(np.abs(Xu[2, :])) < 1e-10


def test_unitary_subspace_rejects_expansive():
    node = StateSpaceNode([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NotContraction):
        unitary_subspace(node)


def test_undamped_oscillator_strongly_stabilized():
    # lossless oscillator with colocated rate sensing, kappa = 1
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    W = np.diag([4.0, 1.0])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.0, 1.0]])
    node = StateSpaceNode(A, B, C, np.zeros((1, 1)), W=W)
    report, syn = stability_verdict(node, np.zeros((1, 1)), 1.0)
    assert report.verdict is StabilityVerdict.STRONGLY_STABLE
    assert report.closed_loop_hurwitz
    # closed loop is A - BC here: eigenvalues of [[0,1],[-4,-1]]
    ev = np.sort_complex(np.linalg.eigvals(np.asarray(syn.closed_loop.A)))
    ref = np.sort_complex(np.linalg.eigvals(A - B @ C))
    assert np.linalg.norm(ev - ref) < 1e-12


def test_almost_passive_suite_strongly_stable_and_hurwitz():
    for seed in range(10):
        node, E = random_almost_passive(seed, weight=(seed % 3 == 0))
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        report, _ = stability_verdict(node, E, kappa)
        assert report.cweak_holds or report.bweak_holds
        assert report.verdict is StabilityVerdict.STRONGLY_STABLE
        assert report.closed_loop_max_real < -1e-10


def test_dark_mode_retains_imaginary_eigenvalue():
    for seed, omega in [(0, 1.3), (1, 2.7), (2, 0.4)]:
        base, E = random_almost_passive(seed)
        node = _augment_dark_mode(base, omega)
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        report, _ = stability_verdict(node, E, kappa)
        assert not report.cweak_holds and not report.bweak_holds
        assert report.verdict is StabilityVerdict.NOT_STABLE
        residual = min(abs(lam - 1j * omega) for lam in report.closed_loop_imaginary_spectrum)
        assert residual < 1e-8


def test_benchimol_conditions_shapes():
    node, E = random_almost_passive(4)
    from passivenode import stabilizing_feedback

    syn = stabilizing_feedback(node, E, 0.5 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None)))
    cweak, bweak, N, Nd, Xu = benchimol_conditions(syn.scattering_intermediate)
    assert N.shape[0] == node.n and Nd.shape[0] == node.n and Xu.shape[0] == node.n
    assert cweak and bweak


def test_stability_reports_agree_with_themselves():
    # a dark mode coupled with strength 1e-k, k = 0..16: from well damped,
    # through the tolerance, to numerically dark
    contradictions = []
    for seed in range(20):
        base, E = random_almost_passive(seed)
        rng = np.random.default_rng(seed + 77)
        r = rng.standard_normal((1, base.m)) + 1j * rng.standard_normal((1, base.m))
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        for k in range(17):
            node = _augment_dark_mode(base, 0.4 + 0.15 * seed, 10.0**-k * r)
            report, _ = stability_verdict(node, E, kappa)
            d = report.as_dict()
            facts = {
                report.verdict is StabilityVerdict.STRONGLY_STABLE,
                report.cweak_holds,
                report.bweak_holds,
                report.closed_loop_hurwitz,
                not report.closed_loop_imaginary_spectrum,
                d["dim_unitary"] == 0,
            }
            nested = d["dim_unitary"] <= min(d["dim_unobservable"], d["dim_uncontrollable_dual"])
            if len(facts) != 1 or not nested:
                contradictions.append((seed, k))
    assert contradictions == []


def _augment_damped_mode(node, a):
    """Append a decoupled mode at a < 0, unobserved and unactuated."""
    n = node.n
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n], A[n, n] = node.A, a
    return StateSpaceNode(A, np.vstack([node.B, np.zeros((1, node.m))]),
                          np.hstack([node.C, np.zeros((node.p, 1))]), node.D)


def test_a_hidden_damped_mode_changes_no_verdict():
    # a weakly dissipative mode coupled above the rank cut is neither in N nor
    # in N^d, so it is not in X^u, whether or not N and N^d are nonempty
    A, B = np.diag([-5e-9, -1.0]), np.array([[1e-4], [0.0]])
    cweak, bweak, N, Nd, H = benchimol_conditions(StateSpaceNode(A, B, B.T, [[0.0]]))
    assert (cweak, bweak, N.shape[1], Nd.shape[1], H.shape[1]) == (True, True, 1, 1, 0)
    # the dark-mode family of the test above, from well damped to dark: a
    # decoupled damped mode changes neither the verdict nor dim X^u
    changed = []
    for seed in range(8):
        base, E = random_almost_passive(seed)
        rng = np.random.default_rng(seed + 77)
        r = rng.standard_normal((1, base.m)) + 1j * rng.standard_normal((1, base.m))
        kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
        for k in range(5, 13):
            dark = _augment_dark_mode(base, 0.4 + 0.15 * seed, 10.0**-k * r)
            want = stability_verdict(dark, E, kappa)[0].as_dict()
            got = stability_verdict(_augment_damped_mode(dark, -1.0), E, kappa)[0].as_dict()
            assert got["dim_unobservable"] >= 1 and got["dim_uncontrollable_dual"] >= 1
            if (got["verdict"], got["dim_unitary"]) != (want["verdict"], want["dim_unitary"]):
                changed.append((seed, k))
    assert changed == []


def test_cli_stability_exit_codes(tmp_path, capsys):
    base, E = random_almost_passive(0)
    beam, E_beam = beam_model(BeamParameters(n_modes=8))
    kappa = 0.9 / np.max(np.clip(np.linalg.eigvalsh(E), 0.0, None))
    for name, node, shift, gain, code in [
        ("dark", _augment_dark_mode(base, 1.3), E, kappa, 2),
        ("beam", beam, E_beam, 1.0, 0),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(io.dumps_canonical(io.node_to_dict(node)))
        epath = tmp_path / f"{name}_E.json"
        epath.write_text(io.dumps_canonical(io.matrix_to_json(shift)))
        assert main(["stability", str(path), "--kappa", str(float(gain)),
                     "--e-matrix", str(epath)]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == ("NotStable" if code else "StronglyStable")
