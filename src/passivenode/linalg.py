"""Small numerical linear-algebra helpers shared across modules.

Three kinds of numerical question, one rule each:

* Invertibility (s in rho(A), I + kD, I - KD, Ad + I): :func:`inverses`
  inverts a stack of matrices in one call and marks the singular ones, and
  :func:`checked_inv` applies it to one matrix, raising the caller's error;
  the inverse is formed once for the caller to reuse.  M is singular when
  LAPACK finds a zero pivot, M^-1 is not finite, or
  RCOND * max(1, ||M||_1) * ||M^-1||_1 >= 1.  A dense W > 0 and A0 > 0 are
  the pivots of :func:`cholesky`.
* Rank: subspace routines return orthonormal bases (columns) and cut
  singular values at the relative SUBSPACE_TOL.
* Sign and identity: a form is >= 0 when lambda_min >= -psd_tol, a rule
  read off its eigenvalues alone (:func:`psd_vals`, which also decides a
  stack of forms in one call); eigenvectors are computed, by
  :func:`psd_eig`, only where a caller reads them.  A residual R of an
  identity is zero when ||R||_2 <= :func:`scaled_tol` of the matrix it is
  measured against.  Both are base_tol() (PASSIVE_NODE_TOL, default 1e-9)
  times 1 + a norm.
* Decoupled blocks: a problem of at least BLOCK_CUT states whose pattern
  splits into blocks under a permutation is solved one block at a time.
  :func:`find_blocks` finds them, once per node from its W-orthonormal A
  (node.StateSpaceNode.blocks), and the splits take its labels:
  :func:`eigvals`, :func:`inverses`, the witness-free sign rule of
  :func:`psd_vals`, and the staircase (:func:`largest_invariants_in`), whose
  subsystems :func:`bordered` merges through each annihilator's rows.  Every
  decision stays that of the whole matrix: the RCOND rule reads the norms of
  the whole matrices, a rank cut is relative to the whole annihilator or
  step block, and a sign slack to the whole form.  The forms of a
  certificate that reads a witness stay dense: its eigenvalues and the
  witness eigenvector come from one solve of one matrix, and split
  eigenvalues round differently, which can change which of two forms tied
  within rounding is the worst.

Real data runs in real arithmetic.  This is decided once, where a matrix
or a time-domain signal enters (:func:`as_matrix`, :func:`as_signal`,
:func:`sample`): it is stored as float64 when every imaginary part is
+0.0, and as complex128 otherwise (:func:`real_or_complex`).  The
routines here keep the dtype they are given (none of them forces complex),
so a real node goes to the real LAPACK kernels.

Scalar arguments pass one gate per kind (:func:`as_count`, :func:`as_real`,
:func:`as_point`), each raising the error its caller names, and a uniform
time grid passes :func:`time_grid`.

RCOND and SUBSPACE_TOL are fixed.  Every routine here costs at most O(n^3)
for the desk-scale problems this library targets (the 100-mode beam has
n = 198).
"""

import cmath
import math
import numbers
import os

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidTimeGrid,
    InvalidTolerance,
    NonFiniteMatrix,
    NonFiniteState,
    NotSelfAdjoint,
)

#: M counts as singular when RCOND * max(1, ||M||_1) * ||M^-1||_1 >= 1
RCOND = 1e-12

#: singular values below this (relative) count as zero in every subspace
#: rank decision, and so in the stability verdict
SUBSPACE_TOL = 1e-8

#: numpy kinds that count as numbers: bool, signed and unsigned integer, float, complex
NUMBER_KINDS = "biufc"

#: times per chunk wherever a signal is read, summed or written in pieces: the
#: values of a callable (:func:`sample`), the forcing of a simulation, a
#: Laguerre sum, a block of CSV rows.  What such a pass holds beyond its
#: result is one chunk (a few hundred kB).  Even, so that CHUNK panels make
#: a piece of a composite Simpson sum
CHUNK = 2048

#: decoupled blocks are looked for (:func:`find_blocks`) only in a matrix
#: with at least this many rows.  Measured crossovers (one
#: BLAS thread, numpy 2.4.6): the beam's W-orthonormal A (2 x 2 modes) is
#: split faster than it is solved whole from n = 64, by eigvals and by the
#: inverses of a check alike (0.23 against 0.51 ms at n = 64); its closed
#: loop (two halves) from n = 40 by eigvals and from about n = 78 by the
#: inverses (0.61 against 0.53 ms at n = 64), and its N, N^d staircase is
#: as fast split as whole at n = 64 (1.46 ms).  Finding the blocks of a
#: matrix that is one block costs +26 % of np.linalg.eigvals at n = 16, +2 %
#: at n = 64 and +0.4 % at n = 498
BLOCK_CUT = 64

#: larger entries are rejected, so that a product of up to six entries stays
#: finite (the scattering forms multiply four)
ENTRY_LIMIT = 1e50


def base_tol():
    """Base relative tolerance; PASSIVE_NODE_TOL (finite, > 0) overrides the default."""
    text = os.environ.get("PASSIVE_NODE_TOL", "1e-9")
    tol = float_or_nan(text)
    if not 0.0 < tol < np.inf:
        raise InvalidTolerance(f"PASSIVE_NODE_TOL = {text!r} is not a finite number > 0")
    return tol


def float_or_nan(text):
    """float(text), or NaN when the text is not a number, so that a range test rejects it."""
    try:
        return float(text)
    except ValueError:
        return np.nan


def as_matrix(M, name):
    """Read-only 2-D copy of M: float64 when every imaginary part is +0.0, else complex128.

    M must be a scalar, vector or matrix of numbers (NUMBER_KINDS: a string
    or a ragged row raises DimensionMismatch).  A NaN or inf entry, or a real
    or imaginary part beyond ENTRY_LIMIT, raises NonFiniteMatrix: such an
    entry makes the forms overflow.  The real/complex rule is bitwise, so a
    matrix with an imaginary -0.0 stays complex and is written back as read.
    """
    try:
        M = np.asarray(M)
    except (TypeError, ValueError):  # ragged rows
        M = None
    if M is None or M.dtype.kind not in NUMBER_KINDS or M.ndim > 2:
        raise DimensionMismatch(f"{name} must be a matrix of numbers")
    M = np.array(M, dtype=complex if M.dtype.kind == "c" else float, order="C", ndmin=2)
    # one pass over the real and imaginary parts; a NaN fails the comparison too
    if not np.abs(M.view(float)).max(initial=0.0) <= ENTRY_LIMIT:
        if not np.isfinite(M).all():
            raise NonFiniteMatrix(f"{name} has a non-finite entry")
        raise NonFiniteMatrix(f"{name} has an entry beyond {ENTRY_LIMIT:g} in magnitude")
    M = real_or_complex(M)
    M.setflags(write=False)
    return M


def as_count(value, name, minimum, error):
    """value as an int; error unless it is an int or numpy integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def as_real(value, name, error):
    """value as a finite float; error unless it is a numbers.Real (not a bool, nor np.bool_)."""
    return float(_finite(value, numbers.Real, name, error))


def as_point(value, name, error):
    """value as a finite complex; error unless it is a numbers.Complex (not a bool)."""
    return complex(_finite(value, numbers.Complex, name, error))


def _finite(value, kind, name, error):
    """value when it is a finite kind (numbers.Real or numbers.Complex) other than a bool."""
    try:
        if isinstance(value, kind) and not isinstance(value, bool) and cmath.isfinite(value):
            return value
    except OverflowError:  # an integer beyond the float range is not finite
        pass
    raise error(f"{name} must be a finite {kind.__name__.lower()} number, got {value!r}")


def time_grid(T, steps, even=False, max_points=None):
    """The uniform grid of steps + 1 times on [0, T] (steps made even if even is set).

    InvalidTimeGrid unless T is a finite real number > 0 and steps an
    integer >= 1 whose grid numpy can allocate, with at most max_points
    points when that is given (checked before the grid is allocated).
    """
    T = as_real(T, "T", InvalidTimeGrid)
    if T <= 0:
        raise InvalidTimeGrid(f"T must be > 0, got {T}")
    steps = as_count(steps, "steps", 1, InvalidTimeGrid)
    steps += steps % 2 if even else 0
    if max_points is not None and steps + 1 > max_points:
        raise InvalidTimeGrid(f"steps = {steps} gives more than the {max_points} grid points "
                              "this trajectory may hold")
    try:
        return np.linspace(0.0, T, steps + 1)
    except MemoryError:
        raise InvalidTimeGrid(f"the grid of steps = {steps} cannot be allocated") from None


def real_or_complex(M):
    """The numeric array M as float64 when every imaginary part is +0.0 bit for bit, else complex128.

    The one real/complex rule of the package.  A real M (bool, integer or
    float) is float64; an array that already has its dtype is returned
    without a copy.
    """
    if not np.iscomplexobj(M):
        return M.astype(float, copy=False)
    M = M.astype(complex, copy=False)
    return M if M.imag.view(np.uint64).any() else M.real.copy()


def as_signal(values, name, width=None):
    """A time-domain signal as a (times, width) array, stored by :func:`real_or_complex`.

    values holds one value per time: a number or an array of width entries
    (of any shape), or values is already a (times, width) array, which is
    returned without a copy when it is float64 or complex128.  Raises
    DimensionMismatch unless every value is made of numbers (bool, integer,
    float or complex) and every time has width entries (the same number of
    entries when width is None), and NonFiniteState when a value is NaN or
    infinite.  A sequence of values is held twice while it is read, once as
    Python objects and once as the array, so a callable's values are read
    through :func:`sample`, one CHUNK of times at a time.
    """
    try:
        S = np.asarray(values)
    except (TypeError, ValueError):  # values of mixed shapes
        S = None
    if S is None or (S.ndim != 2 and not (S.ndim == 1 and S.dtype.kind in NUMBER_KINDS)):
        try:  # values of other or mixed shapes: each is flattened
            S = np.array([np.ravel(v) for v in values])
        except (TypeError, ValueError):  # ragged, or not a sequence of values
            S = None
    if S is None or S.dtype.kind not in NUMBER_KINDS:
        count = "the same count of numbers" if width is None else f"{width} numbers"
        raise DimensionMismatch(f"{name} must be {count} at every time")
    if S.ndim == 1:
        S = S[:, None]
    if width is not None and S.shape[1] != width:
        raise DimensionMismatch(f"{name} must have {width} entries at every time, "
                                f"got shape {S.shape}")
    S = real_or_complex(S)
    if not np.isfinite(S).all():
        raise NonFiniteState(f"{name} holds a non-finite value")
    return S


def sample(u, times, name, width=None):
    """The values of the callable u at the nonempty 1-D times, as one signal.

    u is called once per time, in time order.  The values are read CHUNK
    times at a time: each chunk passes :func:`as_signal` (with the width of
    the first chunk when width is None), so it raises that chunk's
    DimensionMismatch or NonFiniteState before the later times are called,
    and is written into one preallocated (times, width) array.  The signal
    is float64 unless a value has an imaginary part other than +0.0, and
    then complex128 throughout: the real/complex rule of
    :func:`real_or_complex`, applied to the whole signal.  Besides the
    signal, the memory held is one chunk of values.
    """
    S = None
    for lo in range(0, len(times), CHUNK):
        chunk = as_signal([u(t) for t in times[lo:lo + CHUNK]], name, width)
        if S is None:
            width = chunk.shape[1]
            S = np.empty((len(times), width), dtype=chunk.dtype)
        elif np.iscomplexobj(chunk) and not np.iscomplexobj(S):
            S = S.astype(complex)  # the first complex chunk makes the whole signal complex
        S[lo:lo + len(chunk)] = chunk
    return S


def inverses(M, labels=None):
    """(M^-1, invertible) for a stack M (..., k, k) of square matrices.

    One inverse of the whole stack, or, when the labels of blocks that every
    slice is block diagonal under (:func:`_decoupled`) are given, one
    inverse per block size of the stacked blocks: the inverse of a
    block-diagonal matrix is the block diagonal of its blocks' inverses.
    invertible marks (shape M.shape[:-2]) the slices that are not singular
    by the rule of the module docstring, read off the norms of the whole M
    and M^-1; the inverse of a singular slice is not to be read.  LAPACK
    stops at a zero pivot in any slice or block, and then the slices are
    inverted whole, one by one, a zero-pivot slice left NaN.
    """
    groups = _decoupled(labels)
    try:
        if groups is None:
            Minv = np.linalg.inv(M)
        else:
            Minv = np.zeros(M.shape, dtype=np.result_type(M, float))
            for _, block in groups:
                rows, cols = block[:, :, None], block[:, None, :]
                Minv[..., rows, cols] = np.linalg.inv(M[..., rows, cols])
    except np.linalg.LinAlgError:
        Minv = np.full(M.shape, np.nan, dtype=np.result_type(M, float))
        for i in np.ndindex(M.shape[:-2]):
            try:
                Minv[i] = np.linalg.inv(M[i])
            except np.linalg.LinAlgError:
                pass
    # "<" is False for a NaN or inf in M^-1 or in the product, so such a
    # slice is singular too, and the overflow that makes the inf is no warning
    with np.errstate(over="ignore", invalid="ignore"):
        invertible = RCOND * np.maximum(1.0, _norm1(M)) * _norm1(Minv) < 1.0
    return Minv, invertible


def _norm1(M):
    """||M||_1 (the largest column sum of |M|) of each matrix of the stack M."""
    return np.abs(M).sum(axis=-2).max(axis=-1, initial=0.0)


def checked_inv(M, error, message, labels=None):
    """Inverse of the square matrix M; raises error(message) if M is singular (:func:`inverses`)."""
    Minv, invertible = inverses(M, labels)
    if not invertible:
        raise error(message)
    return Minv


def psd_tol(eigenvalues):
    """Scale-invariant PSD slack of a self-adjoint form, from its eigenvalues.

    A form passes if lambda_min >= -psd_tol; max |lambda| is its 2-norm.
    eigenvalues may be a stack (..., k), one slack per form.
    """
    return base_tol() * (1.0 + np.abs(eigenvalues).max(axis=-1, initial=0.0))


def scaled_tol(M):
    """Slack base_tol() * (1 + ||M||_2) of an identity residual measured against M."""
    return base_tol() * (1.0 + np.linalg.norm(M, 2))


def hermitize(M):
    """Self-adjoint part (M + M*)/2 of M, or of each matrix of a stack; real when M is."""
    M = np.asarray(M)
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def assert_hermitian(M, what="matrix"):
    """Self-adjoint part of M; NotSelfAdjoint unless ||M - M*||_2 <= scaled_tol(M).

    A residual that is exactly zero passes under any slack, so an exactly
    self-adjoint M (a W handed on to a derived node) takes no norm, and is
    returned as it is: hermitize would flip the sign of some of its zeros.
    A real M stays real.
    """
    M = np.asarray(M)
    M = M.astype(np.result_type(M, float), copy=False)
    resid = M - M.conj().T
    if not resid.any():
        return M
    # a NaN is nonzero, so it takes the norm path
    if np.linalg.norm(resid, 2) > scaled_tol(M):
        raise NotSelfAdjoint(f"{what} is not self-adjoint to tolerance")
    return hermitize(M)


def psd_vals(M, labels=None):
    """Eigenvalues (ascending) of the self-adjoint part of M, and whether M >= 0.

    The one sign rule: a form passes when lambda_min >= -psd_tol, the slack
    read off its own eigenvalues.  No eigenvector is computed.  M may be a
    stack (..., k, k): one eigvalsh decides every form, and the verdict has
    the shape M.shape[:-2].  With the labels of blocks that every form is
    block diagonal under, for a caller that reads no eigenvector beside them
    (see the module docstring), the forms are solved one block at a time
    (:func:`_decoupled`), one eigvalsh per block size, and each form's
    eigenvalues are the sorted union of its blocks'.  An empty form passes.
    """
    H = hermitize(M)
    groups = _decoupled(labels)
    if groups is None:
        vals = np.linalg.eigvalsh(H)
    else:
        vals = np.empty(H.shape[:-1])
        for at, block in groups:
            vals[..., at] = np.linalg.eigvalsh(H[..., block[:, :, None], block[:, None, :]])
        vals.sort(axis=-1)
    return vals, _passes(vals)


def psd_eig(M):
    """Eigenvalues (ascending), unit eigenvectors and whether M >= 0.

    The sign rule of :func:`psd_vals`, for a caller that reads the
    eigenvectors too.
    """
    vals, vecs = np.linalg.eigh(hermitize(M))
    return vals, vecs, bool(_passes(vals))


def _passes(vals):
    """Whether lambda_min >= -psd_tol for the eigenvalues vals (..., k) of each form."""
    return np.all(vals >= -np.expand_dims(psd_tol(vals), -1), axis=-1)


def eigvals(M, labels=None):
    """Eigenvalues of the square matrix M, one decoupled block at a time.

    M is block diagonal under the labels (:func:`find_blocks`), and its
    spectrum is the union of its blocks'.  The blocks of each size are
    stacked into one np.linalg.eigvals call, and the eigenvalues come in the
    order of the blocks' first rows.  LAPACK's balancing (Parlett and
    Reinsch 1969) moves isolated eigenvalues aside but never splits a matrix
    into its blocks, which a modal realization (the beam's 2 x 2 modes, its
    colocated closed loop's two halves) decouples into.  Without labels, or
    with one block, M gets np.linalg.eigvals(M) itself.
    The result is real when M and every eigenvalue are, as in numpy.
    """
    M = np.asarray(M)
    groups = _decoupled(labels)
    if groups is None:
        return np.linalg.eigvals(M)
    lam = np.empty(M.shape[0], dtype=complex)
    for at, block in groups:
        lam[at] = np.linalg.eigvals(M[block[:, :, None], block[:, None, :]])
    return lam if np.iscomplexobj(M) or lam.imag.any() else lam.real.copy()


def _decoupled(labels):
    """The blocks of the labels of :func:`find_blocks`, grouped for stacked solves.

    A list of (at, block) pairs, one per block size: block (count, size)
    holds the rows of the blocks of that size, and at their positions when
    the rows are listed block by block, blocks in the order of their first
    rows.  None when labels is None or names one block.
    """
    if labels is None:
        return None
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    if sizes.size == 1:
        return None
    rows = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    groups = []
    for size in np.flatnonzero(np.bincount(sizes)):
        at = starts[sizes == size][:, None] + np.arange(size)
        groups.append((at, rows[at]))
    return groups


def find_blocks(M):
    """:func:`_block_labels` of the square M, the one search for blocks in a
    matrix; None below BLOCK_CUT rows, where a dense solve is as fast."""
    return None if M.shape[-1] < BLOCK_CUT else _block_labels(M)


def bordered(labels, M):
    """:func:`_block_labels` of [[A, M*], [M, 0]] from A's labels and the k x n
    M, with no (n + k)^2 pattern: row n + i joins the blocks row i touches."""
    n = len(labels)
    rows, cols = np.nonzero(M)
    return _hooked(np.concatenate([labels, n + np.arange(len(M))]), n + rows, labels[cols])


def _block_labels(M):
    """Label of each row of M: the first row of its block, the connected
    component of the pattern of M + M* that holds it.

    Vectorized hooking with a full pointer-jumping shortcut (Shiloach and
    Vishkin 1982).  The first round points each row at its first neighbour
    or itself, read off the dense pattern, which settles a dense matrix
    without listing its edges.  Each later round (:func:`_hooked`) hooks,
    for every edge that still joins two trees, the larger of their roots onto
    the smaller, and jumps every pointer to its root.  Pointers only decrease,
    so each root is its tree's first row, and each round removes a root.
    """
    n = M.shape[0]
    pattern = M != 0
    pattern |= pattern.T
    first = pattern.argmax(axis=1)
    index = np.arange(n)
    parent = np.where(pattern[index, first], np.minimum(first, index), index)
    return _hooked(parent, *np.nonzero(pattern)) if parent.any() else parent


def _hooked(parent, rows, cols):
    """The forest parent (parent[i] <= i) with the trees that edges (rows, cols) join merged."""
    while True:
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        pu, pv = parent[rows], parent[cols]
        joins = pu != pv
        if not joins.any():
            return parent
        rows, cols, pu, pv = rows[joins], cols[joins], pu[joins], pv[joins]
        parent[np.maximum(pu, pv)] = np.minimum(pu, pv)


def cholesky(M, error, message):
    """Lower factor L with M = L L* of a self-adjoint M.

    Raises error(message) unless M is positive definite, which is decided
    by the pivots of the factorization itself.  Reads the lower triangle.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise error(message) from None


def null_basis(M):
    """Orthonormal basis of the null space of M (columns; may be empty), real when M is."""
    M = np.atleast_2d(np.asarray(M))
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=np.result_type(M, float))
    _, sv, vh = np.linalg.svd(M)
    return vh[_rank(sv):].conj().T


def rank_floor(scale):
    """SUBSPACE_TOL * max(1, scale): the rank cut for values whose largest is scale."""
    return SUBSPACE_TOL * (scale if scale > 1.0 else 1.0)


def _rank(sv):
    """Count of the singular values sv (descending) above rank_floor(sv[0])."""
    if not sv.size:
        return 0
    return int(np.count_nonzero(sv > rank_floor(sv[0])))


def largest_invariant_in(M, ops, labels=None):
    """Largest subspace of ker M mapped into itself by every op in ops.

    M is an annihilator (k x n, any k >= 0), not a basis of the subspace.
    Computed as a complement: the subspace is the orthogonal complement of
    the smallest subspace that contains range(M*) = (ker M)^perp and is
    invariant under every op*.  That subspace is grown by one deflated
    block-Krylov sweep, the orthogonal staircase of Paige (1981,
    "Properties of numerical algorithms related to computing
    controllability", IEEE TAC 26(1)) and Van Dooren (1981, "The
    generalized eigenstructure problem in linear system theory", IEEE TAC
    26(1)).  It starts from a thin SVD of M*, cut by the rank rule of
    :func:`null_basis`; each step maps the newest block through every op*,
    orthogonalizes the images against the basis so far (twice, for
    stability) and keeps the directions above SUBSPACE_TOL times the
    block's own largest singular value, which for a block of one column is
    its 2-norm, taken without an SVD.  Each direction is found once, and the
    work per step is O(n^2) times the block width, so the sweep costs O(n^3)
    for a fixed number of ops.  The basis lives in one preallocated buffer
    of rows: each block is written into its next rows (clipped to the rows
    left) and the images are orthogonalized against the rows filled so far,
    so no step copies the basis.  When the sweep fills all n dimensions the
    result is an empty n x 0 basis, with no n x n factorization; otherwise
    one complement SVD returns it.  The basis is real when M and every op
    are.  This is :func:`largest_invariants_in` of the one problem, so with
    labels it is swept by subsystem.
    """
    return largest_invariants_in([(M, ops)], labels)[0]


def largest_invariants_in(problems, labels=None):
    """[largest_invariant_in(M, ops) for M, ops in problems], by one staircase.

    With the labels of blocks that every op is block diagonal under
    (:func:`find_blocks`), each problem is cut into its decoupled subsystems
    (:func:`_subsystems`), else it is one, and the subsystems of every
    problem are swept together.  Those of one size, count of rows of M,
    dtype and op count make one :class:`_Lockstep` stack: one stacked
    product, two stacked Gram-Schmidt passes and one rank decision per
    member per step.  A member whose width differs from its stack's goes on
    in a stack of its own, and a member that finds no new direction, or
    fills its states, is done.  Every decision is that of the unsplit sweep:
    a start is cut relative to the largest singular value of its problem's
    whole M, and a step relative to the largest singular value of its
    problem's whole step block, the largest over the problem's subsystems at
    that step.  In exact arithmetic this is a rearrangement of the staircase
    of each problem taken whole; the basis spans the same subspace, though
    not with the same columns.
    """
    problems = [(np.atleast_2d(np.asarray(M)), [np.asarray(op) for op in ops])
                for M, ops in problems]
    dtypes = [np.result_type(float, M, *ops) for M, ops in problems]
    members, spare = _subsystems(problems, labels)
    key = lambda m: (len(m[1]), len(m[2]), dtypes[m[0]], len(problems[m[0]][1]))
    groups = {}
    for member in members:
        groups.setdefault(key(member), []).append(member)
    active = [_Lockstep.of(group, problems, dtypes[group[0][0]]) for group in groups.values()]
    done = []
    while active:
        steps, top = [stack.step() for stack in active], [0.0] * len(problems)
        # the decisions of a step, on a handful of numbers per member, are
        # read in Python: numpy's per-call cost would exceed the arithmetic
        for stack, (sv, _) in zip(active, steps):
            for p, largest in zip(stack.problem, sv[:, 0].tolist()):
                top[p] = max(top[p], largest)
        # each cut is relative to the problem's whole M or step block, not to
        # ||op||: after deflation the images of a stiff op can be small yet new
        floor = [rank_floor(largest) for largest in top]
        going = []
        for stack, (sv, new) in zip(active, steps):
            size = stack.V.shape[1]
            ranks = [min(sum(value > floor[p] for value in values), size - stack.k)
                     for p, values in zip(stack.problem, sv.tolist())]
            for sel, r, part in stack.split(ranks):
                part.extend(new[sel], sv[sel], r)
                (going if r and part.k < size else done).append(part)
        active = going
    # per problem: the states that lie in the result whole, and the
    # (states, complement) of each swept subsystem that kept some
    whole, pieces = [[states] for states in spare], [[] for _ in problems]
    for stack in done:
        size, k = stack.V.shape[1], stack.k
        if not k:
            for p, states in zip(stack.problem, stack.states):
                whole[p].append(states)
        elif k < size:
            # the basis rows are orthonormal, so their rank is k
            comp = np.linalg.svd(stack.V[:, :k].conj())[2][:, k:].conj().swapaxes(1, 2)
            for p, states, c in zip(stack.problem, stack.states, comp):
                pieces[p].append((states, c))
    bases = []
    for (M, _), dtype, states, swept in zip(problems, dtypes, whole, pieces):
        states = np.concatenate(states)
        X = np.zeros((M.shape[1], sum(c.shape[1] for _, c in swept) + len(states)), dtype=dtype)
        col = 0
        for rows, c in swept:
            X[rows, col:col + c.shape[1]] = c
            col += c.shape[1]
        X[states, col + np.arange(len(states))] = 1.0
        bases.append(X)
    return bases


def _subsystems(problems, labels):
    """(members, spare): the subsystems (problem, states, rows) of the (M, ops)
    problems, and per problem the states in none of them.

    With the labels of the ops' blocks, a problem is cut into the connected
    components of its bordered pattern [[op, M*], [M, 0]] (:func:`bordered`).
    A component that holds a row of M is a subsystem, with its states and
    its rows of M.  The states of a component with none are spare: they span
    a subspace of ker M invariant under every op, so they lie in the result
    whole.  Without labels a problem is one subsystem of all its states and
    rows, or all spare when M has no rows.
    """
    members, spare = [], []
    for p, (M, ops) in enumerate(problems):
        k, n = M.shape
        if labels is None:
            if k and n:
                members.append((p, np.arange(n), np.arange(k)))
            spare.append(np.arange(0 if k else n))
            continue
        states, rows = np.split(bordered(labels, M), [n])
        held = np.zeros(n + k, dtype=bool)
        held[rows] = True
        for label in np.flatnonzero(held):
            at = np.flatnonzero(states == label)
            if at.size:  # not a zero row of M, which is a component of its own
                members.append((p, at, np.flatnonzero(rows == label)))
        spare.append(np.flatnonzero(~held[states]))
    return members, spare


class _Lockstep:
    """Subsystems of one size and basis width, swept in lockstep.

    Member i is the subsystem on states[i] of problem problem[i].  V[i]
    holds its basis as rows, the first k filled and the newest block from
    row lo.  start stacks the members' rows of conj(M), whose span the basis
    starts from, and each entry of ops stacks the members' conj(op), so the
    rows of the op* images of a block are block @ conj(op).
    """

    def __init__(self, problem, states, start, ops, V, lo=0, k=0):
        self.problem, self.states, self.start, self.ops, self.V = problem, states, start, ops, V
        self.lo, self.k = lo, k

    @classmethod
    def of(cls, group, problems, dtype):
        """The stack of the subsystems (p, states, rows) of group, each of problems[p]."""
        size = len(group[0][1])
        start = np.stack([problems[p][0][rows[:, None], states] for p, states, rows in group])
        ops = [np.stack([problems[p][1][j][states[:, None], states] for p, states, _ in group])
               for j in range(len(problems[group[0][0]][1]))]
        return cls([p for p, _, _ in group], np.stack([states for _, states, _ in group]),
                   start.conj(), [G.conj() for G in ops], np.empty((len(group), size, size), dtype))

    def step(self):
        """(sv, new): the singular values of each member's next block, and
        the rows that span it.  The first block is the start, taken by a
        thin SVD; each later one is the images of the newest block,
        deflated against the basis, and a block of one row is its own span,
        with its 2-norm for its one singular value."""
        if not self.k:
            return np.linalg.svd(self.start, full_matrices=False)[1:]
        block = self.V[:, self.lo:self.k]
        W = (block @ self.ops[0] if len(self.ops) == 1
             else np.concatenate([block @ G for G in self.ops], axis=1))
        B = self.V[:, :self.k]
        Bh = B.conj().swapaxes(1, 2)
        for _ in range(2):
            W -= (W @ Bh) @ B
        if W.shape[1] == 1:
            return np.sqrt((W @ W.conj().swapaxes(1, 2)).real[:, :, 0]), W
        return np.linalg.svd(W, full_matrices=False)[1:]

    def split(self, ranks):
        """(sel, rank, stack) for each rank of the members' ranks: the
        members of that rank (an index), and this stack when every member
        has one rank, else a stack of their own."""
        if len(set(ranks)) == 1:
            return [(slice(None), ranks[0], self)]
        parts = []
        for r in sorted(set(ranks)):
            sel = [i for i, rank in enumerate(ranks) if rank == r]
            parts.append((sel, r, _Lockstep([self.problem[i] for i in sel], self.states[sel],
                                            self.start[sel], [G[sel] for G in self.ops],
                                            self.V[sel], self.lo, self.k)))
        return parts

    def extend(self, new, sv, r):
        """Append the first r rows of each member's block new from
        :meth:`step`, whose singular values are sv: the unit rows of an SVD,
        or after the start a block of one row, normalized here, once its
        norm has passed the rank cut."""
        if not r:
            return
        if self.k and new.shape[1] == 1:
            new = new / sv[:, :, None]
        self.lo, self.k = self.k, self.k + r
        self.V[:, self.lo:self.k] = new[:, :r]


#: coefficients b_0..b_13 of the degree-13 Pade approximant to e^x, and the
#: 1-norm up to which it is accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A):
    """Matrix exponential e^A by scaling and squaring.

    One fixed degree-13 Pade approximant r(X) = (V - U)^-1 (V + U) at
    X = A / 2^s, with s the least power that brings ||X||_1 down to
    theta_13, squared s times (Higham 2005, "The scaling and squaring
    method for the matrix exponential revisited", SIAM J. Matrix Anal.
    Appl. 26).  A non-finite A gives an all-NaN result.  A real A
    (integers included) gives a float64 result, a complex A a complex one.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A, float), copy=False)
    norm = np.linalg.norm(A, 1) if A.size else 0.0
    if not np.isfinite(norm):
        return np.full(A.shape, np.nan, dtype=A.dtype)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    X = A / 2.0**s
    b = _PADE13
    eye = np.eye(A.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def simpson(y, x):
    """Composite Simpson integral over x of y, which has one row per point of x.

    x must be uniform with an even number of panels: weights h/3 (1, 4, 2, 4, ..., 4, 1).
    """
    x = np.asarray(x, dtype=float)
    panels = x.size - 1
    if panels < 2 or panels % 2 or np.shape(y)[:1] != (x.size,):
        raise DimensionMismatch(f"Simpson needs an even panel count and one row of y per point, "
                                f"got {panels} panels and y of shape {np.shape(y)}")
    w = np.full(x.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.tensordot(w * ((x[-1] - x[0]) / (3 * panels)), y, axes=1)
