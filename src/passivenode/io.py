"""JSON serialization for nodes, discrete systems and second-order plants.

A matrix is a list of rows.  Every document writes a float64 matrix as rows
of plain numbers and any other as rows of [re, im] pairs (matrix_to_json).
The rule is the dtype, never the values: linalg.as_matrix has stored every
matrix of a node, discrete system or plant as float64 exactly when all its
imaginary parts are +0.0 bit for bit, and a complex128 result whose
imaginary parts happen to be +0.0 is still written as pairs.  The reader
takes either form; the first entry of a matrix decides which.  Output is
canonical: keys sorted, floats written as Python's shortest round-trip repr
(0.0, -0.0, 0.1), so every value reads back bit-exactly and what save
writes is a fixed point of load/save.
"""

import json
from itertools import chain

import numpy as np

from . import linalg
from .cayley import DiscreteSystem
from .errors import ParseError, SchemaError, file_errors
from .node import StateSpaceNode, check_states
from .second_order import SecondOrderPlant


def dumps_canonical(obj):
    """Canonical JSON text of obj: sorted keys, shortest round-trip floats."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise SchemaError("non-finite value cannot be serialized") from None
    except TypeError as exc:
        raise SchemaError(f"cannot serialize: {exc}") from None


def matrix_to_json(M):
    """Matrix -> rows of numbers when it is float64, else rows of [re, im] pairs."""
    M = np.atleast_2d(np.asarray(M))
    if M.dtype == np.float64:
        return M.tolist()
    M = M.astype(complex, copy=False)
    return np.stack([M.real, M.imag], -1).tolist()


def _is_real(v):
    """A JSON number; true/false are not numbers even though bool is an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_is_real, v))


def _complex(re, im, name):
    """complex(re, im) of JSON numbers; an integer beyond the float range is a SchemaError."""
    try:
        return complex(re, im)
    except OverflowError:
        raise SchemaError(f"{name} holds an integer too large for a float") from None


def _reject(data, name, real):
    """Raise the SchemaError naming the first fault of a matrix that
    matrix_from_json could not build; real is the form of its first entry."""
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{name} must be a non-empty list of rows")
    is_entry, is_other, form = ((_is_real, _is_pair, "a number") if real
                                else (_is_pair, _is_real, "an [re, im] pair"))
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise SchemaError(f"{name} row {i} is not a list")
        if len(row) != len(data[0]):
            raise SchemaError(f"{name} has ragged rows")
        for j, v in enumerate(row):
            where = f"{name}[{i}][{j}]"
            if is_other(v):
                raise SchemaError(f"{name} mixes numbers and [re, im] pairs "
                                  f"({name}[0][0] is {form}, {where} is not)")
            if not is_entry(v):
                raise SchemaError(f"{where} is not {form}")
            _complex(*((v, 0) if real else v), where)
    raise SchemaError(f"{name} holds a number whose type is not int or float")


def _is_rows(data):
    """Whether data is written as rows of numbers: its first entry is a number
    (or its first row is empty).  Otherwise it is read as [re, im] pairs."""
    first = data[0] if isinstance(data, list) and data else None
    return isinstance(first, list) and (not first or _is_real(first[0]))


def _parse(data, real):
    """data as a float array by one np.array call, or None: (rows, cols) for
    rows of numbers, (rows, cols, 2) for rows of [re, im] pairs.

    The numbers are gated to int and float first, because numpy would
    convert booleans and numeric strings.
    """
    try:
        entries = chain.from_iterable(data)
        if set(map(type, entries if real else chain.from_iterable(entries))) <= {int, float}:
            M = np.array(data, dtype=float)
            if (M.ndim == 2) if real else (M.ndim == 3 and M.shape[2] == 2):
                return M
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def matrix_from_json(data, name, rows=None, cols=None):
    """Rows of numbers or rows of [re, im] pairs -> matrix, with shape validation.

    Rows of numbers give a float64 matrix; rows of pairs give a complex view
    of the float pairs, so every bit is kept, -0.0 included.  [] is accepted
    only when rows = 0 (a 0 x cols matrix).
    """
    if rows == 0 and isinstance(data, list) and not data:
        return np.zeros((0, cols or 0))
    real = _is_rows(data)
    M = _parse(data, real)
    if M is None:
        _reject(data, name, real)
    if not real:
        M = M.view(complex)[..., 0]
    if rows is not None and M.shape[0] != rows:
        raise SchemaError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise SchemaError(f"{name} must have {cols} columns, got {M.shape[1]}")
    return M


def vector_from_json(data, name, length):
    """List of numbers or of [re, im] pairs -> vector of the given length.

    Read as the one row of a matrix (matrix_from_json), so a list that
    mixes the two forms is a SchemaError, and stored by
    linalg.real_or_complex: float64 when every imaginary part is +0.0
    (plain numbers give one), complex128 otherwise.
    """
    if not isinstance(data, list):
        raise SchemaError(f"{name} must be a JSON list")
    return linalg.real_or_complex(matrix_from_json([data], name, rows=1, cols=length)[0])


def _require(d, what, keys):
    if not isinstance(d, dict):
        raise SchemaError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in d:
            raise SchemaError(f"missing required key {key!r}")


def _size(d, key):
    """The integer d[key]; a boolean or a negative number is rejected."""
    if isinstance(d[key], bool) or not isinstance(d[key], int) or d[key] < 0:
        raise SchemaError(f"{key!r} must be a nonnegative integer")
    return d[key]


def _quadruple_to_dict(suffix, A, B, C, D):
    """n, m, p and the matrices A, B, C, D under the keys "A" + suffix, ...:
    the schema that node ("") and discrete ("d") documents share."""
    d = {"n": A.shape[0], "m": B.shape[1], "p": C.shape[0]}
    d.update((key + suffix, matrix_to_json(M)) for key, M in zip("ABCD", (A, B, C, D)))
    return d


def _quadruple_from_dict(d, what, suffix, extra=()):
    """The four matrices of _quadruple_to_dict, read as n x n, n x m, p x n and p x m.

    An n above node.MAX_STATES is refused (DimensionMismatch) before any
    matrix is built.
    """
    keys = [key + suffix for key in "ABCD"]
    _require(d, what, ("n", "m", "p", *keys, *extra))
    n, m, p = (_size(d, key) for key in "nmp")
    check_states(n)
    return [matrix_from_json(d[key], key, rows=rows, cols=cols)
            for key, (rows, cols) in zip(keys, ((n, n), (n, m), (p, n), (p, m)))]


def node_to_dict(node):
    d = _quadruple_to_dict("", node.A, node.B, node.C, node.D)
    if not node.is_identity_weight:
        d["W"] = matrix_to_json(node.W)
    if node.meta:
        d["meta"] = node.meta
    return d


def node_from_dict(d):
    A, B, C, D = _quadruple_from_dict(d, "node", "")
    W = matrix_from_json(d["W"], "W", rows=A.shape[0], cols=A.shape[0]) if "W" in d else None
    meta = d.get("meta", "")
    if not isinstance(meta, str):
        raise SchemaError("'meta' must be a string")
    return StateSpaceNode(A, B, C, D, W=W, meta=meta)


def discrete_to_dict(disc):
    d = _quadruple_to_dict("d", disc.Ad, disc.Bd, disc.Cd, disc.Dd)
    d["alpha"] = [disc.alpha.real, disc.alpha.imag]
    return d


def discrete_from_dict(d):
    matrices = _quadruple_from_dict(d, "discrete", "d", ("alpha",))
    alpha = d["alpha"]
    if not _is_pair(alpha):
        raise SchemaError("'alpha' must be an [re, im] pair")
    return DiscreteSystem(*matrices, alpha=_complex(alpha[0], alpha[1], "'alpha'"))


def plant_to_dict(plant):
    d = {
        "A0": matrix_to_json(plant.A0),
        "M": matrix_to_json(plant.M),
        "C0": matrix_to_json(plant.C0),
    }
    if plant.B0 is not None:
        d["B0"] = matrix_to_json(plant.B0)
        d["m"] = plant.B0.shape[1]
    if plant.C1 is not None:
        d["C1"] = matrix_to_json(plant.C1)
    return d


def _rows(data):
    return len(data) if isinstance(data, list) else None


def plant_from_dict(d):
    """Plant document -> SecondOrderPlant; each matrix is read with the shape it must have.

    n0 is the row count of A0 (0 for []).  A0 and M are n0 x n0, C0 and C1
    have n0 columns, and B0 is n0 x m (m x n0 is a SchemaError naming B0).
    A matrix with no rows is [] in a document, so a document with B0 records
    m, its column count; one without "m" takes B0's columns as written (0
    for []).  A plant whose node would have n = 2 n0 above node.MAX_STATES is
    refused (DimensionMismatch) before any matrix is built.
    """
    _require(d, "plant", ("A0", "M", "C0"))
    n0 = _rows(d["A0"])
    check_states(2 * (n0 or 0))  # n0 is None when A0 is not a list: read as a SchemaError
    m = _size(d, "m") if "m" in d else None

    def read(key, rows, cols=None):
        return matrix_from_json(d[key], key, rows=rows, cols=cols) if key in d else None

    return SecondOrderPlant(A0=read("A0", n0, n0), M=read("M", _rows(d["M"]), n0),
                            C0=read("C0", _rows(d["C0"]), n0), B0=read("B0", n0, m),
                            C1=read("C1", _rows(d.get("C1")), n0))


def _load_json(path):
    try:
        with file_errors(path), open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # a JSONDecodeError or UnicodeDecodeError is a ValueError; nesting too
    # deep for the decoder is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def write_text(path, text):
    """Write text to path as UTF-8; ParseError when the file cannot be written."""
    with file_errors(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_matrix(path, name="matrix"):
    """Matrix file -> read-only matrix, checked and stored by linalg.as_matrix."""
    return linalg.as_matrix(matrix_from_json(_load_json(path), name), name)


def load_node(path):
    return node_from_dict(_load_json(path))


def save_node(node, path):
    write_text(path, dumps_canonical(node_to_dict(node)))


def load_discrete(path):
    return discrete_from_dict(_load_json(path))


def load_plant(path):
    return plant_from_dict(_load_json(path))


def save_plant(plant, path):
    write_text(path, dumps_canonical(plant_to_dict(plant)))
