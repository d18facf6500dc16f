"""JSON serialization for nodes, discrete systems and second-order plants.

Complex matrices are stored as nested lists of [re, im] pairs.  Output is
canonical: keys sorted, floats printed with 17 significant digits so a
load/save roundtrip is bit-stable.
"""

import json

import numpy as np

from . import linalg
from .cayley import DiscreteSystem
from .errors import ParseError, SchemaError
from .node import StateSpaceNode
from .second_order import SecondOrderPlant


def _fmt_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise SchemaError("non-finite value cannot be serialized")
    return f"{x:.17g}"


def _canonical(obj):
    """Render obj to canonical JSON text (sorted keys, 17-digit floats)."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {_canonical(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj):
    return _canonical(obj) + "\n"


def matrix_to_json(M):
    """Complex matrix -> nested [[ [re, im], ... ], ...] lists."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


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


def matrix_from_json(data, name, rows=None, cols=None):
    """Nested [re, im] lists -> complex matrix, with shape validation.

    [] is accepted only when rows = 0 (a 0 x cols matrix).
    """
    if not isinstance(data, list) or not (data or rows == 0):
        raise SchemaError(f"{name} must be a non-empty list of rows")
    width = None
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise SchemaError(f"{name} row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{name} has ragged rows")
        vals = []
        for j, entry in enumerate(row):
            if not _is_pair(entry):
                raise SchemaError(f"{name}[{i}][{j}] is not an [re, im] pair")
            vals.append(_complex(entry[0], entry[1], f"{name}[{i}][{j}]"))
        out.append(vals)
    M = np.array(out, dtype=complex) if out else np.zeros((0, cols or 0), dtype=complex)
    if rows is not None and M.shape[0] != rows:
        raise SchemaError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise SchemaError(f"{name} must have {cols} columns, got {M.shape[1]}")
    return M


def vector_from_json(data, name, length):
    """List of numbers or [re, im] pairs -> complex vector of the given length."""
    if not isinstance(data, list):
        raise SchemaError(f"{name} must be a JSON list")
    vals = []
    for v in data:
        if _is_pair(v):
            vals.append(_complex(v[0], v[1], name))
        elif _is_real(v):
            vals.append(_complex(v, 0, name))
        else:
            raise SchemaError(f"{name} entries must be numbers or [re, im] pairs")
    if len(vals) != length:
        raise SchemaError(f"{name} must have {length} entries")
    return np.asarray(vals, dtype=complex)


def _require(d, what, keys):
    if not isinstance(d, dict):
        raise SchemaError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in d:
            raise SchemaError(f"missing required key {key!r}")


def _dimensions(d):
    """The integers d["n"], d["m"], d["p"]; booleans are rejected."""
    for key in ("n", "m", "p"):
        if isinstance(d[key], bool) or not isinstance(d[key], int) or d[key] < 0:
            raise SchemaError(f"{key!r} must be a nonnegative integer")
    return d["n"], d["m"], d["p"]


def node_to_dict(node):
    d = {
        "n": node.n,
        "m": node.m,
        "p": node.p,
        "A": matrix_to_json(node.A),
        "B": matrix_to_json(node.B),
        "C": matrix_to_json(node.C),
        "D": matrix_to_json(node.D),
    }
    if not node.is_identity_weight:
        d["W"] = matrix_to_json(node.W)
    if node.meta:
        d["meta"] = node.meta
    return d


def node_from_dict(d):
    _require(d, "node", ("n", "m", "p", "A", "B", "C", "D"))
    n, m, p = _dimensions(d)
    A = matrix_from_json(d["A"], "A", rows=n, cols=n)
    B = matrix_from_json(d["B"], "B", rows=n, cols=m)
    C = matrix_from_json(d["C"], "C", rows=p, cols=n)
    D = matrix_from_json(d["D"], "D", rows=p, cols=m)
    W = matrix_from_json(d["W"], "W", rows=n, cols=n) if "W" in d else None
    meta = d.get("meta", "")
    if not isinstance(meta, str):
        raise SchemaError("'meta' must be a string")
    return StateSpaceNode(A, B, C, D, W=W, meta=meta)


def discrete_to_dict(disc):
    return {
        "n": disc.n,
        "m": disc.m,
        "p": disc.p,
        "Ad": matrix_to_json(disc.Ad),
        "Bd": matrix_to_json(disc.Bd),
        "Cd": matrix_to_json(disc.Cd),
        "Dd": matrix_to_json(disc.Dd),
        "alpha": [disc.alpha.real, disc.alpha.imag],
    }


def discrete_from_dict(d):
    _require(d, "discrete", ("n", "m", "p", "Ad", "Bd", "Cd", "Dd", "alpha"))
    n, m, p = _dimensions(d)
    alpha = d["alpha"]
    if not _is_pair(alpha):
        raise SchemaError("'alpha' must be an [re, im] pair")
    return DiscreteSystem(
        Ad=matrix_from_json(d["Ad"], "Ad", rows=n, cols=n),
        Bd=matrix_from_json(d["Bd"], "Bd", rows=n, cols=m),
        Cd=matrix_from_json(d["Cd"], "Cd", rows=p, cols=n),
        Dd=matrix_from_json(d["Dd"], "Dd", rows=p, cols=m),
        alpha=_complex(alpha[0], alpha[1], "'alpha'"),
    )


def plant_to_dict(plant):
    d = {
        "A0": matrix_to_json(plant.A0),
        "M": matrix_to_json(plant.M),
        "C0": matrix_to_json(plant.C0),
    }
    if plant.B0 is not None:
        d["B0"] = matrix_to_json(plant.B0)
    if plant.C1 is not None:
        d["C1"] = matrix_to_json(plant.C1)
    return d


def plant_from_dict(d):
    _require(d, "plant", ("A0", "M", "C0"))
    return SecondOrderPlant(
        A0=matrix_from_json(d["A0"], "A0"),
        M=matrix_from_json(d["M"], "M"),
        C0=matrix_from_json(d["C0"], "C0"),
        B0=matrix_from_json(d["B0"], "B0") if "B0" in d else None,
        C1=matrix_from_json(d["C1"], "C1") if "C1" in d else None,
    )


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_matrix(path, name="matrix"):
    """Matrix file -> read-only complex matrix, checked by linalg.as_matrix."""
    return linalg.as_matrix(matrix_from_json(_load_json(path), name), name)


def load_node(path):
    return node_from_dict(_load_json(path))


def save_node(node, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(node_to_dict(node)))


def load_discrete(path):
    return discrete_from_dict(_load_json(path))


def save_discrete(disc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(discrete_to_dict(disc)))


def load_plant(path):
    return plant_from_dict(_load_json(path))


def save_plant(plant, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(plant_to_dict(plant)))
