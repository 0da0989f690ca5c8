"""JSON input schemas and CSV output writers for the command-line tools.

Inputs are hand-editable JSON:

* space:    {"weights": [...]}
* density:  {"space": {"weights": [...]}, "values": [...]}
* joint:    {"left": space, "right": space, "values": [[...], ...]}
* family:   {"left": space, "right": space, "base1": [...], "base2": [...],
             "stats": [[[...], ...], ...]}
* velocity: {"values": [[...], ...]}  (a fiber vector at a given joint)

A file that is not valid JSON, or an array that is ragged or holds
anything but JSON numbers (a string such as ``"0.4"``, a boolean, null),
is a :class:`StatBundleError` naming the file and the key.  Every other
error in a file's content, such as a shape that does not match, names the
file.

Outputs are CSV with every float printed to 17 significant digits, which
round-trips float64 exactly, so reruns with identical configuration are
byte-identical and diffable.  The writers take whole columns.
:func:`write_csv` builds one row format from a printf conversion per column
(``%.17g`` for floats, ``%d`` for integers, ``%s`` for strings) and formats
each block of a fixed number of rows with a single ``%`` over the block's
cells, so the strings of only one block are held at a time.  The bytes are
those of formatting each cell with ``format(x, ".17g")`` or ``str``; a string
cell is an argument of the format, so a ``%`` in it is written as it is.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    Density,
    FiberVector,
    ProductSpace,
    StatBundleError,
    _frozen,
    make_space,
)
from .expfam import ExpFamily, make_expfam

# Rows formatted and written per block: bounds the strings held at once.
_BLOCK_ROWS = 4096


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise StatBundleError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise StatBundleError(f"{path}: expected a JSON object at top level")
    return obj


def _require(obj: dict, key: str, path) -> object:
    if key not in obj:
        raise StatBundleError(f"{path}: missing required key {key!r}")
    return obj[key]


def _numbers_only(obj) -> bool:
    """True if every leaf of nested JSON lists is a JSON number.

    ``np.asarray(..., dtype=float)`` would read ``"0.4"`` as 0.4, ``true``
    as 1.0 and ``null`` as nan, so those are rejected here.  A list beside
    numbers raises ``ValueError``: the nesting is not rectangular.
    """
    if type(obj) is list:
        if obj and type(obj[0]) is not list:
            kinds = {*map(type, obj)}
            if list in kinds:
                raise ValueError("a list beside numbers: the nesting is ragged")
            return kinds <= {int, float}
        return all(map(_numbers_only, obj))
    return type(obj) is int or type(obj) is float


def _floats(obj: dict, key: str, path) -> np.ndarray:
    """``obj[key]`` as a float array, or an error naming the file and key."""
    raw = _require(obj, key, path)
    try:
        if _numbers_only(raw):
            return _frozen(np.asarray(raw, dtype=float))
        problem = "found a string, boolean, null or object"
    except (ValueError, OverflowError) as exc:  # ragged, or an int too large
        problem = str(exc)
    raise StatBundleError(
        f"{path}: key {key!r} must be a rectangular array of numbers ({problem})"
    )


def _weights(obj: dict, key: str, path) -> np.ndarray:
    """The weights of the space ``obj[key]``, read as :func:`_floats` reads."""
    space = _require(obj, key, path)
    if not isinstance(space, dict) or "weights" not in space:
        raise StatBundleError(f'{path}: a space must be {{"weights": [...]}}')
    return _floats(space, "weights", path)


@contextmanager
def _from_file(path):
    """Name ``path`` in a :class:`StatBundleError`, of the same class, that
    building objects from the file's arrays raises.  The arrays are read
    before, so that an error of :func:`_floats` is not named twice."""
    try:
        yield
    except StatBundleError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_density(path) -> Density:
    obj = _load_json(path)
    weights, values = _weights(obj, "space", path), _floats(obj, "values", path)
    with _from_file(path):
        return Density(make_space(weights), values)


def load_joint(path) -> Density:
    obj = _load_json(path)
    left, right = _weights(obj, "left", path), _weights(obj, "right", path)
    values = _floats(obj, "values", path)
    with _from_file(path):
        return Density(ProductSpace(make_space(left), make_space(right)), values)


def load_velocity(path, joint: Density) -> FiberVector:
    values = _floats(_load_json(path), "values", path)
    with _from_file(path):
        return FiberVector(joint, values, "mixture")


def load_family(path) -> ExpFamily:
    obj = _load_json(path)
    left, right = _weights(obj, "left", path), _weights(obj, "right", path)
    base1, base2 = _floats(obj, "base1", path), _floats(obj, "base2", path)
    stats = _floats(obj, "stats", path)
    with _from_file(path):
        p1 = Density(make_space(left), base1)
        p2 = Density(make_space(right), base2)
        return make_expfam(p1, p2, stats)


def write_json(path, obj: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The printf conversion of each column dtype kind: floats to 17 significant
# digits (the bytes of ``format(x, ".17g")``), integers as ``str`` gives them,
# strings as they are.
_CONVERSIONS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write one CSV column per header name; the columns have equal length."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.shape != (rows,) for c in columns):
        raise ValueError("write_csv needs one 1-d column per header name, "
                         "all of the same length")
    for c in columns:
        if c.dtype.kind not in _CONVERSIONS:
            raise TypeError(f"cannot write a CSV column of dtype {c.dtype}")
    line = ",".join(_CONVERSIONS[c.dtype.kind] for c in columns) + "\n"
    width = len(columns)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            k = min(_BLOCK_ROWS, rows - start)
            # The block's cells row by row, as arguments of one format: a
            # "%" in a string cell is an argument, never part of the format.
            args = [None] * (k * width)
            for j, c in enumerate(columns):
                args[j::width] = c[start:start + k].tolist()
            fh.write((line * k) % tuple(args))


def _columns(rows: Sequence[Sequence], width: int) -> list:
    """The columns of a few rows, for the writers that build rows."""
    return list(zip(*rows)) or [()] * width


def write_marginal_csv(path, q1: Density) -> None:
    write_csv(
        path,
        ("x", "weight", "value"),
        (np.arange(q1.space.size), q1.space.weights, q1.values),
    )


def write_kl_chain_csv(path, chain) -> None:
    write_csv(
        path,
        ("total", "marginal_term", "conditional_term", "residual"),
        _columns([(chain.total, chain.marginal_term, chain.conditional_term,
                   chain.residual)], 4),
    )


def write_vector_csv(path, name: str, values: np.ndarray) -> None:
    write_csv(path, ("x", name), (np.arange(len(values)), values))


def write_table_csv(path, name: str, table: np.ndarray) -> None:
    n1, n2 = table.shape
    write_csv(
        path,
        ("x", "y", name),
        (np.repeat(np.arange(n1), n2), np.tile(np.arange(n2), n1), table.ravel()),
    )


def write_trace_csv(path, trace) -> None:
    dim = trace.records[0].theta.size
    header = (
        ["iteration"]
        + [f"theta_{j}" for j in range(dim)]
        + ["objective", "grad_norm", "step"]
    )
    rows = [
        [rec.iteration, *rec.theta, rec.objective, rec.grad_norm, rec.step]
        for rec in trace.records
    ]
    write_csv(path, header, _columns(rows, len(header)))


def write_flow_summary_csv(path, trace) -> None:
    final = trace.final
    header = (
        ["converged", "iterations", "objective", "grad_norm"]
        + [f"theta_{j}" for j in range(final.theta.size)]
    )
    row = [
        "true" if trace.converged else "false",
        final.iteration,
        final.objective,
        final.grad_norm,
        *final.theta,
    ]
    write_csv(path, header, _columns([row], len(header)))


def write_report_csv(path, report) -> None:
    rows = [
        (c.name, c.instances, c.max_residual, c.threshold,
         "PASS" if c.passed else "FAIL")
        for c in report.checks
    ]
    write_csv(
        path,
        ("check", "instances", "max_residual", "threshold", "status"),
        _columns(rows, 5),
    )
