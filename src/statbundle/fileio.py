"""JSON input schemas and CSV output writers for the command-line tools.

Inputs are hand-editable JSON:

* space:    {"weights": [...]}
* density:  {"space": {"weights": [...]}, "values": [...]}
* joint:    {"left": space, "right": space, "values": [[...], ...]}
* family:   {"left": space, "right": space, "base1": [...], "base2": [...],
             "stats": [[[...], ...], ...]}
* velocity: {"values": [[...], ...]}  (a fiber vector at a given joint)

Each loader loads the file, reads every array in it and only then builds
its objects, all in one ``with _from_file(path)`` block.  An array is read
by :func:`~statbundle.core._float_array`, the rule for every numeric
argument of the library, so one that is ragged or holds anything but
numbers (a string such as ``"0.4"``, a boolean, null) is a
:class:`StatBundleError` naming its key.  Every error raised in the block,
a file that is not valid JSON or a shape that does not match included,
names the file once.

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
    _float_array,
    make_space,
)
from .expfam import ExpFamily, make_expfam

# Rows formatted and written per block: bounds the strings held at once.
_BLOCK_ROWS = 4096


def _require(obj: dict, key: str) -> object:
    if key not in obj:
        raise StatBundleError(f"missing required key {key!r}")
    return obj[key]


def _floats(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` read as every numeric argument is read."""
    return _float_array(_require(obj, key), f"key {key!r}")


def _weights(obj: dict, key: str) -> np.ndarray:
    """The weights of the space ``obj[key]``."""
    space = _require(obj, key)
    if not isinstance(space, dict) or "weights" not in space:
        raise StatBundleError('a space must be {"weights": [...]}')
    return _floats(space, "weights")


@contextmanager
def _from_file(path):
    """The JSON object in ``path``, for a block that reads and builds from
    it.  A :class:`StatBundleError` raised in either is raised again, of the
    same class, naming ``path``: the one place a path enters a message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise StatBundleError(f"not valid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise StatBundleError("expected a JSON object at top level")
        yield obj
    except StatBundleError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_density(path) -> Density:
    with _from_file(path) as obj:
        weights, values = _weights(obj, "space"), _floats(obj, "values")
        return Density(make_space(weights), values)


def load_joint(path) -> Density:
    with _from_file(path) as obj:
        left, right = _weights(obj, "left"), _weights(obj, "right")
        values = _floats(obj, "values")
        return Density(ProductSpace(make_space(left), make_space(right)), values)


def load_velocity(path, joint: Density) -> FiberVector:
    with _from_file(path) as obj:
        return FiberVector(joint, _floats(obj, "values"), "mixture")


def load_family(path) -> ExpFamily:
    with _from_file(path) as obj:
        left, right = _weights(obj, "left"), _weights(obj, "right")
        base1, base2 = _floats(obj, "base1"), _floats(obj, "base2")
        stats = _floats(obj, "stats")
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
