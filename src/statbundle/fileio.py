"""JSON input schemas and CSV output writers for the command-line tools.

Inputs are hand-editable JSON:

* space:    {"weights": [...]}
* density:  {"space": {"weights": [...]}, "values": [...]}
* joint:    {"left": space, "right": space, "values": [[...], ...]}
* family:   {"left": space, "right": space, "base1": [...], "base2": [...],
             "stats": [[[...], ...], ...]}
* velocity: {"values": [[...], ...]}  (a fiber vector at a given joint)

Outputs are CSV with every float printed to 17 significant digits, which
round-trips float64 exactly, so reruns with identical configuration are
byte-identical and diffable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Density,
    FiberVector,
    ProductSpace,
    SampleSpace,
    StatBundleError,
    make_space,
)
from .expfam import ExpFamily, make_expfam
from .verify import Report


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise StatBundleError(f"{path}: expected a JSON object at top level")
    return obj


def _require(obj: dict, key: str, path) -> object:
    if key not in obj:
        raise StatBundleError(f"{path}: missing required key {key!r}")
    return obj[key]


def _space_from(obj: object, path) -> SampleSpace:
    if not isinstance(obj, dict) or "weights" not in obj:
        raise StatBundleError(f'{path}: a space must be {{"weights": [...]}}')
    return make_space(obj["weights"])


def load_space(path) -> SampleSpace:
    return _space_from(_load_json(path), path)


def load_density(path) -> Density:
    obj = _load_json(path)
    space = _space_from(_require(obj, "space", path), path)
    return Density(space, np.asarray(_require(obj, "values", path), dtype=float))


def load_joint(path) -> Density:
    obj = _load_json(path)
    space = ProductSpace(
        _space_from(_require(obj, "left", path), path),
        _space_from(_require(obj, "right", path), path),
    )
    values = np.asarray(_require(obj, "values", path), dtype=float)
    return Density(space, values)


def load_velocity(path, joint: Density) -> FiberVector:
    obj = _load_json(path)
    values = np.asarray(_require(obj, "values", path), dtype=float)
    return FiberVector(joint, values, "mixture")


def load_family(path) -> ExpFamily:
    obj = _load_json(path)
    left = _space_from(_require(obj, "left", path), path)
    right = _space_from(_require(obj, "right", path), path)
    base1 = Density(left, np.asarray(_require(obj, "base1", path), dtype=float))
    base2 = Density(right, np.asarray(_require(obj, "base2", path), dtype=float))
    stats = np.asarray(_require(obj, "stats", path), dtype=float)
    return make_expfam(base1, base2, stats)


def write_json(path, obj: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_marginal_csv(path, q1: Density) -> None:
    rows = [
        (x, q1.space.weights[x], q1.values[x]) for x in range(q1.space.size)
    ]
    write_csv(path, ("x", "weight", "value"), rows)


def write_kl_chain_csv(path, chain) -> None:
    write_csv(
        path,
        ("total", "marginal_term", "conditional_term", "residual"),
        [(chain.total, chain.marginal_term, chain.conditional_term, chain.residual)],
    )


def write_vector_csv(path, name: str, values: np.ndarray) -> None:
    write_csv(path, ("x", name), list(enumerate(values)))


def write_table_csv(path, name: str, table: np.ndarray) -> None:
    rows = []
    for x in range(table.shape[0]):
        for y in range(table.shape[1]):
            rows.append((x, y, table[x, y]))
    write_csv(path, ("x", "y", name), rows)


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
    write_csv(path, header, rows)


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
    write_csv(path, header, [row])


def write_report_csv(path, report: Report) -> None:
    rows = [
        (c.name, c.instances, c.max_residual, c.threshold,
         "PASS" if c.passed else "FAIL")
        for c in report.checks
    ]
    write_csv(
        path, ("check", "instances", "max_residual", "threshold", "status"), rows
    )
