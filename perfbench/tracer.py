"""Span tracer installed around the layers of ``statbundle`` from outside.

The library is not edited.  :meth:`Tracer.install` takes every imported
``statbundle`` submodule as a layer, discovers its public functions at
run time, wraps them, and rebinds every ``statbundle.*`` module attribute
that referred to the original, because the package uses ``from .x import
y`` and a name rebound in one module only would miss the calls made
through the others.  ``Density.__post_init__`` and
``FiberVector.__post_init__`` are wrapped on their classes.

Each span records its name, start, end, parent span and op id in parallel
in-memory lists; :meth:`Tracer.save` writes them when the run ends.  A
span's self time is its duration minus the time its direct children cover,
so the self times of one op's spans sum to the op's root span by
construction.  What can go wrong is a span that escapes its op, is never
closed, or a root span that does not cover the op as timed from outside;
:func:`summarize` refuses those.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Classes whose validating constructors are spans of the core layer.
CONSTRUCTOR_SPANS = {"Density": "core.density_init", "FiberVector": "core.fiber_init"}
# The per-op root span; its own self time belongs to the cli layer, which
# makes cli.self_ms "the op's time not covered by the other layers".
ROOT = "op"
FLOW = "expfam.natural_gradient_flow"


def metric_layer(layer: str) -> str:
    """Layer name as used in metric names, which must start with a letter."""
    return layer.lstrip("_")


def layer_of(span_name: str) -> str:
    return "cli" if span_name == ROOT else span_name.split(".", 1)[0]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (float, int, np.generic)):
        return 8
    return 0


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span store plus the per-op counters taken at span edges."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.span_op: list[int] = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.kernel_bytes: dict[int, int] = defaultdict(int)
        self.io_bytes: dict[tuple[int, str], int] = defaultdict(int)
        self._fileio_depth = 0
        self._plan: list[tuple[object, str, object, object]] | None = None
        self.wrapped: dict[str, str] = {}  # span name -> "module.attr" wrapped
        self.layers: list[str] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root span."""
        self.op = op_id
        idx = self._open(self.name_id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.op = -1

    def _wrap(self, name: str, fn, kind: str):
        nid = self.name_id(name)
        tracer = self

        if kind == "kernel":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                # Computed from argument and result sizes, not measured.
                tracer.kernel_bytes[tracer.op] += sum(map(_nbytes, args)) + _nbytes(out)
                return out
        elif kind in ("read", "write"):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outermost = tracer._fileio_depth == 0
                tracer._fileio_depth += 1
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer._fileio_depth -= 1
                    if outermost and args:
                        tracer.io_bytes[(tracer.op, kind)] += _path_size(args[0])
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every layer's public functions to span wrappers.

        The first call discovers the functions and builds the wrappers; it
        raises if a function stays reachable unwrapped.  Later calls reuse
        them, so ops can alternate between traced and untraced cheaply.
        """
        if self._plan is None:
            self._plan = self._discover()
            self._apply(wrapped=True)
            self._check_complete()
        else:
            self._apply(wrapped=True)

    def uninstall(self) -> None:
        self._apply(wrapped=False)

    def _apply(self, wrapped: bool) -> None:
        for target, attr, original, wrapper in self._plan:
            value = wrapper if wrapped else original
            setattr(target, attr, value)
            if getattr(target, attr) is not value:
                raise RuntimeError(f"could not rebind {target!r}.{attr}")

    def _discover(self) -> list[tuple[object, str, object, object]]:
        plan = []
        # Every submodule of the package is a layer.
        for mod in self._modules():
            if mod.__name__ == "statbundle":
                continue
            layer = mod.__name__.split(".", 1)[1]
            self.layers.append(metric_layer(layer))
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "_kernels":
                    kind = "kernel"
                elif layer == "fileio" and attr.startswith("load"):
                    kind = "read"
                elif layer == "fileio" and attr.startswith("write"):
                    kind = "write"
                else:
                    kind = "plain"
                name = f"{metric_layer(layer)}.{attr}"
                wrapper = self._wrap(name, obj, kind)
                self.wrapped[name] = f"{mod.__name__}.{attr}"
                # Spans are named after the attribute the caller looks up,
                # so `dot3 = dot3_numpy` gives kernels.dot3 spans.
                plan += [(target, attr, obj, wrapper) for target in self._modules()
                         if vars(target).get(attr) is obj]
        core = sys.modules["statbundle.core"]
        for cls_name, span in CONSTRUCTOR_SPANS.items():
            cls = getattr(core, cls_name, None)
            if cls is not None and "__post_init__" in vars(cls):
                original = vars(cls)["__post_init__"]
                self.wrapped[span] = f"statbundle.core.{cls_name}.__post_init__"
                plan.append((cls, "__post_init__", original,
                             self._wrap(span, original, "plain")))
        return plan

    def _check_complete(self) -> None:
        """A function still reachable unwrapped, say under an alias, would
        silently drop out of the layer numbers."""
        originals = {id(original): original for _, _, original, _ in self._plan}
        for target in self._modules():
            for attr, value in vars(target).items():
                if originals.get(id(value)) is value:
                    self.uninstall()
                    raise RuntimeError(
                        f"{target.__name__}.{attr} is still unwrapped after install")

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if n == "statbundle" or n.startswith("statbundle.")]

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.asarray(self.span_name, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.asarray(self.span_op, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            **{k: a[k] for k in ("name", "start", "end", "parent", "op")},
        )


def summarize(tracer: Tracer, op_times, flow_iterations=()) -> tuple[dict, dict]:
    """Per-layer metrics as means per traced op, plus detail for the record.

    ``op_times`` are the traced ops' durations as timed by the caller.
    Raises if a span was recorded outside an op or left open, if an op has
    other than one root span, or if a root span does not cover its op.
    """
    a = tracer.arrays()
    names = tracer.names
    n_ops = len(op_times)
    if (a["op"] < 0).any():
        raise RuntimeError(f"{int((a['op'] < 0).sum())} spans were recorded outside an op")
    if tracer.stack != [-1] or (a["end"] < a["start"]).any():
        raise RuntimeError("a span was left open")
    ids, selfs = a["name"], a["self"]
    calls = np.bincount(ids, minlength=len(names))
    self_s = np.bincount(ids, weights=selfs, minlength=len(names))

    root = a["name"] == tracer.name_id(ROOT)
    if not np.array_equal(np.sort(a["op"][root]), np.arange(n_ops)):
        raise RuntimeError("the traced ops do not have one root span each")
    op_dur = np.zeros(n_ops)
    op_dur[a["op"][root]] = a["dur"][root]
    # The root span opens and closes just inside the caller's clock.
    outside = np.asarray(op_times) - op_dur
    if (outside < 0).any() or (outside > 1e-3 + 0.01 * op_dur).any():
        raise RuntimeError("a root span does not cover its op as timed by the caller")

    per_op = 1.0 / max(n_ops, 1)
    m: dict[str, float] = {}
    layer_ms = dict.fromkeys(tracer.layers + ["cli"], 0.0)
    for nid, name in enumerate(names):
        if name != ROOT:
            m[f"{name}.calls"] = calls[nid] * per_op
            m[f"{name}.self_ms"] = self_s[nid] * 1e3 * per_op
        layer_ms[layer_of(name)] += self_s[nid] * 1e3 * per_op
    for layer, ms in layer_ms.items():
        m[f"{layer}.self_ms"] = ms
    m["trace.op_mean_ms"] = float(op_dur.mean()) * 1e3 if n_ops else 0.0
    m["core.validation_share"] = (
        layer_ms["core"] / m["trace.op_mean_ms"] if n_ops else 0.0)

    m["kernels.bytes_computed"] = sum(tracer.kernel_bytes.values()) * per_op
    m["findiff.calls"] = sum(m[f"{n}.calls"] for n in names if n.startswith("findiff."))
    for kind, prefix, bytes_name in (("read", "fileio.load", "fileio.bytes_read"),
                                     ("write", "fileio.write", "fileio.bytes_written")):
        m[f"fileio.{kind}_ms"] = sum(
            m[f"{n}.self_ms"] for n in names if n.startswith(prefix))
        m[bytes_name] = sum(
            b for (op, k), b in tracer.io_bytes.items() if k == kind) * per_op

    # Objective evaluations are the kl spans that start inside a flow span.
    evals = 0
    flows = a["name"] == (tracer.name_id(FLOW) if FLOW in names else -1)
    if flows.any() and "divergence.kl" in names:
        kl_start = a["start"][a["name"] == tracer.name_id("divergence.kl")]
        f_start, f_end = a["start"][flows], a["end"][flows]
        order = np.argsort(f_start)
        f_start, f_end = f_start[order], f_end[order]
        pos = np.searchsorted(f_start, kl_start, side="right") - 1
        inside = (pos >= 0) & (kl_start < f_end[np.maximum(pos, 0)])
        evals = int(inside.sum())
    iterations = int(sum(flow_iterations))
    m["expfam.flow.iterations"] = iterations * per_op
    m["expfam.flow.objective_evals"] = evals * per_op
    m["expfam.flow.accept_ratio"] = iterations / evals if evals else 0.0

    detail = {"spans": len(ids), "wrapped": dict(sorted(tracer.wrapped.items()))}
    return m, detail
