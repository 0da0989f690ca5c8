"""The column-wise CSV writers against a per-cell reference writer, and the
JSON loaders' reading rule.

The reference formats one cell at a time, as the writers did before they
became column-wise; every writer must give its bytes exactly.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import statbundle as sb
from statbundle import fileio

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, -3.3e-320, 1e300, -1e300, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, 0.1, 1.0, 1e16, 1e17, 123456789.0]


def reference_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(reference_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def written(tmp_path, write, *args) -> str:
    path = tmp_path / "out.csv"
    write(path, *args)
    return path.read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(arrays(np.float64, st.integers(0, 40)))
@example(np.array(SPECIAL_FLOATS))
def test_float_column_matches_format(csv_dir, values):
    assert written(csv_dir, fileio.write_csv, ("v",), (values,)) == reference_csv(
        ("v",), [(x,) for x in values]
    )


@given(arrays(np.int64, st.integers(0, 40)))
@example(np.array([0, -1, 2**63 - 1, -2**63], dtype=np.int64))
def test_int_column_matches_str(csv_dir, values):
    assert written(csv_dir, fileio.write_csv, ("n",), (values,)) == reference_csv(
        ("n",), [(x,) for x in values]
    )


@st.composite
def mixed_columns(draw):
    n = draw(st.integers(0, 30))
    floats = draw(arrays(np.float64, n))
    ints = draw(arrays(np.int64, n))
    names = draw(st.lists(st.text("ab %s%%d,.-", max_size=6), min_size=n,
                          max_size=n))
    return floats, ints, np.array(names, dtype=str)


@given(mixed_columns())
@example((np.array([0.5, math.nan]), np.array([-7, 2**63 - 1]),
          np.array(["%", "%%"])))
@example((np.array([1e-310]), np.array([0]), np.array(["a %s, %d %.17g %%"])))
def test_mixed_columns_match_the_reference(csv_dir, columns):
    # String cells are format arguments: a "%" in one is written verbatim.
    floats, ints, names = columns
    header, columns = ("x", "n", "name", "y"), (floats, ints, names, floats)
    assert written(csv_dir, fileio.write_csv, header, columns) == reference_csv(
        header, list(zip(floats, ints, names.tolist(), floats))
    )


@pytest.mark.parametrize("rows", [0, 2])
def test_bool_column_rejected(tmp_path, rows):
    with pytest.raises(TypeError, match="^cannot write a CSV column of dtype bool$"):
        fileio.write_csv(tmp_path / "o.csv", ("a", "b"),
                         (np.arange(rows), np.ones(rows, dtype=bool)))
    assert not (tmp_path / "o.csv").exists()  # checked before anything is written


def table_shapes():
    block = fileio._BLOCK_ROWS
    assert 70 * 70 > block and (70 * 70) % block
    return [(2, 3), (70, 70), (2, block)]


@pytest.mark.parametrize("shape", table_shapes())
def test_table_bytes(tmp_path, shape):
    table = np.random.default_rng(shape).standard_normal(shape)
    table.flat[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[: table.size]
    rows = [(x, y, table[x, y]) for x in range(shape[0]) for y in range(shape[1])]
    assert written(tmp_path, fileio.write_table_csv, "value", table) == (
        reference_csv(("x", "y", "value"), rows)
    )


def test_vector_bytes(tmp_path):
    values = np.array(SPECIAL_FLOATS)
    assert written(tmp_path, fileio.write_vector_csv, "d", values) == (
        reference_csv(("x", "d"), list(enumerate(values)))
    )


def test_marginal_bytes(tmp_path):
    q1 = sb.random_density(sb.make_space([0.1, 0.7, 2.5, 1 / 3]), 5)
    rows = [(x, q1.space.weights[x], q1.values[x]) for x in range(q1.space.size)]
    assert written(tmp_path, fileio.write_marginal_csv, q1) == (
        reference_csv(("x", "weight", "value"), rows)
    )


def test_kl_chain_bytes(tmp_path):
    chain = sb.KLChain(0.25, -0.0, 1 / 3)
    assert written(tmp_path, fileio.write_kl_chain_csv, chain) == reference_csv(
        ("total", "marginal_term", "conditional_term", "residual"),
        [(chain.total, chain.marginal_term, chain.conditional_term,
          chain.residual)],
    )


@pytest.fixture
def trace(margin_family):
    target = sb.make_density(margin_family.base1.space, [1.2, 0.8])
    return sb.natural_gradient_flow(margin_family, [1.0], target, iters=5)


@pytest.mark.parametrize("stop_reason", ["converged", "stalled"])
def test_trace_and_summary_bytes(tmp_path, trace, stop_reason):
    records = trace.records + [
        sb.FlowRecord(trace.final.iteration + 1, np.array([5e-324]), math.inf,
                      math.nan, 0.5, 1, 0.0)
    ]
    trace = sb.FlowTrace(records, trace.mode, stop_reason)
    rows = [[r.iteration, *r.theta, r.objective, r.grad_norm, r.step]
            for r in records]
    assert written(tmp_path, fileio.write_trace_csv, trace) == reference_csv(
        ["iteration", "theta_0", "objective", "grad_norm", "step"], rows
    )
    final = trace.final
    row = ["true" if trace.converged else "false", final.iteration,
           final.objective, final.grad_norm, *final.theta]
    assert written(tmp_path, fileio.write_flow_summary_csv, trace) == (
        reference_csv(["converged", "iterations", "objective", "grad_norm",
                       "theta_0"], [row])
    )


def test_report_bytes(tmp_path):
    checks = [sb.CheckResult("a", 3, 1e-13, 1e-12),
              sb.CheckResult("b", 25, 0.5, 1e-10),
              sb.CheckResult("c", 0, math.nan, 1e-6)]
    report = sb.Report(checks, seed=1, trials=1, sizes=((2, 2),), wall_time=0.0)
    rows = [(c.name, c.instances, c.max_residual, c.threshold,
             "PASS" if c.passed else "FAIL") for c in checks]
    assert written(tmp_path, fileio.write_report_csv, report) == reference_csv(
        ("check", "instances", "max_residual", "threshold", "status"), rows
    )


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_csv(tmp_path / "o.csv", ("a", "b"), ([1, 2], [1.0]))
    with pytest.raises(ValueError):
        fileio.write_csv(tmp_path / "o.csv", ("a", "b"), ([1, 2],))


def test_table_writer_memory(tmp_path):
    # Only one block's strings are held at a time. The per-cell writer
    # peaked at about 9 MB here, and formatting whole columns at once at
    # about 29 MB.
    table = np.random.default_rng(1).random((300, 300))
    path = tmp_path / "t.csv"
    fileio.write_table_csv(path, "value", table)
    tracemalloc.start()
    try:
        fileio.write_table_csv(path, "value", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


HALF = {"weights": [0.5, 0.5]}
JOINT = sb.make_density(sb.ProductSpace(sb.make_space([0.5, 0.5]),
                                        sb.make_space([0.5, 0.5])),
                        [[1.6, 0.4], [0.4, 1.6]])
LOADERS = {
    "density": (fileio.load_density, {"space": HALF, "values": [1.2, 0.8]}),
    "joint": (fileio.load_joint, {"left": HALF, "right": HALF,
                                  "values": [[1.6, 0.4], [0.4, 1.6]]}),
    "velocity": (lambda path: fileio.load_velocity(path, JOINT),
                 {"values": [[1.0, -1.0], [1.0, -1.0]]}),
    "family": (fileio.load_family, {"left": HALF, "right": HALF,
                                    "base1": [1.0, 1.0], "base2": [1.0, 1.0],
                                    "stats": [[[1.0, -1.0], [-1.0, 1.0]]]}),
}


def documents_with_a_boolean(doc):
    """(key, a copy of ``doc`` whose array at key holds ``true`` beside
    numbers) for every array of a loader's document."""
    for key in doc:
        bad = copy.deepcopy(doc)
        holder, name = (bad[key], "weights") if isinstance(doc[key], dict) else (bad, key)
        inner = holder[name]
        while isinstance(inner[0], list):
            inner = inner[0]
        inner[0] = True
        yield name, bad


@pytest.mark.parametrize("loader", LOADERS)
def test_loaders_read_by_the_one_rule_and_name_the_file_once(tmp_path, loader):
    load, doc = LOADERS[loader]
    path = tmp_path / f"{loader}.json"
    fileio.write_json(path, doc)
    load(path)
    for key, bad in documents_with_a_boolean(doc):
        fileio.write_json(path, bad)
        with pytest.raises(sb.StatBundleError) as info:
            load(path)
        assert str(info.value) == (
            f"{path}: key {key!r} must hold integers or floats, not bool")
    for text in ["{", "[]", "{}"]:  # not JSON, not an object, no keys
        path.write_text(text)
        with pytest.raises(sb.StatBundleError) as info:
            load(path)
        assert str(info.value).count(str(path)) == 1
    wrong_shape = dict(doc, values=[1.0, 1.0, 1.0]) if "values" in doc else dict(
        doc, stats=[[[1.0, -1.0, 0.0]]])
    fileio.write_json(path, wrong_shape)
    with pytest.raises(sb.MismatchError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")
    assert str(info.value).count(str(path)) == 1
