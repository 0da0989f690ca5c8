"""Smoke test of the benchmark in ``perfbench/``: every workload at seed 1
runs one op untraced and one op under the span tracer, and each op must
pass the workload's own oracle.

A failing op, oracle or tracer install then shows in the test suite, not
only in a benchmark run.  The test imports ``perfbench/`` and changes
nothing there.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracer
    from workloads import WORKLOADS
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_and_one_traced_op_pass_the_oracle(name, tmp_path):
    wl = WORKLOADS[name]()
    wl.build(wl.generate(1))
    wl.prepare(str(tmp_path))
    assert wl.check(0, wl.op(0)) is None

    spans = tracer.Tracer()
    spans.install()
    try:
        result = spans.run_op(0, wl.op, 1)
    finally:
        spans.uninstall()
    assert wl.check(1, result) is None
    assert len(spans.span_name) > 1  # the root span and the library's below it
