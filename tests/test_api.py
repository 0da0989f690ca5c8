"""The public surface that code outside the package relies on.

The benchmark drivers in ``perfbench/`` call the library by name, keyword
and position.  These tests make the same calls on a 2x2 input, so that a
deleted name or a changed signature fails here first.
"""

import contextlib
import io
import json

import numpy as np

import statbundle as sb
from statbundle import cli


def test_all_names_resolve_once():
    assert len(sb.__all__) == len(set(sb.__all__))
    missing = [name for name in sb.__all__ if not hasattr(sb, name)]
    assert missing == []
    assert isinstance(sb.__version__, str)


def _joint_2x2():
    space = sb.ProductSpace(sb.make_space([0.5, 1.5]), sb.make_space([0.8, 1.2]))
    raw = np.array([[1.0, 2.0], [3.0, 4.0]])
    q = sb.make_density(space, raw / np.sum(raw * space.weights))
    return space, q


def test_construction_calls():
    space, q = _joint_2x2()
    v = np.array([[1.0, -1.0], [0.5, -0.5]])
    v -= sb.expect(q, v)
    # the polarity tag is the third positional argument
    fiber = sb.FiberVector(q, v, "mixture")
    assert fiber.polarity == "mixture"
    rng = np.random.default_rng([1, 4])
    p, r = sb.random_density(space, rng), sb.random_density(space, rng)
    u = sb.exp_chart(p, r)
    assert isinstance(sb.exp_chart_inv(p, u), sb.Density)
    assert type(sb.kl(p, r)) is float


def test_family_and_flow_calls():
    p1 = sb.make_density(sb.make_space([0.5, 1.5]), [0.5, 0.5])
    p2 = sb.make_density(sb.make_space([0.8, 1.2]), [0.5, 0.5])
    family = sb.make_expfam(p1, p2, [[[1.0, 1.0], [-1.0, -1.0]]])
    target = sb.marginalize(sb.density(family, np.array([0.4])))
    for mode in ("left", "right"):
        trace = sb.natural_gradient_flow(
            family, np.zeros(1), target, mode=mode, step=0.5, iters=1000, tol=1e-7
        )
        assert isinstance(trace, sb.FlowTrace)
        assert trace.converged
        final = trace.final
        assert isinstance(final.iteration, int)
        assert final.theta.shape == (1,) and isinstance(final.objective, float)


def test_verification_calls():
    names = [c.name for c in sb.run_verification(seed=0, trials=1, sizes=[(2, 2)]).checks]
    assert len(names) == 23
    report = sb.run_verification(seed=1, trials=1, sizes=[(2, 2)], names=names[:1])
    assert report.overall
    assert [(c.name, c.instances, c.passed) for c in report.checks] == [
        (names[0], 1, True)
    ]


def test_cli_bayes_in_process(tmp_path):
    space, q = _joint_2x2()
    v = np.array([[0.4, -0.1], [-0.3, 0.2]])
    v -= sb.expect(q, v)
    joint = tmp_path / "joint.json"
    velocity = tmp_path / "velocity.json"
    joint.write_text(json.dumps({
        "left": {"weights": space.left.weights.tolist()},
        "right": {"weights": space.right.weights.tolist()},
        "values": q.values.tolist(),
    }))
    velocity.write_text(json.dumps({"values": v.tolist()}))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["bayes", "--joint", str(joint), "--velocity", str(velocity),
                       "--out", str(out)])
    assert rc == 0
    for name in ("marginal.csv", "conditionals.csv", "kl_chain.csv",
                 "marginal_derivative.csv", "conditional_derivatives.csv"):
        assert (out / name).is_file(), name
