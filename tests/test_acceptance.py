"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the worst residual against its contractual tolerance.
"""

import math
import time

import statbundle as sb
from statbundle.cli import run_demo
from statbundle.verify import run_verification

SEED = 42


def _report(number, title, ok, detail):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({title}) failed: {detail}"


def _run(names, sizes, trials):
    return run_verification(seed=SEED, trials=trials, sizes=sizes, names=names)


def _worst(report):
    return max(c.max_residual for c in report.checks)


def test_criterion_1_affine_structure_suite():
    names = [
        "chart-roundtrip-exp",
        "chart-roundtrip-mix",
        "transport-identity",
        "transport-cocycle-e",
        "transport-cocycle-m",
        "transport-duality",
        "weyl-exponential",
        "weyl-mixture",
    ]
    started = time.perf_counter()
    report = _run(names, sizes=[(2, 3), (5, 17)], trials=25)
    elapsed = time.perf_counter() - started
    ok = (
        report.overall
        and all(c.instances >= 100 for c in report.checks)
        and _worst(report) <= 1e-12
        and elapsed < 5.0
    )
    _report(
        1,
        "affine structure",
        ok,
        f"max residual {_worst(report):.3e} <= 1e-12 over "
        f"{report.checks[0].instances} instances/check, {elapsed:.2f}s",
    )


def test_criterion_2_structural_equation():
    report = _run(
        ["structural-equation", "cumulant-kl-link"],
        sizes=[(2, 3), (5, 17)],
        trials=25,
    )
    ok = report.overall and _worst(report) <= 1e-12
    _report(2, "structural equation", ok,
            f"max residual {_worst(report):.3e} <= 1e-12")


def test_criterion_3_kl_total_gradient():
    report = _run(
        ["kl-gradient-fd", "common-param-gradient-fd"],
        sizes=[(2, 3), (5, 5)],
        trials=17,
    )
    ok = (
        report.overall
        and all(c.instances >= 50 for c in report.checks)
        and _worst(report) <= 1e-6
    )
    _report(3, "KL total gradient vs central differences", ok,
            f"max residual {_worst(report):.3e} <= 1e-6")


def test_criterion_4_bayes_derivatives():
    enum_report = _run(
        ["marginal-derivative-enum", "conditional-derivative-enum"],
        sizes=[(2, 3), (3, 5), (5, 2)],
        trials=17,
    )
    fd_report = _run(
        ["marginal-derivative-fd", "conditional-derivative-fd"],
        sizes=[(2, 3), (3, 5), (5, 2)],
        trials=17,
    )
    pipe_report = _run(
        ["conditional-chart-pipeline"],
        sizes=[(2, 3), (3, 5), (5, 2)],
        trials=17,
    )
    ok = (
        enum_report.overall
        and _worst(enum_report) <= 1e-12
        and fd_report.overall
        and _worst(fd_report) <= 1e-6
        and pipe_report.overall
        and _worst(pipe_report) <= 1e-10
        and all(
            c.instances >= 50
            for r in (enum_report, fd_report, pipe_report)
            for c in r.checks
        )
    )
    _report(
        4,
        "marginalization/conditioning derivatives",
        ok,
        f"enum {_worst(enum_report):.3e} <= 1e-12, "
        f"fd {_worst(fd_report):.3e} <= 1e-6, "
        f"pipeline {_worst(pipe_report):.3e} <= 1e-10",
    )


def test_criterion_5_decomposition_identities(two_point, joint_2x2):
    report = _run(["exp-decomposition", "kl-chain"], sizes=[(2, 3), (3, 5)],
                  trials=25)
    _, p, _, _ = two_point
    _, q12 = joint_2x2
    chain = sb.kl_chain(p, p, q12)
    expected = -0.5 * math.log(0.64)
    fixture_ok = (
        abs(chain.total - expected) <= 1e-12
        and abs(chain.conditional_term - expected) <= 1e-12
        and abs(chain.marginal_term) <= 1e-12
        and abs(chain.total - 0.223144) <= 1e-6
        and sb.exp_decompose(p, p, q12).residual <= 1e-12
    )
    ok = report.overall and _worst(report) <= 1e-12 and fixture_ok
    _report(
        5,
        "chart decomposition and divergence chain rule",
        ok,
        f"max residual {_worst(report):.3e} <= 1e-12, "
        f"2x2 chain total {chain.total:.6f}",
    )


def test_criterion_6_exponential_family(diag_family):
    report = _run(
        ["psi-kl-identity", "grad-psi-fd", "expfam-velocities-fd"],
        sizes=[(2, 3), (3, 5)],
        trials=20,
    )
    # 4-state enumeration of the cumulant and the mean statistic at theta=1
    w = diag_family.space.weights.ravel()
    t = diag_family.stats[0].ravel()
    total = math.fsum(wi * math.exp(ti) for wi, ti in zip(w, t))
    psi_enum = math.log(total)
    grad_enum = math.fsum(wi * math.exp(ti) * ti for wi, ti in zip(w, t)) / total
    psi_val = sb.psi(diag_family, [1.0])
    grad_val = sb.grad_psi(diag_family, [1.0])[0]
    fixture_ok = (
        abs(psi_val - psi_enum) <= 1e-6
        and abs(grad_val - grad_enum) <= 1e-6
        and abs(psi_val - math.log(math.cosh(1.0))) <= 1e-6
        and abs(psi_val - 0.433781) <= 1e-6
        and abs(grad_val - math.tanh(1.0)) <= 1e-6
        and abs(grad_val - 0.761594) <= 1e-6
    )
    psi_kl = next(c for c in report.checks if c.name == "psi-kl-identity")
    fd_worst = max(
        c.max_residual for c in report.checks if c.name.endswith("-fd")
    )
    ok = (
        report.overall
        and psi_kl.max_residual <= 1e-12
        and fd_worst <= 1e-6
        and fixture_ok
    )
    _report(
        6,
        "exponential family cumulant and velocities",
        ok,
        f"psi identity {psi_kl.max_residual:.3e} <= 1e-12, fd {fd_worst:.3e} "
        f"<= 1e-6, psi(1)={psi_val:.6f}, grad={grad_val:.6f}",
    )


def test_criterion_7_parameterized_kl_gradients(margin_family):
    report = _run(["kl-theta-gradients-fd"], sizes=[(2, 3), (3, 5), (5, 5)],
                  trials=17)
    r1 = sb.uniform_density(margin_family.space.left)
    fixture_ok = all(
        abs(sb.kl_theta_gradient_left(margin_family, [th], r1)[0] - math.tanh(th))
        <= 1e-9
        for th in (0.5, 1.0)
    )
    ok = report.overall and _worst(report) <= 1e-6 and fixture_ok
    _report(
        7,
        "parameterized KL gradients",
        ok,
        f"max fd residual {_worst(report):.3e} <= 1e-6, "
        f"tanh fixture within 1e-9: {fixture_ok}",
    )


def test_criterion_8_flow_and_demo_runtime(margin_family, tmp_path):
    r1 = sb.uniform_density(margin_family.space.left)
    trace = sb.natural_gradient_flow(
        margin_family, [1.0], r1, mode="left", step=0.5, iters=200, tol=1e-7
    )
    objectives = [rec.objective for rec in trace.records]
    flow_ok = (
        trace.converged
        and trace.final.iteration <= 200
        and abs(trace.final.theta[0]) < 1e-6
        and all(a >= b for a, b in zip(objectives, objectives[1:]))
    )
    started = time.perf_counter()
    demo_rc = run_demo(tmp_path / "demo", seed=7)
    elapsed = time.perf_counter() - started
    ok = flow_ok and demo_rc == 0 and elapsed < 10.0
    _report(
        8,
        "natural-gradient flow and demo runtime",
        ok,
        f"|theta|={abs(trace.final.theta[0]):.2e} < 1e-6 in "
        f"{trace.final.iteration} iterations, demo {elapsed:.2f}s < 10s",
    )


def test_criterion_9_demo_determinism(tmp_path):
    rc_a = run_demo(tmp_path / "a", seed=7)
    rc_b = run_demo(tmp_path / "b", seed=7)
    files_a = sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv")
    )
    files_b = sorted(
        p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.csv")
    )
    same_tree = files_a == files_b and len(files_a) > 0
    same_bytes = same_tree and all(
        (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for rel in files_a
    )
    ok = rc_a == 0 and rc_b == 0 and same_bytes
    _report(
        9,
        "demo determinism",
        ok,
        f"{len(files_a)} CSV files byte-identical across reruns",
    )
