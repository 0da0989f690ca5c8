import numpy as np
import pytest

import statbundle as sb
from statbundle import verify
from statbundle.verify import CHECKS, format_report, run_verification


def test_small_run_passes_everything():
    report = run_verification(seed=5, trials=2, sizes=[(2, 2), (3, 4)])
    assert report.overall
    assert len(report.checks) == len(CHECKS)
    for check in report.checks:
        assert check.passed
        assert check.instances >= 2


def test_instance_counts():
    report = run_verification(seed=5, trials=3, sizes=[(2, 3), (5, 17)])
    by_name = {c.name: c for c in report.checks}
    # single-space checks run over the distinct outcome counts {2, 3, 5, 17}
    assert by_name["weyl-exponential"].instances == 12
    # pair checks run once per size entry
    assert by_name["kl-chain"].instances == 6


def test_name_filter():
    report = run_verification(
        seed=5, trials=2, sizes=[(2, 2)], names=["kl-chain", "weyl-mixture"]
    )
    assert {c.name for c in report.checks} == {"kl-chain", "weyl-mixture"}


def test_deterministic_in_seed():
    a = run_verification(seed=9, trials=2, sizes=[(2, 3)])
    b = run_verification(seed=9, trials=2, sizes=[(2, 3)])
    assert [c.max_residual for c in a.checks] == [c.max_residual for c in b.checks]


def test_tiny_slack_fails():
    report = run_verification(
        seed=5, trials=2, sizes=[(2, 2)], slack=1e-30, names=["kl-chain"]
    )
    assert not report.overall


def test_config_validation():
    with pytest.raises(sb.StatBundleError):
        run_verification(trials=0)
    with pytest.raises(sb.StatBundleError):
        run_verification(seed=-1)
    with pytest.raises(sb.StatBundleError):
        run_verification(sizes=[])
    with pytest.raises(sb.StatBundleError):
        run_verification(slack=0.0)


def test_format_report_table():
    report = run_verification(seed=5, trials=1, sizes=[(2, 2)], names=["kl-chain"])
    text = format_report(report)
    assert "kl-chain" in text
    assert "PASS" in text
    assert "overall" in text


# Seeds at which the suite once drew nearly dependent statistics for a
# random family and raised IdentifiabilityError instead of reporting.
@pytest.mark.parametrize("seed", [53, 795, 1156, 1380, 1678, 1790])
def test_random_family_redraws_unidentifiable_statistics(seed):
    names = [
        "psi-kl-identity",
        "grad-psi-fd",
        "expfam-velocities-fd",
        "kl-theta-gradients-fd",
    ]
    report = run_verification(seed=seed, names=names)
    assert [c.name for c in report.checks] == names
    assert report.overall


def _instance_calls(monkeypatch, target, attr, counted, check, n1):
    """Calls of ``target.attr`` that ``counted`` accepts, in one instance of
    ``check`` on an n1 x 5 space."""
    calls = []
    inner = getattr(target, attr)

    def counting(*args, **kwargs):
        if counted(*args):
            calls.append(1)
        return inner(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(target, attr, counting)
        check(np.random.default_rng([7, n1]), (n1, 5))
    return len(calls)


@pytest.mark.parametrize(
    "check", [verify._check_conditional_derivative_fd, verify._check_chart_pipeline]
)
def test_joint_densities_per_instance_do_not_grow_with_n1(monkeypatch, check):
    def joint(density):
        return isinstance(density.space, sb.ProductSpace)

    counts = [
        _instance_calls(monkeypatch, sb.Density, "__post_init__", joint, check, n1)
        for n1 in (4, 16)
    ]
    assert counts[0] == counts[1]


def test_family_evaluations_per_velocity_instance_do_not_grow_with_n1(monkeypatch):
    counts = [
        _instance_calls(
            monkeypatch,
            sb.expfam,
            "exp_chart_inv",
            lambda *args: True,
            verify._check_velocities_fd,
            n1,
        )
        for n1 in (4, 16)
    ]
    assert counts[0] == counts[1]
