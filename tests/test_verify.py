import math
from types import SimpleNamespace

import numpy as np
import pytest

import statbundle as sb
from statbundle import verify
from statbundle.verify import CHECKS, format_report, run_verification

from conftest import traced_peak


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


def test_reports_compare_and_hash_by_identity():
    # The generated hash of the frozen report hashed its list of checks,
    # which raised TypeError.
    a, b = (run_verification(names=["kl-chain"], trials=1) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


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
    # An infinite slack would pass every check vacuously.
    for slack in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(sb.StatBundleError, match="positive and finite"):
            run_verification(slack=slack)
    with pytest.raises(sb.StatBundleError, match="no-such-check"):
        run_verification(trials=1, names=["kl-chain", "no-such-check"])
    with pytest.raises(sb.StatBundleError):
        run_verification(trials=1, names=[])
    for name in ("seed", "trials"):
        for value in (2.5, 2.0, float("inf"), "2", None, True):
            with pytest.raises(sb.StatBundleError, match=f"{name} must be an integer"):
                run_verification(names=["kl-chain"], **{name: value})
    # a fractional size used to be truncated, and a string parsed
    for sizes in ([(2.7, 3)], [(2, 3.0)], [("2", "3")], [(2, True)]):
        with pytest.raises(sb.StatBundleError, match="size must be an integer"):
            run_verification(trials=1, sizes=sizes, names=["kl-chain"])


@pytest.mark.parametrize(
    "value", ["1", None, [1.0], True], ids=["str", "None", "list", "bool"]
)
def test_slack_must_be_a_real_number(value):
    with pytest.raises(sb.StatBundleError, match="slack must be a real number"):
        run_verification(trials=1, names=["kl-chain"], slack=value)


def test_int_and_numpy_float_slack():
    plain = run_verification(seed=3, trials=2, names=["kl-chain"])
    for slack in (1, np.float64(1.0)):
        other = run_verification(seed=3, trials=2, names=["kl-chain"], slack=slack)
        assert other.checks == plain.checks


def test_numpy_integer_counts():
    plain = run_verification(seed=3, trials=2, names=["kl-chain"])
    numpy = run_verification(seed=np.int64(3), trials=np.int32(2), names=["kl-chain"])
    assert numpy.checks == plain.checks
    assert type(numpy.seed) is int and type(numpy.trials) is int


# These used to escape as a bare TypeError or ValueError from unpacking.
@pytest.mark.parametrize(
    "size", [3, (2,), (2, 2, 2), "2x2", None],
    ids=["int", "one-entry", "three-entries", "string", "none"],
)
def test_size_that_is_not_a_pair_is_named(size):
    with pytest.raises(sb.StatBundleError, match="pair of integers") as info:
        run_verification(trials=1, sizes=[(2, 2), size], names=["kl-chain"])
    assert repr(size) in str(info.value)


@pytest.mark.parametrize(
    "sizes", [[(-2, 3)], [(1, 3)], [(0, 0)], [(2, 2), (3, 1)]]
)
def test_sizes_below_two_rejected_up_front(monkeypatch, sizes):
    ran = []

    def probe(rng, size):
        ran.append(size)
        return 0.0

    monkeypatch.setattr(verify, "CHECKS", (verify._Check("probe", 1.0, "pair", probe),))
    with pytest.raises(sb.StatBundleError, match="at least 2 outcomes per factor"):
        run_verification(trials=1, sizes=sizes)
    assert ran == []


@pytest.mark.parametrize(
    "arg, value", [("names", "kl-chain"), ("sizes", "2x2"), ("sizes", "22")]
)
def test_string_argument_is_rejected_whole(arg, value):
    # A string used to be read character by character: "unknown check
    # names: -, a, c, ..." or "size '2' is not a pair of integers".
    with pytest.raises(sb.StatBundleError, match=f"{arg} must be a sequence") as info:
        run_verification(trials=1, **{arg: value})
    assert repr(value) in str(info.value)


def test_nan_residual_fails_the_check(monkeypatch):
    residuals = iter([0.1, float("nan"), 0.2])

    def probe(rng, size):
        return next(residuals)

    monkeypatch.setattr(verify, "CHECKS", (verify._Check("probe", 1.0, "pair", probe),))
    report = run_verification(trials=3, sizes=[(2, 2)])
    (check,) = report.checks
    assert check.instances == 3
    assert math.isnan(check.max_residual)
    assert not check.passed and not report.overall
    assert "FAIL" in format_report(report)


def _nan_fiber(*args):
    """A stand-in transport whose result is all NaN."""
    return SimpleNamespace(values=np.full_like(args[-1].values, np.nan))


def _nan_last_row(q12, v):
    """The true conditional derivatives with NaN in the last row only."""
    table = sb.conditional_derivatives(q12, v).copy()
    table[-1] = np.nan
    return table


# Each check combines several residuals per instance; a NaN in the last
# part used to be dropped by the builtin max and the check passed.
@pytest.mark.parametrize(
    "name, attr, fake",
    [
        ("kl-theta-gradients-fd", "kl_theta_gradient_right",
         lambda family, theta, r1: np.full(family.dim, np.nan)),
        ("transport-identity", "m_transport", _nan_fiber),
        ("expfam-velocities-fd", "conditional_velocities",
         lambda family, theta, thetadot: np.full(family.space.shape, np.nan)),
        ("conditional-derivative-enum", "conditional_derivatives", _nan_last_row),
    ],
    ids=["kl-theta", "transport-identity", "velocities", "conditional-enum"],
)
def test_nan_in_one_part_of_a_residual_fails(monkeypatch, name, attr, fake):
    monkeypatch.setattr(verify, attr, fake)
    report = run_verification(seed=5, trials=2, sizes=[(3, 4)], names=[name])
    (check,) = report.checks
    assert math.isnan(check.max_residual)
    assert not report.overall


def _shifted_transport(p, q, w):
    return sb.FiberVector(q, 2.0 * sb.m_transport(p, q, w).values, w.polarity)


# The dual twins share one body each; the registry must still hand each
# twin its own functions, looked up on the module when the check runs.
@pytest.mark.parametrize(
    "attr, fake, broken",
    [
        ("mix_chart_inv", lambda p, w: p, {"chart-roundtrip-mix"}),
        ("m_transport", _shifted_transport, {"transport-cocycle-m", "weyl-mixture"}),
        ("kl_chain", lambda p1, p2, q12: SimpleNamespace(residual=1.0), {"kl-chain"}),
    ],
    ids=["mix_chart_inv", "m_transport", "kl_chain"],
)
def test_each_twin_calls_its_own_functions(monkeypatch, attr, fake, broken):
    twins = [
        "chart-roundtrip-exp", "chart-roundtrip-mix",
        "transport-cocycle-e", "transport-cocycle-m",
        "weyl-exponential", "weyl-mixture",
        "exp-decomposition", "kl-chain",
    ]
    monkeypatch.setattr(verify, attr, fake)
    report = run_verification(seed=5, trials=2, sizes=[(2, 3)], names=twins)
    assert [c.name for c in report.checks] == twins
    assert {c.name for c in report.checks if not c.passed} == broken


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


def _instance_calls(monkeypatch, target, attr, counted, check, n1, seed=7):
    """Calls of ``target.attr`` that ``counted`` accepts, in one instance of
    ``check`` on an n1 x 5 space, drawn from the stream [seed, n1]."""
    calls = []
    inner = getattr(target, attr)

    def counting(*args, **kwargs):
        if counted(*args):
            calls.append(1)
        return inner(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(target, attr, counting)
        check(np.random.default_rng([seed, n1]), (n1, 5))
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


def _family_evaluations(monkeypatch, check, n1, seed=7):
    return _instance_calls(
        monkeypatch, sb.expfam, "_exp_chart_inv", lambda *args: True, check, n1, seed
    )


def test_family_evaluations_per_velocity_instance_do_not_grow_with_n1(monkeypatch):
    counts = [
        _family_evaluations(monkeypatch, verify._check_velocities_fd, n1)
        for n1 in (4, 16)
    ]
    assert counts[0] == counts[1] > 0


def test_velocity_check_evaluates_each_probe_member_once(monkeypatch):
    # G(theta) and G(theta +- h thetadot) once each, plus the G(theta) that
    # joint_velocity, marginal_velocity and conditional_velocities each take.
    assert _family_evaluations(monkeypatch, verify._check_velocities_fd, 3) == 6


def _seed_with_dim(d, n1):
    """A stream seed at which a check's random family has d statistics."""
    for seed in range(100):
        rng = np.random.default_rng([seed, n1])
        if verify._random_family(rng, n1, 5)[0].dim == d:
            return seed
    raise AssertionError(f"no family of dimension {d} in 100 draws")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kl_theta_check_evaluates_each_probe_once(monkeypatch, d):
    # G(theta) in each analytic gradient, and G at each of the 2d probes
    # theta +- h e_j, which both finite-difference gradients share.
    calls = _family_evaluations(
        monkeypatch, verify._check_kl_theta_fd, 3, _seed_with_dim(d, 3)
    )
    assert calls == 2 + 2 * d


# Peaks of one 200x300 instance, in tables of 480,000 bytes.  The pipeline
# drops each table once the next step has read it; the velocity check
# reduces each side as it computes it and drops its three probe members
# before the last library call, on top of a d = 3 family's five tables.
@pytest.mark.parametrize(
    "name, bound",
    [("conditional-chart-pipeline", 10.0), ("expfam-velocities-fd", 12.5)],
)
def test_large_instance_peak(name, bound):
    def run():
        run_verification(names=[name], sizes=[(200, 300)], trials=1)

    run()  # numpy's lazy imports happen outside the trace
    assert traced_peak(run) <= bound * 200 * 300 * 8
