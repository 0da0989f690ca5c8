"""Seeded verification suite for the library's identities and derivatives.

Every check draws random instances from a deterministic per-instance
stream (derived from the run seed, the check index, the size index, and
the trial index, so results are independent of execution order) and
reports the worst residual seen.  Exact affine identities are held to
1e-12, the chart-pipeline reconstruction to 1e-10, and every analytic
derivative is compared against the central-difference oracle at 1e-6.

Enumeration oracles here are written as plain Python loops over outcomes
on purpose: they must not share code with the array code they check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Density,
    FiberVector,
    ProductSpace,
    SampleSpace,
    StatBundleError,
    _fiber_rows,
    expect,
    make_space,
    pairing,
    product_density,
    random_density,
    random_fiber,
)
from .charts import (
    Curve,
    cumulant,
    e_transport,
    exp_chart,
    exp_chart_inv,
    m_transport,
    mix_chart,
    mix_chart_inv,
    mixture_curve,
    score_velocity,
)
from .divergence import (
    common_param_gradient,
    kl,
    kl_curve_derivative,
    structural_reconstruct,
)
from .bayes import (
    condition_chart_derivatives,
    conditional_derivatives,
    conditionals,
    exp_decompose,
    kl_chain,
    marginal_derivative,
    marginalize,
)
from .expfam import (
    ExpFamily,
    IdentifiabilityError,
    density,
    grad_psi,
    joint_velocity,
    kl_theta_gradient_left,
    kl_theta_gradient_right,
    make_expfam,
    marginal_velocity,
    conditional_velocities,
    psi,
)
from .findiff import fd_gradient, fd_scalar, fd_vector_curve


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check over all its instances."""

    name: str
    instances: int
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold


@dataclass(frozen=True)
class Report:
    """Results of a verification run; overall pass iff every check passes."""

    checks: list[CheckResult]
    seed: int
    trials: int
    sizes: tuple[tuple[int, int], ...]
    wall_time: float

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _maxabs(a) -> float:
    return float(np.abs(a).max())


def _random_space(rng: np.random.Generator, n: int) -> SampleSpace:
    # Random positive weights keep the checks honest about non-uniform mu.
    return make_space(rng.uniform(0.2, 2.0, n))


def _random_product(rng: np.random.Generator, n1: int, n2: int) -> ProductSpace:
    return ProductSpace(_random_space(rng, n1), _random_space(rng, n2))


def _random_family(
    rng: np.random.Generator, n1: int, n2: int
) -> tuple[ExpFamily, np.ndarray]:
    space = _random_product(rng, n1, n2)
    p1 = random_density(space.left, rng)
    p2 = random_density(space.right, rng)
    d = int(rng.integers(1, 4))
    while True:
        try:
            family = make_expfam(p1, p2, rng.standard_normal((d, n1, n2)))
            break
        except IdentifiabilityError:
            # A nearly dependent draw: take the next one from the same
            # stream.  Spaces have at least 2 outcomes, so the centred
            # statistics live in at least 3 dimensions and d <= 3 fit.
            continue
    theta = rng.uniform(-1.0, 1.0, d)
    return family, theta


# ---------------------------------------------------------------------------
# single-space checks (one residual per instance)
# ---------------------------------------------------------------------------


def _check_roundtrip_exp(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q = random_density(space, rng), random_density(space, rng)
    return _maxabs(exp_chart_inv(p, exp_chart(p, q)).values - q.values)


def _check_roundtrip_mix(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q = random_density(space, rng), random_density(space, rng)
    return _maxabs(mix_chart_inv(p, mix_chart(p, q)).values - q.values)


def _check_transport_identity(rng, n: int) -> float:
    space = _random_space(rng, n)
    p = random_density(space, rng)
    v = random_fiber(p, rng, "exponential")
    w = random_fiber(p, rng, "mixture")
    return max(
        _maxabs(e_transport(p, p, v).values - v.values),
        _maxabs(m_transport(p, p, w).values - w.values),
    )


def _check_cocycle_e(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q, r = (random_density(space, rng) for _ in range(3))
    v = random_fiber(p, rng, "exponential")
    via_q = e_transport(q, r, e_transport(p, q, v))
    direct = e_transport(p, r, v)
    return _maxabs(via_q.values - direct.values)


def _check_cocycle_m(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q, r = (random_density(space, rng) for _ in range(3))
    w = random_fiber(p, rng, "mixture")
    via_q = m_transport(q, r, m_transport(p, q, w))
    direct = m_transport(p, r, w)
    return _maxabs(via_q.values - direct.values)


def _check_duality(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q = random_density(space, rng), random_density(space, rng)
    w = random_fiber(p, rng, "mixture")
    v = random_fiber(q, rng, "exponential")
    lhs = pairing(q, m_transport(p, q, w), v)
    rhs = pairing(p, w, e_transport(q, p, v))
    return abs(lhs - rhs)


def _check_weyl_exp(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q, r = (random_density(space, rng) for _ in range(3))
    lhs = exp_chart(p, q).values + e_transport(q, p, exp_chart(q, r)).values
    return _maxabs(lhs - exp_chart(p, r).values)


def _check_weyl_mix(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q, r = (random_density(space, rng) for _ in range(3))
    lhs = mix_chart(p, q).values + m_transport(q, p, mix_chart(q, r)).values
    return _maxabs(lhs - mix_chart(p, r).values)


def _check_structural(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q = random_density(space, rng), random_density(space, rng)
    return _maxabs(structural_reconstruct(p, q).values - q.values)


def _check_cumulant_kl(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, q = random_density(space, rng), random_density(space, rng)
    return abs(cumulant(p, exp_chart(p, q)) - kl(p, q))


def _check_kl_gradient_fd(rng, n: int) -> float:
    space = _random_space(rng, n)
    q, r = random_density(space, rng), random_density(space, rng)
    qdot = random_fiber(q, rng, "exponential")
    rdot = random_fiber(r, rng, "exponential")
    analytic = kl_curve_derivative(q, qdot, r, rdot)
    cq, cr = mixture_curve(q, qdot), mixture_curve(r, rdot)
    numeric = fd_scalar(lambda t: kl(cq(t), cr(t)), 0.0)
    return abs(analytic - numeric)


def _check_common_param_fd(rng, n: int) -> float:
    space = _random_space(rng, n)
    p, r = random_density(space, rng), random_density(space, rng)
    d = int(rng.integers(1, 4))
    A = [random_fiber(p, rng).values for _ in range(d)]
    B = [random_fiber(r, rng).values for _ in range(d)]

    def m_at(theta: np.ndarray) -> Density:
        u = sum(t * a for t, a in zip(theta, A))
        return exp_chart_inv(p, FiberVector(p, u, "exponential"))

    def n_at(theta: np.ndarray) -> Density:
        u = sum(t * b for t, b in zip(theta, B))
        return exp_chart_inv(r, FiberVector(r, u, "exponential"))

    theta = rng.uniform(-1.0, 1.0, d)
    M, N = m_at(theta), n_at(theta)
    dlogM = [a - expect(M, a) for a in A]
    dlogN = [b - expect(N, b) for b in B]
    analytic = common_param_gradient(M, N, dlogM, dlogN)
    numeric = fd_gradient(lambda th: kl(m_at(th), n_at(th)), theta)
    return _maxabs(analytic - numeric)


# ---------------------------------------------------------------------------
# product-space checks
# ---------------------------------------------------------------------------


def _enum_conditional_expectation(q12: Density, v: FiberVector) -> list[float]:
    """Brute-force E_q[v | X = x] by outcome enumeration (oracle path)."""
    n1, n2 = q12.space.shape
    mu2 = q12.space.right.weights.tolist()
    out = []
    for x in range(n1):
        # plain floats, read one row at a time to keep memory at O(n2)
        qx, vx = q12.values[x].tolist(), v.values[x].tolist()
        num = math.fsum(vx[z] * qx[z] * mu2[z] for z in range(n2))
        den = math.fsum(qx[z] * mu2[z] for z in range(n2))
        out.append(num / den)
    return out


def _check_marginal_derivative_enum(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    v = random_fiber(q12, rng)
    lib = marginal_derivative(q12, v).values
    oracle = _enum_conditional_expectation(q12, v)
    return _maxabs(lib - np.asarray(oracle))


def _check_marginal_derivative_fd(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    v = random_fiber(q12, rng)
    lib = marginal_derivative(q12, v).values
    q1 = marginalize(q12)
    curve = mixture_curve(q12, v)
    numeric = fd_vector_curve(
        lambda t: mix_chart(q1, marginalize(curve(t))).values, 0.0
    )
    return _maxabs(lib - numeric)


def _check_conditional_derivative_enum(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    v = random_fiber(q12, rng)
    lib = conditional_derivatives(q12, v)
    mu2 = space.right.weights.tolist()
    worst = 0.0
    for x in range(size[0]):
        qx, vx = q12.values[x].tolist(), v.values[x].tolist()
        den = math.fsum(qx[z] * mu2[z] for z in range(size[1]))
        mean = math.fsum(vx[z] * (qx[z] / den) * mu2[z] for z in range(size[1]))
        oracle = [vx[z] - mean for z in range(size[1])]
        worst = max(worst, _maxabs(lib[x] - np.asarray(oracle)))
    return worst


def _check_conditional_derivative_fd(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    v = random_fiber(q12, rng)
    curve = mixture_curve(q12, v)
    base = conditionals(q12)
    # The mixture chart of every conditional at once: one perturbed joint
    # per probe, conditioned as a whole table.
    numeric = fd_vector_curve(lambda t: conditionals(curve(t)) / base - 1.0, 0.0)
    return _maxabs(conditional_derivatives(q12, v) - numeric)


def _check_chart_pipeline(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    v = random_fiber(q12, rng, "mixture")
    p1 = random_density(space.left, rng)
    p2 = random_density(space.right, rng)
    p12 = product_density(p1, p2)
    v0 = mix_chart(p12, q12)
    h = m_transport(q12, p12, v)
    in_chart = condition_chart_derivatives(p1, p2, v0, h)
    # The mixture transport (p2 / q21(.|x)) * w of m_transport, for every x
    # at once; each moved row must be a fiber vector at its conditional.
    cond = conditionals(q12)
    moved = _fiber_rows(cond, space.right.weights, p2.values / cond * in_chart)
    return _maxabs(moved - conditional_derivatives(q12, v))


def _check_exp_decomposition(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    p1 = random_density(space.left, rng)
    p2 = random_density(space.right, rng)
    return exp_decompose(p1, p2, q12).residual


def _check_kl_chain(rng, size: tuple[int, int]) -> float:
    space = _random_product(rng, *size)
    q12 = random_density(space, rng)
    p1 = random_density(space.left, rng)
    p2 = random_density(space.right, rng)
    return kl_chain(p1, p2, q12).residual


def _check_psi_kl(rng, size: tuple[int, int]) -> float:
    family, theta = _random_family(rng, *size)
    return abs(psi(family, theta) - kl(family.base12, density(family, theta)))


def _check_grad_psi_fd(rng, size: tuple[int, int]) -> float:
    family, theta = _random_family(rng, *size)
    analytic = grad_psi(family, theta)
    numeric = fd_gradient(lambda th: psi(family, th), theta)
    return _maxabs(analytic - numeric)


def _check_velocities_fd(rng, size: tuple[int, int]) -> float:
    family, theta = _random_family(rng, *size)
    thetadot = rng.uniform(-1.0, 1.0, family.dim)

    # The three numeric sides below share the probe members G(theta +- h
    # thetadot): each is evaluated once.
    @functools.cache
    def member(t: float) -> Density:
        return density(family, theta + t * thetadot)

    g = member(0.0)
    g1 = marginalize(g)
    worst = _maxabs(
        joint_velocity(family, theta, thetadot).values
        - score_velocity(Curve(at=member), 0.0).values
    )
    numeric = fd_vector_curve(
        lambda t: mix_chart(g1, marginalize(member(t))).values, 0.0
    )
    worst = max(
        worst, _maxabs(marginal_velocity(family, theta, thetadot).values - numeric)
    )
    base = conditionals(g)
    numeric = fd_vector_curve(lambda t: conditionals(member(t)) / base - 1.0, 0.0)
    return max(
        worst, _maxabs(conditional_velocities(family, theta, thetadot) - numeric)
    )


def _check_kl_theta_fd(rng, size: tuple[int, int]) -> float:
    family, theta = _random_family(rng, *size)
    r1 = random_density(family.space.left, rng)

    # Both gradients probe the same parameters: each margin is evaluated once.
    @functools.cache
    def margin(probe: tuple[float, ...]) -> Density:
        return marginalize(density(family, np.array(probe)))

    left = kl_theta_gradient_left(family, theta, r1)
    left_fd = fd_gradient(lambda th: kl(r1, margin(tuple(th))), theta)
    right = kl_theta_gradient_right(family, theta, r1)
    right_fd = fd_gradient(lambda th: kl(margin(tuple(th)), r1), theta)
    return max(_maxabs(left - left_fd), _maxabs(right - right_fd))


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    name: str
    threshold: float
    domain: str  # "single" or "pair"
    fn: Callable


CHECKS: tuple[_Check, ...] = (
    _Check("chart-roundtrip-exp", 1e-12, "single", _check_roundtrip_exp),
    _Check("chart-roundtrip-mix", 1e-12, "single", _check_roundtrip_mix),
    _Check("transport-identity", 1e-12, "single", _check_transport_identity),
    _Check("transport-cocycle-e", 1e-12, "single", _check_cocycle_e),
    _Check("transport-cocycle-m", 1e-12, "single", _check_cocycle_m),
    _Check("transport-duality", 1e-12, "single", _check_duality),
    _Check("weyl-exponential", 1e-12, "single", _check_weyl_exp),
    _Check("weyl-mixture", 1e-12, "single", _check_weyl_mix),
    _Check("structural-equation", 1e-12, "single", _check_structural),
    _Check("cumulant-kl-link", 1e-12, "single", _check_cumulant_kl),
    _Check("kl-gradient-fd", 1e-6, "single", _check_kl_gradient_fd),
    _Check("common-param-gradient-fd", 1e-6, "single", _check_common_param_fd),
    _Check("marginal-derivative-enum", 1e-12, "pair", _check_marginal_derivative_enum),
    _Check("marginal-derivative-fd", 1e-6, "pair", _check_marginal_derivative_fd),
    _Check(
        "conditional-derivative-enum", 1e-12, "pair", _check_conditional_derivative_enum
    ),
    _Check("conditional-derivative-fd", 1e-6, "pair", _check_conditional_derivative_fd),
    _Check("conditional-chart-pipeline", 1e-10, "pair", _check_chart_pipeline),
    _Check("exp-decomposition", 1e-12, "pair", _check_exp_decomposition),
    _Check("kl-chain", 1e-12, "pair", _check_kl_chain),
    _Check("psi-kl-identity", 1e-12, "pair", _check_psi_kl),
    _Check("grad-psi-fd", 1e-6, "pair", _check_grad_psi_fd),
    _Check("expfam-velocities-fd", 1e-6, "pair", _check_velocities_fd),
    _Check("kl-theta-gradients-fd", 1e-6, "pair", _check_kl_theta_fd),
)


def run_verification(
    seed: int = 42,
    trials: int = 25,
    sizes: Sequence[tuple[int, int]] = ((2, 2), (3, 4)),
    slack: float = 1.0,
    names: Sequence[str] | None = None,
) -> Report:
    """Run the named checks (all by default) and collect a report.

    ``trials`` instances are drawn per check and per size entry; single
    -space checks run once per distinct outcome count appearing in
    ``sizes``.  ``slack`` scales every threshold (handy for exploratory
    runs; the defaults are the contractual tolerances).  An empty
    ``names``, or one naming no check, raises :class:`StatBundleError`
    rather than passing vacuously.
    """
    if seed < 0:
        raise StatBundleError("seed must be nonnegative")
    if trials < 1:
        raise StatBundleError("trials must be at least 1")
    if slack <= 0.0:
        raise StatBundleError("tolerance slack must be positive")
    sizes = tuple((int(a), int(b)) for a, b in sizes)
    if not sizes:
        raise StatBundleError("at least one size is required")
    if names is not None:
        if not names:
            raise StatBundleError("at least one check name is required")
        unknown = sorted(set(names) - {check.name for check in CHECKS})
        if unknown:
            raise StatBundleError(f"unknown check names: {', '.join(unknown)}")
    singles = sorted({n for pair in sizes for n in pair})
    started = time.perf_counter()
    results = []
    for ci, check in enumerate(CHECKS):
        if names is not None and check.name not in names:
            continue
        domain_sizes = singles if check.domain == "single" else list(sizes)
        worst = 0.0
        count = 0
        for si, size in enumerate(domain_sizes):
            for trial in range(trials):
                rng = np.random.default_rng([seed, ci, si, trial])
                worst = max(worst, check.fn(rng, size))
                count += 1
        results.append(
            CheckResult(check.name, count, worst, check.threshold * slack)
        )
    return Report(
        checks=results,
        seed=seed,
        trials=trials,
        sizes=sizes,
        wall_time=time.perf_counter() - started,
    )


def format_report(report: Report) -> str:
    """Fixed-width table with one line per check plus an overall verdict."""
    lines = [
        f"{'check':<30} {'instances':>9} {'max residual':>14} "
        f"{'threshold':>11} {'status':>7}"
    ]
    for c in report.checks:
        lines.append(
            f"{c.name:<30} {c.instances:>9d} {c.max_residual:>14.3e} "
            f"{c.threshold:>11.1e} {'PASS' if c.passed else 'FAIL':>7}"
        )
    verdict = "PASS" if report.overall else "FAIL"
    lines.append(
        f"overall: {verdict} (seed={report.seed}, trials={report.trials}, "
        f"wall={report.wall_time:.2f}s)"
    )
    return "\n".join(lines)
