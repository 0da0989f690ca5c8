"""Exponential families on a product space and their KL natural gradients.

A family is ``G(theta) = exp(theta . T - psi(theta)) * p1 (x) p2`` with
statistics T_j centered under the base product density, so the whole of
R^d is a valid parameter domain and ``psi`` is the base cumulant of
``theta . T``.  Consequences used throughout:

* psi(theta) = D(p1 (x) p2 || G(theta)) and grad psi(theta) = E_G[T];
* the model velocity is (T - E_G[T]) . thetadot, its margin the
  conditional expectation of the same, and the velocities of its
  conditionals the centered x-sections, which
  :func:`conditional_velocities` gives as one (n1, n2) table; each
  velocity evaluates G(theta) once;
* for a fixed margin r1, the parameter gradients of D(r1 || G1(theta))
  and D(G1(theta) || r1) are integrals of the conditional expectation
  C = E_G[T - E_G[T] | X] against r1*mu1 and against log(r1/G1)*G1*mu1;
* the Fisher matrix of the margin family is C diag(G1*mu1) C^T.

:func:`natural_gradient_flow` descends either objective along the
Fisher-preconditioned gradient, with backtracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryError,
    Density,
    FiberVector,
    MismatchError,
    NormalizationError,
    ProductSpace,
    StatBundleError,
    _as_float_array,
    _fiber_rows,
    product_density,
)
from .charts import exp_chart_inv, cumulant
from .divergence import kl
from .bayes import conditionals, marginal_derivative, marginalize

GRAM_EIGENVALUE_FLOOR = 1e-10
MAX_BACKTRACK_HALVINGS = 30


class IdentifiabilityError(StatBundleError):
    """The sufficient statistics are linearly dependent."""


@dataclass(frozen=True, eq=False)
class ExpFamily:
    """Base product density plus centered, independent sufficient statistics."""

    base1: Density
    base2: Density
    stats: np.ndarray  # (d, n1, n2), centered under base1 (x) base2
    base12: Density

    @property
    def dim(self) -> int:
        return self.stats.shape[0]

    @property
    def space(self) -> ProductSpace:
        return self.base12.space

    def __repr__(self) -> str:
        return f"ExpFamily(dim={self.dim}, shape={self.space.shape})"


def make_expfam(p1: Density, p2: Density, raw_stats) -> ExpFamily:
    """Center the raw statistics under p1 (x) p2 and check identifiability.

    Raises :class:`IdentifiabilityError` when the Gram matrix of the
    centered statistics under the base pairing has an eigenvalue at or
    below 1e-10.
    """
    p12 = product_density(p1, p2)
    arr = _as_float_array(np.asarray(raw_stats, dtype=float), "statistics")
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1:] != p12.space.shape:
        raise MismatchError(
            f"statistics shape {arr.shape} does not match product shape "
            f"{p12.space.shape}"
        )
    w = (p12.values * p12.space.weights).ravel()
    flat = arr.reshape(arr.shape[0], -1)
    centered = flat - (flat @ w)[:, None]
    gram = (centered * w) @ centered.T
    smallest = float(np.linalg.eigvalsh(gram)[0])
    if smallest <= GRAM_EIGENVALUE_FLOOR:
        raise IdentifiabilityError(
            f"statistics are linearly dependent: smallest Gram eigenvalue "
            f"{smallest:.3e} <= {GRAM_EIGENVALUE_FLOOR:.0e}"
        )
    stats = centered.reshape(arr.shape)
    stats.flags.writeable = False
    return ExpFamily(base1=p1, base2=p2, stats=stats, base12=p12)


def _check_theta(family: ExpFamily, theta) -> np.ndarray:
    arr = np.atleast_1d(_as_float_array(theta, "theta"))
    if arr.shape != (family.dim,):
        raise MismatchError(
            f"parameter shape {arr.shape} does not match family dimension "
            f"{family.dim}"
        )
    return arr


def _combine(family: ExpFamily, coef: np.ndarray) -> np.ndarray:
    """sum_j coef[j] * T_j: the np.dot call of np.tensordot(coef, T, axes=1),
    on the same 2-d reshapes, without its set-up."""
    stats = family.stats
    flat = np.dot(coef.reshape(1, -1), stats.reshape(stats.shape[0], -1))
    return flat.reshape(stats.shape[1:])


def _natural_statistic(family: ExpFamily, theta: np.ndarray) -> FiberVector:
    return FiberVector(family.base12, _combine(family, theta), "exponential")


def psi(family: ExpFamily, theta) -> float:
    """Cumulant psi(theta) = log E_base[exp(theta . T)]; convex, psi(0) = 0.

    Equals D(p1 (x) p2 || G(theta)) because the statistics are centered.
    """
    theta = _check_theta(family, theta)
    return cumulant(family.base12, _natural_statistic(family, theta))


def density(family: ExpFamily, theta) -> Density:
    """The family member G(theta) = exp(theta . T - psi(theta)) * base."""
    theta = _check_theta(family, theta)
    return exp_chart_inv(family.base12, _natural_statistic(family, theta))


def grad_psi(family: ExpFamily, theta) -> np.ndarray:
    """grad psi(theta) = E_{G(theta)}[T], one entry per statistic."""
    theta = _check_theta(family, theta)
    g = density(family, theta)
    return _stats_expect(family, g)


def _velocity(family: ExpFamily, g: Density, thetadot: np.ndarray) -> FiberVector:
    """(T - E_g[T]) . thetadot as a fiber vector at the member g."""
    vals = _combine(family, thetadot) - float(
        thetadot @ _stats_expect(family, g)
    )
    return FiberVector(g, vals, "exponential")


def joint_velocity(family: ExpFamily, theta, thetadot) -> FiberVector:
    """Velocity of theta -> G(theta): (T - E_{G(theta)}[T]) . thetadot."""
    theta = _check_theta(family, theta)
    thetadot = _check_theta(family, thetadot)
    return _velocity(family, density(family, theta), thetadot)


def marginal_velocity(family: ExpFamily, theta, thetadot) -> FiberVector:
    """Velocity of the first margin: the marginalization derivative applied
    to the joint velocity, i.e. E_G[T - E_G[T] | X] . thetadot."""
    theta = _check_theta(family, theta)
    thetadot = _check_theta(family, thetadot)
    g = density(family, theta)
    return marginal_derivative(g, _velocity(family, g, thetadot))


def conditional_velocities(family: ExpFamily, theta, thetadot) -> np.ndarray:
    """Velocities of all conditionals at once: the read-only (n1, n2) table
    whose row x is the centered x-section (T(x, .) - E[T(x, .) | X = x]) .
    thetadot, validated as a fiber vector at q21(.|x).  Evaluates the member
    G(theta) once."""
    theta = _check_theta(family, theta)
    thetadot = _check_theta(family, thetadot)
    cond = conditionals(density(family, theta))
    mu2 = family.space.right.weights
    stats = family.stats
    means = (stats * (cond * mu2)).sum(axis=2)
    rows = (thetadot[:, None, None] * (stats - means[:, :, None])).sum(axis=0)
    return _fiber_rows(cond, mu2, rows)


def _stats_expect(family: ExpFamily, g: Density) -> np.ndarray:
    """E_G[T_j] for each statistic, as a length-d vector."""
    stats = family.stats
    return stats.reshape(stats.shape[0], -1) @ (g.values * g.space.weights).ravel()


def _centered_conditional_stats(family: ExpFamily, g: Density) -> np.ndarray:
    """E_G[T_j - E_G[T_j] | X = x] as a (d, n1) table."""
    weighted = g.values * family.space.right.weights
    raw = (family.stats * weighted).sum(axis=2) / weighted.sum(axis=1)
    return raw - _stats_expect(family, g)[:, None]


def _check_margin(family: ExpFamily, r1: Density) -> Density:
    if r1.space != family.space.left:
        raise MismatchError("target margin lives on a different space")
    return r1


def _kl_gradient(
    family: ExpFamily, g: Density, g1: Density | None, r1: Density, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in theta of the flow objective of ``mode`` at the member g.

    Returns the table C = E_G[T - E_G[T] | X] of
    :func:`_centered_conditional_stats` with the gradient it integrates.
    ``g1`` is the first margin of g; the left objective does not read it.
    """
    table = _centered_conditional_stats(family, g)
    mu1 = family.space.left.weights
    if mode == "left":
        return table, -table @ (r1.values * mu1)
    logratio = np.log(r1.values) - np.log(g1.values)
    return table, -table @ (logratio * (mu1 * g1.values))


def kl_theta_gradient_left(family: ExpFamily, theta, r1: Density) -> np.ndarray:
    """Gradient of theta -> D(r1 || G1(theta)).

    g_j = -sum_x E_G[T_j - E_G[T_j] | X = x] * r1(x) * mu1(x).
    """
    theta = _check_theta(family, theta)
    r1 = _check_margin(family, r1)
    return _kl_gradient(family, density(family, theta), None, r1, "left")[1]


def kl_theta_gradient_right(family: ExpFamily, theta, r1: Density) -> np.ndarray:
    """Gradient of theta -> D(G1(theta) || r1).

    g_j = -sum_x E_G[T_j - E_G[T_j] | X = x] * log(r1/G1)(x) * G1(x) * mu1(x).
    """
    theta = _check_theta(family, theta)
    r1 = _check_margin(family, r1)
    g = density(family, theta)
    return _kl_gradient(family, g, marginalize(g), r1, "right")[1]


@dataclass(frozen=True)
class FlowRecord:
    """One accepted state of a natural-gradient flow.

    ``grad_norm`` is the Euclidean norm of the gradient g at ``theta`` and
    ``step_norm`` that of the natural direction F^-1 g, the quantity the
    flow's ``tol`` is compared with.  ``step`` is the accepted step length,
    reached from the initial one by ``halvings`` halvings.
    """

    iteration: int
    theta: np.ndarray
    objective: float
    grad_norm: float
    step: float
    halvings: int
    step_norm: float


@dataclass(frozen=True)
class FlowTrace:
    """Natural-gradient trajectory; records carry strictly increasing iterations.

    ``stop_reason`` is one of

    * ``"converged"``: the natural step norm fell below the tolerance;
    * ``"stalled"``: no trial step was accepted, because the objective
      increased at 31 trial points or the step no longer moved theta;
    * ``"iteration_cap"``: the iteration budget ran out;
    * ``"boundary"``: the Fisher matrix was singular or the natural
      direction not finite, as on the numerical boundary of the model or
      where some direction of theta does not move the margin.
    """

    records: list[FlowRecord]
    mode: str
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def final(self) -> FlowRecord:
        return self.records[-1]


def natural_gradient_flow(
    family: ExpFamily,
    theta0,
    r1: Density,
    mode: str = "left",
    step: float = 0.5,
    iters: int = 100,
    tol: float = 1e-8,
) -> FlowTrace:
    """Natural-gradient descent of a parameterized KL objective.

    ``mode="left"`` descends D(r1 || G1(theta)); ``mode="right"`` descends
    D(G1(theta) || r1).  Each iteration steps along the natural direction
    F^-1 g, where g is the gradient and F = C diag(G1 mu1) C^T, with
    C = E_G[T - E_G[T] | X], is the Fisher matrix of the margin family.
    A trial step is halved while its member leaves the model (``density``
    raises :class:`BoundaryError` or :class:`NormalizationError`), and at
    most 30 times while the objective increases, so the recorded
    objectives are non-increasing.  Each trial point evaluates G(theta)
    and its margin once; the accepted one reuses them for the objective,
    the gradient and F.

    Stops converged when ||F^-1 g|| drops below ``tol``; otherwise the
    trace's ``stop_reason`` says why it stopped.  The Euclidean gradient
    norm is no stopping rule: on a saturated plateau it underflows far
    from the optimum, where the natural step stays large.
    """
    if mode not in ("left", "right"):
        raise StatBundleError(f"unknown flow mode {mode!r}")
    if not step > 0.0:
        raise StatBundleError("step must be positive")
    if iters < 1:
        raise StatBundleError("iters must be at least 1")
    _check_margin(family, r1)
    mu1 = family.space.left.weights

    def objective_of(g1: Density) -> float:
        return kl(r1, g1) if mode == "left" else kl(g1, r1)

    theta = _check_theta(family, theta0).copy()
    g = density(family, theta)
    g1 = marginalize(g)
    objective = objective_of(g1)
    if not math.isfinite(objective):
        raise ArithmeticError(f"non-finite objective {objective!r} at theta0")
    records: list[FlowRecord] = []
    iteration, trial_step, halvings = 0, step, 0
    while True:
        table, grad = _kl_gradient(family, g, g1, r1, mode)
        fisher = (table * (g1.values * mu1)) @ table.T
        try:
            direction = np.linalg.solve(fisher, grad)
        except np.linalg.LinAlgError:
            direction = np.full_like(grad, np.nan)  # stops as "boundary"
        step_norm = float(np.linalg.norm(direction))
        records.append(
            FlowRecord(
                iteration, theta, objective, float(np.linalg.norm(grad)),
                trial_step, halvings, step_norm,
            )
        )
        if step_norm < tol:
            return FlowTrace(records, mode, "converged")
        if not math.isfinite(step_norm):
            return FlowTrace(records, mode, "boundary")
        if iteration == iters:
            return FlowTrace(records, mode, "iteration_cap")

        iteration += 1
        trial_step, halvings, increases = step, 0, 0
        while True:
            candidate = theta - trial_step * direction
            if np.array_equal(candidate, theta):
                return FlowTrace(records, mode, "stalled")
            try:
                cand_g = density(family, candidate)
            except (BoundaryError, NormalizationError):
                pass  # the trial point left the model: halve without counting
            else:
                cand_g1 = marginalize(cand_g)
                cand_obj = objective_of(cand_g1)
                if cand_obj <= objective:
                    break
                increases += 1
                if increases > MAX_BACKTRACK_HALVINGS:
                    return FlowTrace(records, mode, "stalled")
            trial_step *= 0.5
            halvings += 1
        theta, g, g1, objective = candidate, cand_g, cand_g1, cand_obj
