"""Exponential families on a product space and their KL natural gradients.

A family is ``G(theta) = exp(theta . T - psi(theta)) * p1 (x) p2`` with
statistics T_j centered under the base product density, so the whole of
R^d is a valid parameter domain and ``psi`` is the base cumulant of
``theta . T``.  The :class:`ExpFamily` constructor, which
:func:`make_expfam` calls, centres the statistics by the one centring rule
of :func:`~statbundle.core._centred_rows`, which holds them to the scaled
tolerance of every fiber vector, and checks their identifiability, so
every family holds centred, independent, read-only statistics.  The
member and ``psi`` do not change when a constant is added to
``theta . T``, so :func:`density` and :func:`psi`
compute from the array ``theta . T`` directly, by the arithmetic of the
inverse exponential chart and the cumulant of :mod:`~statbundle.charts`,
with no fiber vector in between; each member is checked as every
:class:`~statbundle.core.Density` is.
Consequences used throughout:

* psi(theta) = D(p1 (x) p2 || G(theta)) and grad psi(theta) = E_G[T];
* the model velocity is (T - E_G[T]) . thetadot; the velocities of its
  margin and of its conditionals are the derivatives of marginalization
  and conditioning in :mod:`~statbundle.bayes` applied to it, the
  conditional expectation and the centered x-sections, which
  :func:`conditional_velocities` gives as one (n1, n2) table; each
  velocity evaluates G(theta) once;
* for a fixed margin r1, the parameter gradients of D(r1 || G1(theta))
  and D(G1(theta) || r1) are integrals of the conditional expectation
  C = E_G[T - E_G[T] | X] against r1*mu1 and against log(r1/G1)*G1*mu1;
* the Fisher matrix of the margin family is C diag(G1*mu1) C^T.

The moments of T under G come from one contraction, ``_moments``, that
allocates no (d, n1, n2) array: its row sums, the per-row dot of
:func:`~statbundle.core._row_masses` that also sums the margin G1, give the
conditional expectations E_G[T_j | X = x] of C and, by the tower property
E_G[T] = E_G1[E_G[T | X]], the mean E_G[T] that ``grad_psi`` returns.

:func:`natural_gradient_flow` descends either objective along the
Fisher-preconditioned gradient, with backtracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BoundaryError,
    Density,
    FiberVector,
    MismatchError,
    NormalizationError,
    ProductSpace,
    StatBundleError,
    _as_positive_float,
    _as_float_array,
    _as_int,
    _centred_rows,
    _freeze,
    _frozen,
    _require_density,
    _row_masses,
    product_density,
)
from .charts import _cumulant, _exp_chart_inv
from .divergence import kl
from .bayes import conditional_derivatives, marginal_derivative, marginalize

GRAM_EIGENVALUE_FLOOR = 1e-10
MAX_BACKTRACK_HALVINGS = 30


class IdentifiabilityError(StatBundleError):
    """The sufficient statistics are linearly dependent."""


@dataclass(frozen=True, eq=False)
class ExpFamily:
    """Base product density plus centered, independent sufficient statistics.

    The constructor centres the raw (d, n1, n2) ``stats`` under ``base12 =
    base1 (x) base2``, which it derives, and keeps them in a fresh read-only
    buffer, so later writes to the array passed in do not reach the family.
    Each statistic is centred as a row by
    :func:`~statbundle.core._centred_rows` and checked, as every fiber
    vector is, against the tolerance scaled by its magnitude.  Raises
    :class:`IdentifiabilityError` when the Gram matrix of the centered
    statistics under the base pairing has an eigenvalue at or below 1e-10
    times its largest, and :class:`StatBundleError` when there is no
    statistic.  The Gram is that of the statistics divided by a power of
    two near their largest entry, so the verdict does not depend on their
    scale, from the smallest floats to the largest.
    """

    base1: Density
    base2: Density
    stats: np.ndarray  # (d, n1, n2), centered under base12
    base12: Density = field(init=False)

    def __post_init__(self):
        p12 = product_density(self.base1, self.base2)
        arr = _as_float_array(self.stats, "statistics")
        if arr.ndim != 3 or arr.shape[1:] != p12.space.shape:
            raise MismatchError(
                f"statistics shape {arr.shape} does not match product shape "
                f"{p12.space.shape}"
            )
        if arr.shape[0] == 0:
            raise StatBundleError("an exponential family needs at least 1 statistic")
        base, mu = p12.values.ravel(), p12.space.weights.ravel()
        centered = _centred_rows(arr.reshape(arr.shape[0], -1), base, mu)
        # The Gram of the statistics divided by 2**e, a power of two near
        # their largest entry: an exact division, after which it neither
        # overflows nor underflows at any scale.  One factor is divided
        # before the product, whose terms then sum to at most 2**e because
        # base * mu sums to 1, and the product after.
        shift = -math.frexp(max(centered.max(), -centered.min()))[1]
        weighted = np.ldexp(centered, shift)
        weighted *= base * mu
        gram = np.ldexp(weighted @ centered.T, shift)
        smallest, largest = np.linalg.eigvalsh(gram)[[0, -1]]
        if smallest <= GRAM_EIGENVALUE_FLOOR * largest:
            raise IdentifiabilityError(
                f"statistics are linearly dependent: smallest Gram eigenvalue "
                f"{smallest:.3e} <= {GRAM_EIGENVALUE_FLOOR:.0e} times the "
                f"largest {largest:.3e}"
            )
        object.__setattr__(self, "stats", centered.reshape(arr.shape))
        object.__setattr__(self, "base12", p12)

    @property
    def dim(self) -> int:
        return self.stats.shape[0]

    @property
    def space(self) -> ProductSpace:
        return self.base12.space

    def __repr__(self) -> str:
        return f"ExpFamily(dim={self.dim}, shape={self.space.shape})"


def make_expfam(p1: Density, p2: Density, raw_stats) -> ExpFamily:
    """The family on p1 (x) p2 with the raw statistics, which the
    :class:`ExpFamily` constructor centres and checks for identifiability."""
    return ExpFamily(p1, p2, raw_stats)


def _check_theta(family: ExpFamily, theta) -> np.ndarray:
    if not isinstance(family, ExpFamily):
        raise MismatchError(
            f"expected an exponential family, not {type(family).__name__}"
        )
    arr = np.atleast_1d(_as_float_array(theta, "theta"))
    if arr.shape != (family.dim,):
        raise MismatchError(
            f"parameter shape {arr.shape} does not match family dimension "
            f"{family.dim}"
        )
    return arr


def _combine(family: ExpFamily, coef: np.ndarray) -> np.ndarray:
    """sum_j coef[j] * T_j as a fresh array: one matrix-vector product,
    with the bits of np.tensordot(coef, T, axes=1)."""
    stats = family.stats
    flat = coef @ stats.reshape(stats.shape[0], -1)
    return flat.reshape(stats.shape[1:])


def psi(family: ExpFamily, theta) -> float:
    """Cumulant psi(theta) = log E_base[exp(theta . T)]; convex, psi(0) = 0.

    Equals D(p1 (x) p2 || G(theta)) because the statistics are centered.
    Computed from the array theta . T directly, by the arithmetic of
    :func:`~statbundle.charts.cumulant`.
    """
    theta = _check_theta(family, theta)
    return _cumulant(family.base12, _combine(family, theta))


def density(family: ExpFamily, theta) -> Density:
    """The family member G(theta) = exp(theta . T - psi(theta)) * base.

    The inverse exponential chart of theta . T, computed from the array
    theta . T directly, in place, by the arithmetic of
    :func:`~statbundle.charts.exp_chart_inv`; the member is checked as
    every :class:`Density` is.
    """
    theta = _check_theta(family, theta)
    return _exp_chart_inv(family.base12, _combine(family, theta))


def grad_psi(family: ExpFamily, theta) -> np.ndarray:
    """grad psi(theta) = E_{G(theta)}[T], one entry per statistic."""
    return _moments(family, density(family, theta))[1]


def joint_velocity(family: ExpFamily, theta, thetadot) -> FiberVector:
    """Velocity of theta -> G(theta): (T - E_{G(theta)}[T]) . thetadot,
    a fiber vector at G(theta)."""
    theta = _check_theta(family, theta)
    thetadot = _check_theta(family, thetadot)
    g = density(family, theta)
    vals = _combine(family, thetadot)
    vals -= float(thetadot @ _moments(family, g)[1])
    return FiberVector(g, _frozen(vals), "exponential")


def marginal_velocity(family: ExpFamily, theta, thetadot) -> FiberVector:
    """Velocity of the first margin: the marginalization derivative applied
    to the joint velocity, i.e. E_G[T - E_G[T] | X] . thetadot."""
    v = joint_velocity(family, theta, thetadot)
    return marginal_derivative(v.base, v)


def conditional_velocities(family: ExpFamily, theta, thetadot) -> np.ndarray:
    """Velocities of all conditionals at once: the conditioning derivatives
    applied to the joint velocity, i.e. the read-only (n1, n2) table whose
    row x is the centered x-section (T(x, .) - E[T(x, .) | X = x]) .
    thetadot, validated as a fiber vector at q21(.|x)."""
    v = joint_velocity(family, theta, thetadot)
    return conditional_derivatives(v.base, v)


def _moments(family: ExpFamily, g: Density) -> tuple[np.ndarray, np.ndarray]:
    """The (d, n1) row sums S[j, x] = sum_y T_j(x, y) G(x, y) mu2(y) and
    E_G[T] = S @ mu1; E_G[T_j | X = x] is S[j, x] / G1(x).

    S[j, x] is ``np.dot(T_j[x], (G * mu2)[x])``, the per-row sum of
    :func:`~statbundle.core._row_masses` that also gives the margin G1, in
    one contraction that allocates nothing of the statistics' (d, n1, n2)
    size.
    """
    sums = _row_masses(family.stats, g.values * family.space.right.weights)
    return sums, sums @ family.space.left.weights


def _check_margin(family: ExpFamily, r1: Density) -> None:
    _require_density(r1)
    if r1.space != family.space.left:
        raise MismatchError("target margin lives on a different space")


def _kl_gradient(
    family: ExpFamily, g: Density, g1: Density, r1: Density, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in theta of the flow objective of ``mode`` at the member g.

    Returns the table C = E_G[T - E_G[T] | X], formed from the
    :func:`_moments` of g as S / G1 - E_G[T], with the gradient it
    integrates.  ``g1`` is the first margin of g.
    """
    sums, mean = _moments(family, g)
    table = sums / g1.values - mean[:, None]
    mu1 = family.space.left.weights
    if mode == "left":
        return table, -table @ (r1.values * mu1)
    logratio = np.log(r1.values) - np.log(g1.values)
    return table, -table @ (logratio * (mu1 * g1.values))


def _theta_gradient(family: ExpFamily, theta, r1: Density, mode: str) -> np.ndarray:
    """The gradient of ``mode``'s objective at G(theta)."""
    g = density(family, theta)
    _check_margin(family, r1)
    return _kl_gradient(family, g, marginalize(g), r1, mode)[1]


def kl_theta_gradient_left(family: ExpFamily, theta, r1: Density) -> np.ndarray:
    """Gradient of theta -> D(r1 || G1(theta)).

    g_j = -sum_x E_G[T_j - E_G[T_j] | X = x] * r1(x) * mu1(x).
    """
    return _theta_gradient(family, theta, r1, "left")


def kl_theta_gradient_right(family: ExpFamily, theta, r1: Density) -> np.ndarray:
    """Gradient of theta -> D(G1(theta) || r1).

    g_j = -sum_x E_G[T_j - E_G[T_j] | X = x] * log(r1/G1)(x) * G1(x) * mu1(x).
    """
    return _theta_gradient(family, theta, r1, "right")


@dataclass(frozen=True, eq=False)
class FlowRecord:
    """One accepted state of a natural-gradient flow.

    ``grad_norm`` is the Euclidean norm of the gradient g at ``theta`` and
    ``step_norm`` that of the natural direction F^-1 g, the quantity the
    flow's ``tol`` is compared with.  ``step`` is the accepted step length,
    reached from the initial one by ``halvings`` halvings.  Records, like
    traces, compare and hash by identity.
    """

    iteration: int
    theta: np.ndarray
    objective: float
    grad_norm: float
    step: float
    halvings: int
    step_norm: float


@dataclass(frozen=True, eq=False)
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
    iters: int = 200,
    tol: float = 1e-8,
) -> FlowTrace:
    """Natural-gradient descent of a parameterized KL objective.

    ``mode="left"`` descends D(r1 || G1(theta)); ``mode="right"`` descends
    D(G1(theta) || r1).  Each iteration steps along the natural direction
    F^-1 g, where g is the gradient and F = C diag(G1 mu1) C^T, with
    C = E_G[T - E_G[T] | X], is the Fisher matrix of the margin family.
    A trial step is halved while its member leaves the model (``density``
    raises :class:`BoundaryError` or :class:`NormalizationError`) or its
    evaluation overflows, and at most 30 times while the objective
    increases, so the recorded objectives are non-increasing.  Each trial
    point evaluates G(theta) and its margin once; the accepted one reuses
    them for the objective, the gradient and F.

    ``step`` and ``tol`` must be positive and finite real numbers, and
    ``iters``, the iteration budget, a positive integer; the budget is 200
    iterations unless given, for the library and the command line alike.
    Stops converged when ||F^-1 g|| drops below ``tol``; otherwise the
    trace's ``stop_reason`` says why it stopped.
    The Euclidean gradient norm is no stopping rule: on a saturated
    plateau it underflows far from the optimum, where the natural step
    stays large.
    """
    if mode not in ("left", "right"):
        raise StatBundleError(f"unknown flow mode {mode!r}")
    step = _as_positive_float(step, "step")
    tol = _as_positive_float(tol, "tol")
    iters = _as_int(iters, "iters")
    if iters < 1:
        raise StatBundleError("iters must be at least 1")
    _check_margin(family, r1)
    mu1 = family.space.left.weights

    def objective_of(g1: Density) -> float:
        return kl(r1, g1) if mode == "left" else kl(g1, r1)

    theta = _freeze(_check_theta(family, theta0))
    g = density(family, theta)
    g1 = marginalize(g)
    objective = objective_of(g1)
    records: list[FlowRecord] = []
    iteration, trial_step, halvings = 0, step, 0
    while True:
        table, grad = _kl_gradient(family, g, g1, r1, mode)
        fisher = (table * (g1.values * mu1)) @ table.T
        try:
            direction = np.linalg.solve(fisher, grad)
        except np.linalg.LinAlgError:
            direction = np.full_like(grad, np.nan)  # stops as "boundary"
        # The 2-norm as np.linalg.norm computes it for a 1-d float array.
        step_norm = math.sqrt(float(direction @ direction))
        records.append(
            FlowRecord(
                iteration, theta, objective, math.sqrt(float(grad @ grad)),
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
            # A trial point that overflows or leaves the model is halved
            # without counting.
            try:
                with np.errstate(over="raise"):
                    candidate = _frozen(theta - trial_step * direction)
                    if (candidate == theta).all():
                        return FlowTrace(records, mode, "stalled")
                    cand_g = density(family, candidate)
            except (BoundaryError, NormalizationError, FloatingPointError):
                pass
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
