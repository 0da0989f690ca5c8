"""Marginalization and conditioning as maps between open simplices,
together with their bundle derivatives.

A joint density q12 on a product space maps to its first margin
``q1(x) = sum_z q12(x, z) mu2(z)`` and, for each outcome ``x``, to the
conditional ``q21(.|x) = q12(x, .) / q1(x)`` -- always well defined here
because densities are strictly positive everywhere.

Reading these maps in mixture charts gives their derivatives in closed
form:

* the derivative of marginalization at q12 applied to a velocity v is the
  conditional expectation ``x -> E_q[v | X = x]``;
* the derivative of conditioning at ``x`` is the centered section
  ``v(x, .) - E[v(x, .) | X = x]``.

:func:`condition_chart_expression` and :func:`condition_chart_derivative`
expose the conditioning map and its derivative in the charts themselves,
so the full transport pipeline (chart the velocity down, differentiate the
chart expression, transport back to the moving frame) can be reproduced
and checked against the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryError,
    Density,
    FiberVector,
    MismatchError,
    ProductSpace,
    _require_same_base,
    product_density,
)
from .charts import exp_chart
from .divergence import kl


def _joint_space(q12: Density) -> ProductSpace:
    if not isinstance(q12.space, ProductSpace):
        raise MismatchError("expected a joint density on a product space")
    return q12.space


def _check_outcome(space: ProductSpace, x: int) -> int:
    x = int(x)
    if not 0 <= x < space.left.size:
        raise MismatchError(
            f"outcome index {x} out of range for a {space.left.size}-point space"
        )
    return x


def marginalize(q12: Density) -> Density:
    """First margin q1(x) = sum_z q12(x, z) mu2(z)."""
    space = _joint_space(q12)
    return Density(space.left, q12.values @ space.right.weights)


def marginal_derivative(q12: Density, v: FiberVector) -> FiberVector:
    """Derivative of marginalization at q12: the conditional expectation.

    Returns x -> E_q[v | X = x]; its zero q1-expectation is the tower
    property and is re-validated by the fiber constructor.
    """
    space = _joint_space(q12)
    _require_same_base(v, q12)
    weighted = q12.values * space.right.weights
    vals = (v.values * weighted).sum(axis=1) / weighted.sum(axis=1)
    return FiberVector(marginalize(q12), vals, v.polarity)


def condition(q12: Density, x: int) -> Density:
    """Conditional density q21(.|x) = q12(x, .) / q1(x) on the right factor."""
    space = _joint_space(q12)
    x = _check_outcome(space, x)
    row = q12.values[x]
    mass = float(np.dot(row, space.right.weights))
    return Density(space.right, row / mass)


def conditional_derivative(q12: Density, x: int, v: FiberVector) -> FiberVector:
    """Derivative of the conditioning map at q12 for outcome x.

    Returns v(x, .) - E[v(x, .) | X = x], a fiber vector at q21(.|x).
    """
    space = _joint_space(q12)
    x = _check_outcome(space, x)
    _require_same_base(v, q12)
    cond = condition(q12, x)
    mean = float(np.sum(v.values[x] * cond.values * space.right.weights))
    return FiberVector(cond, v.values[x] - mean, v.polarity)


def condition_chart_expression(
    p1: Density, p2: Density, x: int, v: FiberVector
) -> FiberVector:
    """The conditioning map read in mixture charts centered at p1 (x) p2 and p2.

    For a chart value v (a fiber vector at the product density), returns

        (v(x, .) - m) / (1 + m),   m = sum_z v(x, z) p2(z) mu2(z),

    which equals the mixture chart of the conditional of the density
    ``(1 + v) * p1 (x) p2``.  Requires 1 + m > 0 (else the image leaves
    the model).
    """
    p12 = product_density(p1, p2)
    _require_same_base(v, p12)
    x = _check_outcome(p12.space, x)
    m = float(np.sum(v.values[x] * p2.values * p2.space.weights))
    denom = 1.0 + m
    if denom <= 0.0:
        raise BoundaryError(
            f"conditioning chart image leaves the model: 1 + m = {denom!r} "
            f"at outcome {x}"
        )
    return FiberVector(p2, (v.values[x] - m) / denom, "mixture")


def condition_chart_derivative(
    p1: Density, p2: Density, x: int, v: FiberVector, h: FiberVector
) -> FiberVector:
    """Derivative of the chart expression of conditioning at v in direction h.

        (h(x, .) - m_h - F_x(v) * m_h) / (1 + m_v),

    with m_h and m_v the p2-means of the x-sections of h and v.  Together
    with the two mixture transports this reproduces
    :func:`conditional_derivative` exactly.
    """
    p12 = product_density(p1, p2)
    _require_same_base(v, p12)
    _require_same_base(h, p12)
    x = _check_outcome(p12.space, x)
    fx = condition_chart_expression(p1, p2, x, v)
    m_v = float(np.sum(v.values[x] * p2.values * p2.space.weights))
    m_h = float(np.sum(h.values[x] * p2.values * p2.space.weights))
    vals = (h.values[x] - m_h - fx.values * m_h) / (1.0 + m_v)
    return FiberVector(p2, vals, "mixture")


@dataclass(frozen=True)
class ChartDecomposition:
    """Exponential-chart split of a joint: u12 = u1 + u21 - centering.

    ``joint`` is the chart of q12 at p1 (x) p2, ``marginal`` the chart of
    q1 at p1, ``conditional`` the per-x charts of q21(.|x) at p2, and
    ``centering`` the x-indexed conditional-divergence term recentred to
    zero mean.  ``residual`` is the max-abs defect of the identity.
    """

    joint: np.ndarray
    marginal: np.ndarray
    conditional: np.ndarray
    centering: np.ndarray
    residual: float


def exp_decompose(
    p1: Density, p2: Density, q12: Density, weighted_centering: bool = True
) -> ChartDecomposition:
    """Split the exponential chart of a joint along margin and conditionals.

    The centering term is D(p2||q21(.|x)) minus its average over x.  With
    ``weighted_centering`` the average is the p1-expectation, which is the
    choice forced by the zero-expectation requirement on the joint chart;
    the plain mu1-average is kept available for comparison.
    """
    space = _joint_space(q12)
    p12 = product_density(p1, p2)
    if p12.space != space:
        raise MismatchError("reference densities do not match the joint space")
    u12 = exp_chart(p12, q12).values
    q1 = marginalize(q12)
    u1 = exp_chart(p1, q1).values
    n1 = space.left.size
    u21 = np.empty(space.shape)
    cond_kl = np.empty(n1)
    for x in range(n1):
        cond = condition(q12, x)
        u21[x] = exp_chart(p2, cond).values
        cond_kl[x] = kl(p2, cond)
    mu1 = space.left.weights
    if weighted_centering:
        average = float(np.sum(cond_kl * p1.values * mu1))
    else:
        average = float(np.sum(cond_kl * mu1))
    centering = cond_kl - average
    residual = float(
        np.max(np.abs(u12 - (u1[:, None] + u21 - centering[:, None])))
    )
    return ChartDecomposition(u12, u1, u21, centering, residual)


@dataclass(frozen=True)
class KLChain:
    """Divergence chain rule D(p1 (x) p2 || q12) = marginal + conditional."""

    total: float
    marginal_term: float
    conditional_term: float

    @property
    def residual(self) -> float:
        return abs(self.total - (self.marginal_term + self.conditional_term))


def kl_chain(p1: Density, p2: Density, q12: Density) -> KLChain:
    """Split D(p1 (x) p2 || q12) into the margin term plus the p1-averaged
    conditional term."""
    space = _joint_space(q12)
    p12 = product_density(p1, p2)
    if p12.space != space:
        raise MismatchError("reference densities do not match the joint space")
    total = kl(p12, q12)
    marginal_term = kl(p1, marginalize(q12))
    cond = sum(
        kl(p2, condition(q12, x)) * float(p1.values[x] * space.left.weights[x])
        for x in range(space.left.size)
    )
    return KLChain(total, marginal_term, float(cond))
