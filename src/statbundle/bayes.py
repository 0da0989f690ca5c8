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

Every conditioning map also has a table form that computes all outcomes x
at once as a read-only (n1, n2) array: :func:`conditionals`,
:func:`conditional_derivatives` and :func:`condition_chart_derivatives`.
Each table validates all its rows in one pass, with the rules the
``Density``/``FiberVector`` constructors apply to a single row.  The per-x
functions compute their one row through the same row-block code and wrap
it in a validated object, so row x of a table equals the per-x result
exactly.  :func:`kl_chain` and :func:`exp_decompose` work on the tables.
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
    _density_rows,
    _fiber_rows,
    _require_same_base,
    _row_masses,
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


def _conditional_rows(rows: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """q12(x, .) / q1(x) for each row x of a block of the joint."""
    return rows / _row_masses(rows, mu2)[:, None]


def _centred_rows(rows: np.ndarray, cond: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """v(x, .) - E[v(x, .) | X = x] for each row x of a block."""
    return rows - np.sum(rows * cond * mu2, axis=1)[:, None]


def conditionals(q12: Density) -> np.ndarray:
    """All conditionals at once: the read-only (n1, n2) table whose row x is
    q21(.|x), validated row by row as :class:`Density` validates."""
    space = _joint_space(q12)
    mu2 = space.right.weights
    return _density_rows(mu2, _conditional_rows(q12.values, mu2))


def condition(q12: Density, x: int) -> Density:
    """Conditional density q21(.|x) = q12(x, .) / q1(x) on the right factor."""
    space = _joint_space(q12)
    x = _check_outcome(space, x)
    row = _conditional_rows(q12.values[x : x + 1], space.right.weights)[0]
    return Density(space.right, row)


def conditional_derivatives(q12: Density, v: FiberVector) -> np.ndarray:
    """All conditioning derivatives at once: the read-only (n1, n2) table
    whose row x is v(x, .) - E[v(x, .) | X = x], each row validated as a
    fiber vector at q21(.|x)."""
    space = _joint_space(q12)
    _require_same_base(v, q12)
    mu2 = space.right.weights
    cond = conditionals(q12)
    return _fiber_rows(cond, mu2, _centred_rows(v.values, cond, mu2))


def conditional_derivative(q12: Density, x: int, v: FiberVector) -> FiberVector:
    """Derivative of the conditioning map at q12 for outcome x.

    Returns v(x, .) - E[v(x, .) | X = x], a fiber vector at q21(.|x).
    """
    space = _joint_space(q12)
    x = _check_outcome(space, x)
    _require_same_base(v, q12)
    cond = condition(q12, x)
    row = _centred_rows(v.values[x : x + 1], cond.values, space.right.weights)[0]
    return FiberVector(cond, row, v.polarity)


def _chart_means(p2: Density, rows: np.ndarray) -> np.ndarray:
    """sum_z v(x, z) p2(z) mu2(z) for each row x of a block."""
    return np.sum(rows * p2.values * p2.space.weights, axis=1)


def _chart_expression_rows(
    p2: Density, rows: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """(v(x, .) - m) / (1 + m) for each row of a block whose first row is
    outcome ``first``, together with the denominators 1 + m."""
    m = _chart_means(p2, rows)
    denom = 1.0 + m
    bad = np.flatnonzero(denom <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise BoundaryError(
            "conditioning chart image leaves the model: "
            f"1 + m = {float(denom[i])!r} at outcome {first + i}"
        )
    return (rows - m[:, None]) / denom[:, None], denom


def _chart_derivative_rows(
    p2: Density, v_rows: np.ndarray, h_rows: np.ndarray, first: int
) -> np.ndarray:
    """(h(x, .) - m_h - F_x(v) * m_h) / (1 + m_v) for each row of a block."""
    fx, denom = _chart_expression_rows(p2, v_rows, first)
    m_h = _chart_means(p2, h_rows)[:, None]
    return (h_rows - m_h - fx * m_h) / denom[:, None]


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
    fx, _ = _chart_expression_rows(p2, v.values[x : x + 1], x)
    return FiberVector(p2, fx[0], "mixture")


def condition_chart_derivatives(
    p1: Density, p2: Density, v: FiberVector, h: FiberVector
) -> np.ndarray:
    """All rows of :func:`condition_chart_derivative` at once: the read-only
    (n1, n2) table, each row validated as a fiber vector at p2."""
    p12 = product_density(p1, p2)
    _require_same_base(v, p12)
    _require_same_base(h, p12)
    rows = _chart_derivative_rows(p2, v.values, h.values, 0)
    return _fiber_rows(p2.values, p2.space.weights, rows)


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
    rows = _chart_derivative_rows(
        p2, v.values[x : x + 1], h.values[x : x + 1], x
    )
    return FiberVector(p2, rows[0], "mixture")


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


def _conditional_kls(p2: Density, cond: np.ndarray) -> np.ndarray:
    """D(p2 || q21(.|x)) for each row x of a conditionals table."""
    return np.sum(p2.space.weights * p2.values * np.log(p2.values / cond), axis=1)


def exp_decompose(p1: Density, p2: Density, q12: Density) -> ChartDecomposition:
    """Split the exponential chart of a joint along margin and conditionals.

    The centering term is D(p2||q21(.|x)) minus its p1-expectation, the
    average forced by the zero-expectation requirement on the joint chart
    (the plain mu1-average does not close the identity).
    """
    space = _joint_space(q12)
    p12 = product_density(p1, p2)
    if p12.space != space:
        raise MismatchError("reference densities do not match the joint space")
    u12 = exp_chart(p12, q12).values
    q1 = marginalize(q12)
    u1 = exp_chart(p1, q1).values
    cond = conditionals(q12)
    mu2 = space.right.weights
    logratio = np.log(cond) - np.log(p2.values)
    u21 = _fiber_rows(p2.values, mu2, _centred_rows(logratio, p2.values, mu2))
    cond_kl = _conditional_kls(p2, cond)
    centering = cond_kl - float(np.sum(cond_kl * p1.values * space.left.weights))
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
    cond_kl = _conditional_kls(p2, conditionals(q12))
    cond = float(np.sum(cond_kl * (p1.values * space.left.weights)))
    return KLChain(total, marginal_term, cond)
