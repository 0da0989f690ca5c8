"""Marginalization and conditioning as maps between open simplices,
together with their bundle derivatives.

A joint density q12 on a product space maps to its first margin
``q1(x) = sum_z q12(x, z) mu2(z)`` and, for each outcome ``x``, to the
conditional ``q21(.|x) = q12(x, .) / q1(x)`` -- always well defined here
because densities are strictly positive everywhere.
Every such sum over the second factor -- the margin, the masses that
normalise the conditionals and the numerators of conditional expectations --
is the per-row dot of :func:`~statbundle.core._row_masses`, so the margin
is exactly what divides the conditionals and q1(x) * q21(y|x) reproduces
q12(x, y) to one ulp.

Reading these maps in mixture charts gives their derivatives in closed
form:

* the derivative of marginalization at q12 applied to a velocity v is the
  conditional expectation ``x -> E_q[v | X = x]``;
* the derivative of conditioning at ``x`` is the centered section
  ``v(x, .) - E[v(x, .) | X = x]``.

Each conditioning map is computed for all outcomes x at once, as a
read-only (n1, n2) table whose row x belongs to outcome x:
:func:`conditionals`, :func:`conditional_derivatives` and
:func:`condition_chart_derivatives`.  Each table validates all its rows in
one pass, with the rules the ``Density``/``FiberVector`` constructors
apply to a single row.  The chart form lets the full transport pipeline
(chart the velocity down, differentiate the chart expression, transport
back to the moving frame) be reproduced and checked against the closed
forms.  :func:`kl_chain` and :func:`exp_decompose` work on the tables;
their conditional divergences D(p2 || q21(.|x)) come from the one KL
formula of :mod:`~statbundle.divergence`, applied row by row.
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
    _centred_rows,
    _density_rows,
    _frozen,
    _require_density,
    _require_factors,
    _require_same_base,
    _row_masses,
    product_density,
)
from .charts import exp_chart
from .divergence import _kl_rows, kl


def _joint_space(q12: Density) -> ProductSpace:
    _require_density(q12)
    if not isinstance(q12.space, ProductSpace):
        raise MismatchError("expected a joint density on a product space")
    return q12.space


def _reference(p1: Density, p2: Density, space: ProductSpace) -> Density:
    """The reference product p1 (x) p2 on the joint ``space``, whose factors
    p1 and p2 must live on.  It is built on ``space`` itself, so its one
    new table is its values: the weight table is the joint's.  Its values
    and errors are those of :func:`~statbundle.core.product_density`."""
    _require_factors(p1, p2)
    if p1.space != space.left or p2.space != space.right:
        raise MismatchError("reference densities do not match the joint space")
    return Density(space, _frozen(np.outer(p1.values, p2.values)))


def marginalize(q12: Density) -> Density:
    """First margin q1(x) = sum_z q12(x, z) mu2(z).

    Row x is summed by :func:`~statbundle.core._row_masses`, as
    ``np.dot(q12[x], mu2)``: these are the masses that divide the rows in
    :func:`conditionals`, so q1(x) * q21(y|x) gives back q12(x, y) to one
    ulp.
    """
    space = _joint_space(q12)
    return Density(space.left, _frozen(_row_masses(q12.values, space.right.weights)))


def marginal_derivative(q12: Density, v: FiberVector) -> FiberVector:
    """Derivative of marginalization at q12: the conditional expectation.

    Returns x -> E_q[v | X = x], a fiber vector at the margin q1 that it
    divides by; its zero q1-expectation is the tower property and is
    re-validated by the fiber constructor.  The numerator of row x is
    ``np.dot(v[x] * q12[x], mu2)``, summed by
    :func:`~statbundle.core._row_masses` as the margin is.
    """
    space = _joint_space(q12)
    _require_same_base(v, q12)
    q1 = marginalize(q12)
    vals = _row_masses(v.values * q12.values, space.right.weights) / q1.values
    return FiberVector(q1, _frozen(vals), v.polarity)


def conditionals(q12: Density) -> np.ndarray:
    """All conditionals at once: the read-only (n1, n2) table whose row x is
    q21(.|x), validated row by row as :class:`Density` validates."""
    mu2 = _joint_space(q12).right.weights
    rows = q12.values
    return _frozen(_density_rows(mu2, rows / _row_masses(rows, mu2)[:, None]))


def conditional_derivatives(q12: Density, v: FiberVector) -> np.ndarray:
    """All conditioning derivatives at once: the read-only (n1, n2) table
    whose row x is v(x, .) - E[v(x, .) | X = x], each row validated as a
    fiber vector at q21(.|x)."""
    space = _joint_space(q12)
    _require_same_base(v, q12)
    return _centred_rows(v.values, conditionals(q12), space.right.weights)


def condition_chart_derivatives(
    p1: Density, p2: Density, v: FiberVector, h: FiberVector
) -> np.ndarray:
    """The conditioning map read in mixture charts centered at p1 (x) p2 and
    p2, differentiated at the chart value v in direction h.

    The chart expression at outcome x is

        F_x(v) = (v(x, .) - m_v) / (1 + m_v),   m_v = sum_z v(x, z) p2(z) mu2(z),

    the mixture chart of the conditional at x of the density
    ``(1 + v) * p1 (x) p2``; it requires 1 + m_v > 0 (else the image leaves
    the model).  Returns the read-only (n1, n2) table whose row x is its
    derivative

        (h(x, .) - m_h - F_x(v) * m_h) / (1 + m_v),

    each row centred at p2 by :func:`~statbundle.core._centred_rows` and
    validated as a fiber vector there.  Together with the two mixture
    transports this reproduces :func:`conditional_derivatives`.
    """
    p12 = product_density(p1, p2)
    _require_same_base(v, p12)
    _require_same_base(h, p12)
    del p12  # its values and weights, two tables that nothing below reads
    m = _chart_means(v, p2)
    denom = 1.0 + m
    bad = np.flatnonzero(denom <= 0.0)
    if bad.size:
        x = int(bad[0])
        raise BoundaryError(
            "conditioning chart image leaves the model: "
            f"1 + m = {float(denom[x])!r} at outcome {x}"
        )
    denom = denom[:, None]
    # (h - m_h - F_x(v) * m_h) / (1 + m_v) in place, in the two buffers fx
    # and rows, in the order of the expression.
    fx = v.values - m[:, None]
    fx /= denom
    m_h = _chart_means(h, p2)[:, None]
    fx *= m_h
    rows = h.values - m_h
    rows -= fx
    del fx
    rows /= denom
    return _centred_rows(rows, p2.values, p2.space.weights)


def _chart_means(v: FiberVector, p2: Density) -> np.ndarray:
    """m(x) = sum_z v(x, z) p2(z) mu2(z) of each row, one pairwise sum per
    row of (v * p2) * mu2, formed in one buffer."""
    terms = v.values * p2.values
    terms *= p2.space.weights
    return terms.sum(axis=1)


def _conditional_kls(
    p1: Density, p2: Density, space: ProductSpace, cond: np.ndarray
) -> tuple[np.ndarray, float]:
    """D(p2 || q21(.|x)) of each row of the table ``cond``, and their
    p1-average sum_x D(p2 || q21(.|x)) p1(x) mu1(x): the conditional term of
    :func:`kl_chain` and the mean that :func:`exp_decompose` subtracts."""
    cond_kl = _kl_rows(space.right.weights, p2.values, cond)
    return cond_kl, float(np.sum(cond_kl * (p1.values * space.left.weights)))


@dataclass(frozen=True, eq=False)
class ChartDecomposition:
    """Exponential-chart split of a joint: u12 = u1 + u21 - centering.

    ``joint`` is the chart of q12 at p1 (x) p2, ``marginal`` the chart of
    q1 at p1, ``conditional`` the charts of q21(.|x) at p2, one row per x, and
    ``centering`` the x-indexed conditional-divergence term recentred to
    zero mean.  ``residual`` is the max-abs defect of the identity.
    Decompositions compare and hash by identity, as their arrays do not
    compare to one bool.
    """

    joint: np.ndarray
    marginal: np.ndarray
    conditional: np.ndarray
    centering: np.ndarray

    @property
    def residual(self) -> float:
        split = self.marginal[:, None] + self.conditional - self.centering[:, None]
        return float(np.max(np.abs(self.joint - split)))


def exp_decompose(p1: Density, p2: Density, q12: Density) -> ChartDecomposition:
    """Split the exponential chart of a joint along margin and conditionals.

    The centering term is D(p2||q21(.|x)) minus its p1-expectation, the
    average forced by the zero-expectation requirement on the joint chart
    (the plain mu1-average does not close the identity).
    """
    space = _joint_space(q12)
    u12 = exp_chart(_reference(p1, p2, space), q12).values
    u1 = exp_chart(p1, marginalize(q12)).values
    cond = conditionals(q12)
    cond_kl, average = _conditional_kls(p1, p2, space, cond)
    # The log ratio in the buffer of log q21, once nothing reads the table.
    logratio = np.log(cond)
    del cond
    logratio -= np.log(p2.values)
    u21 = _centred_rows(logratio, p2.values, space.right.weights)
    return ChartDecomposition(u12, u1, u21, _frozen(cond_kl - average))


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
    total = kl(_reference(p1, p2, space), q12)
    marginal_term = kl(p1, marginalize(q12))
    cond = _conditional_kls(p1, p2, space, conditionals(q12))[1]
    return KLChain(total, marginal_term, cond)
