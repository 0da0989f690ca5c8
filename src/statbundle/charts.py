"""Affine charts of the statistical bundle and the two parallel transports.

The exponential chart at ``p`` sends ``q`` to the centered log-likelihood
ratio ``log(q/p) - E_p[log(q/p)]``; the mixture chart sends ``q`` to
``q/p - 1``.  Their inverses are ``v -> exp(v - K_p(v)) * p`` and
``w -> (1 + w) * p``, with ``K_p`` the cumulant ``log E_p[exp(.)]``.  The
exponential transport subtracts the target expectation; the mixture
transport multiplies by the density ratio.  Together these satisfy the
affine displacement axioms, which makes the velocity of a density curve in
the moving frame equal to its Fisher score ``d/dt log q(t)`` -- computed
here by :func:`score_velocity` via central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BoundaryError,
    Density,
    FiberVector,
    NormalizationError,
    StatBundleError,
    _coord_label,
    _expect,
    _require_same_base,
    _require_same_space,
    center,
)
from .findiff import FDConfig, fd_vector_curve

INVERSE_CHART_DRIFT_LIMIT = 1e-10


@dataclass(frozen=True)
class Curve:
    """A smooth map from time to densities on one space.

    ``at`` must be re-entrant; ``t0``/``t1`` bound the valid parameter range
    (defaults: the whole real line).
    """

    at: Callable[[float], Density]
    t0: float = -math.inf
    t1: float = math.inf

    def __call__(self, t: float) -> Density:
        if not (self.t0 <= t <= self.t1):
            raise StatBundleError(
                f"curve parameter {t} outside domain [{self.t0}, {self.t1}]"
            )
        return self.at(t)


def cumulant(p: Density, u: FiberVector) -> float:
    """K_p(u) = log E_p[exp(u)], max-shift stabilized.

    Nonnegative, zero exactly at u = 0 (strict convexity of exp).
    """
    _require_same_base(u, p)
    vals = u.values.ravel()
    w = (p.values * p.space.weights).ravel()
    m = float(vals.max())
    s = float((w * np.exp(vals - m)).sum())
    # Dividing by sum(w) rather than 1 pins cumulant(p, 0) == 0 exactly,
    # even when the weights only sum to 1 up to float round-off.
    return m + np.log(s) - np.log(float(w.sum()))


def exp_chart(p: Density, q: Density) -> FiberVector:
    """Exponential chart centered at p: log(q/p) - E_p[log(q/p)]."""
    _require_same_space(p.space, q.space)
    logratio = np.log(q.values) - np.log(p.values)
    return center(p, logratio, "exponential")


def exp_chart_inv(p: Density, v: FiberVector) -> Density:
    """Inverse exponential chart: exp(v - K_p(v)) * p.

    The cumulant normalizes exactly in real arithmetic; residual float
    drift is divided out, and drift beyond 1e-10 is rejected as a bug.
    """
    _require_same_base(v, p)
    vals = np.exp(v.values - cumulant(p, v)) * p.values
    mass = float(np.dot(vals.ravel(), p.space.weights.ravel()))
    if abs(mass - 1.0) > INVERSE_CHART_DRIFT_LIMIT:
        raise NormalizationError(
            f"inverse-chart drift {abs(mass - 1.0):.3e} exceeds "
            f"{INVERSE_CHART_DRIFT_LIMIT:.0e}"
        )
    return Density(p.space, vals / mass)


def mix_chart(p: Density, q: Density) -> FiberVector:
    """Mixture chart centered at p: q/p - 1 (zero p-expectation exactly)."""
    _require_same_space(p.space, q.space)
    return FiberVector(p, q.values / p.values - 1.0, "mixture")


def mix_chart_inv(p: Density, w: FiberVector) -> Density:
    """Inverse mixture chart: (1 + w) * p.

    Requires 1 + w > 0 everywhere; the image constraint is an error, never
    a clamp, since clamping would silently leave the model.
    """
    _require_same_base(w, p)
    scaled = 1.0 + w.values
    flat = scaled.ravel()
    bad = np.flatnonzero(flat <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise BoundaryError(
            f"mixture chart image leaves the model: 1 + w = {flat[i]!r} "
            f"at index {_coord_label(scaled.shape, i)}"
        )
    return Density(p.space, scaled * p.values)


def e_transport(p: Density, q: Density, v: FiberVector) -> FiberVector:
    """Exponential transport from p to q: v - E_q[v]."""
    _require_same_base(v, p)
    _require_same_space(p.space, q.space)
    return FiberVector(q, v.values - _expect(q, v.values), v.polarity)


def m_transport(p: Density, q: Density, w: FiberVector) -> FiberVector:
    """Mixture transport from p to q: (p/q) * w."""
    _require_same_base(w, p)
    _require_same_space(p.space, q.space)
    return FiberVector(q, p.values / q.values * w.values, w.polarity)


def score_velocity(curve: Curve, t: float, h: float = 1e-5) -> FiberVector:
    """Fisher score d/dt log q(t) by central differences.

    The difference quotient of :func:`~statbundle.findiff.fd_vector_curve`
    on log q is re-centered under q(t) to remove the O(h^2) mean drift, so
    the result is an exact fiber vector.  ``h`` must lie in (0, 1e-2).
    """
    if not (curve.t0 <= t - h and t + h <= curve.t1):
        raise StatBundleError(
            f"central difference at t={t} with h={h} leaves the curve "
            f"domain [{curve.t0}, {curve.t1}]"
        )
    return center(
        curve(t),
        fd_vector_curve(lambda s: np.log(curve(s).values), t, FDConfig(h)),
        "exponential",
    )


def mixture_curve(q: Density, w: FiberVector) -> Curve:
    """The line t -> (1 + t*w) * q, restricted so positivity holds.

    The domain keeps 1 + t*w >= 1/2, a safety margin for central
    differences near the boundary.
    """
    _require_same_base(w, q)
    peak = float(np.max(np.abs(w.values)))
    t_max = math.inf if peak == 0.0 else 0.5 / peak
    return Curve(
        at=lambda t: Density(q.space, (1.0 + t * w.values) * q.values),
        t0=-t_max,
        t1=t_max,
    )


def exponential_curve(p: Density, u: FiberVector) -> Curve:
    """The one-parameter exponential family t -> exp(t*u - K_p(t*u)) * p."""
    _require_same_base(u, p)
    return Curve(
        at=lambda t: exp_chart_inv(p, FiberVector(p, t * u.values, "exponential"))
    )
