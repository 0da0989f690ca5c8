"""Affine charts of the statistical bundle and the two parallel transports.

The exponential chart at ``p`` sends ``q`` to the centered log-likelihood
ratio ``log(q/p) - E_p[log(q/p)]``; the mixture chart sends ``q`` to
``q/p - 1``.  Their inverses are ``v -> exp(v - K_p(v)) * p`` and
``w -> (1 + w) * p``, with ``K_p`` the cumulant ``log E_p[exp(.)]``.  Both
the exponential inverse and the cumulant are read off one tilt of p,
``exp(v - c) * p`` for a constant c, and its mass, which ``_tilt`` computes
for them and for :func:`~statbundle.divergence.structural_reconstruct`.  The
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
    POSITIVITY_FLOOR,
    StatBundleError,
    _coord_label,
    _frozen,
    _require_same_base,
    _require_same_space,
    _row_masses,
    center,
)
from .findiff import fd_vector_curve

INVERSE_CHART_DRIFT_LIMIT = 1e-10
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = math.log(_TINY)


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
    """K_p(u) = log E_p[exp(u)], max-shift stabilized: max u plus the log
    of the mass of the tilt exp(u - max u) * p, over the mass of p.

    Nonnegative, zero exactly at u = 0 (strict convexity of exp).  A
    spread of u beyond the float range takes u - max u to -inf, whose
    exponential is 0, so the result is finite.
    """
    _require_same_base(u, p)
    return _cumulant(p, u.values)


def _cumulant(p: Density, u: np.ndarray) -> float:
    """K_p(u) of an array u of p's shape, as max u plus the log of the mass
    of the tilt at max u; u is not written.  Adding a constant to u adds it
    to K_p(u), so u need not be centred; an entry +inf or NaN raises
    :class:`StatBundleError`."""
    m = float(u.max())
    if not math.isfinite(m):
        raise StatBundleError("exponent contains a non-finite entry")
    with np.errstate(over="ignore"):
        shifted = u - m
    # Dividing by the mass of p rather than 1 pins cumulant(p, 0) == 0
    # exactly, even when it is 1 only up to float round-off.
    base = float(_row_masses(p.values.ravel(), p.space.weights.ravel()))
    return float(m + np.log(_tilt(p, shifted)[1]) - np.log(base))


def _tilt(p: Density, e: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(e) * p, computed in the array e, and its mass sum(exp(e) * p * mu):
    the one tilt of the inverse chart, the cumulant and the structural equation."""
    np.exp(e, out=e)
    e *= p.values
    return e, float(_row_masses(e.ravel(), p.space.weights.ravel()))


def exp_chart(p: Density, q: Density) -> FiberVector:
    """Exponential chart centered at p: log(q/p) - E_p[log(q/p)]."""
    _require_same_space(p, q)
    logratio = np.log(q.values)
    logratio -= np.log(p.values)
    return center(p, logratio, "exponential")


def exp_chart_inv(p: Density, v: FiberVector) -> Density:
    """Inverse exponential chart: exp(v - K_p(v)) * p.

    Computed by ``_exp_chart_inv``, which :func:`~statbundle.expfam.density`
    shares.  One exponential: the tilt e = exp(v - max v) * p divided by its
    own mass sum(e * mu), which is exp(K_p(v) - max v) in real arithmetic.
    Where that could lose an entry -- exp(v - max v) underflows, or the
    mass is so small that an entry of e below the normal float range could
    still normalise above the positivity floor -- the cumulant is
    subtracted before the exponential, as the formula reads, and the tilt
    is exp(v - K_p(v)) * p.  On that path the cumulant normalizes exactly
    in real arithmetic; residual float drift is divided out, and drift
    beyond 1e-10 is rejected as a bug.  An entry that leaves the model, as
    where a spread of v beyond the float range takes v - K to -inf, raises
    the :class:`BoundaryError` of :class:`Density` first.  Each path
    computes in one array, which the member adopts.
    """
    _require_same_base(v, p)
    return _exp_chart_inv(p, v.values)


def _exp_chart_inv(p: Density, u: np.ndarray) -> Density:
    """exp(u - K_p(u)) * p for an array u of p's shape, by the paths of
    :func:`exp_chart_inv`.  The member does not change when a constant is
    added to u, so u need not be centred.

    A writeable u is taken as scratch, which the member adopts: a path
    computes in it once the fallback can no longer need it.  A read-only u
    is never written.
    """
    top_at = int(u.argmax())
    top = u.flat[top_at]
    # min(u - max u), as Python floats: -inf, silently, for a spread beyond
    # the float range, which the fallback turns into a BoundaryError.
    if float(u.min()) - float(top) > _LOG_TINY:
        # e is p at the top of u, so its mass is at least p * mu there: where
        # that clears the floor, this path returns and the fallback never runs.
        least = float(p.values.flat[top_at] * p.space.weights.flat[top_at])
        owned = u.flags.writeable and least * POSITIVITY_FLOOR >= _TINY
        vals, mass = _tilt(p, np.subtract(u, top, out=u if owned else None))
        if mass * POSITIVITY_FLOOR >= _TINY:
            vals /= mass
            return Density(p.space, _frozen(vals))
    with np.errstate(over="ignore"):
        vals = np.subtract(u, _cumulant(p, u), out=u if u.flags.writeable else None)
    vals, mass = _tilt(p, vals)
    vals /= mass
    member = Density(p.space, _frozen(vals))
    if abs(mass - 1.0) > INVERSE_CHART_DRIFT_LIMIT:
        raise NormalizationError(
            f"inverse-chart drift {abs(mass - 1.0):.3e} exceeds "
            f"{INVERSE_CHART_DRIFT_LIMIT:.0e}"
        )
    return member


def mix_chart(p: Density, q: Density) -> FiberVector:
    """Mixture chart centered at p: q/p - 1 (zero p-expectation exactly).
    Where q/p is below about 1.1e-16, w rounds to -1 and :func:`mix_chart_inv`
    raises BoundaryError: q = (2 - 1e-17, 1e-17) against uniform p on weights
    (0.5, 0.5) does not round-trip."""
    _require_same_space(p, q)
    w = q.values / p.values
    w -= 1.0
    return FiberVector(p, _frozen(w), "mixture")


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
            f"mixture chart image leaves the model: 1 + w = {float(flat[i])!r} "
            f"at index {_coord_label(scaled.shape, i)}"
        )
    scaled *= p.values
    return Density(p.space, _frozen(scaled))


def e_transport(p: Density, q: Density, v: FiberVector) -> FiberVector:
    """Exponential transport from p to q: v - E_q[v]."""
    _require_same_base(v, p)
    _require_same_space(p, q)
    return center(q, v.values, v.polarity)


def m_transport(p: Density, q: Density, w: FiberVector) -> FiberVector:
    """Mixture transport from p to q: (p/q) * w."""
    _require_same_base(w, p)
    _require_same_space(p, q)
    moved = p.values / q.values
    moved *= w.values
    return FiberVector(q, _frozen(moved), w.polarity)


def score_velocity(curve: Curve, t: float) -> FiberVector:
    """Fisher score d/dt log q(t) by central differences.

    The difference quotient of :func:`~statbundle.findiff.fd_vector_curve`,
    at its step h = 1e-5, on log q is re-centered under q(t) to remove the
    O(h^2) mean drift, so the result is an exact fiber vector.  A probe
    point t +- h outside the curve's domain raises the curve's
    :class:`StatBundleError`.
    """
    return center(
        curve(t),
        fd_vector_curve(lambda s: np.log(curve(s).values), t),
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
        at=lambda t: Density(q.space, _frozen((1.0 + t * w.values) * q.values)),
        t0=-t_max,
        t1=t_max,
    )


def exponential_curve(p: Density, u: FiberVector) -> Curve:
    """The one-parameter exponential family t -> exp(t*u - K_p(t*u)) * p."""
    _require_same_base(u, p)
    return Curve(at=lambda t: _exp_chart_inv(p, t * u.values))
