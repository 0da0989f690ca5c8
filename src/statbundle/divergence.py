"""Kullback-Leibler divergence and its total natural gradient.

The divergence D(q||r) = E_q[log(q/r)] decomposes against the affine
charts: reconstructing ``q = exp(s_p(q) - D(p||q)) * p`` is exact, and the
two slot gradients are chart values,

    Grad_1 D(q||r) = -s_q(r)      (exponential chart at q),
    Grad_2 D(q||r) = -eta_r(q)    (mixture chart at r),

so that d/dt D(q(t)||r(t)) = <qdot, Grad_1>_q + <Grad_2, rdot>_r along any
pair of smooth curves.  KL is evaluated coordinatewise in the log domain
with no clipping: strict positivity of Density makes the log safe, and
clipping would corrupt the gradient checks.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Density,
    FiberVector,
    MismatchError,
    _as_float_array,
    _frozen,
    _require_same_base,
    _require_same_space,
    center,
    pairing,
)
from .charts import _tilt, exp_chart


def _kl_rows(mu: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum(mu * q * (log q - log r)) over the last axis: D(q||r) of each row.

    The one KL formula of the package; :func:`kl` applies it to raveled
    densities and :mod:`~statbundle.bayes` to tables of conditionals, r of
    the table's shape.  The difference of logs, as in the exponential chart,
    is finite where q / r overflows or underflows.  It is formed in the
    buffer of log r, which then takes the factor mu * q, so that two arrays
    of r's size are alive at most.
    """
    t = np.log(r)
    np.subtract(np.log(q), t, out=t)
    t *= mu * q
    return t.sum(axis=-1)


def kl(q: Density, r: Density) -> float:
    """D(q||r) = sum(q * log(q/r) * mu) >= 0, zero iff q == r."""
    _require_same_space(q, r)
    return float(
        _kl_rows(q.space.weights.ravel(), q.values.ravel(), r.values.ravel())
    )


def structural_reconstruct(p: Density, q: Density) -> Density:
    """Rebuild q from p as exp(s_p(q) - D(p||q)) * p.

    Callers assert equality with q; the identity is exact in real
    arithmetic because D(p||q) = K_p(s_p(q)) is the chart normalizer.
    """
    _require_same_space(p, q)
    d = kl(p, q)  # before the chart, so that their temporaries do not meet
    s = exp_chart(p, q)
    return Density(p.space, _frozen(_tilt(p, s.values - d)[0]))


def grad1_kl(q: Density, r: Density) -> FiberVector:
    """First-slot natural gradient of D(q||r): -s_q(r), a fiber vector at q,
    as log q - log r centred at q."""
    _require_same_space(q, r)
    return center(q, np.log(q.values) - np.log(r.values))


def grad2_kl(q: Density, r: Density) -> FiberVector:
    """Second-slot natural gradient of D(q||r): -eta_r(q) = 1 - q/r, a fiber
    vector at r."""
    _require_same_space(q, r)
    return FiberVector(r, _frozen(1.0 - q.values / r.values), "mixture")


def kl_curve_derivative(
    q: Density, qdot: FiberVector, r: Density, rdot: FiberVector
) -> float:
    """d/dt D(q(t)||r(t)) from the velocities via the two slot gradients.

    The pairing order (velocity first in slot one, gradient first in slot
    two) is cosmetic -- the pairing is symmetric -- but kept for
    traceability.
    """
    _require_same_base(qdot, q)
    _require_same_base(rdot, r)
    return pairing(q, qdot, grad1_kl(q, r)) + pairing(r, grad2_kl(q, r), rdot)


def common_param_gradient(M: Density, N: Density, dlogM, dlogN) -> np.ndarray:
    """Gradient of theta -> D(M(theta)||N(theta)) for a shared parameter.

    ``dlogM[j]`` and ``dlogN[j]`` are the coordinatewise partial
    log-densities d/dtheta_j log M and d/dtheta_j log N at the current
    parameter.  Using grad M = M * dlog M, the j-th component is

        sum(mu * (log(M/N) * M * dlogM[j] + (N - M) * dlogN[j])).

    Validated against central differences of D(M(theta)||N(theta)).
    """
    _require_same_space(M, N)
    dM = [_as_float_array(a, "dlogM") for a in dlogM]
    dN = [_as_float_array(a, "dlogN") for a in dlogN]
    if len(dM) != len(dN):
        raise MismatchError(
            f"parameter dimension mismatch: {len(dM)} vs {len(dN)} partials"
        )
    for a in (*dM, *dN):
        if a.shape != M.values.shape:
            raise MismatchError(
                f"partial log-density shape {a.shape} does not match "
                f"density shape {M.values.shape}"
            )
    mu = M.space.weights.ravel()
    mvals = M.values.ravel()
    nvals = N.values.ravel()
    shape = (len(dM), mvals.size)
    logratio = np.log(mvals) - np.log(nvals)
    return np.sum(mu * logratio * mvals * np.reshape(dM, shape), axis=1) + np.sum(
        mu * (nvals - mvals) * np.reshape(dN, shape), axis=1
    )
