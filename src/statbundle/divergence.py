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
    _require_same_base,
    _require_same_space,
    pairing,
)
from .charts import exp_chart, mix_chart


def kl(q: Density, r: Density) -> float:
    """D(q||r) = sum(q * log(q/r) * mu) >= 0, zero iff q == r."""
    _require_same_space(q.space, r.space)
    qv = q.values.ravel()
    return float((q.space.weights.ravel() * qv * np.log(qv / r.values.ravel())).sum())


def structural_reconstruct(p: Density, q: Density) -> Density:
    """Rebuild q from p as exp(s_p(q) - D(p||q)) * p.

    Callers assert equality with q; the identity is exact in real
    arithmetic because D(p||q) = K_p(s_p(q)) is the chart normalizer.
    """
    _require_same_space(p.space, q.space)
    s = exp_chart(p, q)
    return Density(p.space, np.exp(s.values - kl(p, q)) * p.values)


def grad1_kl(q: Density, r: Density) -> FiberVector:
    """First-slot natural gradient of D(q||r): -s_q(r), a fiber vector at q."""
    s = exp_chart(q, r)
    return FiberVector(q, -s.values, "exponential")


def grad2_kl(q: Density, r: Density) -> FiberVector:
    """Second-slot natural gradient of D(q||r): -eta_r(q), a fiber vector at r."""
    eta = mix_chart(r, q)
    return FiberVector(r, -eta.values, "mixture")


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
    _require_same_space(M.space, N.space)
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
    logratio = np.log(mvals) - np.log(nvals)
    gap = nvals - mvals
    out = np.empty(len(dM))
    for j, (a, b) in enumerate(zip(dM, dN)):
        out[j] = float(np.sum(mu * logratio * mvals * a.ravel())) + float(
            np.sum(mu * gap * b.ravel())
        )
    return out
