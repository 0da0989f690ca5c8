"""Independent finite-difference oracle for validating analytic derivatives.

Plain central differences, (f(t + h) - f(t - h)) / 2h, at the one step
h = 1e-5 (:data:`STEP`).  This module is deliberately self-contained: it
evaluates caller-supplied functions and shares no code with the analytic
derivative paths it is used to check.  The step balances the O(h^2)
truncation error (~1e-10) against roundoff (~1e-11), leaving two orders of
margin under the 1e-6 tolerance used by consumer tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import _float_array

STEP = 1e-5


def fd_scalar(fn: Callable[[float], float], t: float) -> float:
    """d/dt fn(t) by central differences; exact on quadratics."""
    return float(fd_vector_curve(fn, t))


def fd_gradient(fn: Callable[[np.ndarray], float], theta) -> np.ndarray:
    """Coordinatewise central-difference gradient of a scalar function."""
    theta = np.atleast_1d(_float_array(theta, "theta"))
    out = np.empty(theta.size)
    for j in range(theta.size):
        def section(t: float, j=j) -> float:
            probe = theta.copy()
            probe[j] = t
            return fn(probe)

        out[j] = fd_scalar(section, float(theta[j]))
    return out


def fd_vector_curve(fn: Callable[[float], Sequence[float]], t: float) -> np.ndarray:
    """Central-difference derivative of a vector-valued curve, per coordinate."""
    hi = np.asarray(fn(t + STEP), dtype=float)
    lo = np.asarray(fn(t - STEP), dtype=float)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ArithmeticError(
            f"non-finite probe evaluation near t={t} with h={STEP}"
        )
    return (hi - lo) / (2.0 * STEP)
