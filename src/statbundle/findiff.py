"""Independent finite-difference oracle for validating analytic derivatives.

Plain central differences, (f(t + h) - f(t - h)) / 2h.  This module is
deliberately self-contained: it evaluates caller-supplied functions and
shares no code with the analytic derivative paths it is used to check.
The default step h = 1e-5 balances the O(h^2) truncation error (~1e-10)
against roundoff (~1e-11), leaving two orders of margin under the 1e-6
tolerance used by consumer tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class FDConfig:
    """Step size of the central-difference oracle, in (0, 1e-2)."""

    h: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.h < 1e-2:
            raise ValueError(f"step {self.h!r} outside (0, 1e-2)")


DEFAULT = FDConfig()


def fd_scalar(fn: Callable[[float], float], t: float, cfg: FDConfig = DEFAULT) -> float:
    """d/dt fn(t) by central differences; exact on quadratics."""
    hi, lo = fn(t + cfg.h), fn(t - cfg.h)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ArithmeticError(
            f"non-finite probe evaluation near t={t} with h={cfg.h}"
        )
    return (hi - lo) / (2.0 * cfg.h)


def fd_gradient(
    fn: Callable[[np.ndarray], float], theta, cfg: FDConfig = DEFAULT
) -> np.ndarray:
    """Coordinatewise central-difference gradient of a scalar function."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(theta.size)
    for j in range(theta.size):
        def section(t: float, j=j) -> float:
            probe = theta.copy()
            probe[j] = t
            return fn(probe)

        out[j] = fd_scalar(section, float(theta[j]), cfg)
    return out


def fd_vector_curve(
    fn: Callable[[float], Sequence[float]], t: float, cfg: FDConfig = DEFAULT
) -> np.ndarray:
    """Central-difference derivative of a vector-valued curve, per coordinate."""
    hi = np.asarray(fn(t + cfg.h), dtype=float)
    lo = np.asarray(fn(t - cfg.h), dtype=float)
    if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
        raise ArithmeticError(
            f"non-finite probe evaluation near t={t} with h={cfg.h}"
        )
    return (hi - lo) / (2.0 * cfg.h)
