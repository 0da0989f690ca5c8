"""Independent finite-difference oracle for validating analytic derivatives.

Central differences only, with optional one-level Richardson
extrapolation.  This module is deliberately self-contained: it evaluates
caller-supplied functions and shares no code with the analytic derivative
paths it is used to check.  The default step h = 1e-5 balances the O(h^2)
truncation error (~1e-10) against roundoff (~1e-11), leaving two orders
of margin under the 1e-6 tolerance used by consumer tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class FDConfig:
    """Step size and Richardson option for the central-difference oracle."""

    h: float = 1e-5
    richardson: bool = False

    def __post_init__(self):
        if not 0.0 < self.h < 1e-2:
            raise ValueError(f"step {self.h!r} outside (0, 1e-2)")


DEFAULT = FDConfig()


def _central(fn: Callable[[float], float], t: float, h: float) -> float:
    hi, lo = fn(t + h), fn(t - h)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ArithmeticError(
            f"non-finite probe evaluation near t={t} with h={h}"
        )
    return (hi - lo) / (2.0 * h)


def fd_scalar(fn: Callable[[float], float], t: float, cfg: FDConfig = DEFAULT) -> float:
    """d/dt fn(t) by central differences; exact on quadratics.

    With ``richardson``, combines the h and h/2 estimates as
    (4*e_{h/2} - e_h) / 3, cancelling the O(h^2) term.
    """
    plain = _central(fn, t, cfg.h)
    if not cfg.richardson:
        return plain
    half = _central(fn, t, cfg.h / 2.0)
    return (4.0 * half - plain) / 3.0


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
    plain = (hi - lo) / (2.0 * cfg.h)
    if not cfg.richardson:
        return plain
    half_cfg = FDConfig(h=cfg.h / 2.0)
    half = fd_vector_curve(fn, t, half_cfg)
    return (4.0 * half - plain) / 3.0
