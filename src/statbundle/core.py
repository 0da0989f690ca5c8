"""Finite sample spaces, positive densities, and fiber vectors.

Conventions used throughout the package:

* a :class:`SampleSpace` carries strictly positive reference weights
  ``mu(x)`` per outcome (the weights need not sum to one);
* a :class:`Density` ``q`` is strictly positive and normalized against the
  weights, ``sum(q * mu) == 1`` -- the open simplex relative to ``mu``;
* a :class:`FiberVector` at ``q`` is a random variable ``v`` with zero
  ``q``-expectation, ``sum(v * q * mu) == 0``; it plays the role of a
  tangent (or cotangent) vector at ``q``;
* joint objects reuse the same types with 2-d value arrays over a
  :class:`ProductSpace` whose weight table is the outer product of the
  factor weights.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from concurrent contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

NORMALIZATION_ATOL = 1e-12
RENORMALIZE_LIMIT = 1e-6
FIBER_ATOL = 1e-12
POSITIVITY_FLOOR = 1e-300

Polarity = Literal["exponential", "mixture"]
_POLARITIES = ("exponential", "mixture")


class StatBundleError(ValueError):
    """Base class for all validation errors raised by this package."""


class BoundaryError(StatBundleError):
    """A value left the open model (non-positive density, 1 + w <= 0, ...)."""


class NormalizationError(StatBundleError):
    """A density's total mass is too far from one to be float drift."""


class MismatchError(StatBundleError):
    """Operands live on different spaces or at different base densities."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise StatBundleError(f"{name} contains a non-finite entry")
    return arr


def _coord_label(shape: tuple[int, ...], flat_index: int) -> str:
    if len(shape) == 1:
        return str(flat_index)
    return str(tuple(int(i) for i in np.unravel_index(flat_index, shape)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, order="C")
    out.flags.writeable = False
    return out


def _centring_bound(vals, q, mu):
    """Tolerance on E_q[v]: FIBER_ATOL scaled by max(1, E_q[|v|]).

    The rounding error of a centred sum grows with the magnitude of its
    terms, so a fixed 1e-12 would reject large vectors that are centred
    to working precision.  Reduces over the last axis, so a block of rows
    gets one bound per row.
    """
    return FIBER_ATOL * np.maximum(1.0, np.sum(np.abs(vals) * q * mu, axis=-1))


def _row_masses(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum(row * weights) for each row of a (k, n) block.

    One ``np.dot`` per row, so a :class:`Density`, checked as a one-row
    block, and the same row inside a table get the same mass to the last
    bit.
    """
    return np.fromiter((np.dot(row, weights) for row in rows), float, len(rows))


def _row_label(rows: np.ndarray, x: int) -> str:
    return f" of row {x}" if rows.shape[0] > 1 else ""


def _density_rows(weights: np.ndarray, rows: np.ndarray, shape=None) -> np.ndarray:
    """Check each row of a fresh (k, n) block as a density against ``weights``.

    These are the rules of :class:`Density`, which checks its values as a
    one-row block: finite entries, no value below the positivity floor, and
    a mass within 1e-12 of one, where drift below 1e-6 is renormalised and
    larger drift is rejected.  Errors name an entry by its index in an
    array of ``shape`` (default: the block's).  Returns the block read-only.
    """
    # The passing path in two tests: min() >= floor also fails on NaN and
    # -inf, and +inf fails the drift test.  Anything else takes the checks
    # below, in their order, so that the first rule broken is the one named.
    if rows.min() >= POSITIVITY_FLOOR:
        if len(rows) == 1:  # a Density: its mass as a scalar, the same np.dot
            drift = abs(np.dot(rows[0], weights) - 1.0)
        else:
            drift = np.abs(_row_masses(rows, weights) - 1.0).max()
        if drift <= NORMALIZATION_ATOL:
            rows.flags.writeable = False
            return rows
    if not np.isfinite(rows).all():
        raise StatBundleError("density values contains a non-finite entry")
    if rows.min() < POSITIVITY_FLOOR:
        i = int(np.flatnonzero(rows < POSITIVITY_FLOOR)[0])
        raise BoundaryError(
            f"non-positive density value {float(rows.flat[i])!r} at index "
            f"{_coord_label(shape or rows.shape, i)} "
            "(the model excludes the boundary)"
        )
    mass = _row_masses(rows, weights)
    drift = np.abs(mass - 1.0)
    x = int(drift.argmax())
    if drift[x] > NORMALIZATION_ATOL:
        if drift[x] >= RENORMALIZE_LIMIT:
            raise NormalizationError(
                f"density mass {float(mass[x])!r}{_row_label(rows, x)} is off "
                f"by {drift[x]:.3e} "
                f"(renormalization limit {RENORMALIZE_LIMIT:.0e})"
            )
        off = drift > NORMALIZATION_ATOL
        rows = np.where(off[:, None], rows / mass[:, None], rows)
    rows.flags.writeable = False
    return rows


# A row holding infinities of both signs sums to NaN: without a warning,
# so that it reaches the non-finite error below.
@np.errstate(invalid="ignore")
def _fiber_rows(base: np.ndarray, mu: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Check each row of a fresh (k, n) block as a fiber vector.

    Row x is checked at the density ``base[x]``, or at ``base`` itself when
    it is a single density.  These are the rules of :class:`FiberVector`,
    which checks its values as a one-row block: finite entries and a
    centring residual within the scaled tolerance.  Returns the block
    read-only.
    """
    # The passing path in one test: a non-finite entry makes its row's
    # residual NaN or infinite, which fails it.  Anything else takes the
    # checks below, in their order.
    residual = np.abs((rows * base * mu).sum(axis=1))
    if residual.max() <= FIBER_ATOL:
        rows.flags.writeable = False
        return rows
    if not np.isfinite(rows).all():
        raise StatBundleError("fiber values contains a non-finite entry")
    if residual.max() > FIBER_ATOL:
        over = np.flatnonzero(residual > FIBER_ATOL)
        bases = np.broadcast_to(base, rows.shape)[over]
        bound = _centring_bound(rows[over], bases, mu)
        failed = np.flatnonzero(residual[over] > bound)
        if failed.size:
            i = int(failed[0])
            x = int(over[i])
            raise StatBundleError(
                f"not a fiber vector{_row_label(rows, x)}: expectation "
                f"residual {residual[x]:.3e} exceeds {bound[i]:.3e}"
            )
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """A finite outcome set with strictly positive reference weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights")
        if w.ndim != 1:
            raise StatBundleError("sample-space weights must be a 1-d vector")
        if w.size < 2:
            raise StatBundleError("a sample space needs at least 2 outcomes")
        if w.min() <= 0.0:
            i = int(np.flatnonzero(w <= 0.0)[0])
            raise BoundaryError(f"non-positive weight {w[i]!r} at index {i}")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def size(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SampleSpace):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())

    def __repr__(self) -> str:
        return f"SampleSpace(n={self.size})"


@dataclass(frozen=True, eq=False)
class ProductSpace:
    """Product of two sample spaces with weight table mu1(x) * mu2(y)."""

    left: SampleSpace
    right: SampleSpace

    def __post_init__(self):
        object.__setattr__(
            self, "_weights", _freeze(np.outer(self.left.weights, self.right.weights))
        )

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.size, self.right.size)

    @property
    def size(self) -> int:
        return self.left.size * self.right.size

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ProductSpace):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __repr__(self) -> str:
        return f"ProductSpace(shape={self.shape})"


Space = Union[SampleSpace, ProductSpace]


def _require_same_space(a: Space, b: Space) -> None:
    if a != b:
        raise MismatchError("operands live on different sample spaces")


@dataclass(frozen=True, eq=False)
class Density:
    """A strictly positive normalized density relative to its space weights.

    Construction enforces the open-model constraints: every value must be
    strictly positive, and the total mass ``sum(values * weights)`` must be
    within ``1e-12`` of one.  Mass drift between ``1e-12`` and ``1e-6`` is
    silently renormalized (float drift from upstream arithmetic); anything
    larger is rejected as a caller bug.
    """

    space: Space
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.space.weights.shape:
            raise MismatchError(
                f"density shape {vals.shape} does not match space shape "
                f"{self.space.weights.shape}"
            )
        checked = _density_rows(
            self.space.weights.ravel(), vals.reshape(1, -1), vals.shape
        )
        object.__setattr__(self, "values", _freeze(checked.reshape(vals.shape)))

    @property
    def n(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Density):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.space, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"Density(space={self.space!r})"


@dataclass(frozen=True, eq=False)
class FiberVector:
    """A random variable with zero expectation under its base density.

    The ``polarity`` tag records whether the vector is thought of as living
    in the fiber (``"exponential"``, velocities/scores) or in its predual
    (``"mixture"``).  On a finite space the two coincide numerically, so the
    tag is advisory: operations validate the base density, never the tag.

    The centring residual ``|E_q[v]|`` must be within ``1e-12``, scaled by
    ``max(1, E_q[|v|])`` so that vectors of large magnitude, centred to
    working precision, are accepted.
    """

    base: Density
    values: np.ndarray
    polarity: Polarity = "exponential"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.base.values.shape:
            raise MismatchError(
                f"fiber shape {vals.shape} does not match base shape "
                f"{self.base.values.shape}"
            )
        if self.polarity not in _POLARITIES:
            raise StatBundleError(f"unknown polarity {self.polarity!r}")
        # All three operands one-row blocks of the same shape, so numpy can
        # reuse the product's temporary instead of allocating another.
        _fiber_rows(
            self.base.values.reshape(1, -1),
            self.base.space.weights.reshape(1, -1),
            vals.reshape(1, -1),
        )
        object.__setattr__(self, "values", _freeze(vals))

    def __repr__(self) -> str:
        return f"FiberVector(polarity={self.polarity!r}, n={self.values.size})"


def _require_same_base(v: FiberVector, q: Density) -> None:
    if v.base != q:
        raise MismatchError("fiber vector is based at a different density")


# ---------------------------------------------------------------------------
# constructors and primitive operations
# ---------------------------------------------------------------------------


def make_space(weights) -> SampleSpace:
    """Build a sample space from positive reference weights (stored verbatim)."""
    return SampleSpace(np.asarray(weights, dtype=float))


def make_density(space: Space, values) -> Density:
    """Build a density on ``space``, applying the normalization-drift policy."""
    return Density(space, np.asarray(values, dtype=float))


def uniform_density(space: Space) -> Density:
    """The constant density 1 / sum(mu)."""
    w = space.weights
    return Density(space, np.full(w.shape, 1.0 / float(w.sum())))


def product_density(p1: Density, p2: Density) -> Density:
    """The independent joint p1 (x) p2 on the product space."""
    if isinstance(p1.space, ProductSpace) or isinstance(p2.space, ProductSpace):
        raise MismatchError("product_density expects densities on factor spaces")
    space = ProductSpace(p1.space, p2.space)
    return Density(space, np.outer(p1.values, p2.values))


def _expect(q: Density, arr: np.ndarray) -> float:
    """E_q[arr] for a finite array of q's shape, unchecked."""
    return float((arr.ravel() * q.values.ravel() * q.space.weights.ravel()).sum())


def expect(q: Density, f) -> float:
    """E_q[f] = sum(f * q * mu)."""
    arr = _as_float_array(f, "integrand")
    if arr.shape != q.values.shape:
        raise MismatchError(
            f"integrand shape {arr.shape} does not match density shape "
            f"{q.values.shape}"
        )
    return _expect(q, arr)


def pairing(q: Density, w: FiberVector, v: FiberVector) -> float:
    """Covariance pairing <w, v>_q = E_q[w * v]; symmetric in w and v."""
    _require_same_base(w, q)
    _require_same_base(v, q)
    return float(
        (
            w.values.ravel()
            * v.values.ravel()
            * q.values.ravel()
            * q.space.weights.ravel()
        ).sum()
    )


def center(q: Density, f, polarity: Polarity = "exponential") -> FiberVector:
    """Project ``f`` onto the fiber at ``q`` by subtracting E_q[f].

    The rounding error of E_q[f] scales with f's offset, not with the
    spread the centred vector keeps, so a large offset can leave a
    residual mean beyond the fiber tolerance; it is then subtracted too.
    """
    arr = _as_float_array(f, "values")
    if arr.shape != q.values.shape:
        raise MismatchError(
            f"shape {arr.shape} does not match density shape {q.values.shape}"
        )
    centred = arr - _expect(q, arr)
    try:
        return FiberVector(q, centred, polarity)
    except StatBundleError:
        pass
    return FiberVector(q, centred - expect(q, centred), polarity)


def random_density(space: Space, seed) -> Density:
    """A seeded random density: softmax of i.i.d. standard-normal logits."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(space.weights.shape)
    g -= g.max()
    e = np.exp(g)
    return Density(space, e / float(np.dot(e.ravel(), space.weights.ravel())))


def random_fiber(q: Density, seed, polarity: Polarity = "exponential") -> FiberVector:
    """A seeded random fiber vector at ``q`` (centered standard normals)."""
    rng = np.random.default_rng(seed)
    return center(q, rng.standard_normal(q.values.shape), polarity)
