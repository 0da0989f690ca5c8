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

Every array an object keeps is a read-only view of a read-only owner that
only the library holds, which numpy refuses to make writeable.  So values
are immutable after construction, unless code reaches an owner on purpose
(see :class:`Density`), and every operation is a pure function: everything
here is safe to use from concurrent contexts.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
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


_FLOAT = np.dtype(float)
_SEQUENCES = {list, tuple}


def _odd_leaf(values) -> str | None:
    """The type of a leaf of nested lists and tuples whose numpy dtype is not
    an integer or a float kind, the rule for an array argument, or None.  An
    array leaf is judged by its dtype, and an innermost list by the set of
    its leaf types.  A list beside numbers raises ``ValueError``."""
    if type(values) is np.ndarray:
        return None if values.dtype.kind in "iuf" else str(values.dtype)
    kinds = {*map(type, values)}
    if kinds <= {int, float}:  # the common case
        return None
    if not kinds.isdisjoint(_SEQUENCES):
        if not kinds - _SEQUENCES <= {np.ndarray}:
            raise ValueError("a list beside numbers")
        return next(filter(None, map(_odd_leaf, values)), None)
    for kind in kinds - {np.ndarray}:
        if np.dtype(kind).kind not in "iuf":
            return kind.__name__
    arrays = [v for v in values if type(v) is np.ndarray]
    return next(filter(None, map(_odd_leaf, arrays)), None)


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array: the one reader of numeric input, files
    included.  Only integers and floats qualify, where numpy would read the
    string ``"0.5"`` as 0.5 and ``True`` as 1.0.  An array is judged by its
    dtype, without a pass over its values, and a float array is returned as
    it is.  A list or tuple is judged by :func:`_odd_leaf` and converted
    with ``dtype=float``, so that 2**64 reads as a float.  An array made
    here is handed over with :func:`_frozen`, to be kept without a copy."""
    try:
        if type(values) in _SEQUENCES:
            odd = _odd_leaf(values)
            if odd is None:
                return _frozen(np.asarray(values, dtype=float))
        else:
            arr = np.asarray(values)
            if arr.dtype is _FLOAT:
                return arr
            if arr.dtype.kind in "iuf":
                return _frozen(arr.astype(float))
            odd = arr.dtype
    except ValueError:
        raise StatBundleError(f"{name} is not a rectangular array (ragged)") from None
    except OverflowError:
        raise StatBundleError(f"{name} holds an int too large for a float") from None
    raise StatBundleError(f"{name} must hold integers or floats, not {odd}")


def _as_float_array(values, name: str) -> np.ndarray:
    arr = _float_array(values, name)
    if not np.isfinite(arr).all():
        raise StatBundleError(f"{name} contains a non-finite entry")
    return arr


def _as_int(value, name: str) -> int:
    """``value`` as an int if it is an integer, numpy integers included;
    booleans are not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise StatBundleError(f"{name} must be an integer, not {value!r}") from None


def _as_positive_float(value, name: str) -> float:
    """``value`` as a positive, finite float; ints and numpy floats qualify,
    booleans do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise StatBundleError(f"{name} must be a real number, not {value!r}")
    if not 0.0 < value < math.inf:
        raise StatBundleError(f"{name} must be positive and finite")
    return float(value)


def _coord_label(shape: tuple[int, ...], flat_index: int) -> str:
    if len(shape) == 1:
        return str(flat_index)
    return str(tuple(int(i) for i in np.unravel_index(flat_index, shape)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    """The float64 ``arr`` itself if it is in the stored form -- a read-only,
    C-contiguous view of a read-only array that owns its memory -- else a
    copy in that form."""
    base = arr.base
    if (type(base) is np.ndarray and base.flags.owndata and not base.flags.writeable
            and not arr.flags.writeable and arr.flags.c_contiguous):
        return arr
    return _frozen(np.array(arr, dtype=float, order="C"))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Hand a fresh array over in stored form: freeze the array that owns its
    memory, ``arr`` or ``arr.base``, and return a read-only view of ``arr``.
    Only for arrays that the library has just made and no caller holds."""
    if arr.base is not None:
        arr.base.flags.writeable = False
    arr.flags.writeable = False
    return arr.view()


def _centring_bound(vals, q, mu, floor=1.0):
    """Tolerance on E_q[v]: FIBER_ATOL scaled by max(floor, E_q[|v|]).

    The rounding error of a centred sum grows with the magnitude of its
    terms, so a fixed 1e-12 would reject large vectors that are centred
    to working precision.  Reduces over the last axis, so a block of rows
    gets one bound per row.  With ``floor=1 / s``, the bound of ``v / s``
    is the bound of ``v`` divided by ``s``.
    """
    return FIBER_ATOL * np.maximum(floor, np.sum(np.abs(vals) * q * mu, axis=-1))


# The most terms that one dot of _row_masses sums (see there).
_MASS_BLOCK = 10_000


def _row_masses(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum(row * weights) over the last axis: the one mass sum.

    A 1-d vector is summed by ``np.dot(rows, weights)``, to a scalar.  A
    block of rows gets one (1, n) @ (n, 1) product per row, computed with
    the same dot (``rows @ weights`` sums in another order), so a
    :class:`Density`, checked as a one-row block, and the same row inside a
    table get the same mass to the last bit.  Leading axes broadcast:
    ``weights`` is one (n,) vector for every row, or a block of per-row
    weights, as (n1, n2) against rows of shape (d, n1, n2).

    A row of more than ``_MASS_BLOCK`` = 10,000 terms is summed as
    consecutive views of 10,000 terms, the last one shorter, whose dots
    are added from the first to the last.  OpenBLAS sums a dot of up to
    10,000 terms on one thread and splits a longer one across its threads
    (10,001 terms differ between one thread and two; 10,000 do not), so no
    mass depends on the BLAS thread count.

    Every mass goes through here: the density and fiber checks (the fiber
    residual through :func:`_product_masses`, which forms its terms one of
    these blocks at a time), the total mass of a tilt, of a cumulant's base
    and of a random density, the margin and the conditionals of
    :mod:`~statbundle.bayes`, the derivative of marginalization, and the
    row sums of a family's moments.  So the margin is exactly the set of
    masses that normalise the conditionals.  Other sums keep their own
    form, because tests pin their bits: the means subtracted in centring
    (:func:`_centred_rows` and the m and m_h of
    ``condition_chart_derivatives``), the KL rows, :func:`_expect` and the
    rescaled path of :func:`_fiber_rows` stay pairwise ``sum``s, and the
    statistics' combination one matrix-vector product.
    """
    n = rows.shape[-1]
    if n > _MASS_BLOCK:
        # The whole blocks in one call, as rows of 10,000 terms, whose dots
        # accumulate from the first to the last; then the rest.
        k, rest = divmod(n, _MASS_BLOCK)
        end = n - rest
        dots = _row_masses(
            rows[..., :end].reshape(*rows.shape[:-1], k, _MASS_BLOCK),
            weights[..., :end].reshape(*weights.shape[:-1], k, _MASS_BLOCK),
        )
        total = np.add.accumulate(dots, axis=-1)[..., -1]
        if rest:
            total = total + _row_masses(rows[..., end:], weights[..., end:])
        return total
    if rows.ndim == 1:
        return np.dot(rows, weights)
    return np.matmul(rows[..., None, :], weights[..., :, None])[..., 0, 0]


def _product_masses(rows: np.ndarray, base: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``_row_masses(rows * base, mu)`` to the last bit, without forming
    ``rows * base`` whole: the centring residual of each row of a (k, n)
    block, ``base`` one (n,) density or a (k, n) block of them, against the
    1-d weights ``mu``.

    A block of at most ``_MASS_BLOCK`` = 10,000 cells is that one
    expression.  A larger one is formed in the blocks that
    :func:`_row_masses` sums: a group of whole rows of at most 10,000 cells
    at a time, or a row of more than 10,000 terms one 10,000-term segment
    at a time, whose dots are added from the first to the last.  So no
    product holds more than 10,000 cells.
    """
    k, n = rows.shape
    if k * n <= _MASS_BLOCK:
        return _row_masses(rows * base, mu)
    base = np.broadcast_to(base, rows.shape)
    step = max(1, _MASS_BLOCK // n)
    segments = range(0, n, _MASS_BLOCK)
    masses = np.empty(k)
    for a in range(0, k, step):
        rows_a, base_a = rows[a:a + step], base[a:a + step]
        masses[a:a + step] = functools.reduce(operator.add, (
            _row_masses(rows_a[:, s:s + _MASS_BLOCK] * base_a[:, s:s + _MASS_BLOCK],
                        mu[s:s + _MASS_BLOCK])
            for s in segments
        ))
    return masses


def _row_label(rows: np.ndarray, x: int) -> str:
    return f" of row {x}" if rows.shape[0] > 1 else ""


def _density_rows(weights: np.ndarray, rows: np.ndarray, shape=None) -> np.ndarray:
    """Check each row of a (k, n) block as a density against ``weights``.

    These are the rules of :class:`Density`, which checks its values as a
    one-row block: finite entries, no value below the positivity floor, and
    a mass within 1e-12 of one, where drift below 1e-6 is renormalised and
    larger drift is rejected.  Errors name an entry by its index in an
    array of ``shape`` (default: the block's).  Returns the block, or a
    fresh renormalised copy of it.
    """
    # The passing path in two tests: min() >= floor also fails on NaN and
    # -inf, and +inf fails the drift test.  Anything else takes the checks
    # below, in their order, so that the first rule broken is the one named.
    if rows.min() >= POSITIVITY_FLOOR:
        if len(rows) == 1:  # a Density: its mass as a scalar, the same dots
            drift = abs(_row_masses(rows[0], weights) - 1.0)
        else:
            drift = np.abs(_row_masses(rows, weights) - 1.0).max()
        if drift <= NORMALIZATION_ATOL:
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
    return rows


# A row holding infinities of both signs sums to NaN, and the terms of a
# row of large finite entries can overflow: neither warns, so that the row
# reaches the checks below.
@np.errstate(invalid="ignore", over="ignore")
def _fiber_rows(base: np.ndarray, mu: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Check each row of a (k, n) block as a fiber vector.

    Row x is checked at the density ``base[x]``, or at ``base`` itself when
    it is a single density, against the 1-d weights ``mu``.  These are the
    rules of :class:`FiberVector`, which checks its values as a one-row
    block: finite entries and a centring residual within the scaled
    tolerance.  Returns the block.

    The residuals are summed by :func:`_product_masses`, which forms the
    terms ``rows * base`` a block of at most 10,000 cells at a time, so the
    passing path allocates nothing of the block's size.  A failing row's
    bound is formed from the rows that fail.
    """
    # The passing path in one test: a non-finite entry makes its row's
    # residual NaN or infinite, which fails it.  Anything else takes the
    # checks below, in their order.
    residual = np.abs(_product_masses(rows, base, mu))
    if residual.max() <= FIBER_ATOL:
        return rows
    if not np.isfinite(rows).all():
        raise StatBundleError("fiber values contains a non-finite entry")
    over = np.flatnonzero(~(residual <= FIBER_ATOL))  # a NaN residual too
    bases = np.broadcast_to(base, rows.shape)[over]
    res = residual[over]
    bound = _centring_bound(rows[over], bases, mu)
    failed = res > bound
    # Finite entries whose terms overflow leave the residual or the bound
    # inf or NaN.  Such a row is checked again divided by its largest
    # |entry|, where its terms are finite, and its figures scaled back.
    big = np.flatnonzero(~(np.isfinite(res) & np.isfinite(bound)))
    if big.size:
        scale = np.abs(rows[over[big]]).max(axis=1)
        scaled = rows[over[big]] / scale[:, None]
        res_s = np.abs((scaled * bases[big] * mu).sum(axis=1))
        bound_s = _centring_bound(scaled, bases[big], mu, 1.0 / scale)
        failed[big] = res_s > bound_s
        res[big], bound[big] = res_s * scale, bound_s * scale
    failed = np.flatnonzero(failed)
    if failed.size:
        i = int(failed[0])
        x = int(over[i])
        raise StatBundleError(
            f"not a fiber vector{_row_label(rows, x)}: expectation "
            f"residual {res[i]:.3e} exceeds {bound[i]:.3e}"
        )
    return rows


def _centred_rows(rows: np.ndarray, base: np.ndarray, mu: np.ndarray,
                  check=_fiber_rows):
    """Project each row of a (k, n) block, or one row, onto the fiber: the
    one centring rule.  Row x loses its mean under ``base[x]`` (or the one
    density ``base``) and the weights ``mu``, summed from ``(rows * base) *
    mu`` in one fresh buffer that then holds the centred rows.  The buffer
    is handed over in stored form to ``check(base, mu, centred)``, by
    default the fiber-vector rules of :func:`_fiber_rows`.  A large offset
    can leave a rounding residual mean beyond the fiber tolerance: where
    ``check`` raises :class:`StatBundleError`, that mean is subtracted too,
    in a second fresh buffer, and ``check`` runs once more.  Returns what
    ``check`` returns.
    """
    centred = rows * base
    centred *= mu
    np.subtract(rows, centred.sum(axis=-1, keepdims=True), out=centred)
    centred = _frozen(centred)
    try:
        return check(base, mu, centred)
    except StatBundleError:
        pass
    mean = np.sum(centred * base * mu, axis=-1, keepdims=True)
    return check(base, mu, _frozen(centred - mean))


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
            raise BoundaryError(f"non-positive weight {float(w[i])!r} at index {i}")
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
        for factor in (self.left, self.right):
            if not isinstance(factor, SampleSpace):
                raise MismatchError(
                    "the factors of a product space must be sample spaces, "
                    f"not {type(factor).__name__}"
                )
        object.__setattr__(
            self, "_weights", _frozen(np.outer(self.left.weights, self.right.weights))
        )

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.size, self.right.size)

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


@dataclass(frozen=True, eq=False)
class Density:
    """A strictly positive normalized density relative to its space weights.

    Construction enforces the open-model constraints: every value must be
    strictly positive, and the total mass ``sum(values * weights)`` must be
    within ``1e-12`` of one.  Mass drift between ``1e-12`` and ``1e-6`` is
    silently renormalized (float drift from upstream arithmetic); anything
    larger is rejected as a caller bug.

    The stored ``values`` are a read-only view of a read-only array that
    only the library holds, so not even their own flags can make them
    writeable.  An array passed in is copied, so that later writes to it do
    not reach the density; values the library made, as in
    ``Density(space, g.values)``, are shared.  What stays open is reaching
    an owner on purpose: through ``.base``, or by passing in a read-only
    view of one's own read-only array and making that array writeable.
    """

    space: Space
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.space, (SampleSpace, ProductSpace)):
            raise MismatchError(
                "the space of a density must be a sample or product space, "
                f"not {type(self.space).__name__}"
            )
        vals = _float_array(self.values, "density values")
        if vals.shape != self.space.weights.shape:
            raise MismatchError(
                f"density shape {vals.shape} does not match space shape "
                f"{self.space.weights.shape}"
            )
        rows = vals.reshape(1, -1)
        checked = _density_rows(self.space.weights.ravel(), rows, vals.shape)
        if checked is not rows:  # renormalised, in a fresh block
            vals = _frozen(checked.reshape(vals.shape))
        object.__setattr__(self, "values", _freeze(vals))

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

    ``values`` are stored, copied or shared by the rule of :class:`Density`.
    """

    base: Density
    values: np.ndarray
    polarity: Polarity = "exponential"

    def __post_init__(self):
        if not isinstance(self.base, Density):
            raise MismatchError(
                "the base of a fiber vector must be a density, "
                f"not {type(self.base).__name__}"
            )
        vals = _float_array(self.values, "fiber values")
        if vals.shape != self.base.values.shape:
            raise MismatchError(
                f"fiber shape {vals.shape} does not match base shape "
                f"{self.base.values.shape}"
            )
        if self.polarity not in _POLARITIES:
            raise StatBundleError(f"unknown polarity {self.polarity!r}")
        _fiber_rows(
            self.base.values.reshape(1, -1),
            self.base.space.weights.ravel(),
            vals.reshape(1, -1),
        )
        object.__setattr__(self, "values", _freeze(vals))

    def __repr__(self) -> str:
        return f"FiberVector(polarity={self.polarity!r}, n={self.values.size})"


def _require_density(q) -> None:
    if not isinstance(q, Density):
        raise MismatchError(f"expected a density, not {type(q).__name__}")


def _require_same_space(p: Density, q: Density) -> None:
    """Both operands are densities, on one space."""
    _require_density(p)
    _require_density(q)
    if p.space != q.space:
        raise MismatchError("operands live on different sample spaces")


def _require_same_base(v: FiberVector, q: Density) -> None:
    if not isinstance(v, FiberVector):
        raise MismatchError(f"expected a fiber vector, not {type(v).__name__}")
    if v.base != q:
        raise MismatchError("fiber vector is based at a different density")


# ---------------------------------------------------------------------------
# constructors and primitive operations
# ---------------------------------------------------------------------------


def make_space(weights) -> SampleSpace:
    """Build a sample space from positive reference weights (stored verbatim)."""
    return SampleSpace(weights)


def make_density(space: Space, values) -> Density:
    """Build a density on ``space``, applying the normalization-drift policy."""
    return Density(space, values)


def uniform_density(space: Space) -> Density:
    """The constant density 1 / sum(mu)."""
    w = space.weights
    return Density(space, _frozen(np.full(w.shape, 1.0 / float(w.sum()))))


def _require_factors(p1, p2) -> None:
    """Both operands are densities on factor spaces, as in a product."""
    for p in (p1, p2):
        if not isinstance(p, Density):
            raise MismatchError(
                "product_density expects densities on factor spaces, "
                f"not {type(p).__name__}"
            )
        if isinstance(p.space, ProductSpace):
            raise MismatchError("product_density expects densities on factor spaces")


def product_density(p1: Density, p2: Density) -> Density:
    """The independent joint p1 (x) p2 on the product space."""
    _require_factors(p1, p2)
    space = ProductSpace(p1.space, p2.space)
    return Density(space, _frozen(np.outer(p1.values, p2.values)))


def _expect(q: Density, arr: np.ndarray) -> float:
    """E_q[arr] for a finite array of q's shape, unchecked."""
    return float((arr.ravel() * q.values.ravel() * q.space.weights.ravel()).sum())


def expect(q: Density, f) -> float:
    """E_q[f] = sum(f * q * mu)."""
    _require_density(q)
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
    return _expect(q, w.values * v.values)


def center(q: Density, f, polarity: Polarity = "exponential") -> FiberVector:
    """Project ``f`` onto the fiber at ``q`` by subtracting E_q[f].

    ``f`` is centred as one row by :func:`_centred_rows`, whose check
    builds the vector, so that it is validated once.
    """
    _require_density(q)
    arr = _as_float_array(f, "values")
    if arr.shape != q.values.shape:
        raise MismatchError(
            f"shape {arr.shape} does not match density shape {q.values.shape}"
        )
    return _centred_rows(
        arr.ravel(), q.values.ravel(), q.space.weights.ravel(),
        lambda base, mu, row: FiberVector(q, row.reshape(arr.shape), polarity),
    )


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``, which refuses booleans as
    :func:`_as_int` does; generators, sequences and ``SeedSequence`` pass.
    A seed that numpy refuses raises :class:`StatBundleError` naming it."""
    if isinstance(seed, (bool, np.bool_)):
        raise StatBundleError(f"seed must be an integer, not {seed!r}")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise StatBundleError(
            f"seed must be a nonnegative integer or a sequence of them, "
            f"not {seed!r}"
        ) from None


def random_density(space: Space, seed) -> Density:
    """A seeded random density: softmax of i.i.d. standard-normal logits."""
    rng = _rng(seed)
    g = rng.standard_normal(space.weights.shape)
    g -= g.max()
    np.exp(g, out=g)
    g /= float(_row_masses(g.ravel(), space.weights.ravel()))
    return Density(space, _frozen(g))


def random_fiber(q: Density, seed, polarity: Polarity = "exponential") -> FiberVector:
    """A seeded random fiber vector at ``q`` (centered standard normals)."""
    _require_density(q)
    rng = _rng(seed)
    return center(q, rng.standard_normal(q.values.shape), polarity)
