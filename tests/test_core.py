import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import statbundle as sb
from statbundle.core import _density_rows, _fiber_rows, _row_masses


class TestMakeSpace:
    def test_uniform_two_point(self):
        space = sb.make_space([0.5, 0.5])
        assert space.size == 2
        np.testing.assert_array_equal(space.weights, [0.5, 0.5])

    def test_counting_measure(self):
        space = sb.make_space([1, 1, 1])
        np.testing.assert_array_equal(space.weights, [1.0, 1.0, 1.0])

    def test_weights_stored_verbatim(self):
        space = sb.make_space([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(space.weights, [0.2, 0.3, 0.5])

    def test_zero_weight_rejected(self):
        with pytest.raises(sb.BoundaryError, match="index 1"):
            sb.make_space([0.2, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(sb.BoundaryError):
            sb.make_space([0.2, -0.1, 0.5])

    def test_too_short(self):
        with pytest.raises(sb.StatBundleError):
            sb.make_space([1.0])

    def test_weights_frozen(self):
        space = sb.make_space([1.0, 2.0])
        with pytest.raises(ValueError):
            space.weights[0] = 3.0


class TestMakeDensity:
    def test_uniform(self, half_space):
        q = sb.make_density(half_space, [1.0, 1.0])
        np.testing.assert_array_equal(q.values, [1.0, 1.0])

    def test_tilted(self, half_space):
        q = sb.make_density(half_space, [1.2, 0.8])
        np.testing.assert_array_equal(q.values, [1.2, 0.8])

    def test_boundary_rejected(self, half_space):
        with pytest.raises(sb.BoundaryError, match="index 1"):
            sb.make_density(half_space, [1.2, 0.0])

    def test_boundary_message_prints_a_plain_float(self, half_space):
        with pytest.raises(sb.BoundaryError, match=r"value -0\.5 at index 1 "):
            sb.make_density(half_space, [2.5, -0.5])

    def test_tiny_value_rejected(self, half_space):
        with pytest.raises(sb.BoundaryError):
            sb.make_density(half_space, [2.0, 1e-310])

    def test_small_drift_renormalized(self, half_space):
        vals = np.array([1.2, 0.8]) * (1.0 + 5e-9)
        q = sb.make_density(half_space, vals)
        mass = float(np.dot(q.values, half_space.weights))
        assert abs(mass - 1.0) <= 1e-15

    def test_large_drift_rejected(self, half_space):
        with pytest.raises(sb.NormalizationError, match="off by"):
            sb.make_density(half_space, [1.2, 0.9])

    def test_shape_mismatch(self, half_space):
        with pytest.raises(sb.MismatchError):
            sb.make_density(half_space, [0.5, 0.5, 0.5])

    def test_values_frozen(self, two_point):
        _, _, q, _ = two_point
        with pytest.raises(ValueError):
            q.values[0] = 2.0


class TestExpect:
    def test_uniform_antisymmetric(self, two_point):
        _, p, _, _ = two_point
        assert sb.expect(p, [1.0, -1.0]) == 0.0

    def test_indicator(self, two_point):
        # direct summation: 1 * 1.2 * 0.5 + 0 * 0.8 * 0.5
        _, _, q, _ = two_point
        assert sb.expect(q, [1.0, 0.0]) == pytest.approx(0.6, abs=1e-15)

    def test_constant_integrates_to_itself(self, two_point):
        _, _, q, _ = two_point
        assert sb.expect(q, [3.7, 3.7]) == pytest.approx(3.7, abs=1e-14)

    def test_length_mismatch(self, two_point):
        _, _, q, _ = two_point
        with pytest.raises(sb.MismatchError):
            sb.expect(q, [1.0, 2.0, 3.0])


class TestPairing:
    def test_zero_vector(self, two_point):
        _, p, _, _ = two_point
        z = sb.FiberVector(p, [0.0, 0.0])
        assert sb.pairing(p, z, z) == 0.0

    def test_uniform_unit(self, two_point):
        # direct summation: 0.5 * 1 * 1 + 0.5 * (-1) * (-1)
        _, p, _, _ = two_point
        v = sb.FiberVector(p, [1.0, -1.0])
        assert sb.pairing(p, v, v) == pytest.approx(1.0, abs=1e-15)

    def test_base_mismatch(self, two_point):
        _, p, q, _ = two_point
        v = sb.FiberVector(p, [1.0, -1.0])
        w = sb.center(q, [1.0, 0.0])
        with pytest.raises(sb.MismatchError):
            sb.pairing(p, v, w)

    def test_symmetry_random(self):
        space = sb.make_space([0.2, 0.3, 0.5, 1.1])
        q = sb.random_density(space, 3)
        v = sb.random_fiber(q, 4)
        w = sb.random_fiber(q, 5)
        assert sb.pairing(q, v, w) == pytest.approx(sb.pairing(q, w, v), abs=1e-14)


_vals = arrays(np.float64, 3, elements=st.floats(-5, 5))
_scalars = st.floats(-3, 3)


@given(f=_vals, g=_vals, a=_scalars, b=_scalars)
@settings(max_examples=50, deadline=None)
def test_pairing_bilinear(f, g, a, b):
    space = sb.make_space([0.2, 0.3, 0.5])
    q = sb.random_density(space, 0)
    v = sb.center(q, f)
    u = sb.center(q, g)
    w = sb.random_fiber(q, 1)
    combo = sb.FiberVector(q, a * v.values + b * u.values)
    lhs = sb.pairing(q, combo, w)
    rhs = a * sb.pairing(q, v, w) + b * sb.pairing(q, u, w)
    assert abs(lhs - rhs) <= 1e-10


@given(f=_vals)
@settings(max_examples=50, deadline=None)
def test_center_idempotent(f):
    space = sb.make_space([0.2, 0.3, 0.5])
    q = sb.random_density(space, 0)
    once = sb.center(q, f)
    twice = sb.center(q, once.values)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-15)


class TestCenter:
    def test_explicit(self, two_point):
        # mean of (1, 0) under uniform is 0.5
        _, p, _, _ = two_point
        out = sb.center(p, [1.0, 0.0])
        np.testing.assert_allclose(out.values, [0.5, -0.5], atol=1e-16)

    def test_constant_centers_to_zero(self, two_point):
        _, _, q, _ = two_point
        out = sb.center(q, [2.5, 2.5])
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_already_centered_unchanged(self, two_point):
        _, p, _, _ = two_point
        out = sb.center(p, [1.0, -1.0])
        np.testing.assert_array_equal(out.values, [1.0, -1.0])

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_large_offset_small_spread(self, offset):
        # The rounding error of the mean scales with the offset, which the
        # fiber tolerance cannot see from the centred output; a single
        # centring was rejected for many of these seeds.
        for seed in range(40):
            rng = np.random.default_rng([seed, 5])
            q = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 3)), rng)
            f = offset + rng.standard_normal(3)
            v = sb.center(q, f)
            assert abs(sb.expect(q, v.values)) <= 1e-12 * max(
                1.0, sb.expect(q, np.abs(v.values))
            )
            np.testing.assert_allclose(
                v.values, f - sb.expect(q, f), rtol=0, atol=1e-15 * offset
            )

    def test_polarity_recorded(self, two_point):
        _, p, _, _ = two_point
        assert sb.center(p, [1.0, 0.0], "mixture").polarity == "mixture"
        with pytest.raises(sb.StatBundleError):
            sb.FiberVector(p, [0.0, 0.0], "sideways")


class TestFiberValidation:
    def test_nonzero_mean_rejected_with_residual(self, two_point):
        _, p, _, _ = two_point
        with pytest.raises(sb.StatBundleError, match="residual"):
            sb.FiberVector(p, [1.0, 0.0])

    def test_zero_mean_accepted(self, two_point):
        _, _, q, _ = two_point
        v = sb.center(q, [0.3, -0.9])
        assert abs(sb.expect(q, v.values)) <= 1e-12


    def test_scaled_bound_still_rejects_an_offset(self):
        # at magnitude 1e4 the bound is about 1e-8, far below this offset
        space = sb.make_space([0.3, 0.5, 0.9])
        q = sb.random_density(space, 3)
        v = sb.center(q, 1e4 * np.array([1.0, -2.0, 0.5]))
        with pytest.raises(sb.StatBundleError, match="residual"):
            sb.FiberVector(q, v.values + 1e-6)


@given(
    exponent=st.floats(-3, 8),
    n=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_outputs_validate_at_any_magnitude(exponent, n, seed):
    """center, exp_chart and both transports never reject their own output.

    A fixed 1e-12 tolerance on the centring residual rejected ``center``'s
    output at magnitude 1e4 on 3-point spaces for some seeds.
    """
    rng = np.random.default_rng(seed)
    magnitude = 10.0**exponent
    space = sb.make_space(rng.uniform(0.2, 2.0, n))
    p, q = sb.random_density(space, rng), sb.random_density(space, rng)
    v = sb.center(p, magnitude * rng.standard_normal(n))
    w = sb.center(p, magnitude * rng.standard_normal(n), "mixture")
    sb.e_transport(p, q, v)
    sb.m_transport(p, q, w)
    # log-ratios stay below about 200 so that r keeps clear of the floor
    u = sb.center(p, min(magnitude, 50.0) * rng.standard_normal(n))
    r = sb.exp_chart_inv(p, u)
    sb.exp_chart(p, r)
    sb.exp_chart(r, p)


class TestRowValidation:
    """The table validators reject a bad row with the error class of the
    per-row constructor, and repair it the same way."""

    def _rows(self, bad_row):
        space = sb.make_space([0.5, 1.5, 1.0])
        good = np.array([0.4, 0.4, 0.2])
        return space, np.array([good, bad_row])

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ([np.nan, 0.5, 0.5], sb.StatBundleError),
            ([0.0, 0.5, 0.75], sb.BoundaryError),
            ([1e-301, 0.5, 0.75], sb.BoundaryError),
            ([0.5, 0.5, 0.6], sb.NormalizationError),
        ],
    )
    def test_density_rows(self, bad_row, error):
        space, rows = self._rows(bad_row)
        with pytest.raises(error) as per_row:
            sb.Density(space, np.array(bad_row))
        with pytest.raises(error) as table:
            _density_rows(space.weights, rows)
        assert type(table.value) is type(per_row.value)

    def test_density_rows_renormalize_small_drift(self):
        space, rows = self._rows([0.4, 0.4, 0.2 + 2e-9])
        table = _density_rows(space.weights, rows.copy())
        np.testing.assert_array_equal(table[0], rows[0])
        np.testing.assert_array_equal(
            table[1], sb.Density(space, rows[1]).values
        )
        assert not table.flags.writeable

    @pytest.mark.parametrize(
        "bad_row", [[np.inf, 0.0, 0.0], [1e-6, 0.0, 0.0], [1e4, -1e4, 1e-6]]
    )
    def test_fiber_rows(self, bad_row):
        space = sb.make_space([0.5, 1.5, 1.0])
        q = sb.uniform_density(space)
        good = sb.center(q, [1e4, -2e4, 3e4]).values
        rows = np.array([good, bad_row])
        with pytest.raises(sb.StatBundleError) as per_row:
            sb.FiberVector(q, np.array(bad_row))
        with pytest.raises(sb.StatBundleError) as table:
            _fiber_rows(q.values, space.weights, rows)
        assert type(table.value) is type(per_row.value)
        accepted = _fiber_rows(q.values, space.weights, rows[:1].copy())
        np.testing.assert_array_equal(accepted[0], sb.FiberVector(q, good).values)


@pytest.mark.parametrize("n", [2, 3, 17, 300])
def test_one_row_mass_matches_table_row(n):
    # A Density is checked as a one-row block; its mass must be the bits of
    # the same row's mass inside a table.
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.2, 2.0, n)
    table = rng.random((6, n))
    masses = _row_masses(table, weights)
    for i in range(len(table)):
        one = _row_masses(table[i : i + 1], weights)
        assert one.shape == (1,)
        assert one.tobytes() == masses[i : i + 1].tobytes()


# ---------------------------------------------------------------------------
# Rule order.  The validators take their passing path in fewer passes and,
# on any failure, the ordered checks; these are those checks as they stood
# with one pass per rule, kept as the reference for which rule is named.
# ---------------------------------------------------------------------------


def reference_row_masses(rows, weights):
    return np.fromiter((np.dot(row, weights) for row in rows), float, len(rows))


def reference_density_rows(weights, rows, shape=None):
    if not np.isfinite(rows).all():
        raise sb.StatBundleError("density values contains a non-finite entry")
    if rows.min() < sb.core.POSITIVITY_FLOOR:
        i = int(np.flatnonzero(rows < sb.core.POSITIVITY_FLOOR)[0])
        raise sb.BoundaryError(
            f"non-positive density value {float(rows.flat[i])!r} at index "
            f"{sb.core._coord_label(shape or rows.shape, i)} "
            "(the model excludes the boundary)"
        )
    mass = reference_row_masses(rows, weights)
    drift = np.abs(mass - 1.0)
    x = int(drift.argmax())
    if drift[x] > sb.core.NORMALIZATION_ATOL:
        if drift[x] >= sb.core.RENORMALIZE_LIMIT:
            raise sb.NormalizationError(
                f"density mass {float(mass[x])!r}{sb.core._row_label(rows, x)} "
                f"is off by {drift[x]:.3e} "
                f"(renormalization limit {sb.core.RENORMALIZE_LIMIT:.0e})"
            )
        off = drift > sb.core.NORMALIZATION_ATOL
        rows = np.where(off[:, None], rows / mass[:, None], rows)
    return rows


def reference_fiber_rows(base, mu, rows):
    if not np.isfinite(rows).all():
        raise sb.StatBundleError("fiber values contains a non-finite entry")
    residual = np.abs((rows * base * mu).sum(axis=1))
    if residual.max() > sb.core.FIBER_ATOL:
        over = np.flatnonzero(residual > sb.core.FIBER_ATOL)
        bases = np.broadcast_to(base, rows.shape)[over]
        bound = sb.core.FIBER_ATOL * np.maximum(
            1.0, np.sum(np.abs(rows[over]) * bases * mu, axis=-1)
        )
        failed = np.flatnonzero(residual[over] > bound)
        if failed.size:
            i = int(failed[0])
            x = int(over[i])
            raise sb.StatBundleError(
                f"not a fiber vector{sb.core._row_label(rows, x)}: expectation "
                f"residual {residual[x]:.3e} exceeds {bound[i]:.3e}"
            )
    return rows


def reference_conditionals(rows, mu2):
    return reference_density_rows(mu2, rows / reference_row_masses(rows, mu2)[:, None])


def reference_conditional_derivatives(rows, mu2, v):
    cond = reference_conditionals(rows, mu2)
    centred = v - np.sum(v * cond * mu2, axis=1)[:, None]
    return reference_fiber_rows(cond, mu2, centred)


def outcome(fn, *args):
    """("ok", the result's bytes) or (the error class, its message)."""
    try:
        result = fn(*args)
    except sb.StatBundleError as err:
        return type(err), str(err)
    return "ok", np.asarray(result).tobytes()


def unchecked(cls, **fields):
    """A Density or FiberVector holding ``fields`` as given, unvalidated."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.5, 1e-301, 1e-300)


@st.composite
def blocks(draw):
    """A (k, n) block of density rows over weights, and one of fiber rows
    over those densities, with injected non-finite, sub-floor, off-mass and
    uncentred entries."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.2, 2.0, n)
    raw = rng.uniform(0.1, 1.0, (k, n))
    dens = raw / (raw @ weights)[:, None]
    fiber = 10.0 ** draw(st.integers(-2, 6)) * rng.standard_normal((k, n))
    fiber -= ((fiber * dens * weights).sum(axis=1) / (dens @ weights))[:, None]
    row = draw(st.integers(0, k - 1))
    dens[row] *= 1.0 + draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-7, 1e-6, 1e-3]))
    fiber[row] += draw(st.sampled_from([0.0, 1e-14, 1e-11, 1e-6, 1.0]))
    for block in (dens, fiber):
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
            block[at] = draw(st.sampled_from(_SPECIALS))
    return weights, dens, fiber


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_density_rules_name_the_reference_rule(block):
    weights, dens, _ = block
    space = sb.make_space(weights)
    for row in dens:
        assert outcome(lambda: sb.Density(space, row.copy()).values) == outcome(
            reference_density_rows, weights, row[None].copy(), row.shape
        )
    assert outcome(_density_rows, weights, dens.copy()) == outcome(
        reference_density_rows, weights, dens.copy()
    )
    if len(dens) > 1:
        joint = sb.ProductSpace(sb.make_space(np.ones(len(dens))), space)
        assert outcome(lambda: sb.Density(joint, dens.copy()).values) == outcome(
            reference_density_rows, joint.weights.ravel(), dens.reshape(1, -1).copy(),
            dens.shape,
        )


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_fiber_rules_name_the_reference_rule(block):
    weights, dens, fiber = block
    space = sb.make_space(weights)
    for base, row in zip(dens, fiber):
        try:
            q = sb.Density(space, base)
        except sb.StatBundleError:
            continue
        assert outcome(lambda: sb.FiberVector(q, row.copy()).values) == outcome(
            reference_fiber_rows, q.values[None], weights[None], row[None].copy()
        )


@pytest.mark.parametrize(
    "values", [[np.inf, -np.inf], [-np.inf, np.inf], [np.nan, np.inf], [np.inf, 1.0]]
)
def test_signed_infinities_raise_the_non_finite_error_without_a_warning(
    half_space, values
):
    # A fused pass sums inf and -inf, which numpy reports as a RuntimeWarning
    # (an error under this suite's warning filter) before anything is raised.
    q = sb.uniform_density(half_space)
    with pytest.raises(sb.StatBundleError, match="fiber values contains a non-finite"):
        sb.FiberVector(q, np.array(values))


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_table_rules_name_the_reference_rule(block):
    weights, dens, fiber = block
    if len(dens) < 2:
        return
    joint = sb.ProductSpace(sb.make_space(np.ones(len(dens))), sb.make_space(weights))
    q12 = unchecked(sb.Density, space=joint, values=dens)
    v = unchecked(sb.FiberVector, base=q12, values=fiber, polarity="mixture")
    # Conditioning divides rows by their masses before any rule is checked,
    # which warns on non-finite input in the same way on both sides.
    with np.errstate(all="ignore"):
        assert outcome(sb.conditionals, q12) == outcome(
            reference_conditionals, dens, weights
        )
        assert outcome(sb.conditional_derivatives, q12, v) == outcome(
            reference_conditional_derivatives, dens, weights, fiber
        )


class TestRandomDensity:
    def test_deterministic_in_seed(self):
        space = sb.make_space([1.0, 1.0, 1.0])
        a = sb.random_density(space, 11)
        b = sb.random_density(space, 11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_valid_density(self):
        space = sb.make_space([0.1, 2.0, 0.7, 0.4, 1.3])
        for seed in range(5):
            q = sb.random_density(space, seed)
            assert np.all(q.values > 0)
            mass = float(np.dot(q.values, space.weights))
            assert abs(mass - 1.0) <= 1e-12

    def test_distinct_seeds_differ(self):
        space = sb.make_space([0.5, 0.5])
        a = sb.random_density(space, 1)
        b = sb.random_density(space, 2)
        assert np.max(np.abs(a.values - b.values)) > 0

    def test_works_on_product_space(self):
        space = sb.ProductSpace(sb.make_space([0.5, 0.5]), sb.make_space([1, 1, 1]))
        q = sb.random_density(space, 0)
        assert q.values.shape == (2, 3)


class TestProductSpace:
    def test_weights_are_exact_products(self):
        left = sb.make_space([0.3, 0.7])
        right = sb.make_space([0.2, 0.5, 1.1])
        space = sb.ProductSpace(left, right)
        for x in range(2):
            for y in range(3):
                assert space.weights[x, y] == left.weights[x] * right.weights[y]

    def test_joint_density_validation(self, joint_2x2):
        space, _ = joint_2x2
        with pytest.raises(sb.BoundaryError, match=r"\(0, 1\)"):
            sb.make_density(space, [[1.6, -0.4], [0.4, 1.6]])

    def test_product_density_is_normalized(self):
        left = sb.make_space([0.3, 0.7])
        right = sb.make_space([0.2, 0.5, 1.1])
        p1 = sb.random_density(left, 0)
        p2 = sb.random_density(right, 1)
        p12 = sb.product_density(p1, p2)
        mass = float(np.sum(p12.values * p12.space.weights))
        assert abs(mass - 1.0) <= 1e-12

    def test_uniform_density_general_weights(self):
        space = sb.make_space([0.2, 0.3, 0.5, 2.0])
        u = sb.uniform_density(space)
        assert np.all(u.values == u.values[0])
        assert float(np.dot(u.values, space.weights)) == pytest.approx(1.0, abs=1e-15)
