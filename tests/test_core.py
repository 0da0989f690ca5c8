import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import statbundle as sb
from statbundle import fileio, findiff
from statbundle.core import _density_rows, _fiber_rows, _row_masses

from conftest import traced_peak


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

    def test_error_prints_a_plain_float(self):
        with pytest.raises(sb.BoundaryError) as info:
            sb.make_space([0.5, -0.5])
        assert str(info.value) == "non-positive weight -0.5 at index 1"

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

    @pytest.mark.parametrize("joint", [False, True], ids=["1-d", "2-d"])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_bytes_of_the_mean(self, joint, offset):
        # The mean is summed from (f * q) * mu over the raveled values, and
        # once more from the centred values where the fiber rule rejects
        # the first residual: a change of product order or sum moves bits.
        for seed in range(30):
            rng = np.random.default_rng([seed, 6])
            n = int(rng.integers(2, 301))
            if joint:
                m = int(rng.integers(2, 18))
                space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, m)),
                                        sb.make_space(rng.uniform(0.2, 2.0, n)))
            else:
                space = sb.make_space(rng.uniform(0.2, 2.0, n))
            q = sb.random_density(space, rng)
            f = offset + rng.standard_normal(q.values.shape)
            base, mu = q.values.ravel(), space.weights.ravel()
            flat = f.ravel()
            centred = flat - ((flat * base) * mu).sum()
            try:
                reference_fiber_rows(base, mu, centred[None, :])
            except sb.StatBundleError:
                centred = centred - ((centred * base) * mu).sum()
            assert sb.center(q, f).values.tobytes() == centred.tobytes()

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


@pytest.mark.parametrize("n", [10_000, 10_001, 25_000])
def test_long_rows_are_summed_in_blocks_of_10000(n):
    # A vector, a one-row block and a row of a table get the dots of
    # consecutive 10,000-term blocks, added in order.
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.2, 2.0, n)
    table = rng.random((3, n))
    masses = _row_masses(table, weights)
    for i, row in enumerate(table):
        expected = np.dot(row[:10_000], weights[:10_000])
        for start in range(10_000, n, 10_000):
            expected = expected + np.dot(row[start:start + 10_000],
                                         weights[start:start + 10_000])
        assert _row_masses(row, weights).tobytes() == expected.tobytes()
        assert _row_masses(table[i : i + 1], weights)[0] == expected
        assert masses[i] == expected


# The joint masses of the 200x300 verify instances and of a 200x200 flow
# sum more than 10,000 terms, which one OpenBLAS dot splits across threads.
_THREAD_PROBE = """
import numpy as np
import statbundle as sb

report = sb.run_verification(seed=1, trials=1, sizes=[(200, 300)])
for check in report.checks:
    print(check.name, repr(check.max_residual))
rng = np.random.default_rng(25)
space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, 200)),
                        sb.make_space(rng.uniform(0.2, 2.0, 200)))
stats = rng.standard_normal((2, 200, 1)) + 0.3 * rng.standard_normal((2, 200, 200))
fam = sb.make_expfam(sb.random_density(space.left, rng),
                     sb.random_density(space.right, rng), stats)
target = sb.marginalize(sb.density(fam, rng.uniform(-1.0, 1.0, 2)))
for record in sb.natural_gradient_flow(fam, np.zeros(2), target).records:
    print(record.theta.tobytes().hex())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    package_root = str(Path(sb.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def run(threads):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return result.stdout

    one = run("1")
    assert one.count("\n") > len(sb.verify.CHECKS)
    assert run("2") == one


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


@np.errstate(invalid="ignore", over="ignore")
def reference_fiber_rows(base, mu, rows):
    if not np.isfinite(rows).all():
        raise sb.StatBundleError("fiber values contains a non-finite entry")
    atol = sb.core.FIBER_ATOL
    bases = np.broadcast_to(base, rows.shape)
    for x, (row, q) in enumerate(zip(rows, bases)):
        residual = abs(np.dot(row * q, mu))
        if residual <= atol:
            continue
        bound = atol * max(1.0, np.sum(np.abs(row) * q * mu))
        if np.isfinite(residual) and np.isfinite(bound):
            failed = residual > bound
        else:
            # The terms overflowed: check the row divided by its largest |entry|.
            scale = np.abs(row).max()
            scaled = row / scale
            residual = abs((scaled * q * mu).sum())
            bound = atol * max(1.0 / scale, np.sum(np.abs(scaled) * q * mu))
            failed = residual > bound
            residual, bound = residual * scale, bound * scale
        if failed:
            raise sb.StatBundleError(
                f"not a fiber vector{sb.core._row_label(rows, x)}: expectation "
                f"residual {residual:.3e} exceeds {bound:.3e}"
            )
    return rows


def reference_conditionals(rows, mu2):
    return reference_density_rows(mu2, rows / reference_row_masses(rows, mu2)[:, None])


def reference_conditional_derivatives(rows, mu2, v):
    cond = reference_conditionals(rows, mu2)
    centred = v - np.sum(v * cond * mu2, axis=1)[:, None]
    try:
        return reference_fiber_rows(cond, mu2, centred)
    except sb.StatBundleError:
        # A large row offset leaves a residual mean: centre once more.
        centred = centred - np.sum(centred * cond * mu2, axis=1)[:, None]
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
    uncentred entries, and a row offset of up to 1e8."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.2, 2.0, n)
    raw = rng.uniform(0.1, 1.0, (k, n))
    dens = raw / (raw @ weights)[:, None]
    fiber = 10.0 ** draw(st.integers(-2, 6)) * rng.standard_normal((k, n))
    fiber -= ((fiber * dens * weights).sum(axis=1) / (dens @ weights))[:, None]
    row = draw(st.integers(0, k - 1))
    dens[row] *= 1.0 + draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-7, 1e-6, 1e-3]))
    # An offset from 1e4 on leaves a residual mean after one centring pass.
    fiber[row] += draw(st.sampled_from([0.0, 1e-14, 1e-11, 1e-6, 1.0, 1e4, 1e6, 1e8]))
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
            reference_fiber_rows, q.values[None], weights, row[None].copy()
        )


@pytest.mark.parametrize(
    "weights, q, v, accepted",
    [
        ([0.5, 0.5], [1.6, 0.4], [1.5e308, -1.5e308], False),  # residual, bound inf
        ([0.01, 0.01], [60.0, 40.0], [1e307, -1e307], False),  # residual NaN
        ([0.01, 0.01], [60.0, 40.0], [1e307, -1.5e307], True),  # centred
    ],
)
def test_overflowing_centring_terms_are_checked_at_the_row_scale(
    weights, q, v, accepted
):
    # The residual and the bound overflow to inf or NaN, where inf > inf and
    # NaN > bound are false: a plain comparison accepts every one of these.
    q = sb.make_density(sb.make_space(weights), q)
    rows = np.array([sb.center(q, [1.0, 0.0]).values, v])
    if accepted:
        assert sb.FiberVector(q, np.array(v)).values.tolist() == v
        assert _fiber_rows(q.values, q.space.weights, rows.copy()).tolist() == (
            rows.tolist()
        )
        return
    with pytest.raises(sb.StatBundleError, match="^not a fiber vector: expectation"):
        sb.FiberVector(q, np.array(v))
    with pytest.raises(sb.StatBundleError, match="^not a fiber vector of row 1: "):
        _fiber_rows(q.values, q.space.weights, rows)


@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    top=st.sampled_from([1e306, 1e307, 1.7e308]),
    offset=st.sampled_from([0.0, 1e-14, 1e-6, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_large_rows_name_the_reference_rule(n, seed, top, offset):
    # Small weights give density values of 10 to 100, so the terms of a row
    # near the top of the float range overflow before they are summed.
    rng = np.random.default_rng(seed)
    space = sb.make_space(rng.uniform(0.01, 0.1, n))
    q = sb.random_density(space, rng)
    v = sb.center(q, rng.standard_normal(n)).values + offset
    row = v / np.abs(v).max() * top
    got = outcome(lambda: sb.FiberVector(q, row.copy()).values)
    assert got == outcome(
        reference_fiber_rows, q.values[None], space.weights, row[None].copy()
    )
    if offset == 0.0:
        assert got[0] == "ok"


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


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda q: sb.make_space([0.5, np.nan]), sb.StatBundleError,
         "weights contains a non-finite entry"),
        (lambda q: sb.make_space([[0.5, 0.5]]), sb.StatBundleError, "1-d vector"),
        (lambda q: sb.FiberVector(q, [0.0, 0.0, 0.0]), sb.MismatchError,
         r"fiber shape \(3,\) does not match base shape \(2,\)"),
        (lambda q: sb.product_density(sb.product_density(q, q), q),
         sb.MismatchError, "expects densities on factor spaces"),
        (lambda q: sb.center(q, [1.0, 2.0, 3.0]), sb.MismatchError,
         r"shape \(3,\) does not match density shape \(2,\)"),
    ],
    ids=["non-finite-weights", "2-d-weights", "fiber-shape", "product-of-a-joint",
         "center-shape"],
)
def test_malformed_input_is_rejected(two_point, call, error, match):
    with pytest.raises(error, match=match):
        call(two_point[2])


NON_NUMERIC = {
    "strings": ["1.2", "0.8"],
    "bytes": [b"1.2", b"0.8"],
    "objects": [Fraction(6, 5), Fraction(4, 5)],
    "booleans": [True, True],
    "complex": [1.2 + 0j, 0.8 + 0j],
    "boolean-beside-a-float": [1.2, True],
    "numpy-boolean-beside-a-float": [np.True_, 0.8],
}
ENTRY_POINTS = {
    "make_space": (lambda q, bad: sb.make_space(bad), "weights"),
    "make_density": (lambda q, bad: sb.make_density(q.space, bad), "density values"),
    "Density": (lambda q, bad: sb.Density(q.space, bad), "density values"),
    "FiberVector": (lambda q, bad: sb.FiberVector(q, bad), "fiber values"),
    "center": (lambda q, bad: sb.center(q, bad), "values"),
    "expect": (lambda q, bad: sb.expect(q, bad), "integrand"),
    "psi": (lambda q, bad: sb.psi(sb.make_expfam(q, q, [[[1.0, -1.0], [-1.0, 1.0]]]),
                                  bad), "theta"),
    "fd_gradient": (lambda q, bad: findiff.fd_gradient(lambda t: 0.0, bad), "theta"),
    "make_expfam": (lambda q, bad: sb.make_expfam(q, q, bad), "statistics"),
    "natural_gradient_flow": (
        lambda q, bad: sb.natural_gradient_flow(
            sb.make_expfam(q, q, [[[1.0, -1.0], [-1.0, 1.0]]]), bad, q),
        "theta"),
}


@pytest.mark.parametrize("kind", NON_NUMERIC)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_numeric_arrays_are_rejected(two_point, entry, kind):
    # np.asarray(..., dtype=float) reads "1.2" as 1.2 and True as 1.0
    call, name = ENTRY_POINTS[entry]
    with pytest.raises(sb.StatBundleError,
                       match=f"^{name} must hold integers or floats, not"):
        call(two_point[2], NON_NUMERIC[kind])


def test_malformed_values_raise_the_package_error(half_space):
    with pytest.raises(sb.StatBundleError, match="density values must hold"):
        sb.make_density(half_space, "x")
    with pytest.raises(sb.StatBundleError, match="weights is not a rectangular"):
        sb.make_space([[0.5, 0.5], [0.5]])


def test_an_int_beyond_int64_reads_as_in_a_file(tmp_path):
    # A list and a JSON file are read by one rule: 2**64 becomes the float
    # nearest to it on both paths, and an int beyond the float range raises.
    path = tmp_path / "density.json"
    fileio.write_json(path, {"space": {"weights": [2**64, 1.0]},
                             "values": [2.0**-65, 0.5]})
    weights = sb.make_space([2**64, 1.0]).weights
    np.testing.assert_array_equal(weights, [2.0**64, 1.0])
    assert fileio.load_density(path).space.weights.tobytes() == weights.tobytes()
    fileio.write_json(path, {"space": {"weights": [10**400, 1.0]},
                             "values": [1.0, 1.0]})
    with pytest.raises(sb.StatBundleError,
                       match="^weights holds an int too large for a float$"):
        sb.make_space([10**400, 1.0])
    with pytest.raises(sb.StatBundleError,
                       match="key 'weights' holds an int too large for a float$"):
        fileio.load_density(path)


def test_integer_and_float_kinds_are_accepted(half_space):
    for values in ([1, 1], np.array([1, 1], dtype=np.uint8),
                   np.array([1.5, 0.5], dtype=np.float32)):
        got = sb.make_density(half_space, values)
        assert got.values.dtype == np.float64
        np.testing.assert_array_equal(got.values, np.asarray(values, dtype=float))
    assert sb.make_space(np.array([1, 2], dtype=np.int16)).weights.dtype == np.float64


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


    @pytest.mark.parametrize("draw", [sb.random_density, sb.random_fiber],
                             ids=["random_density", "random_fiber"])
    @pytest.mark.parametrize("seed", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    def test_boolean_seed_is_refused(self, two_point, draw, seed):
        # numpy reads True as the seed 1; a seed is an integer, as for
        # the seed, trials and iters of the suite and the flow.
        _, p, _, _ = two_point
        at = p.space if draw is sb.random_density else p
        with pytest.raises(sb.StatBundleError,
                           match=rf"^seed must be an integer, not {seed!r}$"):
            draw(at, seed)

    @pytest.mark.parametrize("draw", [sb.random_density, sb.random_fiber],
                             ids=["random_density", "random_fiber"])
    @pytest.mark.parametrize("seed", [1.5, "a", -1, [1.5]],
                             ids=["float", "str", "negative", "float-list"])
    def test_seed_numpy_refuses_is_a_library_error(self, two_point, draw, seed):
        # numpy raises its own TypeError or ValueError for these.
        _, p, _, _ = two_point
        at = p.space if draw is sb.random_density else p
        with pytest.raises(sb.StatBundleError) as exc:
            draw(at, seed)
        assert str(exc.value) == (
            f"seed must be a nonnegative integer or a sequence of them, "
            f"not {seed!r}"
        )

    @pytest.mark.parametrize(
        "seed", [np.int64(3), [3, 1], np.random.SeedSequence(3)],
        ids=["numpy-int", "sequence", "SeedSequence"],
    )
    def test_non_integer_seeds_still_go_to_numpy(self, half_space, seed):
        expected = np.random.default_rng(seed).standard_normal(2)
        got = sb.random_fiber(sb.uniform_density(half_space), seed)
        np.testing.assert_array_equal(got.values, expected - expected.mean())
        assert sb.random_density(half_space, np.random.default_rng(0)).space == half_space


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

    @pytest.mark.parametrize(
        "factor", ["product", [0.5, 0.5], "ab"], ids=["product", "list", "str"]
    )
    def test_factors_must_be_sample_spaces(self, half_space, factor):
        if factor == "product":
            factor = sb.ProductSpace(half_space, half_space)
        for left, right in ((factor, half_space), (half_space, factor)):
            with pytest.raises(sb.MismatchError, match="must be sample spaces"):
                sb.ProductSpace(left, right)

    def test_uniform_density_general_weights(self):
        space = sb.make_space([0.2, 0.3, 0.5, 2.0])
        u = sb.uniform_density(space)
        assert np.all(u.values == u.values[0])
        assert float(np.dot(u.values, space.weights)) == pytest.approx(1.0, abs=1e-15)


NOT_A_SPACE = "the space of a density must be a sample or product space, not"
NOT_A_BASE = "the base of a fiber vector must be a density, not"
NOT_A_FACTOR = "product_density expects densities on factor spaces, not"
WRONG_TYPE = {
    "Density": (lambda p, s: sb.Density([0.5, 0.5], [1.0, 1.0]), f"{NOT_A_SPACE} list"),
    "make_density": (lambda p, s: sb.make_density(p, [1.0, 1.0]),
                     f"{NOT_A_SPACE} Density"),
    "FiberVector": (lambda p, s: sb.FiberVector(s, [0.0, 0.0]),
                    f"{NOT_A_BASE} SampleSpace"),
    "product_density-left": (lambda p, s: sb.product_density(s, p),
                             f"{NOT_A_FACTOR} SampleSpace"),
    "product_density-right": (lambda p, s: sb.product_density(p, s),
                              f"{NOT_A_FACTOR} SampleSpace"),
    "make_expfam": (lambda p, s: sb.make_expfam(p, s, [[[1.0, -1.0], [-1.0, 1.0]]]),
                    f"{NOT_A_FACTOR} SampleSpace"),
    "ExpFamily": (lambda p, s: sb.ExpFamily([1.0, 1.0], p, [[[1.0, -1.0]]]),
                  f"{NOT_A_FACTOR} list"),
}


@pytest.mark.parametrize("entry", WRONG_TYPE)
def test_constructors_refuse_the_wrong_type(two_point, entry):
    # An argument of the wrong type raised AttributeError from inside the
    # constructor; it raises the package's error, naming the type, as
    # ProductSpace does.
    space, p, _, _ = two_point
    call, message = WRONG_TYPE[entry]
    with pytest.raises(sb.MismatchError, match=f"^{message}$"):
        call(p, space)


def _margin_family(p):
    """The 2x2 family on p (x) p whose statistic moves the first margin."""
    return sb.make_expfam(p, p, [[[1.0, 1.0], [-1.0, -1.0]]])


NOT_A_DENSITY = "expected a density, not"
NOT_A_VECTOR = "expected a fiber vector, not"
OPERATIONS_ON_THE_WRONG_TYPE = {
    "center": (lambda p, s: sb.center(s, [0, 0]), f"{NOT_A_DENSITY} SampleSpace"),
    "expect": (lambda p, s: sb.expect(s, [0, 0]), f"{NOT_A_DENSITY} SampleSpace"),
    "random_fiber": (lambda p, s: sb.random_fiber(s, 1), f"{NOT_A_DENSITY} SampleSpace"),
    "kl-left": (lambda p, s: sb.kl(s, p), f"{NOT_A_DENSITY} SampleSpace"),
    "kl-right": (lambda p, s: sb.kl(p, s), f"{NOT_A_DENSITY} SampleSpace"),
    "exp_chart": (lambda p, s: sb.exp_chart(s, p), f"{NOT_A_DENSITY} SampleSpace"),
    "marginalize": (lambda p, s: sb.marginalize(sb.ProductSpace(s, s)),
                    f"{NOT_A_DENSITY} ProductSpace"),
    "pairing": (lambda p, s: sb.pairing(p, [0, 0], [0, 0]), f"{NOT_A_VECTOR} list"),
    "cumulant": (lambda p, s: sb.cumulant(p, [0.0, 0.0]), f"{NOT_A_VECTOR} list"),
    "psi": (lambda p, s: sb.psi([1], [0.0]),
            "expected an exponential family, not list"),
    "kl_theta_gradient_left": (
        lambda p, s: sb.kl_theta_gradient_left(_margin_family(p), [0.0], s),
        f"{NOT_A_DENSITY} SampleSpace"),
    "kl_theta_gradient_right": (
        lambda p, s: sb.kl_theta_gradient_right(_margin_family(p), [0.0], s),
        f"{NOT_A_DENSITY} SampleSpace"),
    "natural_gradient_flow": (
        lambda p, s: sb.natural_gradient_flow(_margin_family(p), [0.0], s),
        f"{NOT_A_DENSITY} SampleSpace"),
}


@pytest.mark.parametrize("entry", OPERATIONS_ON_THE_WRONG_TYPE)
def test_operations_refuse_the_wrong_type(two_point, entry):
    # A space or a list where a density, a fiber vector or a family belongs
    # raised AttributeError from inside the operation.
    space, p, _, _ = two_point
    call, message = OPERATIONS_ON_THE_WRONG_TYPE[entry]
    with pytest.raises(sb.MismatchError, match=f"^{message}$"):
        call(p, space)


def test_equal_values_compare_and_hash_equal():
    # Distinct objects built from equal values are equal, hash alike, and
    # so serve as the same dict key and set member.
    def build():
        left = sb.make_space([0.5, 0.5])
        space = sb.ProductSpace(left, sb.make_space([0.2, 0.5, 1.1]))
        return left, space, sb.make_density(left, [1.2, 0.8])

    for a, b in zip(build(), build()):
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b}) == 1
    left, space, q = build()
    assert space != left and left != space
    assert q != left
    v = sb.FiberVector(q, [0.4, -0.6])
    assert [repr(obj) for obj in (left, space, q, v)] == [
        "SampleSpace(n=2)",
        "ProductSpace(shape=(2, 3))",
        "Density(space=SampleSpace(n=2))",
        "FiberVector(polarity='exponential', n=2)",
    ]


class TestAdoption:
    """Stored values are read-only views of owners that only the library
    holds: library results are shared, arrays passed in are copied."""

    @staticmethod
    def _build(kind, half_space, arr):
        if kind == "make_space":
            return sb.make_space(arr).weights
        if kind == "make_density":
            return sb.make_density(half_space, arr).values
        if kind == "Density":
            return sb.Density(half_space, arr).values
        q = sb.make_density(half_space, [1.2, 0.8])
        return sb.FiberVector(q, arr).values

    KINDS = ["make_space", "make_density", "Density", "FiberVector"]
    VALUES = {"make_space": [0.5, 0.5], "make_density": [1.2, 0.8],
              "Density": [1.2, 0.8], "FiberVector": [0.8, -1.2]}

    @pytest.mark.parametrize("view", [False, True], ids=["writeable", "read-only-view"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_writeable_array_is_copied(self, half_space, kind, view):
        arr = np.array(self.VALUES[kind])
        passed = arr
        if view:
            passed = arr.view()
            passed.flags.writeable = False
        stored = self._build(kind, half_space, passed)
        assert not np.shares_memory(stored, arr)
        arr[0] = 7.0
        assert stored.tolist() == self.VALUES[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_owned_read_only_array_is_copied(self, half_space, kind):
        arr = np.array(self.VALUES[kind])
        arr.flags.writeable = False
        stored = self._build(kind, half_space, arr)
        assert not np.shares_memory(stored, arr)
        arr.flags.writeable = True
        arr[0] = 7.0
        assert stored.tolist() == self.VALUES[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_stored_values_cannot_be_made_writeable(self, half_space, kind):
        stored = self._build(kind, half_space, self.VALUES[kind])
        with pytest.raises(ValueError, match="WRITEABLE"):
            stored.flags.writeable = True
        assert stored.tolist() == self.VALUES[kind]

    def test_a_list_is_copied_once(self):
        space = sb.ProductSpace(sb.make_space(np.ones(200)), sb.make_space(np.ones(200)))
        values = sb.random_density(space, 0).values.tolist()
        peak = traced_peak(lambda: sb.make_density(space, values))
        assert peak <= 1.5 * 200 * 200 * 8

    def test_an_array_like_over_its_own_buffer_is_copied(self, half_space):
        class Holder:
            def __init__(self):
                self.buffer = np.array([1.2, 0.8])
                self.buffer.flags.writeable = False

            def __array__(self, dtype=None, copy=None):
                return self.buffer

        holder = Holder()
        q = sb.Density(half_space, holder)
        assert not np.shares_memory(q.values, holder.buffer)
        holder.buffer.flags.writeable = True
        holder.buffer[0] = 7.0
        assert q.values.tolist() == [1.2, 0.8]

    def test_a_read_only_array_over_another_buffer_is_copied(self, half_space):
        buf = bytearray(np.array([1.2, 0.8]).tobytes())
        arr = np.frombuffer(buf)
        arr.flags.writeable = False
        q = sb.Density(half_space, arr)
        buf[:8] = np.array([7.0]).tobytes()
        assert q.values.tolist() == [1.2, 0.8]

    def test_every_library_output_is_read_only(self, tmp_path):
        rng = np.random.default_rng(5)
        space = sb.ProductSpace(sb.make_space([0.5, 1.5, 1.0]), sb.make_space([1, 2]))
        p1 = sb.random_density(space.left, 1)
        p2 = sb.uniform_density(space.right)
        p12 = sb.product_density(p1, p2)
        q12 = sb.random_density(space, 2)
        v = sb.random_fiber(q12, 3)
        q1 = sb.marginalize(q12)
        w = sb.mix_chart(p12, q12)
        fam = sb.make_expfam(p1, p2, rng.standard_normal((2, 3, 2)))
        path = tmp_path / "joint.json"
        path.write_text(
            '{"left": {"weights": [0.5, 0.5]}, "right": {"weights": [1, 1]}, '
            '"values": [[0.6, 0.4], [0.4, 0.6]]}'
        )
        p1_curve = sb.exponential_curve(p1, sb.random_fiber(p1, 4))
        q12_curve = sb.mixture_curve(q12, sb.random_fiber(q12, 5, "mixture"))
        decomposition = sb.exp_decompose(p1, p2, q12)
        trace = sb.natural_gradient_flow(fam, [0.3, -0.2], q1, iters=2)
        outputs = [
            space.weights, space.left.weights, p1.values, p2.values, p12.values,
            q12.values, v.values, q1.values, w.values,
            sb.marginal_derivative(q12, v).values,
            sb.center(q12, rng.standard_normal((3, 2))).values,
            sb.exp_chart(p12, q12).values,
            sb.exp_chart_inv(p12, sb.exp_chart(p12, q12)).values,
            sb.mix_chart_inv(p12, w).values,
            sb.e_transport(q12, p12, v).values,
            sb.m_transport(q12, p12, v).values,
            sb.structural_reconstruct(p12, q12).values,
            sb.grad2_kl(q12, p12).values,
            p1_curve(0.3).values, q12_curve(0.1).values,
            sb.conditionals(q12), sb.conditional_derivatives(q12, v),
            sb.condition_chart_derivatives(p1, p2, w, sb.m_transport(q12, p12, v)),
            decomposition.joint, decomposition.marginal,
            decomposition.conditional, decomposition.centering,
            sb.density(fam, [0.3, -0.2]).values,
            sb.joint_velocity(fam, [0.3, -0.2], [1.0, 0.5]).values,
            fam.stats, *(record.theta for record in trace.records),
            fileio.load_joint(path).values,
        ]
        for out in outputs:
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out.flat[0] = 1.0
            with pytest.raises(ValueError, match="WRITEABLE"):
                out.flags.writeable = True

    def test_producers_are_adopted_without_a_copy(self):
        rng = np.random.default_rng(9)
        space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, 30)),
                                sb.make_space(rng.uniform(0.2, 2.0, 20)))
        fam = sb.make_expfam(
            sb.random_density(space.left, rng), sb.random_density(space.right, rng),
            rng.standard_normal((3, 30, 20)),
        )
        theta = rng.uniform(-1.0, 1.0, 3)
        g = sb.density(fam, theta)
        u = sb.joint_velocity(fam, theta, theta)
        g1 = sb.marginalize(g)
        for arr in (g.values, u.values, g1.values):
            assert sb.core._freeze(arr) is arr
        assert np.shares_memory(sb.Density(space, g.values).values, g.values)
