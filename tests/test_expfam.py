import itertools
import math
import tracemalloc

import numpy as np
import pytest

import statbundle as sb
from statbundle.core import _fiber_rows
from statbundle.findiff import fd_gradient, fd_vector_curve

from conftest import traced_peak


def enum_psi(stats, theta, weights):
    """4-state (or n-state) enumeration of log sum(w * exp(theta.T))."""
    total = math.fsum(
        w * math.exp(math.fsum(t * s for t, s in zip(theta, cell)))
        for cell, w in zip(zip(*[s.ravel() for s in stats]), weights.ravel())
    )
    return math.log(total)


def random_family(n1, n2, d, seed):
    space = sb.ProductSpace(
        sb.make_space(np.linspace(0.4, 1.2, n1)),
        sb.make_space(np.linspace(0.5, 1.5, n2)),
    )
    p1 = sb.random_density(space.left, [seed, 0])
    p2 = sb.random_density(space.right, [seed, 1])
    rng = np.random.default_rng([seed, 2])
    return sb.make_expfam(p1, p2, rng.standard_normal((d, n1, n2)))


def cancelling_family(seed):
    """A 5x4 family whose second statistic is the first plus 1e-4 N(0, 1):
    at theta = (c, -c) the terms of theta . T reach c, while theta . T
    spans only about 4e-4 c."""
    rng = np.random.default_rng([seed, 40])
    space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, 5)),
                            sb.make_space(rng.uniform(0.2, 2.0, 4)))
    p1, p2 = sb.random_density(space.left, rng), sb.random_density(space.right, rng)
    t1 = rng.standard_normal((5, 4))
    return sb.make_expfam(p1, p2, [t1, t1 + 1e-4 * rng.standard_normal((5, 4))])


class TestMakeExpFamily:
    def test_centered_stats_kept(self, diag_family):
        np.testing.assert_allclose(
            diag_family.stats[0], [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15
        )

    def test_centering_applied(self, half_space):
        p = sb.uniform_density(half_space)
        fam = sb.make_expfam(p, p, [[[2.0, 0.0], [0.0, 2.0]]])
        # mean is 1 under the uniform base, so centering shifts by -1
        np.testing.assert_allclose(
            fam.stats[0], [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15
        )
        base_mean = float(
            np.sum(fam.stats[0] * fam.base12.values * fam.space.weights)
        )
        assert abs(base_mean) <= 1e-12

    @pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
    def test_large_offset_is_centred_within_the_fiber_tolerance(self, offset):
        # One centring pass leaves a residual mean that grows with the
        # offset; the members of the family must still be valid.
        for seed in range(10):
            rng = np.random.default_rng([seed, 4])
            p1 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 3)), rng)
            p2 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 4)), rng)
            fam = sb.make_expfam(p1, p2, offset + rng.standard_normal((2, 3, 4)))
            w = (fam.base12.values * fam.space.weights).ravel()
            assert np.abs(fam.stats.reshape(2, -1) @ w).max() <= 1e-12
            theta = [0.1, -0.2]
            assert sb.density(fam, theta).space == fam.space
            assert math.isfinite(sb.psi(fam, theta))

    @pytest.mark.parametrize("offset, spread", [(1e6, 1.0), (1e9, 1.0), (1e12, 1.0),
                                                (0.0, 1e8)])
    def test_stats_pass_the_fiber_rule(self, offset, spread):
        # The statistics are held to the scaled tolerance of every fiber
        # vector, whatever their offset or spread.
        for seed in range(10):
            rng = np.random.default_rng([seed, 4])
            p1 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 3)), rng)
            p2 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 4)), rng)
            raw = offset + spread * rng.standard_normal((2, 3, 4))
            fam = sb.make_expfam(p1, p2, raw)
            _fiber_rows(fam.base12.values.ravel(), fam.space.weights.ravel(),
                        fam.stats.reshape(2, -1))

    def test_proportional_stats_rejected(self, half_space):
        p = sb.uniform_density(half_space)
        t = [[1.0, -1.0], [-1.0, 1.0]]
        with pytest.raises(sb.IdentifiabilityError, match="eigenvalue"):
            sb.make_expfam(p, p, [t, [[2.0, -2.0], [-2.0, 2.0]]])

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e-6, 1e100,
                                       1e160, 1e300])
    def test_gram_floor_is_relative(self, half_space, scale):
        # The verdict does not depend on the statistics' units: one
        # statistic is accepted at any scale, and a dependent pair refused.
        p = sb.uniform_density(half_space)
        t = scale * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert sb.make_expfam(p, p, [t]).dim == 1
        with pytest.raises(sb.IdentifiabilityError,
                           match="<= 1e-10 times the largest"):
            sb.make_expfam(p, p, [t, 2.0 * t])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_gram_neither_overflows_nor_underflows(self, scale):
        # The Gram squares the statistics: formed from them as given, it
        # would underflow to 0 at 1e-200, refusing every family, and
        # overflow to inf beyond about 1e154.
        for seed in range(5):
            fam = random_family(3, 4, 2, seed)
            assert sb.make_expfam(fam.base1, fam.base2, scale * fam.stats).dim == 2

    def test_shape_mismatch(self, half_space):
        p = sb.uniform_density(half_space)
        with pytest.raises(sb.MismatchError):
            sb.make_expfam(p, p, [[[1.0, -1.0]]])
        # a 2-d table is no longer read as one statistic
        with pytest.raises(sb.MismatchError, match=r"statistics shape \(2, 2\)"):
            sb.make_expfam(p, p, [[1.0, -1.0], [-1.0, 1.0]])

    def test_no_statistics(self, half_space):
        p = sb.uniform_density(half_space)
        with pytest.raises(sb.StatBundleError, match="at least 1 statistic"):
            sb.make_expfam(p, p, np.zeros((0, 2, 2)))


class TestExpFamilyConstructor:
    """``ExpFamily(p1, p2, raw)`` is the one way to build a family: it
    centres, checks and stores the statistics and derives ``base12``."""

    def test_same_family_as_make_expfam(self):
        rng = np.random.default_rng(71)
        p1 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 3)), rng)
        p2 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 4)), rng)
        raw = 1e4 + rng.standard_normal((2, 3, 4))
        fam, made = sb.ExpFamily(p1, p2, raw), sb.make_expfam(p1, p2, raw)
        assert fam.stats.tobytes() == made.stats.tobytes()
        assert fam.base12.values.tobytes() == made.base12.values.tobytes()
        assert fam.base12 == sb.product_density(p1, p2)
        assert (fam.base1, fam.base2) == (p1, p2)

    def test_caller_array_is_copied_and_stats_are_read_only(self, two_point):
        _, p, q, _ = two_point
        raw = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        fam = sb.ExpFamily(p, q, raw)
        before = fam.stats.copy()
        mean = sb.grad_psi(fam, [0.0])
        raw[0, 0, 0] = 100.0
        np.testing.assert_array_equal(fam.stats, before)
        np.testing.assert_array_equal(sb.grad_psi(fam, [0.0]), mean)
        with pytest.raises(ValueError):
            fam.stats.flags.writeable = True
        with pytest.raises(ValueError):
            fam.stats[0, 0, 0] = 1.0

    def test_uncentred_stats_come_out_centred(self, two_point):
        # The raw statistic has mean 2.4 under p (x) q.
        _, p, q, _ = two_point
        fam = sb.ExpFamily(p, q, [[[1.0, 2.0], [3.0, 4.0]]])
        assert abs(sb.grad_psi(fam, [0.0])[0]) <= 1e-12
        w = (fam.base12.values * fam.space.weights).ravel()
        assert abs(fam.stats.ravel() @ w) <= 1e-12
        np.testing.assert_allclose(fam.stats[0], [[-1.4, -0.4], [0.6, 1.6]],
                                   atol=1e-15)

    def test_dependent_stats_raise(self, half_space):
        p = sb.uniform_density(half_space)
        t = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(sb.IdentifiabilityError, match="eigenvalue"):
            sb.ExpFamily(p, p, [t, [[5.0, 3.0], [1.0, -1.0]]])

    def test_derived_fields_are_not_arguments(self, two_point, joint_2x2):
        _, p, q, _ = two_point
        raw = [[[1.0, 2.0], [3.0, 4.0]]]
        with pytest.raises(TypeError):
            sb.ExpFamily(p, p, raw, sb.product_density(q, q))
        with pytest.raises(TypeError):
            sb.ExpFamily(p, p, raw, base12=sb.product_density(p, p))
        dec = sb.exp_decompose(p, p, joint_2x2[1])
        with pytest.raises(TypeError):
            sb.ChartDecomposition(dec.joint, dec.marginal, dec.conditional,
                                  dec.centering, 0.0)

    def test_repr(self, diag_family):
        assert repr(diag_family) == "ExpFamily(dim=1, shape=(2, 2))"


class TestPsi:
    def test_zero_at_origin(self, diag_family):
        assert sb.psi(diag_family, [0.0]) == 0.0

    def test_log_cosh_fixture(self, diag_family):
        expected = enum_psi(
            diag_family.stats, [1.0], diag_family.space.weights
        )
        assert sb.psi(diag_family, [1.0]) == pytest.approx(expected, abs=1e-14)
        assert sb.psi(diag_family, [1.0]) == pytest.approx(
            math.log(math.cosh(1.0)), abs=1e-12
        )

    def test_equals_divergence_from_base(self):
        fam = random_family(3, 4, 2, 60)
        theta = np.array([0.7, -0.4])
        lhs = sb.psi(fam, theta)
        rhs = sb.kl(fam.base12, sb.density(fam, theta))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_midpoint_convexity(self):
        fam = random_family(2, 3, 2, 61)
        rng = np.random.default_rng(62)
        for _ in range(10):
            a = rng.uniform(-2, 2, 2)
            b = rng.uniform(-2, 2, 2)
            mid = sb.psi(fam, (a + b) / 2)
            assert mid <= (sb.psi(fam, a) + sb.psi(fam, b)) / 2 + 1e-12

    def test_zero_near_origin_random_base(self):
        fam = random_family(3, 3, 1, 63)
        assert abs(sb.psi(fam, [0.0])) <= 1e-14

    def test_cancelling_statistics(self):
        # theta . T keeps a rounding residual mean, growing with c, beyond
        # the fiber tolerance; psi takes theta . T as it is.
        for seed in range(50):
            fam = cancelling_family(seed)
            u = np.tensordot([1e4, -1e4], fam.stats, axes=1)
            w = (fam.base12.values * fam.space.weights).ravel()
            expected = math.log(math.fsum(w * np.exp(u.ravel())))
            got = sb.psi(fam, [1e4, -1e4])
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_is_a_python_float(self):
        # as kl is, so residuals built from either print as plain floats
        fam = random_family(3, 4, 2, 64)
        theta = np.array([0.7, -0.4])
        assert type(sb.psi(fam, theta)) is float
        chart = sb.exp_chart(fam.base12, sb.density(fam, theta))
        assert type(sb.cumulant(fam.base12, chart)) is float


class TestDensity:
    def test_origin_recovers_base(self, diag_family):
        got = sb.density(diag_family, [0.0])
        np.testing.assert_allclose(got.values, diag_family.base12.values,
                                   atol=1e-15)

    def test_diag_fixture_cells(self, diag_family):
        # enumeration: cell values are exp(+-theta) / cosh(theta)
        got = sb.density(diag_family, [1.0])
        hi = math.exp(1.0) / math.cosh(1.0)
        lo = math.exp(-1.0) / math.cosh(1.0)
        np.testing.assert_allclose(got.values, [[hi, lo], [lo, hi]], atol=1e-12)
        assert np.all(got.values > 0)
        mass = float(np.sum(got.values * got.space.weights))
        assert abs(mass - 1.0) <= 1e-12

    def test_diag_fixture_margin_is_flat_for_all_theta(self, diag_family):
        for theta in (-1.3, 0.2, 2.0):
            margin = sb.marginalize(sb.density(diag_family, [theta]))
            np.testing.assert_allclose(margin.values, [1.0, 1.0], atol=1e-12)

    def test_cancelling_statistics_give_members(self):
        # The member does not depend on the residual mean of theta . T, so
        # the plain one-exponential formula gives it.
        for seed, c in itertools.product(range(50), [1e3, 1e4, 1e5]):
            fam = cancelling_family(seed)
            u = np.tensordot([c, -c], fam.stats, axes=1)
            e = np.exp(u - u.max()) * fam.base12.values
            expected = e / np.sum(e * fam.space.weights)
            got = sb.density(fam, [c, -c]).values
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


class TestSpreadBeyondTheFloatRange:
    # theta * T = (+-a) on the margin family: the spread 2a of the natural
    # statistic leaves the float range from a = 1e308 on.
    @pytest.mark.parametrize("a", [1e300, 1e308, 1.7e308])
    def test_psi_is_the_finite_limit(self, margin_family, a):
        assert sb.psi(margin_family, [a]) == a

    @pytest.mark.parametrize("theta", [1e306, -1e306])
    def test_overflowing_statistic_is_rejected(self, half_space, theta):
        # theta . T overflows to +inf on one row and to -inf on the other.
        p = sb.uniform_density(half_space)
        fam = sb.make_expfam(p, p, [[[1e3, 1e3], [-1e3, -1e3]]])
        with np.errstate(over="ignore"):
            for call in (sb.psi, sb.density):
                with pytest.raises(sb.StatBundleError, match="non-finite entry"):
                    call(fam, [theta])

    @pytest.mark.parametrize("a", [800.0, 1e300, 1e308, 1.7e308])
    def test_density_leaves_the_model(self, margin_family, a):
        with pytest.raises(
            sb.BoundaryError,
            match=r"^non-positive density value 0\.0 at index \(1, 0\)",
        ):
            sb.density(margin_family, [a])


def family_200x200(seed):
    """A seeded 200x200, d = 3 family whose statistics move the first margin,
    and a target margin it attains."""
    rng = np.random.default_rng(seed)
    space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, 200)),
                            sb.make_space(rng.uniform(0.2, 2.0, 200)))
    stats = rng.standard_normal((3, 200, 1)) + 0.3 * rng.standard_normal((3, 200, 200))
    fam = sb.make_expfam(sb.random_density(space.left, rng),
                         sb.random_density(space.right, rng), stats)
    target = sb.marginalize(sb.density(fam, rng.uniform(-1.0, 1.0, 3)))
    return fam, target


class TestTransientMemory:
    # A member is computed in the one full-size buffer that holds theta . T,
    # which the Density adopts; psi holds theta . T and its tilt, cumulant
    # the tilt alone.  One more full-size copy or temporary brings the peak
    # over the bound.
    FULL = 200 * 200 * 8

    def test_density(self):
        fam, _ = family_200x200(31)
        theta = np.array([0.3, -0.2, 0.1])
        assert traced_peak(lambda: sb.density(fam, theta)) <= 1.5 * self.FULL

    def test_psi(self):
        fam, _ = family_200x200(31)
        theta = np.array([0.3, -0.2, 0.1])
        assert traced_peak(lambda: sb.psi(fam, theta)) <= 2.5 * self.FULL

    def test_cumulant(self):
        fam, _ = family_200x200(31)
        u = sb.FiberVector(fam.base12, fam.stats[0])
        assert traced_peak(lambda: sb.cumulant(fam.base12, u)) <= 1.5 * self.FULL

    def test_kl(self):
        # log r, which takes the difference of logs and then mu * q, and one
        # operand at a time beside it.
        fam, _ = family_200x200(31)
        q = sb.density(fam, [0.3, -0.2, 0.1])
        assert traced_peak(lambda: sb.kl(fam.base12, q)) <= 2.5 * self.FULL

    def test_structural_reconstruct(self):
        # kl's temporaries are gone before the exponential chart's are made.
        fam, _ = family_200x200(31)
        q = sb.density(fam, [0.3, -0.2, 0.1])
        peak = traced_peak(lambda: sb.structural_reconstruct(fam.base12, q))
        assert peak <= 3.5 * self.FULL

    def test_flow(self):
        fam, target = family_200x200(32)
        peak = traced_peak(lambda: sb.natural_gradient_flow(
            fam, np.zeros(3), target, mode="left", step=0.5, tol=1e-7
        ))
        assert peak <= 2.5 * self.FULL

    def test_random_density(self):
        # The draw is exponentiated and normalised in place and adopted.
        space = sb.ProductSpace(sb.make_space(np.ones(200)), sb.make_space(np.ones(300)))
        sb.random_density(space, 1)  # numpy imports its generators on first use
        peak = traced_peak(lambda: sb.random_density(space, 1))
        assert peak <= 1.5 * 200 * 300 * 8


class TestCombine:
    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 6, 5), (3, 64, 64), (3, 200, 200),
                                       (4, 200, 300)])
    def test_has_the_bits_of_tensordot(self, shape):
        d, n1, n2 = shape
        rng = np.random.default_rng(shape)
        space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, n1)),
                                sb.make_space(rng.uniform(0.2, 2.0, n2)))
        fam = sb.make_expfam(sb.random_density(space.left, rng),
                             sb.random_density(space.right, rng),
                             rng.standard_normal(shape))
        for _ in range(20):
            coef = rng.uniform(-2.0, 2.0, d)
            got = sb.expfam._combine(fam, coef)
            assert got.tobytes() == np.tensordot(coef, fam.stats, axes=1).tobytes()


class TestMoments:
    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 6, 5), (3, 64, 64), (3, 200, 200),
                                       (4, 200, 300)])
    def test_row_sums_are_np_dot(self, shape):
        # The moments' row sums are the per-row dot that sums the margin.
        fam = random_family(*shape[1:], shape[0], [58, *shape])
        g = sb.density(fam, np.linspace(-0.5, 0.5, shape[0]))
        weighted = g.values * fam.space.right.weights
        expected = np.array([
            [np.dot(row, w) for row, w in zip(stat, weighted)] for stat in fam.stats
        ])
        assert sb.expfam._moments(fam, g)[0].tobytes() == expected.tobytes()


class TestGradPsi:
    def test_zero_at_origin(self, diag_family):
        np.testing.assert_allclose(sb.grad_psi(diag_family, [0.0]), 0.0,
                                   atol=1e-15)

    def test_tanh_fixture(self, diag_family):
        got = sb.grad_psi(diag_family, [1.0])
        np.testing.assert_allclose(got, [math.tanh(1.0)], atol=1e-12)

    def test_matches_fd(self):
        # 21 random parameter points across dimensions 1..3
        for d in (1, 2, 3):
            fam = random_family(3, 3, d, 64 + d)
            rng = np.random.default_rng(70 + d)
            for _ in range(7):
                theta = rng.uniform(-1, 1, d)
                numeric = fd_gradient(lambda th: sb.psi(fam, th), theta)
                np.testing.assert_allclose(sb.grad_psi(fam, theta), numeric,
                                           atol=1e-6)


    def test_parameter_shape(self, margin_family):
        with pytest.raises(sb.MismatchError, match="parameter shape"):
            sb.grad_psi(margin_family, [1.0, 2.0])


class TestVelocities:
    @pytest.mark.parametrize(
        "velocity",
        [sb.joint_velocity, sb.marginal_velocity, sb.conditional_velocities],
    )
    def test_theta_checked_before_thetadot(self, margin_family, velocity):
        for theta, thetadot in (([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])):
            with pytest.raises(sb.MismatchError, match="parameter shape"):
                velocity(margin_family, theta, thetadot)
        with pytest.raises(sb.MismatchError, match="parameter shape"):
            velocity(margin_family, [1.0, 2.0], [math.inf])

    def test_zero_direction(self, diag_family):
        v = sb.joint_velocity(diag_family, [0.5], [0.0])
        np.testing.assert_array_equal(v.values, 0.0)

    def test_joint_velocity_at_origin_is_statistic(self, diag_family):
        v = sb.joint_velocity(diag_family, [0.0], [1.0])
        np.testing.assert_allclose(v.values, diag_family.stats[0], atol=1e-14)

    def test_joint_velocity_is_fisher_score(self):
        fam = random_family(2, 3, 2, 80)
        theta = np.array([0.3, -0.6])
        thetadot = np.array([0.9, 0.4])
        curve = sb.Curve(at=lambda t: sb.density(fam, theta + t * thetadot))
        score = sb.score_velocity(curve, 0.0)
        analytic = sb.joint_velocity(fam, theta, thetadot)
        np.testing.assert_allclose(analytic.values, score.values, atol=1e-6)

    def test_marginal_velocity_vanishes_for_coupling_statistic(self, diag_family):
        for theta in (0.0, 0.8):
            out = sb.marginal_velocity(diag_family, [theta], [1.0])
            np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_marginal_velocity_closed_form(self, margin_family):
        # the statistic is left-measurable, so the margin moves like a
        # 2-point tilt: velocity (1 - tanh, -1 - tanh) * thetadot
        theta, thetadot = 0.6, 1.7
        out = sb.marginal_velocity(margin_family, [theta], [thetadot])
        expected = (np.array([1.0, -1.0]) - math.tanh(theta)) * thetadot
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_marginal_velocity_is_composition(self):
        fam = random_family(3, 2, 2, 81)
        theta = np.array([0.4, 0.2])
        thetadot = np.array([-0.3, 1.1])
        g = sb.density(fam, theta)
        composed = sb.marginal_derivative(
            g, sb.joint_velocity(fam, theta, thetadot)
        )
        direct = sb.marginal_velocity(fam, theta, thetadot)
        np.testing.assert_allclose(direct.values, composed.values, atol=1e-14)

    def test_conditional_velocity_at_origin(self, diag_family):
        out = sb.conditional_velocities(diag_family, [0.0], [1.0])
        np.testing.assert_allclose(out[0], [1.0, -1.0], atol=1e-14)

    def test_conditional_velocity_matches_composition(self):
        fam = random_family(2, 4, 2, 82)
        theta = np.array([0.5, -0.2])
        thetadot = np.array([0.6, 0.8])
        g = sb.density(fam, theta)
        joint = sb.joint_velocity(fam, theta, thetadot)
        direct = sb.conditional_velocities(fam, theta, thetadot)
        composed = sb.conditional_derivatives(g, joint)
        assert direct.tobytes() == composed.tobytes()

    @pytest.mark.parametrize(
        "shape, d", [((2, 2), 1), ((2, 7), 3), ((7, 2), 2), ((5, 3), 3)]
    )
    def test_conditional_velocities_table_rows(self, shape, d):
        fam = random_family(*shape, d, 85)
        theta = np.linspace(-0.6, 0.8, d)
        thetadot = np.linspace(1.1, -0.4, d)
        table = sb.conditional_velocities(fam, theta, thetadot)
        assert table.shape == shape and not table.flags.writeable
        # row x is the centered x-section sum_j thetadot_j (T_j(x, .) - mean)
        weights = sb.conditionals(sb.density(fam, theta)) * fam.space.right.weights
        n1, n2 = shape
        for x in range(n1):
            means = [
                math.fsum(float(fam.stats[j, x, k] * weights[x, k]) for k in range(n2))
                for j in range(d)
            ]
            expected = [
                math.fsum(
                    float(thetadot[j]) * (float(fam.stats[j, x, z]) - means[j])
                    for j in range(d)
                )
                for z in range(n2)
            ]
            np.testing.assert_allclose(table[x], expected, atol=1e-13)

    def test_conditional_velocities_with_large_row_offsets(self):
        # A statistic whose rows carry large offsets: its centred x-sections
        # at the origin are the row noise centred under p2.
        for seed in range(20):
            rng = np.random.default_rng([seed, 87])
            p1 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 3)), rng)
            p2 = sb.random_density(sb.make_space(rng.uniform(0.2, 2.0, 4)), rng)
            noise = rng.standard_normal((3, 4))
            raw = noise + 1e4 * rng.standard_normal(3)[:, None]
            fam = sb.make_expfam(p1, p2, raw[None])
            weights = p2.values * p2.space.weights
            expected = noise - (noise @ weights)[:, None]
            np.testing.assert_allclose(
                sb.conditional_velocities(fam, [0.0], [1.0]), expected,
                rtol=0.0, atol=1e-9,
            )

    def test_each_velocity_evaluates_the_member_once(self, monkeypatch):
        fam = random_family(3, 4, 2, 86)
        calls = []
        inner = sb.expfam._exp_chart_inv

        def counting(p, u):
            calls.append(1)
            return inner(p, u)

        monkeypatch.setattr(sb.expfam, "_exp_chart_inv", counting)
        for velocity in (
            sb.joint_velocity,
            sb.marginal_velocity,
            sb.conditional_velocities,
        ):
            calls.clear()
            velocity(fam, [0.3, -0.2], [1.0, 0.5])
            assert len(calls) == 1, velocity.__name__

    def test_velocities_match_fd(self):
        fam = random_family(2, 3, 1, 83)
        theta = np.array([0.4])
        thetadot = np.array([1.0])
        g = sb.density(fam, theta)
        g1 = sb.marginalize(g)

        def member(t):
            return sb.density(fam, theta + t * thetadot)

        numeric = fd_vector_curve(
            lambda t: sb.mix_chart(g1, sb.marginalize(member(t))).values, 0.0
        )
        np.testing.assert_allclose(
            sb.marginal_velocity(fam, theta, thetadot).values, numeric, atol=1e-6
        )
        # row x is the mixture chart at q21(.|x) of the moving conditional
        base = sb.conditionals(g)
        numeric = fd_vector_curve(
            lambda t: sb.conditionals(member(t)) / base - 1.0, 0.0
        )
        np.testing.assert_allclose(
            sb.conditional_velocities(fam, theta, thetadot), numeric, atol=1e-6
        )


class TestParameterGradients:
    @pytest.mark.parametrize(
        "gradient", [sb.kl_theta_gradient_left, sb.kl_theta_gradient_right]
    )
    def test_theta_checked_before_margin(self, margin_family, gradient):
        r1 = sb.uniform_density(margin_family.space.left)
        other = sb.uniform_density(sb.make_space([1.0, 1.0, 1.0]))
        with pytest.raises(sb.MismatchError, match="target margin"):
            gradient(margin_family, [1.0], other)
        for target in (r1, other):
            with pytest.raises(sb.MismatchError, match="parameter shape"):
                gradient(margin_family, [1.0, 2.0], target)

    def test_left_gradient_vanishes_for_flat_margin(self, diag_family):
        r1 = sb.uniform_density(diag_family.space.left)
        for theta in (0.0, 0.7, -1.2):
            np.testing.assert_allclose(
                sb.kl_theta_gradient_left(diag_family, [theta], r1), 0.0,
                atol=1e-12,
            )

    def test_left_gradient_closed_form(self, margin_family):
        r1 = sb.uniform_density(margin_family.space.left)
        for theta in (0.5, 1.0):
            got = sb.kl_theta_gradient_left(margin_family, [theta], r1)
            np.testing.assert_allclose(got, [math.tanh(theta)], atol=1e-9)

    def test_left_gradient_matches_fd(self):
        fam = random_family(3, 3, 2, 84)
        r1 = sb.random_density(fam.space.left, 85)
        theta = np.array([0.3, -0.8])
        numeric = fd_gradient(
            lambda th: sb.kl(r1, sb.marginalize(sb.density(fam, th))), theta
        )
        np.testing.assert_allclose(
            sb.kl_theta_gradient_left(fam, theta, r1), numeric, atol=1e-6
        )

    def test_right_gradient_zero_at_matching_margin(self, margin_family):
        theta = np.array([0.9])
        g1 = sb.marginalize(sb.density(margin_family, theta))
        got = sb.kl_theta_gradient_right(margin_family, theta, g1)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_right_gradient_vanishes_for_flat_margin(self, diag_family):
        r1 = sb.random_density(diag_family.space.left, 86)
        got = sb.kl_theta_gradient_right(diag_family, [0.4], r1)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_right_gradient_matches_fd(self):
        fam = random_family(3, 3, 2, 87)
        r1 = sb.random_density(fam.space.left, 88)
        theta = np.array([0.5, 0.1])
        numeric = fd_gradient(
            lambda th: sb.kl(sb.marginalize(sb.density(fam, th)), r1), theta
        )
        np.testing.assert_allclose(
            sb.kl_theta_gradient_right(fam, theta, r1), numeric, atol=1e-6
        )

    @pytest.mark.parametrize("mode", ["left", "right"])
    def test_gradient_allocates_no_statistics_sized_array(self, mode):
        # The conditional statistics are one contraction: the peak stays
        # below two (n1, n2) tables, where T * weights would take d of them.
        d, n1, n2 = 3, 200, 300
        rng = np.random.default_rng(200300)
        space = sb.ProductSpace(
            sb.make_space(rng.uniform(0.2, 2.0, n1)),
            sb.make_space(rng.uniform(0.2, 2.0, n2)),
        )
        fam = sb.make_expfam(
            sb.random_density(space.left, rng),
            sb.random_density(space.right, rng),
            rng.standard_normal((d, n1, n2)),
        )
        g = sb.density(fam, rng.uniform(-0.5, 0.5, d))
        g1 = sb.marginalize(g)
        r1 = sb.random_density(space.left, rng)
        tracemalloc.start()
        try:
            sb.expfam._kl_gradient(fam, g, g1, r1, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n1 * n2 * 8

    def test_literal_weighting_fails_fd(self, margin_family):
        # the weightless integrand log(r1/G1) * mu1, without the G1 factor,
        # does not differentiate the divergence away from a flat margin
        r1 = sb.random_density(margin_family.space.left, 89)
        theta = np.array([1.0])
        numeric = fd_gradient(
            lambda th: sb.kl(sb.marginalize(sb.density(margin_family, th)), r1),
            theta,
        )
        g1 = sb.marginalize(sb.density(margin_family, theta))
        table = sb.marginal_velocity(margin_family, theta, [1.0]).values
        weightless = np.log(r1.values / g1.values) * margin_family.space.left.weights
        literal = -(table @ weightless)
        assert np.max(np.abs(literal - numeric)) > 1e-3
        np.testing.assert_allclose(
            sb.kl_theta_gradient_right(margin_family, theta, r1), numeric, atol=1e-6
        )


class TestFlow:
    def test_records_and_traces_compare_and_hash_by_identity(self):
        # The generated __eq__ compared two-entry thetas inside a tuple,
        # which raised on their ambiguous truth value, and the list of
        # records made the hash of a trace raise.
        fam = random_family(4, 3, 2, 59)
        target = sb.random_density(fam.space.left, 60)
        a, b = (sb.natural_gradient_flow(fam, [0.5, -0.5], target, iters=3)
                for _ in range(2))
        for x, y in ((a, b), (a.final, b.final)):
            assert x == x and x != y
            assert hash(x) == hash(x)
            assert len({x, y}) == 2

    def test_already_converged_single_record(self, margin_family):
        r1 = sb.uniform_density(margin_family.space.left)
        trace = sb.natural_gradient_flow(
            margin_family, [0.0], r1, mode="left", step=0.5, iters=50, tol=1e-6
        )
        assert trace.converged and trace.stop_reason == "converged"
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0
        assert trace.records[0].halvings == 0

    def test_log_cosh_descent(self, margin_family):
        r1 = sb.uniform_density(margin_family.space.left)
        trace = sb.natural_gradient_flow(
            margin_family, [1.0], r1, mode="left", step=0.5, iters=200, tol=1e-7
        )
        assert trace.converged
        assert trace.final.iteration <= 200
        assert abs(trace.final.theta[0]) < 1e-6
        objectives = [rec.objective for rec in trace.records]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        # objective along the trace is exactly log cosh(theta)
        for rec in trace.records[:5]:
            assert rec.objective == pytest.approx(
                math.log(math.cosh(rec.theta[0])), abs=1e-12
            )

    def test_right_mode_immediate_convergence(self, margin_family):
        theta0 = np.array([0.8])
        g1 = sb.marginalize(sb.density(margin_family, theta0))
        trace = sb.natural_gradient_flow(
            margin_family, theta0, g1, mode="right", step=0.5, iters=50, tol=1e-9
        )
        assert trace.converged
        assert len(trace.records) == 1

    def test_backtracking_keeps_objective_monotone(self):
        fam = random_family(3, 3, 2, 90)
        r1 = sb.random_density(fam.space.left, 91)
        # an oversized step forces the backtracking path
        trace = sb.natural_gradient_flow(
            fam, [2.0, -2.0], r1, mode="left", step=64.0, iters=40, tol=1e-10
        )
        objectives = [rec.objective for rec in trace.records]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        assert all(
            a.iteration < b.iteration
            for a, b in zip(trace.records, trace.records[1:])
        )
        assert all(math.isfinite(rec.objective) for rec in trace.records)

    def test_invalid_arguments(self, margin_family):
        r1 = sb.uniform_density(margin_family.space.left)
        with pytest.raises(sb.StatBundleError):
            sb.natural_gradient_flow(margin_family, [1.0], r1, mode="sideways")
        with pytest.raises(sb.StatBundleError):
            sb.natural_gradient_flow(margin_family, [1.0], r1, iters=0)
        with pytest.raises(sb.MismatchError, match="parameter shape"):
            sb.natural_gradient_flow(margin_family, [1.0, 2.0], r1)
        other = sb.uniform_density(sb.make_space([1.0, 1.0, 1.0]))
        with pytest.raises(sb.MismatchError, match="target margin"):
            sb.natural_gradient_flow(margin_family, [1.0], other)
        # a fractional or infinite budget is never met by the integer
        # iteration count, so the cap would never fire
        for iters in (2.5, math.inf, 3.0, "3", True):
            with pytest.raises(sb.StatBundleError, match="iters must be an integer"):
                sb.natural_gradient_flow(margin_family, [1.0], r1, iters=iters)
        # tol = inf would report convergence at iteration 0; tol <= 0 or
        # nan could never be met, and the flow would run until it stalls
        for name in ("step", "tol"):
            for value in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(sb.StatBundleError, match="positive and finite"):
                    sb.natural_gradient_flow(margin_family, [1.0], r1, **{name: value})

    @pytest.mark.parametrize(
        "value", ["0.5", None, [1e-8], True], ids=["str", "None", "list", "bool"]
    )
    @pytest.mark.parametrize("name", ["step", "tol"])
    def test_float_arguments_must_be_real_numbers(self, margin_family, name, value):
        r1 = sb.uniform_density(margin_family.space.left)
        with pytest.raises(sb.StatBundleError, match=f"{name} must be a real number"):
            sb.natural_gradient_flow(margin_family, [1.0], r1, **{name: value})

    def test_int_and_numpy_float_step_and_tol(self, margin_family):
        r1 = sb.make_density(margin_family.space.left, [1.2, 0.8])
        plain = sb.natural_gradient_flow(margin_family, [1.0], r1, step=1.0, tol=1e-12)
        other = sb.natural_gradient_flow(
            margin_family, [1.0], r1, step=1, tol=np.float64(1e-12)
        )
        assert other.stop_reason == plain.stop_reason
        assert [r.theta.tobytes() for r in other.records] == [
            r.theta.tobytes() for r in plain.records
        ]

    def test_numpy_integer_iters(self, margin_family):
        r1 = sb.make_density(margin_family.space.left, [1.2, 0.8])
        plain = sb.natural_gradient_flow(margin_family, [1.0], r1, iters=2, tol=1e-12)
        numpy = sb.natural_gradient_flow(
            margin_family, [1.0], r1, iters=np.int64(2), tol=1e-12
        )
        assert plain.stop_reason == numpy.stop_reason == "iteration_cap"
        assert [r.theta.tobytes() for r in plain.records] == [
            r.theta.tobytes() for r in numpy.records
        ]

    @pytest.mark.parametrize("mode", ["left", "right"])
    def test_overflowing_step_is_halved(self, margin_family, mode):
        # theta - step * direction overflows at the first trial points; they
        # are halved like points outside the model, with no RuntimeWarning
        r1 = sb.make_density(margin_family.space.left, [1.2, 0.8])
        trace = sb.natural_gradient_flow(
            margin_family, [1.0], r1, mode=mode, step=1e308, iters=200, tol=1e-7
        )
        assert trace.records[1].halvings > 1000
        assert all(math.isfinite(rec.objective) for rec in trace.records)
        objectives = [rec.objective for rec in trace.records]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < 1e-10 < objectives[0]

    def test_overflowing_member_is_halved(self, half_space):
        # theta stays finite, but evaluating its member overflows
        p = sb.uniform_density(half_space)
        fam = sb.make_expfam(p, p, [[[1e3, 1e3], [-1e3, -1e3]]])
        r1 = sb.make_density(half_space, [1.2, 0.8])
        trace = sb.natural_gradient_flow(fam, [1e-3], r1, step=1e308, tol=1e-7)
        assert trace.converged
        assert trace.records[1].halvings > 1000

    def test_step_leaving_the_model_is_halved(self, margin_family):
        # the first trial point, theta = 1 - 1000 sinh(2) / 2, underflows
        # the member's density; it is rejected and halved, not raised
        r1 = sb.uniform_density(margin_family.space.left)
        trace = sb.natural_gradient_flow(margin_family, [1.0], r1, step=1000.0)
        assert trace.records[1].halvings >= 10
        objectives = [rec.objective for rec in trace.records]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < 1e-6 < objectives[0]

    @pytest.mark.parametrize(
        "mode, theta0",
        [("left", 1.0), ("left", 5.0), ("left", 10.0), ("left", 40.0),
         ("right", 1.0), ("right", 40.0)],
    )
    def test_converges_from_saturated_starts(self, margin_family, mode, theta0):
        # From theta0 = 40 the left natural direction is about 1e34, so its
        # first trial points leave the model and are halved
        r1 = sb.uniform_density(margin_family.space.left)
        trace = sb.natural_gradient_flow(
            margin_family, [theta0], r1, mode=mode, step=0.5, iters=200, tol=1e-7
        )
        assert trace.converged
        assert abs(trace.final.theta[0]) < 1e-6
        assert trace.stop_reason == "converged"
        assert trace.final.step_norm < 1e-7
        objectives = [rec.objective for rec in trace.records]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))

    def test_saturated_plateau_is_not_convergence(self, margin_family):
        # On the plateau the right objective sits near its maximum log 2 and
        # its Euclidean gradient underflows; the natural step does not
        r1 = sb.uniform_density(margin_family.space.left)
        trace = sb.natural_gradient_flow(
            margin_family, [40.0], r1, mode="right", step=0.5, iters=200, tol=1e-7
        )
        first = trace.records[0]
        assert first.objective == pytest.approx(math.log(2.0), abs=1e-12)
        assert first.grad_norm < 1e-30
        assert len(trace.records) > 1
        assert first.step_norm > 1.0

    def test_stop_reasons(self, margin_family, diag_family):
        r1 = sb.uniform_density(margin_family.space.left)
        capped = sb.natural_gradient_flow(margin_family, [1.0], r1, iters=3)
        assert capped.stop_reason == "iteration_cap" and not capped.converged
        assert capped.final.iteration == 3
        # the diagonal statistic never moves the margin: F is singular
        flat = sb.natural_gradient_flow(diag_family, [0.5], r1)
        assert flat.stop_reason == "boundary" and not flat.converged
        assert len(flat.records) == 1
        # below sqrt(eps) in theta the objective's rounding error hides
        # every decrease, so the flow stalls next to the optimum
        fam = random_family(4, 3, 2, 93)
        target = sb.marginalize(sb.density(fam, [0.4, -0.7]))
        stalled = sb.natural_gradient_flow(fam, [2.0, 1.5], target, tol=1e-14)
        assert stalled.stop_reason == "stalled" and not stalled.converged
        np.testing.assert_allclose(stalled.final.theta, [0.4, -0.7], atol=1e-6)

    @pytest.mark.parametrize("mode", ["left", "right"])
    def test_starts_where_the_statistics_cancel(self, mode):
        for seed in range(50):
            fam = cancelling_family(seed)
            target = sb.random_density(fam.space.left, [seed, 41])
            trace = sb.natural_gradient_flow(fam, [1e4, -1e4], target, mode=mode,
                                             iters=5)
            objectives = [rec.objective for rec in trace.records]
            assert all(math.isfinite(obj) for obj in objectives)
            assert all(a >= b for a, b in zip(objectives, objectives[1:]))

    @pytest.mark.parametrize("case", ["boundary-halvings", "increase-halvings"])
    def test_each_trial_point_evaluates_the_member_once(
        self, monkeypatch, margin_family, case
    ):
        if case == "boundary-halvings":
            fam, theta0, step = margin_family, [5.0], 0.5
            target = sb.uniform_density(fam.space.left)
        else:
            fam, theta0, step = random_family(4, 3, 2, 93), [2.0, 1.5], 4.0
            target = sb.marginalize(sb.density(fam, [0.4, -0.7]))
        calls = []
        inner = sb.expfam._exp_chart_inv

        def counting(p, u):
            calls.append(1)
            return inner(p, u)

        monkeypatch.setattr(sb.expfam, "_exp_chart_inv", counting)
        trace = sb.natural_gradient_flow(fam, theta0, target, step=step, tol=1e-7)
        assert trace.converged
        trials = sum(rec.halvings + 1 for rec in trace.records[1:])
        assert trials > len(trace.records) - 1
        assert len(calls) == trials + 1

    # (stop reason, final iteration, total halvings) of each flow from
    # theta0 = (2, -2) towards a random margin.  Rounding changes in the
    # member leave these alone; a change that moves one changes how the
    # flow behaves.  Seed 1 keeps halving until it reaches its cap.
    TRAJECTORIES = {
        0: (("converged", 27, 2), ("converged", 21, 0)),
        1: (("iteration_cap", 100, 305), ("iteration_cap", 100, 285)),
        2: (("converged", 42, 5), ("converged", 29, 0)),
        3: (("converged", 26, 4), ("converged", 33, 0)),
        4: (("converged", 30, 10), ("converged", 30, 0)),
        5: (("converged", 29, 1), ("converged", 33, 0)),
        6: (("converged", 35, 1), ("converged", 27, 0)),
        7: (("converged", 39, 0), ("converged", 18, 0)),
        8: (("converged", 21, 0), ("converged", 28, 0)),
        9: (("converged", 26, 1), ("converged", 21, 0)),
    }

    @pytest.mark.parametrize("seed", sorted(TRAJECTORIES))
    def test_trajectories_are_pinned(self, seed):
        fam = random_family(6, 5, 2, seed)
        target = sb.random_density(fam.space.left, [seed, 3])
        for mode, expected in zip(("left", "right"), self.TRAJECTORIES[seed]):
            trace = sb.natural_gradient_flow(
                fam, [2.0, -2.0], target, mode=mode, step=0.5, iters=100,
                tol=1e-7,
            )
            halvings = sum(rec.halvings for rec in trace.records)
            assert (trace.stop_reason, trace.final.iteration, halvings) == expected
