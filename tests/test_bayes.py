import math

import numpy as np
import pytest

import statbundle as sb
from statbundle.findiff import fd_vector_curve


def random_joint(n1, n2, seed):
    space = sb.ProductSpace(
        sb.make_space(np.linspace(0.3, 1.1, n1)),
        sb.make_space(np.linspace(0.4, 1.6, n2)),
    )
    return sb.random_density(space, seed)


def enum_margin(q12):
    n1, n2 = q12.space.shape
    mu2 = q12.space.right.weights
    return [
        math.fsum(float(q12.values[x, z]) * float(mu2[z]) for z in range(n2))
        for x in range(n1)
    ]


class TestMarginalize:
    def test_product_joint_recovers_left_factor(self):
        p1 = sb.random_density(sb.make_space([0.5, 0.5, 1.0]), 1)
        p2 = sb.random_density(sb.make_space([0.8, 1.2]), 2)
        q12 = sb.product_density(p1, p2)
        np.testing.assert_allclose(
            sb.marginalize(q12).values, p1.values, atol=1e-14
        )

    def test_worked_2x2(self, joint_2x2):
        _, q12 = joint_2x2
        np.testing.assert_allclose(sb.marginalize(q12).values, [1.0, 1.0],
                                   atol=1e-15)

    def test_margin_is_valid_density(self):
        q12 = random_joint(3, 4, 7)
        q1 = sb.marginalize(q12)
        assert np.all(q1.values > 0)
        np.testing.assert_allclose(q1.values, enum_margin(q12), atol=1e-15)

    def test_requires_product_space(self, two_point):
        _, _, q, _ = two_point
        with pytest.raises(sb.MismatchError):
            sb.marginalize(q)


class TestOneRowSum:
    """The margin, the masses that normalise the conditionals and the
    numerators of conditional expectations are one per-row dot."""

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (17, 5), (64, 64), (200, 300)])
    def test_margin_times_conditionals_is_the_joint_to_one_ulp(self, shape):
        for seed in range(4):
            rng = np.random.default_rng([50, *shape, seed])
            space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, shape[0])),
                                    sb.make_space(rng.uniform(0.2, 2.0, shape[1])))
            q12 = sb.random_density(space, rng)
            rebuilt = sb.marginalize(q12).values[:, None] * sb.conditionals(q12)
            assert np.all(np.abs(rebuilt - q12.values) <= np.spacing(q12.values))

    def test_margin_rows_are_np_dot(self):
        for seed in range(30):
            q12 = random_joint(2 + seed % 7, 2 + 3 * seed, [51, seed])
            mu2 = q12.space.right.weights
            expected = np.array([np.dot(row, mu2) for row in q12.values])
            assert sb.marginalize(q12).values.tobytes() == expected.tobytes()

    def test_conditional_expectation_numerators_are_np_dot(self):
        for seed in range(30):
            q12 = random_joint(2 + seed % 7, 2 + 3 * seed, [52, seed])
            v = sb.random_fiber(q12, [53, seed])
            mu2 = q12.space.right.weights
            q1 = sb.marginalize(q12).values
            expected = np.array([
                np.dot(vx * qx, mu2) for vx, qx in zip(v.values, q12.values)
            ]) / q1
            got = sb.marginal_derivative(q12, v).values
            assert got.tobytes() == expected.tobytes()


class TestCondition:
    def test_product_joint_is_independent(self):
        p1 = sb.random_density(sb.make_space([0.5, 0.5, 1.0]), 3)
        p2 = sb.random_density(sb.make_space([0.8, 1.2]), 4)
        q12 = sb.product_density(p1, p2)
        table = sb.conditionals(q12)
        for x in range(3):
            np.testing.assert_allclose(table[x], p2.values, atol=1e-14)

    def test_worked_rows(self, joint_2x2):
        _, q12 = joint_2x2
        np.testing.assert_allclose(
            sb.conditionals(q12), [[1.6, 0.4], [0.4, 1.6]], atol=1e-15
        )

    def test_reconstruction_identity(self):
        q12 = random_joint(3, 5, 8)
        q1 = sb.marginalize(q12)
        rebuilt = q1.values[:, None] * sb.conditionals(q12)
        np.testing.assert_allclose(rebuilt, q12.values, rtol=1e-15, atol=0.0)


class TestMarginalDerivative:
    def test_left_measurable_velocity_passes_through(self, joint_2x2):
        _, q12 = joint_2x2
        v = sb.FiberVector(q12, [[1.0, 1.0], [-1.0, -1.0]], "mixture")
        got = sb.marginal_derivative(q12, v)
        np.testing.assert_allclose(got.values, [1.0, -1.0], atol=1e-15)

    def test_worked_zero_case(self, joint_2x2):
        _, q12 = joint_2x2
        v = sb.FiberVector(q12, [[0.4, -1.6], [-1.6, 0.4]], "mixture")
        np.testing.assert_allclose(
            sb.marginal_derivative(q12, v).values, 0.0, atol=1e-15
        )

    def test_tower_property(self):
        q12 = random_joint(4, 3, 9)
        v = sb.random_fiber(q12, 10)
        out = sb.marginal_derivative(q12, v)
        assert abs(sb.expect(out.base, out.values)) <= 1e-12

    def test_linearity(self):
        q12 = random_joint(3, 3, 11)
        v = sb.random_fiber(q12, 12)
        w = sb.random_fiber(q12, 13)
        a, b = 0.7, -1.9
        combo = sb.FiberVector(q12, a * v.values + b * w.values)
        lhs = sb.marginal_derivative(q12, combo).values
        rhs = (
            a * sb.marginal_derivative(q12, v).values
            + b * sb.marginal_derivative(q12, w).values
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_mixture_curve_fd(self):
        q12 = random_joint(3, 4, 14)
        v = sb.random_fiber(q12, 15)
        q1 = sb.marginalize(q12)
        curve = sb.mixture_curve(q12, v)
        numeric = fd_vector_curve(
            lambda t: sb.mix_chart(q1, sb.marginalize(curve(t))).values, 0.0
        )
        np.testing.assert_allclose(
            sb.marginal_derivative(q12, v).values, numeric, atol=1e-6
        )

    def test_base_mismatch(self, joint_2x2):
        _, q12 = joint_2x2
        other = random_joint(2, 2, 16)
        v = sb.random_fiber(other, 17)
        with pytest.raises(sb.MismatchError):
            sb.marginal_derivative(q12, v)


class TestConditionalDerivative:
    def test_left_measurable_velocity_dies(self, joint_2x2):
        _, q12 = joint_2x2
        v = sb.FiberVector(q12, [[1.0, 1.0], [-1.0, -1.0]], "mixture")
        np.testing.assert_allclose(
            sb.conditional_derivatives(q12, v), 0.0, atol=1e-15
        )

    def test_worked_example(self, joint_2x2):
        _, q12 = joint_2x2
        v = sb.FiberVector(q12, [[0.4, -1.6], [-1.6, 0.4]], "mixture")
        got = sb.conditional_derivatives(q12, v)
        np.testing.assert_allclose(got[0], [0.4, -1.6], atol=1e-15)

    def test_zero_conditional_expectation(self):
        q12 = random_joint(3, 5, 18)
        v = sb.random_fiber(q12, 19)
        cond = sb.conditionals(q12)
        table = sb.conditional_derivatives(q12, v)
        for x in range(3):
            base = sb.make_density(q12.space.right, cond[x])
            assert abs(sb.expect(base, table[x])) <= 1e-12

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_large_row_offsets_are_centred(self, offset):
        # Rows of v that carry a large offset keep a residual mean after one
        # centring pass; the table centres them again instead of failing.
        for seed in range(20):
            rng = np.random.default_rng([seed, 22])
            space = sb.ProductSpace(
                sb.make_space(rng.uniform(0.2, 2.0, 3)),
                sb.make_space(rng.uniform(0.2, 2.0, 3)),
            )
            q12 = sb.random_density(space, rng)
            noise = rng.standard_normal((3, 3))
            v = sb.center(q12, noise + offset * np.array([1.0, -1.0, 0.5])[:, None])
            weights = sb.conditionals(q12) * space.right.weights
            expected = noise - np.sum(noise * weights, axis=1)[:, None]
            np.testing.assert_allclose(
                sb.conditional_derivatives(q12, v), expected, rtol=0.0, atol=1e-8
            )

    def test_matches_mixture_curve_fd(self):
        q12 = random_joint(2, 4, 20)
        v = sb.random_fiber(q12, 21)
        curve = sb.mixture_curve(q12, v)
        base = sb.conditionals(q12)
        # row x is the mixture chart at q21(.|x) of the moving conditional
        numeric = fd_vector_curve(
            lambda t: sb.conditionals(curve(t)) / base - 1.0, 0.0
        )
        np.testing.assert_allclose(
            sb.conditional_derivatives(q12, v), numeric, atol=1e-6
        )


def chart_expression(p1, p2, v):
    """Conditioning read in mixture charts at p1 (x) p2 and p2: row x is the
    mixture chart at p2 of the conditional at x of mix_chart_inv(p1 (x) p2, v).

    Built from the inverse chart and the conditionals table only, so it
    shares no code with :func:`statbundle.condition_chart_derivatives`.
    """
    p12 = sb.product_density(p1, p2)
    w = sb.FiberVector(p12, v, "mixture")
    return sb.conditionals(sb.mix_chart_inv(p12, w)) / p2.values - 1.0


class TestCentredRowBytes:
    # Each row's conditional mean is summed from (v * cond) * mu2 along the
    # row: a change of product order or sum moves bits.
    @staticmethod
    def draw(seed):
        rng = np.random.default_rng([seed, 8])
        n1, n2 = int(rng.integers(2, 40)), int(rng.integers(2, 300))
        space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, n1)),
                                sb.make_space(rng.uniform(0.2, 2.0, n2)))
        p1, p2 = sb.random_density(space.left, rng), sb.random_density(space.right, rng)
        return p1, p2, sb.random_density(space, rng), rng

    def test_conditional_derivatives(self):
        for seed in range(30):
            _, _, q12, rng = self.draw(seed)
            v = sb.random_fiber(q12, rng).values
            cond = sb.conditionals(q12)
            mu2 = q12.space.right.weights
            expected = v - np.sum(v * cond * mu2, axis=1)[:, None]
            assert sb.conditional_derivatives(q12, sb.FiberVector(q12, v)).tobytes() == (
                expected.tobytes()
            )

    def test_exp_decompose_conditional(self):
        for seed in range(30):
            p1, p2, q12, _ = self.draw(seed)
            cond = sb.conditionals(q12)
            mu2 = q12.space.right.weights
            v = np.log(cond) - np.log(p2.values)
            expected = v - np.sum(v * p2.values * mu2, axis=1)[:, None]
            assert sb.exp_decompose(p1, p2, q12).conditional.tobytes() == (
                expected.tobytes()
            )


class TestConditioningInCharts:
    def test_zero_maps_to_zero(self, two_point):
        _, p, _, _ = two_point
        p12 = sb.product_density(p, p)
        z = np.zeros((2, 2))
        np.testing.assert_array_equal(chart_expression(p, p, z), 0.0)
        # at the chart origin the chart derivative is the centered section
        h = sb.random_fiber(p12, 61, "mixture")
        zero = sb.FiberVector(p12, z, "mixture")
        np.testing.assert_allclose(
            sb.condition_chart_derivatives(p, p, zero, h),
            sb.conditional_derivatives(p12, h),
            atol=1e-15,
        )

    def test_worked_example(self, two_point, joint_2x2):
        _, p, _, _ = two_point
        _, q12 = joint_2x2
        p12 = sb.product_density(p, p)
        v0 = sb.mix_chart(p12, q12)
        np.testing.assert_allclose(
            chart_expression(p, p, v0.values)[0], [0.6, -0.6], atol=1e-15
        )
        # row 0 of the joint moves as (1.6 + t, 0.4) with mass 1 + t/2,
        # row 1 as (0.4, 1.6 - t) with mass 1 - t/2
        h = sb.FiberVector(p12, [[1.0, 0.0], [0.0, -1.0]], "mixture")
        np.testing.assert_allclose(
            sb.condition_chart_derivatives(p, p, v0, h),
            [[0.2, -0.2], [0.2, -0.2]],
            atol=1e-15,
        )

    def test_commutes_with_conditioning(self):
        # the closed form (v(x, .) - m) / (1 + m) is exactly the chart of
        # the conditioned inverse-chart density
        left = sb.make_space([0.6, 1.4, 0.5])
        right = sb.make_space([0.9, 1.1])
        p1 = sb.random_density(left, 22)
        p2 = sb.random_density(right, 23)
        p12 = sb.product_density(p1, p2)
        v = sb.random_fiber(p12, 24, "mixture")
        v = 0.4 / float(np.max(np.abs(v.values))) * v.values
        m = np.sum(v * p2.values * right.weights, axis=1)[:, None]
        closed_form = (v - m) / (1.0 + m)
        np.testing.assert_allclose(
            closed_form, chart_expression(p1, p2, v), atol=1e-12
        )

    def test_boundary_denominator(self, two_point):
        _, p, _, _ = two_point
        p12 = sb.product_density(p, p)
        v = sb.FiberVector(p12, [[-1.5, -0.5], [0.5, 1.5]], "mixture")
        h = sb.random_fiber(p12, 62, "mixture")
        with pytest.raises(sb.BoundaryError, match="leaves the model"):
            sb.condition_chart_derivatives(p, p, v, h)

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_large_row_offsets_are_centred(self, offset):
        # At v = 0 row x is the centred section of h, whose large offset
        # leaves a residual mean after the one subtraction of m_h.
        for seed in range(20):
            rng = np.random.default_rng([seed, 31])
            space = sb.ProductSpace(
                sb.make_space(rng.uniform(0.2, 2.0, 3)),
                sb.make_space(rng.uniform(0.2, 2.0, 3)),
            )
            p1 = sb.random_density(space.left, rng)
            p2 = sb.random_density(space.right, rng)
            p12 = sb.product_density(p1, p2)
            noise = rng.standard_normal((3, 3))
            h = sb.center(
                p12, noise + offset * np.array([1.0, -1.0, 0.5])[:, None], "mixture"
            )
            zero = sb.FiberVector(p12, np.zeros((3, 3)), "mixture")
            weights = p2.values * space.right.weights
            expected = noise - (noise @ weights)[:, None]
            np.testing.assert_allclose(
                sb.condition_chart_derivatives(p1, p2, zero, h), expected,
                rtol=0.0, atol=1e-8,
            )

    def test_derivative_matches_fd(self):
        left = sb.make_space([0.6, 1.4])
        right = sb.make_space([0.9, 1.1, 0.7])
        p1 = sb.random_density(left, 25)
        p2 = sb.random_density(right, 26)
        p12 = sb.product_density(p1, p2)
        v = sb.random_fiber(p12, 27, "mixture")
        v = sb.FiberVector(p12, 0.3 * v.values / np.max(np.abs(v.values)), "mixture")
        h = sb.random_fiber(p12, 28, "mixture")
        analytic = sb.condition_chart_derivatives(p1, p2, v, h)
        numeric = fd_vector_curve(
            lambda t: chart_expression(p1, p2, v.values + t * h.values), 0.0
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_transport_pipeline_reconstructs_derivative(self):
        # chart the velocity down to the base product, differentiate the
        # chart expression, transport back to the conditioned density
        q12 = random_joint(3, 4, 29)
        v = sb.random_fiber(q12, 30, "mixture")
        p1 = sb.random_density(q12.space.left, 31)
        p2 = sb.random_density(q12.space.right, 32)
        p12 = sb.product_density(p1, p2)
        v0 = sb.mix_chart(p12, q12)
        h = sb.m_transport(q12, p12, v)
        in_chart = sb.condition_chart_derivatives(p1, p2, v0, h)
        cond = sb.conditionals(q12)
        direct = sb.conditional_derivatives(q12, v)
        for x in range(3):
            base = sb.make_density(q12.space.right, cond[x])
            row = sb.FiberVector(p2, in_chart[x], "mixture")
            moved = sb.m_transport(p2, base, row)
            np.testing.assert_allclose(moved.values, direct[x], atol=1e-10)


TABLE_SHAPES = [(2, 2), (2, 7), (7, 2), (5, 3)]


class TestTables:
    """Each table is a read-only (n1, n2) array that agrees with an
    independent computation of its rows."""

    @pytest.mark.parametrize("shape", TABLE_SHAPES)
    def test_conditionals(self, shape):
        q12 = random_joint(*shape, 50)
        table = sb.conditionals(q12)
        assert table.shape == shape and not table.flags.writeable
        margin = np.array(enum_margin(q12))
        np.testing.assert_allclose(
            table, q12.values / margin[:, None], rtol=1e-14, atol=0.0
        )

    @pytest.mark.parametrize("shape", TABLE_SHAPES)
    def test_conditional_derivatives(self, shape):
        q12 = random_joint(*shape, 51)
        v = sb.random_fiber(q12, 52, "mixture")
        table = sb.conditional_derivatives(q12, v)
        assert table.shape == shape and not table.flags.writeable
        n1, n2 = shape
        mu2 = q12.space.right.weights
        margin = enum_margin(q12)
        for x in range(n1):
            mean = math.fsum(
                float(v.values[x, z]) * float(q12.values[x, z]) * float(mu2[z])
                for z in range(n2)
            ) / margin[x]
            np.testing.assert_allclose(table[x], v.values[x] - mean, atol=1e-13)

    @pytest.mark.parametrize("shape", TABLE_SHAPES)
    def test_condition_chart_derivatives(self, shape):
        q12 = random_joint(*shape, 53)
        p1 = sb.random_density(q12.space.left, 54)
        p2 = sb.random_density(q12.space.right, 55)
        p12 = sb.product_density(p1, p2)
        v0 = sb.mix_chart(p12, q12)
        h = sb.random_fiber(p12, 56, "mixture")
        table = sb.condition_chart_derivatives(p1, p2, v0, h)
        assert table.shape == shape and not table.flags.writeable
        numeric = fd_vector_curve(
            lambda t: chart_expression(p1, p2, v0.values + t * h.values), 0.0
        )
        np.testing.assert_allclose(table, numeric, atol=1e-6)

    def test_underflowing_conditional_rejected_like_condition(self, half_space):
        # row 0 is a valid joint row whose conditional falls below the floor,
        # which a Density built from that row rejects as well
        space = sb.ProductSpace(half_space, half_space)
        q12 = sb.make_density(space, [[1.5e-300, 3.9], [0.05, 0.05]])
        v = sb.random_fiber(q12, 57)
        with pytest.raises(sb.BoundaryError):
            sb.make_density(half_space, [1.5e-300 / 1.95, 3.9 / 1.95])
        with pytest.raises(sb.BoundaryError, match=r"\(0, 0\)"):
            sb.conditionals(q12)
        with pytest.raises(sb.BoundaryError):
            sb.conditional_derivatives(q12, v)

    def test_chart_image_leaving_model_rejected_like_per_row(self, two_point):
        # the error names the first outcome whose chart image leaves the model
        _, p, _, _ = two_point
        p12 = sb.product_density(p, p)
        h = sb.random_fiber(p12, 58, "mixture")
        for rows, x in (([[0.5, 1.5], [-1.5, -0.5]], 1),
                        ([[-1.5, -0.5], [0.5, 1.5]], 0)):
            v = sb.FiberVector(p12, rows, "mixture")
            with pytest.raises(sb.BoundaryError, match=f"at outcome {x}$"):
                sb.condition_chart_derivatives(p, p, v, h)

    def test_base_mismatch(self, joint_2x2):
        _, q12 = joint_2x2
        v = sb.random_fiber(random_joint(2, 2, 59), 60)
        with pytest.raises(sb.MismatchError):
            sb.conditional_derivatives(q12, v)


class TestChartDecomposition:
    def test_base_point_is_all_zero(self, two_point):
        _, p, _, _ = two_point
        q12 = sb.product_density(p, p)
        dec = sb.exp_decompose(p, p, q12)
        np.testing.assert_allclose(dec.joint, 0.0, atol=1e-15)
        np.testing.assert_allclose(dec.marginal, 0.0, atol=1e-15)
        np.testing.assert_allclose(dec.conditional, 0.0, atol=1e-15)
        assert dec.residual <= 1e-15

    def test_worked_2x2(self, two_point, joint_2x2):
        _, p, _, _ = two_point
        _, q12 = joint_2x2
        dec = sb.exp_decompose(p, p, q12)
        np.testing.assert_allclose(dec.marginal, 0.0, atol=1e-15)
        half_log_ratio = 0.5 * math.log(1.6 / 0.4)
        np.testing.assert_allclose(
            dec.conditional[0], [half_log_ratio, -half_log_ratio], atol=1e-12
        )
        # the conditional divergence is the same for both rows, so the
        # centering term vanishes
        np.testing.assert_allclose(dec.centering, 0.0, atol=1e-15)
        cond0 = sb.make_density(q12.space.right, sb.conditionals(q12)[0])
        assert sb.kl(p, cond0) == pytest.approx(
            -0.5 * math.log(0.64), abs=1e-12
        )
        assert dec.residual <= 1e-12

    def test_random_3x4(self):
        q12 = random_joint(3, 4, 33)
        p1 = sb.random_density(q12.space.left, 34)
        p2 = sb.random_density(q12.space.right, 35)
        assert sb.exp_decompose(p1, p2, q12).residual <= 1e-12

    def test_literal_centering_breaks_the_identity(self):
        # recentring by the plain mu1-average instead of the p1-expectation:
        # with a margin reference that is not flat it cannot close the
        # identity
        q12 = random_joint(3, 4, 36)
        p1 = sb.random_density(q12.space.left, 37)
        p2 = sb.random_density(q12.space.right, 38)
        dec = sb.exp_decompose(p1, p2, q12)
        literal = dec.centering - np.sum(dec.centering * q12.space.left.weights)
        rebuilt = dec.marginal[:, None] + dec.conditional - literal[:, None]
        assert dec.residual <= 1e-12
        assert np.max(np.abs(dec.joint - rebuilt)) > 1e-6

    def test_space_mismatch(self, joint_2x2):
        _, q12 = joint_2x2
        p_wrong = sb.random_density(sb.make_space([1, 1, 1]), 0)
        p_ok = sb.uniform_density(q12.space.right)
        with pytest.raises(sb.MismatchError, match="reference densities"):
            sb.exp_decompose(p_wrong, p_ok, q12)

    def test_centering_subtracts_the_chain_rule_average(self):
        # the mean taken from the conditional divergences is kl_chain's
        # conditional term, bit for bit
        for seed in range(40):
            q12 = random_joint(2 + seed % 5, 2 + seed % 9, [54, seed])
            p1 = sb.random_density(q12.space.left, [55, seed])
            p2 = sb.random_density(q12.space.right, [56, seed])
            kls = np.array([
                sb.kl(p2, sb.Density(q12.space.right, row))
                for row in sb.conditionals(q12)
            ])
            expected = kls - sb.kl_chain(p1, p2, q12).conditional_term
            got = sb.exp_decompose(p1, p2, q12).centering
            assert got.tobytes() == expected.tobytes()

    def test_compares_and_hashes_by_identity(self):
        # The generated __eq__ compared the arrays inside a tuple, which
        # raised on their ambiguous truth value; the hash raised too.
        q12 = random_joint(3, 4, 57)
        p1, p2 = sb.uniform_density(q12.space.left), sb.uniform_density(q12.space.right)
        a, b = sb.exp_decompose(p1, p2, q12), sb.exp_decompose(p1, p2, q12)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_residual_is_the_defect_of_the_identity(self):
        q12 = random_joint(4, 5, 39)
        p1 = sb.random_density(q12.space.left, 40)
        p2 = sb.random_density(q12.space.right, 41)
        dec = sb.exp_decompose(p1, p2, q12)
        split = dec.marginal[:, None] + dec.conditional - dec.centering[:, None]
        expected = float(np.max(np.abs(dec.joint - split)))
        assert type(dec.residual) is float
        assert repr(dec.residual) == repr(expected)


class TestKLChain:
    def test_base_point_is_zero(self, two_point):
        _, p, _, _ = two_point
        q12 = sb.product_density(p, p)
        chain = sb.kl_chain(p, p, q12)
        assert chain.total == pytest.approx(0.0, abs=1e-15)
        assert chain.marginal_term == pytest.approx(0.0, abs=1e-15)
        assert chain.conditional_term == pytest.approx(0.0, abs=1e-15)

    def test_worked_2x2(self, two_point, joint_2x2):
        _, p, _, _ = two_point
        _, q12 = joint_2x2
        chain = sb.kl_chain(p, p, q12)
        expected = -0.5 * math.log(0.64)
        assert chain.total == pytest.approx(expected, abs=1e-12)
        assert chain.marginal_term == pytest.approx(0.0, abs=1e-12)
        assert chain.conditional_term == pytest.approx(expected, abs=1e-12)
        assert chain.residual <= 1e-12

    def test_random_instances(self):
        for seed in range(5):
            q12 = random_joint(3, 5, [40, seed])
            p1 = sb.random_density(q12.space.left, [41, seed])
            p2 = sb.random_density(q12.space.right, [42, seed])
            assert sb.kl_chain(p1, p2, q12).residual <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 17), (3, 257)])
    def test_conditional_term_is_the_averaged_kl(self, shape):
        # bit for bit the p1 mu1-weighted sum of kl(p2, q21(.|x)): the
        # conditional divergences are computed by kl's own formula
        q12 = random_joint(*shape, [46, *shape])
        p1 = sb.random_density(q12.space.left, 47)
        p2 = sb.random_density(q12.space.right, 48)
        kls = np.array([
            sb.kl(p2, sb.Density(q12.space.right, row))
            for row in sb.conditionals(q12)
        ])
        expected = float(np.sum(kls * (p1.values * q12.space.left.weights)))
        assert sb.kl_chain(p1, p2, q12).conditional_term == expected

    def test_total_matches_enumeration(self):
        q12 = random_joint(3, 4, 43)
        p1 = sb.random_density(q12.space.left, 44)
        p2 = sb.random_density(q12.space.right, 45)
        chain = sb.kl_chain(p1, p2, q12)
        mu1 = q12.space.left.weights
        mu2 = q12.space.right.weights
        total = math.fsum(
            float(p1.values[x]) * float(p2.values[y])
            * math.log(float(p1.values[x]) * float(p2.values[y])
                       / float(q12.values[x, y]))
            * float(mu1[x]) * float(mu2[y])
            for x in range(3)
            for y in range(4)
        )
        assert chain.total == pytest.approx(total, abs=1e-14)

    def test_space_mismatch(self, joint_2x2):
        _, q12 = joint_2x2
        p_wrong = sb.random_density(sb.make_space([1, 1, 1]), 0)
        p_ok = sb.uniform_density(q12.space.right)
        with pytest.raises(sb.MismatchError):
            sb.kl_chain(p_wrong, p_ok, q12)
