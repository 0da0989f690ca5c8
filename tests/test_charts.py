import math

import numpy as np
import pytest

import statbundle as sb
from statbundle.findiff import fd_vector_curve


def oracle_exp_chart(p_vals, q_vals, mu):
    """Enumeration oracle: centered log ratio via plain scalar arithmetic."""
    logr = [math.log(qv / pv) for pv, qv in zip(p_vals, q_vals)]
    mean = math.fsum(lr * pv * m for lr, pv, m in zip(logr, p_vals, mu))
    return [lr - mean for lr in logr]


class TestCumulant:
    def test_zero_vector(self, two_point):
        _, p, _, _ = two_point
        z = sb.FiberVector(p, [0.0, 0.0])
        assert sb.cumulant(p, z) == 0.0

    def test_symmetric_tilt(self, two_point):
        # brute force: log(0.5 e^a + 0.5 e^-a) at the chart value of q
        _, p, q, _ = two_point
        a = oracle_exp_chart(p.values, q.values, [0.5, 0.5])[0]
        expected = math.log(0.5 * math.exp(a) + 0.5 * math.exp(-a))
        u = sb.FiberVector(p, [a, -a])
        assert sb.cumulant(p, u) == pytest.approx(expected, abs=1e-15)
        assert sb.cumulant(p, u) == pytest.approx(0.020411, abs=1e-6)

    def test_positive_off_center(self):
        space = sb.make_space([0.4, 0.5, 1.2])
        p = sb.random_density(space, 0)
        u = sb.random_fiber(p, 1)
        assert sb.cumulant(p, u) > 0.0

    def test_base_mismatch(self, two_point):
        _, p, q, _ = two_point
        u = sb.random_fiber(q, 0)
        with pytest.raises(sb.MismatchError):
            sb.cumulant(p, u)


class TestExpChart:
    def test_center_maps_to_zero(self, two_point):
        _, p, _, _ = two_point
        np.testing.assert_allclose(sb.exp_chart(p, p).values, 0.0, atol=1e-16)

    def test_worked_example(self, two_point):
        _, p, q, _ = two_point
        expected = oracle_exp_chart(p.values, q.values, [0.5, 0.5])
        got = sb.exp_chart(p, q)
        np.testing.assert_allclose(got.values, expected, atol=1e-15)
        np.testing.assert_allclose(got.values, [0.202733, -0.202733], atol=1e-6)
        assert got.polarity == "exponential"
        assert abs(sb.expect(p, got.values)) <= 1e-12

    def test_inverse_roundtrip_seeded(self):
        for n in (2, 3, 5, 17):
            space = sb.make_space(np.linspace(0.2, 1.4, n))
            for seed in range(10):
                p = sb.random_density(space, [n, seed, 0])
                q = sb.random_density(space, [n, seed, 1])
                back = sb.exp_chart_inv(p, sb.exp_chart(p, q))
                np.testing.assert_allclose(back.values, q.values, atol=1e-12)

    def test_inverse_at_zero(self, two_point):
        _, p, _, _ = two_point
        z = sb.FiberVector(p, [0.0, 0.0])
        np.testing.assert_array_equal(sb.exp_chart_inv(p, z).values, p.values)

    def test_inverse_worked_example(self, two_point):
        _, p, q, _ = two_point
        v = sb.FiberVector(p, oracle_exp_chart(p.values, q.values, [0.5, 0.5]))
        np.testing.assert_allclose(sb.exp_chart_inv(p, v).values, [1.2, 0.8],
                                   atol=1e-15)


class TestMixChart:
    def test_center_maps_to_zero(self, two_point):
        _, p, _, _ = two_point
        np.testing.assert_array_equal(sb.mix_chart(p, p).values, 0.0)

    def test_worked_example(self, two_point):
        _, p, q, _ = two_point
        got = sb.mix_chart(p, q)
        np.testing.assert_allclose(got.values, [0.2, -0.2], atol=1e-15)
        assert got.polarity == "mixture"

    def test_mean_zero_is_structural(self):
        space = sb.make_space([0.3, 0.9, 1.8])
        p = sb.random_density(space, 5)
        q = sb.random_density(space, 6)
        # E_p[q/p - 1] is the total mass of q minus one for any p, q
        assert abs(sb.expect(p, sb.mix_chart(p, q).values)) <= 1e-15

    def test_inverse_roundtrip(self):
        space = sb.make_space([0.3, 0.9, 1.8, 0.2, 0.6])
        p = sb.random_density(space, 7)
        q = sb.random_density(space, 8)
        back = sb.mix_chart_inv(p, sb.mix_chart(p, q))
        np.testing.assert_allclose(back.values, q.values, atol=1e-12)

    def test_inverse_worked_example(self, two_point):
        _, p, _, _ = two_point
        w = sb.FiberVector(p, [0.2, -0.2], "mixture")
        np.testing.assert_allclose(sb.mix_chart_inv(p, w).values, [1.2, 0.8],
                                   atol=1e-15)

    def test_inverse_rejects_boundary(self, two_point):
        _, p, _, _ = two_point
        w = sb.FiberVector(p, [-1.5, 1.5], "mixture")
        with pytest.raises(sb.BoundaryError, match="leaves the model"):
            sb.mix_chart_inv(p, w)


class TestTransports:
    def test_identity_at_same_point(self, two_point):
        _, p, _, _ = two_point
        v = sb.FiberVector(p, [1.0, -1.0])
        np.testing.assert_array_equal(sb.e_transport(p, p, v).values, v.values)
        w = sb.FiberVector(p, [0.2, -0.2], "mixture")
        np.testing.assert_array_equal(sb.m_transport(p, p, w).values, w.values)

    def test_e_transport_worked_example(self, two_point):
        # E_q[(1,-1)] = 0.5*1.2 - 0.5*0.8 = 0.2
        _, p, q, _ = two_point
        v = sb.FiberVector(p, [1.0, -1.0])
        out = sb.e_transport(p, q, v)
        np.testing.assert_allclose(out.values, [0.8, -1.2], atol=1e-15)
        assert abs(sb.expect(q, out.values)) <= 1e-15

    def test_m_transport_worked_example(self, two_point):
        _, p, q, _ = two_point
        w = sb.FiberVector(p, [0.2, -0.2], "mixture")
        out = sb.m_transport(p, q, w)
        np.testing.assert_allclose(out.values, [0.2 / 1.2, -0.25], atol=1e-15)

    def test_cocycle(self):
        space = sb.make_space([0.4, 1.1, 0.5])
        p, q, r = (sb.random_density(space, s) for s in (1, 2, 3))
        v = sb.random_fiber(p, 4)
        chained = sb.e_transport(q, r, sb.e_transport(p, q, v))
        np.testing.assert_allclose(
            chained.values, sb.e_transport(p, r, v).values, atol=1e-12
        )
        w = sb.random_fiber(p, 5, "mixture")
        chained = sb.m_transport(q, r, sb.m_transport(p, q, w))
        np.testing.assert_allclose(
            chained.values, sb.m_transport(p, r, w).values, atol=1e-12
        )

    def test_duality(self):
        space = sb.make_space([0.4, 1.1, 0.5, 0.8])
        p, q = sb.random_density(space, 1), sb.random_density(space, 2)
        w = sb.random_fiber(p, 3, "mixture")
        v = sb.random_fiber(q, 4)
        lhs = sb.pairing(q, sb.m_transport(p, q, w), v)
        rhs = sb.pairing(p, w, sb.e_transport(q, p, v))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_weyl_axioms(self):
        space = sb.make_space([0.4, 1.1, 0.5, 0.8, 0.3])
        p, q, r = (sb.random_density(space, s) for s in (6, 7, 8))
        lhs = sb.exp_chart(p, q).values + sb.e_transport(q, p, sb.exp_chart(q, r)).values
        np.testing.assert_allclose(lhs, sb.exp_chart(p, r).values, atol=1e-12)
        lhs = sb.mix_chart(p, q).values + sb.m_transport(q, p, sb.mix_chart(q, r)).values
        np.testing.assert_allclose(lhs, sb.mix_chart(p, r).values, atol=1e-12)

    def test_space_mismatch(self, two_point):
        _, p, q, _ = two_point
        other = sb.random_density(sb.make_space([1, 1, 1]), 0)
        v = sb.FiberVector(p, [1.0, -1.0])
        with pytest.raises(sb.MismatchError):
            sb.e_transport(p, other, v)


class TestScoreVelocity:
    def test_constant_curve(self, two_point):
        _, _, q, _ = two_point
        curve = sb.Curve(at=lambda t: q)
        np.testing.assert_allclose(
            sb.score_velocity(curve, 0.3).values, 0.0, atol=1e-12
        )

    def test_exponential_family_curve(self, two_point):
        # closed form for the 2-point tilt: score(t) = T - tanh(t)
        _, p, _, _ = two_point
        T = sb.FiberVector(p, [1.0, -1.0])
        curve = sb.exponential_curve(p, T)
        got = sb.score_velocity(curve, 0.0)
        np.testing.assert_allclose(got.values, [1.0, -1.0], atol=1e-8)
        got = sb.score_velocity(curve, 0.7)
        expected = np.array([1.0, -1.0]) - math.tanh(0.7)
        np.testing.assert_allclose(got.values, expected, atol=1e-8)

    def test_mixture_curve_velocity_is_w(self):
        space = sb.make_space([0.6, 0.9, 1.5])
        q = sb.random_density(space, 9)
        w = sb.random_fiber(q, 10, "mixture")
        curve = sb.mixture_curve(q, w)
        got = sb.score_velocity(curve, 0.0)
        np.testing.assert_allclose(got.values, w.values, atol=1e-8)

    def test_is_the_centred_log_difference_quotient(self):
        # bit for bit the quotient it computed before it shared the
        # finite-difference oracle's
        space = sb.make_space([0.6, 0.9, 1.5])
        q = sb.random_density(space, 9)
        curve = sb.mixture_curve(q, sb.random_fiber(q, 10, "mixture"))
        for h in (1e-5, 1e-3):
            diff = np.log(curve(0.1 + h).values) - np.log(curve(0.1 - h).values)
            expected = sb.center(curve(0.1), diff / (2.0 * h))
            got = sb.score_velocity(curve, 0.1, h)
            assert got.values.tobytes() == expected.values.tobytes()
        with pytest.raises(ValueError, match="step"):
            sb.score_velocity(curve, 0.1, h=0.0)

    def test_domain_violation(self):
        space = sb.make_space([0.5, 0.5])
        q = sb.random_density(space, 0)
        curve = sb.Curve(at=lambda t: q, t0=-1.0, t1=1.0)
        with pytest.raises(sb.StatBundleError, match="domain"):
            sb.score_velocity(curve, 1.0)

    def test_moving_frame_matches_score(self):
        # the t-derivative of either chart, frozen at the moving point,
        # recovers the score
        space = sb.make_space([0.6, 0.9, 1.5])
        q = sb.random_density(space, 11)
        w = sb.random_fiber(q, 12, "mixture")
        curve = sb.mixture_curve(q, w)
        t = 0.05
        frozen = curve(t)
        score = sb.score_velocity(curve, t).values
        d_exp = fd_vector_curve(lambda s: sb.exp_chart(frozen, curve(s)).values, t)
        d_mix = fd_vector_curve(lambda s: sb.mix_chart(frozen, curve(s)).values, t)
        np.testing.assert_allclose(d_exp, score, atol=1e-6)
        np.testing.assert_allclose(d_mix, score, atol=1e-6)


class TestCumulantKLLink:
    def test_cross_module_identity(self):
        space = sb.make_space([0.7, 0.4, 1.1, 0.9])
        p = sb.random_density(space, 13)
        q = sb.random_density(space, 14)
        assert sb.cumulant(p, sb.exp_chart(p, q)) == pytest.approx(
            sb.kl(p, q), abs=1e-12
        )

    def test_mixture_curve_domain_guard(self):
        space = sb.make_space([0.5, 0.5])
        q = sb.random_density(space, 1)
        w = sb.random_fiber(q, 2, "mixture")
        curve = sb.mixture_curve(q, w)
        t_edge = curve.t1
        assert np.all(curve(t_edge).values > 0)
        with pytest.raises(sb.StatBundleError):
            curve(2 * t_edge)
