import math

import numpy as np
import pytest

import statbundle as sb
from statbundle.findiff import fd_gradient, fd_scalar


def oracle_kl(q_vals, r_vals, mu):
    return math.fsum(
        m * qv * math.log(qv / rv) for qv, rv, m in zip(q_vals, r_vals, mu)
    )


class TestKL:
    def test_identity_is_zero(self, two_point):
        _, _, q, _ = two_point
        assert sb.kl(q, q) == 0.0

    def test_worked_forward(self, two_point):
        _, p, q, _ = two_point
        expected = oracle_kl(p.values, q.values, [0.5, 0.5])
        assert sb.kl(p, q) == pytest.approx(expected, abs=1e-15)
        assert sb.kl(p, q) == pytest.approx(0.020411, abs=1e-6)

    def test_worked_reversed_asymmetry(self, two_point):
        _, p, q, _ = two_point
        expected = oracle_kl(q.values, p.values, [0.5, 0.5])
        assert sb.kl(q, p) == pytest.approx(expected, abs=1e-15)
        assert sb.kl(q, p) == pytest.approx(0.020135, abs=1e-6)
        assert sb.kl(q, p) != pytest.approx(sb.kl(p, q), abs=1e-4)

    def test_nonnegative_and_separating(self):
        space = sb.make_space([0.3, 0.8, 1.4])
        for seed in range(10):
            q = sb.random_density(space, [seed, 0])
            r = sb.random_density(space, [seed, 1])
            assert sb.kl(q, r) >= 0.0
            assert sb.kl(q, r) > 1e-14  # distinct random draws are far apart

    def test_near_equal_densities_have_tiny_kl(self):
        space = sb.make_space([0.3, 0.8, 1.4])
        q = sb.random_density(space, 3)
        bumped = q.values * (1.0 + 1e-8 * np.array([1.0, -0.5, 0.1]))
        r = sb.make_density(space, bumped)
        assert np.max(np.abs(q.values - r.values)) <= 1e-7
        assert sb.kl(q, r) <= 1e-14

    @pytest.mark.parametrize(
        "mu, q_vals, r_vals",
        [
            # q / r overflows to inf: log(q / r) is inf, not 717.
            ([1e-12, 1.0], [5e11, 0.5], [1e-300, 1.0]),
            # q / r underflows to 0 where mu * q is 0: 0 * log(0) is nan.
            ([1e-24, 1.0], [1e-300, 1.0], [5e23, 0.5]),
        ],
    )
    def test_ratio_outside_the_float_range(self, mu, q_vals, r_vals):
        space = sb.make_space(mu)
        q, r = sb.make_density(space, q_vals), sb.make_density(space, r_vals)
        expected = math.fsum(
            m * a * (math.log(a) - math.log(b))
            for a, b, m in zip(q.values, r.values, mu)
        )
        assert math.isfinite(expected)
        assert sb.kl(q, r) == pytest.approx(expected, rel=1e-15)

    def test_space_mismatch(self, two_point):
        _, _, q, _ = two_point
        other = sb.random_density(sb.make_space([1, 1, 1]), 0)
        with pytest.raises(sb.MismatchError):
            sb.kl(q, other)


class TestStructuralEquation:
    def test_reconstruct_self(self, two_point):
        _, p, _, _ = two_point
        np.testing.assert_allclose(
            sb.structural_reconstruct(p, p).values, p.values, atol=1e-15
        )

    def test_worked_example(self, two_point):
        _, p, q, _ = two_point
        back = sb.structural_reconstruct(p, q)
        np.testing.assert_allclose(back.values, q.values, atol=1e-12)

    def test_random_seven_point(self):
        space = sb.make_space(np.linspace(0.2, 1.8, 7))
        p = sb.random_density(space, 20)
        q = sb.random_density(space, 21)
        back = sb.structural_reconstruct(p, q)
        np.testing.assert_allclose(back.values, q.values, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (7,), (60,), (20, 30)])
    def test_has_the_bits_of_the_plain_formula(self, shape):
        # exp(s_p(q) - D(p||q)) * p, each operation in that order
        rng = np.random.default_rng([29, *shape])
        spaces = [sb.make_space(rng.uniform(0.2, 2.0, n)) for n in shape]
        space = spaces[0] if len(spaces) == 1 else sb.ProductSpace(*spaces)
        for _ in range(20):
            p, q = sb.random_density(space, rng), sb.random_density(space, rng)
            expected = np.exp(sb.exp_chart(p, q).values - sb.kl(p, q)) * p.values
            got = sb.structural_reconstruct(p, q).values
            assert got.tobytes() == expected.tobytes()


class TestSlotGradients:
    def test_vanish_on_diagonal(self, two_point):
        _, _, q, _ = two_point
        np.testing.assert_allclose(sb.grad1_kl(q, q).values, 0.0, atol=1e-15)
        np.testing.assert_allclose(sb.grad2_kl(q, q).values, 0.0, atol=1e-15)

    def test_grad1_worked_example(self, two_point):
        # -(log(r/q) - E_q log(r/q)) with E_q log(r/q) = -0.192042
        _, _, q, r = two_point
        logr = [math.log(rv / qv) for qv, rv in zip(q.values, r.values)]
        mean = math.fsum(l * qv * 0.5 for l, qv in zip(logr, q.values))
        expected = [-(l - mean) for l in logr]
        got = sb.grad1_kl(q, r)
        assert got.polarity == "exponential"
        np.testing.assert_allclose(got.values, expected, atol=1e-15)
        np.testing.assert_allclose(got.values, [0.501105, -0.751658], atol=1e-6)
        assert mean == pytest.approx(-0.192042, abs=1e-6)

    def test_grad2_worked_example(self, two_point):
        _, _, q, r = two_point
        got = sb.grad2_kl(q, r)
        assert got.polarity == "mixture"
        expected = [1.0 - qv / rv for qv, rv in zip(q.values, r.values)]
        np.testing.assert_allclose(got.values, expected, atol=1e-15)
        np.testing.assert_allclose(got.values, [-1.0, 0.428571], atol=1e-6)

    def test_equal_to_the_negated_charts(self):
        # built without the charts, from the same operations up to sign
        space = sb.make_space([0.5, 1.0, 0.8, 1.7])
        for seed in range(0, 40, 2):
            q, r = sb.random_density(space, seed), sb.random_density(space, seed + 1)
            np.testing.assert_array_equal(
                sb.grad1_kl(q, r).values, -sb.exp_chart(q, r).values
            )
            np.testing.assert_array_equal(
                sb.grad2_kl(q, r).values, -sb.mix_chart(r, q).values
            )

    def test_space_mismatch(self, two_point):
        # same shape, other weights: only the space check can tell
        _, _, q, _ = two_point
        other = sb.random_density(sb.make_space([1.0, 2.0]), 0)
        for grad in (sb.grad1_kl, sb.grad2_kl):
            for a, b in ((q, other), (other, q)):
                with pytest.raises(sb.MismatchError):
                    grad(a, b)

    def test_grad1_matches_frozen_slot_fd(self):
        space = sb.make_space([0.5, 1.0, 0.8])
        q = sb.random_density(space, 30)
        r = sb.random_density(space, 31)
        qdot = sb.random_fiber(q, 32)
        curve = sb.mixture_curve(q, qdot)
        numeric = fd_scalar(lambda t: sb.kl(curve(t), r), 0.0)
        analytic = sb.pairing(q, qdot, sb.grad1_kl(q, r))
        assert analytic == pytest.approx(numeric, abs=1e-6)

    def test_grad2_matches_frozen_slot_fd(self):
        space = sb.make_space([0.5, 1.0, 0.8])
        q = sb.random_density(space, 33)
        r = sb.random_density(space, 34)
        rdot = sb.random_fiber(r, 35)
        curve = sb.mixture_curve(r, rdot)
        numeric = fd_scalar(lambda t: sb.kl(q, curve(t)), 0.0)
        analytic = sb.pairing(r, sb.grad2_kl(q, r), rdot)
        assert analytic == pytest.approx(numeric, abs=1e-6)


class TestCurveDerivative:
    def test_stationary_curves(self, two_point):
        _, _, q, r = two_point
        zq = sb.FiberVector(q, [0.0, 0.0])
        zr = sb.FiberVector(r, [0.0, 0.0])
        assert sb.kl_curve_derivative(q, zq, r, zr) == 0.0

    def test_zero_at_diagonal_any_velocity(self, two_point):
        _, _, q, _ = two_point
        v = sb.random_fiber(q, 1)
        w = sb.random_fiber(q, 2)
        assert abs(sb.kl_curve_derivative(q, v, q, w)) <= 1e-15

    def test_matches_fd_on_random_curves(self):
        space = sb.make_space([0.4, 0.9, 1.3])
        q = sb.random_density(space, 40)
        r = sb.random_density(space, 41)
        qdot = sb.random_fiber(q, 42)
        rdot = sb.random_fiber(r, 43)
        cq, cr = sb.mixture_curve(q, qdot), sb.mixture_curve(r, rdot)
        numeric = fd_scalar(lambda t: sb.kl(cq(t), cr(t)), 0.0)
        analytic = sb.kl_curve_derivative(q, qdot, r, rdot)
        assert analytic == pytest.approx(numeric, abs=1e-6)

    def test_slot_decoupling_exact(self):
        space = sb.make_space([0.4, 0.9, 1.3])
        q = sb.random_density(space, 44)
        r = sb.random_density(space, 45)
        qdot = sb.random_fiber(q, 46)
        zero = sb.FiberVector(r, np.zeros(3))
        total = sb.kl_curve_derivative(q, qdot, r, zero)
        first_only = sb.pairing(q, qdot, sb.grad1_kl(q, r))
        assert abs(total - first_only) <= 1e-15


class TestCommonParamGradient:
    @staticmethod
    def _tilt_family(base, stats):
        def at(theta):
            u = sum(t * a for t, a in zip(np.atleast_1d(theta), stats))
            return sb.exp_chart_inv(base, sb.FiberVector(base, u))

        def dlog(theta):
            m = at(theta)
            return [a - sb.expect(m, a) for a in stats]

        return at, dlog

    def test_identical_models_give_zero(self, two_point):
        _, p, _, _ = two_point
        stats = [np.array([1.0, -1.0])]
        at, dlog = self._tilt_family(p, stats)
        m = at([0.4])
        grads = sb.common_param_gradient(m, m, dlog([0.4]), dlog([0.4]))
        np.testing.assert_allclose(grads, 0.0, atol=1e-15)

    def test_frozen_models_give_zero(self, two_point):
        _, p, q, _ = two_point
        zero = [np.zeros(2)]
        grads = sb.common_param_gradient(p, q, zero, zero)
        np.testing.assert_array_equal(grads, [0.0])

    def test_two_point_tilts_match_fd(self, two_point):
        _, p, _, _ = two_point
        m_at, m_dlog = self._tilt_family(p, [np.array([1.0, -1.0])])
        n_at, n_dlog = self._tilt_family(p, [np.array([2.0, -2.0])])
        theta = np.array([0.3])
        analytic = sb.common_param_gradient(
            m_at(theta), n_at(theta), m_dlog(theta), n_dlog(theta)
        )
        numeric = fd_gradient(lambda th: sb.kl(m_at(th), n_at(th)), theta)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_multi_parameter_matches_fd(self):
        space = sb.make_space([0.7, 1.1, 0.5, 0.9])
        p = sb.random_density(space, 50)
        r = sb.random_density(space, 51)
        a_stats = [sb.random_fiber(p, [52, j]).values for j in range(2)]
        b_stats = [sb.random_fiber(r, [53, j]).values for j in range(2)]
        m_at, m_dlog = self._tilt_family(p, a_stats)
        n_at, n_dlog = self._tilt_family(r, b_stats)
        theta = np.array([0.4, -0.7])
        analytic = sb.common_param_gradient(
            m_at(theta), n_at(theta), m_dlog(theta), n_dlog(theta)
        )
        numeric = fd_gradient(lambda th: sb.kl(m_at(th), n_at(th)), theta)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_dimension_mismatch(self, two_point):
        _, p, q, _ = two_point
        with pytest.raises(sb.MismatchError):
            sb.common_param_gradient(p, q, [np.zeros(2)], [])
        with pytest.raises(sb.MismatchError, match="partial log-density shape"):
            sb.common_param_gradient(p, q, [np.zeros(2)], [np.zeros(3)])
