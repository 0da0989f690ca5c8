import math

import numpy as np
import pytest

import statbundle as sb
from statbundle import findiff
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

    def test_inverse_at_zero_seeded(self):
        # exp(0) * p is p exactly; dividing by its float mass, which is 1 to
        # rounding, returns p itself wherever that mass is exactly 1
        exact = 0
        for n in (2, 3, 5, 17, 200):
            space = sb.make_space(np.linspace(0.2, 1.4, n))
            for seed in range(10):
                p = sb.random_density(space, [n, seed, 2])
                got = sb.exp_chart_inv(p, sb.FiberVector(p, np.zeros(n))).values
                mass = np.dot(p.values, space.weights)
                np.testing.assert_array_equal(got, p.values / mass)
                exact += mass == 1.0 and np.array_equal(got, p.values)
        assert exact > 0

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    def test_inverse_agrees_with_the_cumulant_formula(self, scale):
        eps = np.finfo(float).eps
        rng = np.random.default_rng([17, int(scale)])
        for _ in range(40):
            n = int(rng.integers(2, 60))
            space = sb.make_space(rng.uniform(0.2, 2.0, n))
            p = sb.random_density(space, rng)
            v = sb.center(p, scale * rng.standard_normal(n))
            ref = np.exp(v.values - sb.cumulant(p, v)) * p.values
            ref /= np.dot(ref, space.weights)
            got = sb.exp_chart_inv(p, v).values
            bound = 8 * eps * (1.0 + np.abs(v.values).max())
            assert np.max(np.abs(got - ref) / ref) <= bound


def _lossy_inputs():
    """Inverse-chart inputs whose one-exponential form loses an entry.

    ``spread``: exp(v - max v) underflows to 0 at the second entry.
    ``subnormal``: exp(v - max v) = exp(-720) is subnormal and keeps only
    about 36 bits, which p = 1e20 scales back into the normal range;
    exp(v - K_p(v)) = exp(-704) is a normal float.
    ``small-mass``: every exp(v - max v) is a normal float, but e = exp(v -
    max v) * p falls below the normal range at the second entry while the
    mass of e is about 1e-100, so that entry normalises to about 1e-237.
    """
    two = sb.make_density(sb.make_space([1.0, 1.0]), [1e-200, 1.0])
    heavy = sb.make_density(sb.make_space([1.0, 1e-20]), [1e-7, (1 - 1e-7) * 1e20])
    three = sb.make_density(sb.make_space([1.0, 1.0, 1.0]), [1e-100, 1e-250, 1.0])
    return {
        "spread": (two, sb.FiberVector(two, [1000.0, -1e-197]),
                   [1.0, 5.0759588975494574e-235]),
        "subnormal": (heavy, sb.center(heavy, [720.0, 0.0]),
                      [1.0, 2.0322305992012135e-286]),
        "small-mass": (three, sb.center(three, [700.0, 500.0, 0.0]),
                       [1.0, 1.3838965267367375e-237, 9.85967654375977e-205]),
    }


class TestExpChartInvFallback:
    """Where one exponential would lose an entry, the inverse chart
    subtracts the cumulant first, as the chart's formula reads."""

    @pytest.mark.parametrize("case", ["spread", "subnormal", "small-mass"])
    def test_keeps_the_entries_of_the_cumulant_formula(self, case):
        p, v, expected = _lossy_inputs()[case]
        np.testing.assert_array_equal(sb.exp_chart_inv(p, v).values, expected)

    @pytest.mark.parametrize("case", ["spread", "subnormal", "small-mass"])
    def test_a_scratch_array_gives_the_same_member(self, case):
        # density hands over an array the inverse chart may compute in; the
        # fallback still needs it after the one-exponential path gave up.
        p, v, expected = _lossy_inputs()[case]
        got = sb.charts._exp_chart_inv(p, v.values.copy()).values
        np.testing.assert_array_equal(got, expected)

    def test_drift_is_rejected_on_the_fallback(self, monkeypatch):
        p, v, _ = _lossy_inputs()["spread"]
        exact = sb.charts._cumulant
        monkeypatch.setattr(sb.charts, "_cumulant", lambda q, u: exact(q, u) + 1e-9)
        with pytest.raises(sb.NormalizationError, match="inverse-chart drift"):
            sb.exp_chart_inv(p, v)

    def test_cumulant_is_called_only_on_the_fallback(self, monkeypatch, diag_family):
        calls = []
        exact = sb.charts._cumulant

        def counting(q, u):
            calls.append(1)
            return exact(q, u)

        monkeypatch.setattr(sb.charts, "_cumulant", counting)
        sb.density(diag_family, [0.7])
        space = sb.ProductSpace(sb.make_space(np.linspace(0.4, 1.2, 6)),
                                sb.make_space(np.linspace(0.5, 1.5, 5)))
        family = sb.make_expfam(
            sb.random_density(space.left, 1), sb.random_density(space.right, 2),
            np.random.default_rng(3).standard_normal((2, 6, 5)),
        )
        sb.density(family, [1.5, -2.0])
        assert calls == []
        p, v, _ = _lossy_inputs()["spread"]
        sb.exp_chart_inv(p, v)
        assert len(calls) == 1


class TestExpChartInvInPlace:
    @pytest.mark.parametrize("n", [2, 3, 7, 60, 300])
    def test_fast_path_has_the_bits_of_the_plain_formula(self, n):
        # exp(v - max v) * p / mass, each operation in the one array
        rng = np.random.default_rng([23, n])
        space = sb.make_space(rng.uniform(0.2, 2.0, n))
        for _ in range(20):
            p = sb.random_density(space, rng)
            v = sb.center(p, rng.standard_normal(n) * rng.uniform(0.1, 30.0))
            e = np.exp(v.values - v.values.max()) * p.values
            expected = e / float(np.dot(e, space.weights))
            got = sb.exp_chart_inv(p, v).values
            assert got.tobytes() == expected.tobytes()
            scratch = v.values.copy()
            got = sb.charts._exp_chart_inv(p, scratch).values
            assert got.tobytes() == expected.tobytes()
            assert np.shares_memory(got, scratch)

    def test_fast_path_has_the_bits_of_the_plain_formula_on_joints(self):
        # The mass of 40,000 terms is the dots of four 10,000-term blocks,
        # added in order.
        rng = np.random.default_rng(200200)
        space = sb.ProductSpace(sb.make_space(rng.uniform(0.2, 2.0, 200)),
                                sb.make_space(rng.uniform(0.2, 2.0, 200)))
        w = space.weights.ravel()
        for _ in range(5):
            p = sb.random_density(space, rng)
            v = sb.center(p, 3.0 * rng.standard_normal((200, 200)))
            e = np.exp(v.values - v.values.max()) * p.values
            flat = e.ravel()
            mass = np.dot(flat[:10_000], w[:10_000])
            for start in (10_000, 20_000, 30_000):
                mass = mass + np.dot(flat[start:start + 10_000], w[start:start + 10_000])
            expected = e / float(mass)
            got = sb.exp_chart_inv(p, v).values
            assert got.tobytes() == expected.tobytes()


class TestExponentialCurve:
    def test_members_have_the_bits_of_the_inverse_chart(self):
        # a member is the inverse chart of t * u, with no fiber vector built
        rng = np.random.default_rng(31)
        for n in (2, 5, 60):
            space = sb.make_space(rng.uniform(0.2, 2.0, n))
            p = sb.random_density(space, rng)
            u = sb.center(p, rng.standard_normal(n) * rng.uniform(0.1, 30.0))
            curve = sb.exponential_curve(p, u)
            for t in rng.uniform(-3.0, 3.0, 10):
                expected = sb.exp_chart_inv(p, sb.FiberVector(p, t * u.values))
                assert curve(t).values.tobytes() == expected.values.tobytes()


class TestSpreadBeyondTheFloatRange:
    """v = (a, -a) at uniform p on mu = (1/2, 1/2): v - max v reaches -2a,
    beyond the float range from a = 1e308 on.  The member's second entry is
    exp(-2a) = 0, outside the model, and the cumulant is a - log 2 = a."""

    @pytest.mark.parametrize("a", [1e300, 1e308, 1.7e308])
    def test_member_leaves_the_model(self, half_space, a):
        p = sb.uniform_density(half_space)
        v = sb.FiberVector(p, np.array([a, -a]))
        with pytest.raises(
            sb.BoundaryError, match=r"^non-positive density value 0\.0 at index 1 "
        ):
            sb.exp_chart_inv(p, v)

    @pytest.mark.parametrize("a", [1e300, 1e308, 1.7e308])
    def test_cumulant_is_the_finite_limit(self, half_space, a):
        p = sb.uniform_density(half_space)
        assert sb.cumulant(p, sb.FiberVector(p, np.array([a, -a]))) == a


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

    def test_inverse_error_prints_a_plain_float(self, two_point):
        _, p, _, _ = two_point
        w = sb.FiberVector(p, [1.0, -1.0], "mixture")
        with pytest.raises(sb.BoundaryError) as info:
            sb.mix_chart_inv(p, w)
        assert str(info.value) == (
            "mixture chart image leaves the model: 1 + w = 0.0 at index 1")

    def test_ratio_below_half_an_ulp_does_not_roundtrip(self, two_point):
        # The limit stated in mix_chart's docstring: q/p = 1e-17 at index 1,
        # so w = q/p - 1 rounds to -1 and the inverse leaves the model.
        _, p, _, _ = two_point
        q = sb.make_density(p.space, [2.0 - 1e-17, 1e-17])
        w = sb.mix_chart(p, q)
        assert w.values[1] == -1.0
        with pytest.raises(sb.BoundaryError, match="1 \\+ w = 0.0 at index 1"):
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
        # finite-difference oracle's, at the oracle's step
        space = sb.make_space([0.6, 0.9, 1.5])
        q = sb.random_density(space, 9)
        curve = sb.mixture_curve(q, sb.random_fiber(q, 10, "mixture"))
        h = findiff.STEP
        diff = np.log(curve(0.1 + h).values) - np.log(curve(0.1 - h).values)
        expected = sb.center(curve(0.1), diff / (2.0 * h))
        got = sb.score_velocity(curve, 0.1)
        assert got.values.tobytes() == expected.values.tobytes()

    def test_domain_violation(self):
        # a probe point t +- h past either end is the curve's own domain
        # error, whether or not t itself is inside
        space = sb.make_space([0.5, 0.5])
        q = sb.random_density(space, 0)
        curve = sb.Curve(at=lambda t: q, t0=-1.0, t1=1.0)
        for t in (1.0, 1.0 - 0.5 * findiff.STEP, -1.0, 1.5):
            with pytest.raises(sb.StatBundleError, match="domain"):
                sb.score_velocity(curve, t)

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
