import math

import numpy as np
import pytest

import statbundle as sb
from statbundle.findiff import fd_gradient, fd_vector_curve


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

    def test_proportional_stats_rejected(self, half_space):
        p = sb.uniform_density(half_space)
        t = [[1.0, -1.0], [-1.0, 1.0]]
        with pytest.raises(sb.IdentifiabilityError, match="eigenvalue"):
            sb.make_expfam(p, p, [t, [[2.0, -2.0], [-2.0, 2.0]]])

    def test_shape_mismatch(self, half_space):
        p = sb.uniform_density(half_space)
        with pytest.raises(sb.MismatchError):
            sb.make_expfam(p, p, [[[1.0, -1.0]]])


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


class TestVelocities:
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
        np.testing.assert_allclose(direct, composed, atol=1e-14)

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

    def test_each_velocity_evaluates_the_member_once(self, monkeypatch):
        fam = random_family(3, 4, 2, 86)
        calls = []
        inner = sb.expfam.exp_chart_inv

        def counting(p, v):
            calls.append(1)
            return inner(p, v)

        monkeypatch.setattr(sb.expfam, "exp_chart_inv", counting)
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
            sb.natural_gradient_flow(margin_family, [1.0], r1, step=0.0)
        with pytest.raises(sb.StatBundleError):
            sb.natural_gradient_flow(margin_family, [1.0], r1, iters=0)

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
        inner = sb.expfam.exp_chart_inv

        def counting(p, v):
            calls.append(1)
            return inner(p, v)

        monkeypatch.setattr(sb.expfam, "exp_chart_inv", counting)
        trace = sb.natural_gradient_flow(fam, theta0, target, step=step, tol=1e-7)
        assert trace.converged
        trials = sum(rec.halvings + 1 for rec in trace.records[1:])
        assert trials > len(trace.records) - 1
        assert len(calls) == trials + 1
