import math

import numpy as np
import pytest

import statbundle as sb
from statbundle.findiff import FDConfig, fd_gradient, fd_scalar, fd_vector_curve


class TestConfig:
    def test_defaults(self):
        cfg = FDConfig()
        assert cfg.h == 1e-5

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            FDConfig(h=0.0)
        with pytest.raises(ValueError):
            FDConfig(h=0.5)


class TestScalar:
    def test_constant(self):
        assert fd_scalar(lambda t: 4.2, 1.3) == 0.0

    def test_exact_on_quadratic(self):
        # truncation vanishes on quadratics; a larger step keeps the
        # cancellation roundoff (~eps * |f| / 2h) below 1e-12 as well
        got = fd_scalar(lambda t: t * t, 3.0, FDConfig(h=5e-3))
        assert abs(got - 6.0) <= 1e-12
        # at the default step the residual is pure roundoff
        got = fd_scalar(lambda t: t * t, 3.0)
        assert abs(got - 6.0) <= 1e-9

    def test_log_cosh(self):
        got = fd_scalar(lambda t: math.log(math.cosh(t)), 1.0)
        assert got == pytest.approx(math.tanh(1.0), abs=1e-8)

    def test_non_finite_probe(self):
        with pytest.raises(ArithmeticError):
            fd_scalar(lambda t: math.inf, 0.0)


class TestGradient:
    def test_linear(self):
        c = np.array([2.0, -3.0, 0.5])
        got = fd_gradient(lambda th: float(c @ th), np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(got, c, atol=1e-10)

    def test_psi_of_diag_family(self, diag_family):
        got = fd_gradient(lambda th: sb.psi(diag_family, th), np.array([1.0]))
        np.testing.assert_allclose(got, [math.tanh(1.0)], atol=1e-8)


class TestVectorCurve:
    def test_constant_curve(self):
        got = fd_vector_curve(lambda t: [1.0, 2.0, 3.0], 0.5)
        np.testing.assert_array_equal(got, 0.0)

    def test_linear_curve(self):
        v = np.array([0.3, -1.7])
        got = fd_vector_curve(lambda t: t * v, 0.2)
        np.testing.assert_allclose(got, v, atol=1e-11)

    def test_mixture_line_derivative_is_w_times_p(self):
        # product rule on (1 + t*w) * p at t = 0
        space = sb.make_space([0.4, 0.7, 0.9])
        p = sb.random_density(space, 1)
        w = sb.random_fiber(p, 2, "mixture")
        curve = sb.mixture_curve(p, w)
        got = fd_vector_curve(lambda t: curve(t).values, 0.0)
        np.testing.assert_allclose(got, w.values * p.values, atol=1e-9)

    def test_non_finite_probe(self):
        with pytest.raises(ArithmeticError):
            fd_vector_curve(lambda t: [math.nan], 0.0)
