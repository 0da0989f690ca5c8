"""The model's symmetries hold at any scale of its inputs.

Scaling the statistics by s and the parameter by 1/s leaves every member
unchanged; scaling the first factor's weights by c and its densities by
1/c leaves every integral unchanged; adding a per-row offset to a fiber
vector leaves every conditioning derivative unchanged.  Each test draws
small spaces and checks the library's results, with no rejection, at
scales far beyond those of the worked examples.  The flow is not checked
here: its ``tol`` is in units of theta, so it is not scale-free.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import statbundle as sb

_SEEDS = st.integers(0, 2**32 - 1)


def _spaces(rng, scale=1.0):
    """A product space of 2 to 4 by 2 to 4 outcomes with random weights,
    the left weights times ``scale``, and the unscaled left factor."""
    n1, n2 = (int(n) for n in rng.integers(2, 5, 2))
    w1 = rng.uniform(0.2, 2.0, n1)
    right = sb.make_space(rng.uniform(0.2, 2.0, n2))
    return sb.ProductSpace(sb.make_space(scale * w1), right), sb.make_space(w1)


@given(seed=_SEEDS, exponent=st.floats(-200, 200), d=st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_scaled_statistics_give_the_same_members(seed, exponent, d):
    # T -> s T with theta -> theta / s leaves theta . T, and so the member
    # and psi, equal to rounding; the Gram of s T is accepted at every s.
    rng = np.random.default_rng(seed)
    space, _ = _spaces(rng)
    p1 = sb.random_density(space.left, rng)
    p2 = sb.random_density(space.right, rng)
    stats = rng.standard_normal((d, *space.shape))
    theta = rng.standard_normal(d)
    s = 10.0**exponent
    unit = sb.make_expfam(p1, p2, stats)
    scaled = sb.make_expfam(p1, p2, s * stats)
    np.testing.assert_allclose(
        sb.density(scaled, theta / s).values, sb.density(unit, theta).values,
        rtol=1e-13, atol=0.0,
    )
    # psi is log E[exp(theta . T)], which cancels to near 0 when theta . T
    # is small; its rounding is relative to the largest |theta . T|.
    largest = np.abs(np.tensordot(theta, unit.stats, 1)).max()
    assert abs(sb.psi(scaled, theta / s) - sb.psi(unit, theta)) <= 1e-13 * largest


@given(seed=_SEEDS,
       c=st.sampled_from([1e-200, 1e-12, 1e-6, 1e6, 1e12, 1e200]))
@settings(max_examples=100, deadline=None)
def test_scaled_left_weights_keep_the_identities(seed, c):
    # mu1 -> c mu1 with every density on the left factor, the joint
    # included, divided by c: the chain rule and the chart decomposition
    # still hold to rounding.
    rng = np.random.default_rng(seed)
    space, left = _spaces(rng, c)
    p1 = sb.random_density(left, rng)
    p2 = sb.random_density(space.right, rng)
    q12 = sb.random_density(sb.ProductSpace(left, space.right), rng)
    p1 = sb.make_density(space.left, p1.values / c)
    q12 = sb.make_density(space, q12.values / c)
    assert sb.kl_chain(p1, p2, q12).residual <= 1e-12
    assert sb.exp_decompose(p1, p2, q12).residual <= 1e-12


@given(seed=_SEEDS, exponent=st.floats(2, 8))
@settings(max_examples=200, deadline=None)
def test_row_offsets_leave_the_conditioning_derivatives(seed, exponent):
    # An offset per row of x, recentred by center, is constant on each
    # conditional, so conditional_derivatives removes it again.
    rng = np.random.default_rng(seed)
    space, _ = _spaces(rng)
    q12 = sb.random_density(space, rng)
    v = sb.random_fiber(q12, rng)
    offset = 10.0**exponent
    shifted = sb.center(
        q12, v.values + offset * rng.uniform(-1.0, 1.0, (space.shape[0], 1))
    )
    moved = sb.conditional_derivatives(q12, shifted) - sb.conditional_derivatives(q12, v)
    assert np.abs(moved).max() <= 1e-14 * offset
