"""The library's array reductions against exact outcome enumerations.

Each operation that reduces over outcomes with one numpy expression
(``expect``, ``pairing``, ``kl``, ``cumulant``, ``marginalize``,
``marginal_derivative``, ``grad_psi``, ``marginal_velocity``,
``kl_theta_gradient_left``, ``kl_theta_gradient_right``,
``conditional_velocities``) is checked against a plain loop over outcomes
summed with ``math.fsum``, so the two sides share no arithmetic code.
"""

import math

import numpy as np
import pytest

import statbundle as sb
from statbundle.verify import (
    _enum_conditional_expectation,
    _random_product,
    _random_space,
)


def _enum_family(family, theta):
    """Member G(theta) and E_G[T] by enumeration over the product space."""
    d, n1, n2 = family.stats.shape
    mu1 = family.space.left.weights
    mu2 = family.space.right.weights
    p1 = family.base1.values
    p2 = family.base2.values
    cells = [(x, z) for x in range(n1) for z in range(n2)]
    tilt = {
        c: math.exp(math.fsum(theta[j] * family.stats[j][c] for j in range(d)))
        * p1[c[0]]
        * p2[c[1]]
        for c in cells
    }
    mass = math.fsum(tilt[x, z] * mu1[x] * mu2[z] for x, z in cells)
    g = {c: t / mass for c, t in tilt.items()}
    mean = [
        math.fsum(family.stats[j][x, z] * g[x, z] * mu1[x] * mu2[z] for x, z in cells)
        for j in range(d)
    ]
    return g, mean


@pytest.mark.parametrize("n", [2, 3, 17, 257])
def test_reductions_match_numpy(n):
    """The numpy reductions behind expect, pairing and kl match fsum sums."""
    rng = np.random.default_rng(n)
    space = _random_space(rng, n)
    mu = space.weights
    q, r = sb.random_density(space, rng), sb.random_density(space, rng)
    f = rng.uniform(0.1, 2.0, n)
    w, v = sb.random_fiber(q, rng), sb.random_fiber(q, rng)
    qv, rv = q.values, r.values

    assert sb.expect(q, f) == pytest.approx(
        math.fsum(f[i] * qv[i] * mu[i] for i in range(n)), rel=1e-14
    )
    assert sb.pairing(q, w, v) == pytest.approx(
        math.fsum(w.values[i] * v.values[i] * qv[i] * mu[i] for i in range(n)),
        abs=1e-14,
    )
    assert sb.kl(q, r) == pytest.approx(
        math.fsum(qv[i] * math.log(qv[i] / rv[i]) * mu[i] for i in range(n)),
        rel=1e-13,
        abs=1e-14,
    )


@pytest.mark.parametrize("n", [2, 5, 64])
def test_log_mean_exp_matches_numpy(n):
    """cumulant, the library's log-mean-exp, matches log of an fsum."""
    rng = np.random.default_rng(n)
    space = _random_space(rng, n)
    p = sb.random_density(space, rng)
    u = sb.center(p, rng.normal(0.0, 3.0, n))
    oracle = math.log(
        math.fsum(
            math.exp(u.values[i]) * p.values[i] * space.weights[i] for i in range(n)
        )
    )
    assert sb.cumulant(p, u) == pytest.approx(oracle, abs=1e-13)


def test_log_mean_exp_is_shift_stable():
    # Logits past exp's overflow point (about 709) must not overflow.
    # The inputs are exact binary fractions, so centring them is exact.
    space = sb.make_space([0.25, 0.5, 0.25])
    p = sb.uniform_density(space)
    u = sb.center(p, [800.0, 790.0, -2400.0])
    assert list(u.values) == [805.0, 795.0, -2395.0]
    got = sb.cumulant(p, u)
    expected = 805.0 + math.log(
        math.fsum([0.25, 0.5 * math.exp(-10.0), 0.25 * math.exp(-3200.0)])
    )
    assert np.isfinite(got)
    assert got == pytest.approx(expected, abs=1e-12)


def test_log_mean_exp_zero_at_constant_zero():
    rng = np.random.default_rng(0)
    space = _random_space(rng, 5)
    # A mass drift of 5e-13 is within the normalization tolerance, so the
    # density keeps it, and cumulant must still return exactly 0.
    p = sb.make_density(space, sb.random_density(space, rng).values * (1.0 + 5e-13))
    assert float(np.sum(p.values * space.weights)) != 1.0
    assert sb.cumulant(p, sb.FiberVector(p, np.zeros(5))) == 0.0


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (7, 4), (3, 200)])
def test_table_reductions_match_numpy(shape):
    """Joint-table reductions match per-row and per-cell fsum enumerations."""
    n1, n2 = shape
    rng = np.random.default_rng(shape)
    space = _random_product(rng, n1, n2)
    mu1, mu2 = space.left.weights, space.right.weights
    q12 = sb.random_density(space, rng)
    v = sb.random_fiber(q12, rng)

    margin = [math.fsum(q12.values[x, z] * mu2[z] for z in range(n2)) for x in range(n1)]
    np.testing.assert_allclose(sb.marginalize(q12).values, margin, rtol=1e-14)
    np.testing.assert_allclose(
        sb.marginal_derivative(q12, v).values,
        _enum_conditional_expectation(q12, v),
        atol=1e-13,
    )

    family = sb.make_expfam(
        sb.random_density(space.left, rng),
        sb.random_density(space.right, rng),
        rng.normal(size=(3, *shape)),
    )
    theta = rng.uniform(-1.0, 1.0, 3)
    thetadot = rng.normal(size=3)
    g, mean = _enum_family(family, theta)
    np.testing.assert_allclose(sb.grad_psi(family, theta), mean, atol=1e-13)

    # E_G[T_j - E_G[T_j] | X = x] as a (3, n1) table.
    table = [
        [
            math.fsum((family.stats[j][x, z] - mean[j]) * g[x, z] * mu2[z] for z in range(n2))
            / math.fsum(g[x, z] * mu2[z] for z in range(n2))
            for x in range(n1)
        ]
        for j in range(3)
    ]
    velocity = [math.fsum(thetadot[j] * table[j][x] for j in range(3)) for x in range(n1)]
    np.testing.assert_allclose(
        sb.marginal_velocity(family, theta, thetadot).values, velocity, atol=1e-13
    )
    r1 = sb.random_density(space.left, rng)
    left = [
        -math.fsum(table[j][x] * r1.values[x] * mu1[x] for x in range(n1))
        for j in range(3)
    ]
    np.testing.assert_allclose(
        sb.kl_theta_gradient_left(family, theta, r1), left, atol=1e-13
    )
    g1 = [math.fsum(g[x, z] * mu2[z] for z in range(n2)) for x in range(n1)]
    right = [
        -math.fsum(
            table[j][x] * math.log(r1.values[x] / g1[x]) * g1[x] * mu1[x]
            for x in range(n1)
        )
        for j in range(3)
    ]
    np.testing.assert_allclose(
        sb.kl_theta_gradient_right(family, theta, r1), right, atol=1e-13
    )

    # Row x of the conditional velocities: thetadot . (T(x, .) - E_G[T | X = x]).
    cond_mean = [
        [
            math.fsum(family.stats[j][x, z] * g[x, z] * mu2[z] for z in range(n2)) / g1[x]
            for x in range(n1)
        ]
        for j in range(3)
    ]
    rows = [
        [
            math.fsum(thetadot[j] * (family.stats[j][x, z] - cond_mean[j][x]) for j in range(3))
            for z in range(n2)
        ]
        for x in range(n1)
    ]
    np.testing.assert_allclose(
        sb.conditional_velocities(family, theta, thetadot), rows, atol=1e-13
    )
