import tracemalloc

import pytest

import statbundle as sb


def traced_peak(call) -> int:
    """The peak of memory that numpy and Python allocate during ``call``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def half_space():
    return sb.make_space([0.5, 0.5])


@pytest.fixture
def two_point(half_space):
    """The worked 2-point example: uniform p, tilted q and r."""
    p = sb.make_density(half_space, [1.0, 1.0])
    q = sb.make_density(half_space, [1.2, 0.8])
    r = sb.make_density(half_space, [0.6, 1.4])
    return half_space, p, q, r


@pytest.fixture
def joint_2x2(half_space):
    """The worked 2x2 joint with uniform margins and strong coupling."""
    space = sb.ProductSpace(half_space, half_space)
    q12 = sb.make_density(space, [[1.6, 0.4], [0.4, 1.6]])
    return space, q12


@pytest.fixture
def diag_family(half_space):
    """2x2 uniform-base family whose statistic couples the two factors."""
    p = sb.uniform_density(half_space)
    return sb.make_expfam(p, p, [[[1.0, -1.0], [-1.0, 1.0]]])


@pytest.fixture
def margin_family(half_space):
    """2x2 uniform-base family whose statistic only moves the first margin."""
    p = sb.uniform_density(half_space)
    return sb.make_expfam(p, p, [[[1.0, 1.0], [-1.0, -1.0]]])
