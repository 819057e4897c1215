"""Property tests of the minimax kernel and the oracle.

Examples are drawn deterministically (derandomize) and their number is
bounded, so the suite stays reproducible and fast.  Coordinates lie on a
dyadic grid in [-1, 1]: exact in floating point, and full of the ties,
zeros and collinear samples that random reals rarely produce.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lipext.errors import NoCertifiedSubset
from lipext.kpoint import LabeledPointSet, kpoint_oracle, kpoint_vector

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

coordinate = st.integers(-2**20, 2**20).map(lambda i: math.ldexp(i, -20))


def row(k):
    return st.tuples(*[coordinate] * k)


@st.composite
def samples(draw):
    """(points, values, query): 1-8 samples, positions in R^1-3, values in
    R^1-3, distinct positions, query at least 1e-3 from every sample."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    size = draw(st.integers(1, 8))
    points = np.array(draw(st.lists(row(n), min_size=size, max_size=size, unique=True)))
    values = np.array(draw(st.lists(row(m), min_size=size, max_size=size)))
    x = np.array(draw(row(n)))
    assume(np.linalg.norm(points - x, axis=1).min() >= 1e-3)
    return points, values, x


def _kernel(points, values, x):
    """kpoint_vector's result, or the type of the error it raised."""
    try:
        return kpoint_vector(LabeledPointSet(points, values), x)
    except NoCertifiedSubset as exc:
        return type(exc)


@PROPERTY
@given(samples(), st.randoms(use_true_random=False))
def test_kernel_is_invariant_under_permutation(instance, rnd):
    # the kernel sees the samples in a canonical order, so a permuted input
    # gives the same bits, with the active set carried through the permutation
    points, values, x = instance
    perm = list(range(len(points)))
    rnd.shuffle(perm)
    base = _kernel(points, values, x)
    moved = _kernel(points[perm], values[perm], x)
    if isinstance(base, type):
        assert moved is base
        return
    assert moved.lam == base.lam and moved.max_violation == base.max_violation
    assert np.array_equal(moved.point, base.point)
    assert tuple(sorted(perm[i] for i in moved.active)) == base.active
    where = {perm[i]: c for i, c in zip(moved.active, moved.hull_coords)}
    assert np.array_equal([where[i] for i in base.active], base.hull_coords)


@PROPERTY
@given(samples(), st.randoms(use_true_random=False))
def test_oracle_is_invariant_under_permutation(instance, rnd):
    # the bisection's projections run in sample order, but the polish
    # certifies the unique optimum, so only rounding may move lam
    points, values, x = instance
    perm = list(range(len(points)))
    rnd.shuffle(perm)
    base = kpoint_oracle(LabeledPointSet(points, values), x).lam
    moved = kpoint_oracle(LabeledPointSet(points[perm], values[perm]), x).lam
    assert abs(moved - base) <= 1e-12 * base


@PROPERTY
@given(samples(), st.integers(-64, 64), st.integers(-64, 64))
def test_kernel_scales_exactly_by_powers_of_two(instance, vexp, pexp):
    # values scaled by 2^vexp and positions by 2^pexp scale lam by
    # 2^(vexp - pexp) with no rounding: the kernel normalises both scales away
    points, values, x = instance
    base = _kernel(points, values, x)
    scaled = _kernel(np.ldexp(points, pexp), np.ldexp(values, vexp), np.ldexp(x, pexp))
    if isinstance(base, type):
        assert scaled is base
        return
    assert scaled.lam == math.ldexp(base.lam, vexp - pexp)
    assert np.array_equal(scaled.point, np.ldexp(base.point, vexp))
    assert scaled.active == base.active
