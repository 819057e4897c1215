import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lipext.errors import QueryCoincidesWithSample
from lipext.kpoint import (
    Feasibility,
    LabeledPointSet,
    _project_cycles,
    _separated,
    certificate_check,
    kpoint_oracle,
    kpoint_scalar,
    kpoint_vector,
    lip_constant,
    pairwise_optimum,
    pair_candidate,
)


def scalar_set(positions, values):
    return LabeledPointSet(np.asarray(positions, float)[:, None], np.asarray(values, float))


@pytest.fixture
def equilateral():
    """Three samples at distance 1 from the origin with values on a circle."""
    points = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    values = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    return LabeledPointSet(points, values)


def random_instance(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    size = int(rng.integers(1, 9))
    points = rng.uniform(-1, 1, size=(size, n))
    values = rng.uniform(-1, 1, size=(size, m))
    x = rng.uniform(-1, 1, size=n)
    while min(np.linalg.norm(points - x, axis=1)) < 1e-3:
        x = rng.uniform(-1, 1, size=n)
    return LabeledPointSet(points, values), x


# ---------------------------------------------------------------------------
# lip_constant
# ---------------------------------------------------------------------------

def test_import_leaves_scipy_optimize_unloaded():
    # only the oracle and the hull certificates load scipy.optimize,
    # on first use
    import lipext

    src = os.path.dirname(os.path.dirname(lipext.__file__))
    code = "import sys, lipext, lipext.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError):
        LabeledPointSet([[0.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])


def test_lip_two_points():
    assert lip_constant(scalar_set([0.0, 1.0], [0.0, 3.0])) == pytest.approx(3.0)


def test_lip_constant_values():
    assert lip_constant(scalar_set([0.0, 1.0, 5.0], [2.0, 2.0, 2.0])) == 0.0


def test_lip_three_points():
    # pairs: |0-1|/1 = 1, |1-4|/1 = 3, |0-4|/2 = 2
    assert lip_constant(scalar_set([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])) == pytest.approx(3.0)


def test_lip_singleton():
    assert lip_constant(scalar_set([0.0], [7.0])) == 0.0


# ---------------------------------------------------------------------------
# pair_candidate
# ---------------------------------------------------------------------------

def test_pair_scalar_midpoint():
    s = scalar_set([0.0, 2.0], [0.0, 4.0])
    point, lam = pair_candidate(s, 0, 1, [1.0])
    assert point == pytest.approx([2.0])
    assert lam == pytest.approx(2.0)


def test_pair_equal_values():
    s = scalar_set([0.0, 2.0], [5.0, 5.0])
    point, lam = pair_candidate(s, 0, 1, [0.5])
    assert point == pytest.approx([5.0])
    assert lam == 0.0


def test_pair_planar():
    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    point, lam = pair_candidate(s, 0, 1, [0.0, 0.0])
    assert point == pytest.approx([1.0, 0.0])
    assert lam == pytest.approx(1.0)


def test_pair_query_on_sample():
    s = scalar_set([0.0, 2.0], [0.0, 4.0])
    with pytest.raises(QueryCoincidesWithSample):
        pair_candidate(s, 0, 1, [2.0])


# ---------------------------------------------------------------------------
# kpoint_scalar
# ---------------------------------------------------------------------------

def test_scalar_three_samples():
    # unit distances, values 0, 10, 4: best pair (0, 10) with ratio 5
    s = LabeledPointSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 10.0, 4.0])
    r = kpoint_scalar(s, [0.0, 0.0])
    assert r.lam == pytest.approx(5.0)
    assert r.point == pytest.approx([5.0])
    assert r.active == (0, 1)


def test_scalar_constant():
    s = scalar_set([0.0, 1.0, 3.0], [2.5, 2.5, 2.5])
    r = kpoint_scalar(s, [2.0])
    assert r.lam == 0.0
    assert r.point == pytest.approx([2.5])


def test_scalar_singleton():
    r = kpoint_scalar(scalar_set([0.0], [7.0]), [3.0])
    assert r.lam == 0.0
    assert r.point == pytest.approx([7.0])


def test_pairwise_optimum_raw():
    point, ratio, pair = pairwise_optimum([0.0, 10.0, 4.0], [1.0, 1.0, 1.0])
    assert point == pytest.approx(5.0)
    assert ratio == pytest.approx(5.0)
    assert pair == (0, 1)


# ---------------------------------------------------------------------------
# kpoint_vector
# ---------------------------------------------------------------------------

def test_vector_pair_certified():
    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    r = kpoint_vector(s, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0)
    assert r.point == pytest.approx([1.0, 0.0])
    assert r.active == (0, 1)


def test_vector_equilateral_needs_triple(equilateral):
    r = kpoint_vector(equilateral, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(r.point, [0.0, 0.0], atol=1e-9)
    assert r.active == (0, 1, 2)
    assert r.max_violation <= 1e-9
    assert np.all(r.hull_coords >= -1e-9)


def test_vector_constant():
    s = LabeledPointSet([[0.0], [1.0]], [[3.0, 4.0], [3.0, 4.0]])
    r = kpoint_vector(s, [0.5])
    assert r.lam == 0.0
    assert r.point == pytest.approx([3.0, 4.0])


def test_vector_query_on_sample(equilateral):
    with pytest.raises(QueryCoincidesWithSample):
        kpoint_vector(equilateral, [1.0, 0.0])


# ---------------------------------------------------------------------------
# certificate_check
# ---------------------------------------------------------------------------

def test_certified_triple_passes(equilateral):
    r = kpoint_vector(equilateral, [0.0, 0.0])
    assert certificate_check(equilateral, [0.0, 0.0], r.lam, r.point, r.active)


def test_pair_fails_on_equilateral(equilateral):
    point, lam = pair_candidate(equilateral, 0, 1, [0.0, 0.0])
    assert not certificate_check(equilateral, [0.0, 0.0], lam, point, (0, 1))


def test_singleton_certificate_constant_data():
    s = LabeledPointSet([[0.0], [1.0]], [[2.0], [2.0]])
    assert certificate_check(s, [0.5], 0.0, [2.0], (0,))
    assert certificate_check(s, [0.5], 0.0, [2.0], (1,))


# ---------------------------------------------------------------------------
# kpoint_oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_named_examples(equilateral):
    r = kpoint_oracle(equilateral, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(r.point, [0.0, 0.0], atol=1e-5)

    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    r = kpoint_oracle(s, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(r.point, [1.0, 0.0], atol=1e-5)


def test_oracle_upper_bound():
    rng = np.random.default_rng(17)
    for _ in range(40):
        s, x = random_instance(rng)
        r = kpoint_oracle(s, x)
        assert r.lam <= lip_constant(s) + 1e-7


def test_oracle_singleton():
    r = kpoint_oracle(scalar_set([0.0], [7.0]), [2.0])
    assert r.lam == 0.0
    assert r.point == pytest.approx([7.0])


def test_separated_is_a_proof():
    centres = [(0.0,), (3.0,)]
    # disjoint balls: the midpoint lies outside both
    assert _separated([1.0, 1.0], centres, [1.0, 1.0])
    # tangent balls share a point, so no weights may prove them separated
    assert not _separated([1.0, 1.0], centres, [1.5**2, 1.5**2])
    assert not _separated([0.0, 0.0], centres, [1.0, 1.0])


def test_feasible_probe_never_proven_infeasible():
    """Just above the kernel's optimum every ball-intersection test must
    be feasible or undecided; a proof of infeasibility there would move the
    oracle's bisection bracket past the optimum."""
    rng = np.random.default_rng(2028)
    tested = 0
    while tested < 200:
        s, x = random_instance(rng)
        lam = 1.001 * kpoint_vector(s, x).lam
        if s.size == 1 or lam == 0.0:
            continue
        d = [float(v) for v in np.linalg.norm(s.points - x, axis=1)]
        fvals = [tuple(row) for row in s.values]
        outcome, _, _ = _project_cycles(lam, s.values.mean(axis=0), fvals, d, 1e-8 * lam)
        assert outcome is not Feasibility.INFEASIBLE, (tested, lam)
        tested += 1


# ---------------------------------------------------------------------------
# cross-validation properties
# ---------------------------------------------------------------------------

def test_vector_agrees_with_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        s, x = random_instance(rng)
        rv = kpoint_vector(s, x)
        ro = kpoint_oracle(s, x, tol=1e-7)
        assert abs(rv.lam - ro.lam) <= 1e-6
        assert np.linalg.norm(rv.point - ro.point) <= 1e-5


def test_vector_lam_below_lip():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s, x = random_instance(rng)
        assert kpoint_vector(s, x).lam <= lip_constant(s) + 1e-9


def test_vector_matches_scalar_for_m1():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 9))
        s = LabeledPointSet(rng.uniform(-1, 1, (size, n)), rng.uniform(-1, 1, size))
        x = rng.uniform(-1, 1, n)
        if min(np.linalg.norm(s.points - x, axis=1)) < 1e-3:
            continue
        rv = kpoint_vector(s, x)
        rs = kpoint_scalar(s, x)
        assert abs(rv.lam - rs.lam) <= 1e-9
        assert abs(rv.point[0] - rs.point[0]) <= 1e-9


def test_scale_and_translation_equivariance(equilateral):
    x = [0.0, 0.0]
    base = kpoint_vector(equilateral, x)
    # scaling by a power of two is exact in floating point
    scaled = LabeledPointSet(equilateral.points, equilateral.values * 4.0)
    r = kpoint_vector(scaled, x)
    assert r.lam == base.lam * 4.0
    assert np.array_equal(r.point, base.point * 4.0)
    shift = np.array([0.5, -0.25])
    shifted = LabeledPointSet(equilateral.points, equilateral.values + shift)
    r = kpoint_vector(shifted, x)
    assert r.lam == pytest.approx(base.lam, abs=1e-12)
    assert np.allclose(r.point, base.point + shift, atol=1e-9)


def test_scale_equivariance_random():
    rng = np.random.default_rng(37)
    for _ in range(30):
        s, x = random_instance(rng)
        base = kpoint_vector(s, x)
        sc = rng.uniform(0.3, 3.0)
        r = kpoint_vector(LabeledPointSet(s.points, s.values * sc), x)
        assert r.lam == pytest.approx(base.lam * sc, rel=1e-9, abs=1e-12)
        assert np.allclose(r.point, base.point * sc, rtol=1e-9, atol=1e-9)


def test_extreme_scales_and_offsets():
    # mixed value/distance scales must not corrupt the enumeration: the
    # substituted determinants are computed on normalized data
    rng = np.random.default_rng(53)
    for factor in (1e-8, 1e8):
        for _ in range(25):
            s, x = random_instance(rng)
            base = kpoint_vector(s, x)
            scaled = kpoint_vector(LabeledPointSet(s.points, s.values * factor), x)
            assert scaled.lam == pytest.approx(base.lam * factor, rel=1e-9)
            assert np.allclose(scaled.point, base.point * factor,
                               rtol=1e-9, atol=1e-9 * factor)
    for _ in range(25):
        s, x = random_instance(rng)
        base = kpoint_vector(s, x)
        offset = 1e8
        shifted = kpoint_vector(LabeledPointSet(s.points, s.values + offset), x)
        assert shifted.lam == pytest.approx(base.lam, rel=1e-7, abs=1e-7)
        assert np.allclose(shifted.point - offset, base.point, atol=1e-6)


def test_permutation_invariance():
    rng = np.random.default_rng(41)
    for _ in range(40):
        s, x = random_instance(rng)
        perm = rng.permutation(s.size)
        sp = LabeledPointSet(s.points[perm], s.values[perm])
        r1 = kpoint_vector(s, x)
        r2 = kpoint_vector(sp, x)
        assert r1.lam == pytest.approx(r2.lam, rel=1e-12, abs=1e-12)
        assert np.allclose(r1.point, r2.point, atol=1e-12)
        # active sets correspond through the permutation
        mapped = tuple(sorted(int(np.flatnonzero(perm == a)[0]) for a in r1.active))
        assert mapped == r2.active


def test_active_set_bounded():
    rng = np.random.default_rng(43)
    for _ in range(100):
        s, x = random_instance(rng)
        r = kpoint_vector(s, x)
        assert len(r.active) <= s.value_dim + 1


def test_result_invariants():
    rng = np.random.default_rng(47)
    for _ in range(60):
        s, x = random_instance(rng)
        r = kpoint_vector(s, x)
        d = np.linalg.norm(s.points - x, axis=1)
        scale = max(r.lam * d.max(), 1e-12)
        assert r.lam >= 0.0
        assert len(r.active) >= 1
        assert np.all(r.hull_coords >= -1e-9)
        for i in range(s.size):
            assert np.linalg.norm(r.point - s.values[i]) <= r.lam * d[i] + 1e-9 * scale
        for i in r.active:
            gap = abs(np.linalg.norm(r.point - s.values[i]) - r.lam * d[i])
            assert gap <= 1e-9 * scale
