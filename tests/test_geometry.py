import math

import numpy as np
import pytest

from lipext.errors import DegenerateSimplex, NotInAffineHull
from lipext.geometry import (
    Biquadratic,
    SquaredDistanceMatrix,
    barycentric_coordinates,
    biquadratic_coefficients,
    cayley_menger,
    cayley_menger_points,
    in_convex_hull,
    is_simplex,
    solve_biquadratic,
    solve_biquadratics,
    solve_sphere_intersection,
)


# ---------------------------------------------------------------------------
# cayley_menger
# ---------------------------------------------------------------------------

def test_two_points_unit_distance():
    # | 0 1 1 |
    # | 1 0 1 |  expands to 2 by hand
    # | 1 1 0 |
    m = SquaredDistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cayley_menger(m) == pytest.approx(2.0, abs=1e-12)


def test_collinear_triple_vanishes():
    # points at 0, 1, 2 on a line: d2 = 1, 4, 1
    assert cayley_menger_points([[0.0], [1.0], [2.0]]) == pytest.approx(0.0, abs=1e-12)


def test_unit_right_triangle():
    # expansion of the 4x4 bordered matrix gives -4
    val = cayley_menger_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert val == pytest.approx(-4.0, abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        pts = rng.uniform(-3, 3, size=(k, 3))
        ref = cayley_menger_points(pts)
        perm = rng.permutation(k)
        got = cayley_menger_points(pts[perm])
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_rejects_malformed_matrix():
    with pytest.raises(ValueError):
        SquaredDistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SquaredDistanceMatrix(np.array([[0.5]]))


# ---------------------------------------------------------------------------
# is_simplex
# ---------------------------------------------------------------------------

def test_simplex_basic_cases():
    assert is_simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert not is_simplex([[0.0], [1.0], [2.0]])
    assert not is_simplex([[1.0, 2.0], [1.0, 2.0]])
    assert is_simplex([[42.0, -1.0]])  # single point


def test_too_many_points_always_degenerate():
    # m+2 points in R^m never span a simplex
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        for _ in range(20):
            pts = rng.uniform(-5, 5, size=(m + 2, m))
            assert not is_simplex(pts)


def test_simplex_scale_free():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for s in (1e-6, 1.0, 1e6):
        assert is_simplex(tri * s)


# ---------------------------------------------------------------------------
# barycentric_coordinates / in_convex_hull
# ---------------------------------------------------------------------------

def test_segment_midpoint():
    t = barycentric_coordinates([[0.0], [2.0]], [1.0])
    assert np.allclose(t, [0.5, 0.5], atol=1e-12)


def test_vertex_coordinates():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    t = barycentric_coordinates(verts, [0.0, 0.0])
    assert np.allclose(t, [1.0, 0.0, 0.0], atol=1e-12)


def test_triangle_centroid():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = barycentric_coordinates(verts, verts.mean(axis=0))
    assert np.allclose(t, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_off_hull_raises():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(NotInAffineHull):
        barycentric_coordinates(verts, [0.2, 0.2, 0.5])


def test_degenerate_vertices_raise():
    with pytest.raises(DegenerateSimplex):
        barycentric_coordinates([[0.0], [1.0], [2.0]], [0.5])


def test_hull_membership():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert in_convex_hull(verts, verts.mean(axis=0))
    assert not in_convex_hull(verts, [2.0, 2.0])
    assert in_convex_hull(verts, [0.5, 0.5])  # edge midpoint, boundary admitted


def test_random_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, m + 2))
        verts = rng.uniform(-2, 2, size=(k, m))
        if not is_simplex(verts):
            continue
        w = rng.uniform(0, 1, size=k)
        w /= w.sum()
        y = w @ verts
        t = barycentric_coordinates(verts, y)
        scale = max(1.0, float(np.abs(verts).max()))
        assert np.linalg.norm(t @ verts - y) <= 1e-9 * scale
        assert abs(t.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# solve_sphere_intersection
# ---------------------------------------------------------------------------

def test_tangent_pair():
    y = solve_sphere_intersection([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    assert np.allclose(y, [1.0, 0.0], atol=1e-12)


def test_intersection_off_axis_returns_none():
    # circles do intersect in the plane, but not on the axis through the centers
    y = solve_sphere_intersection([[0.0, 0.0], [2.0, 0.0]], [math.sqrt(2), math.sqrt(2)])
    assert y is None


def test_scalar_centers():
    y = solve_sphere_intersection([[0.0], [4.0]], [2.0, 2.0])
    assert np.allclose(y, [2.0], atol=1e-12)


def test_degenerate_centers_raise():
    with pytest.raises(DegenerateSimplex):
        solve_sphere_intersection([[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0])


def test_random_sphere_recovery():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, m + 2))
        centers = rng.uniform(-2, 2, size=(k, m))
        if not is_simplex(centers):
            continue
        w = rng.normal(size=k)
        w /= w.sum() if abs(w.sum()) > 1e-3 else 1.0
        target = w @ centers  # a point of the affine hull
        radii = np.linalg.norm(centers - target, axis=1)
        y = solve_sphere_intersection(centers, radii)
        assert y is not None
        scale = max(1.0, float(np.abs(centers).max()), float(radii.max()))
        for c, r in zip(centers, radii):
            assert abs(np.linalg.norm(y - c) - r) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# biquadratic
# ---------------------------------------------------------------------------

def _substituted_det(values, dists, mu):
    """Direct bordered determinant with the unknown row set to mu * d**2."""
    values = np.atleast_2d(np.asarray(values, float))
    dists = np.asarray(dists, float)
    k = values.shape[0]
    m = np.ones((k + 2, k + 2))
    m[0, 0] = 0.0
    m[1, 1] = 0.0
    for i in range(k):
        m[1, 2 + i] = m[2 + i, 1] = mu * dists[i] ** 2
        for j in range(k):
            m[2 + i, 2 + j] = np.dot(values[i] - values[j], values[i] - values[j])
        m[2 + i, 2 + i] = 0.0
    return float(np.linalg.det(m))


def test_simplex_test_and_biquadratic_take_a_squared_distance_matrix():
    # a caller that runs both on the same points builds their matrix once:
    # the same answers, bit for bit, as from the points
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 4):
        for m in (1, 2, 3):
            pts = rng.uniform(-1, 1, (k, m))
            sq = SquaredDistanceMatrix.from_points(pts)
            assert is_simplex(sq) == is_simplex(pts)
            if k >= 2:
                d = rng.uniform(0.5, 2.0, k)
                assert biquadratic_coefficients(sq, d) == biquadratic_coefficients(pts, d)
    assert not is_simplex(SquaredDistanceMatrix.from_points([[0.0], [1.0], [2.0]]))
    with pytest.raises(ValueError):
        biquadratic_coefficients(SquaredDistanceMatrix.from_points([[0.0, 1.0]]), [1.0])


def test_constant_data_has_zero_constant_term():
    bq = biquadratic_coefficients([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
    assert bq.c == pytest.approx(0.0, abs=1e-12)
    assert 0.0 in solve_biquadratic(bq)


def test_pair_case_recovers_ratio_root():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        vals = rng.uniform(-2, 2, size=(2, m))
        d = rng.uniform(0.1, 3.0, size=2)
        lam_pair = np.linalg.norm(vals[0] - vals[1]) / (d[0] + d[1])
        roots = solve_biquadratic(biquadratic_coefficients(vals, d))
        assert roots, "pair determinant must have a nonnegative root"
        assert min(abs(r - lam_pair) for r in roots) <= 1e-9 * max(1.0, lam_pair)


def test_interpolation_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        vals = rng.uniform(-2, 2, size=(k, m))
        d = rng.uniform(0.1, 3.0, size=k)
        bq = biquadratic_coefficients(vals, d)
        direct = _substituted_det(vals, d, 1.0)
        total = bq.a + bq.b + bq.c
        assert total == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_solve_biquadratic_cases():
    assert solve_biquadratic(Biquadratic(1.0, -5.0, 4.0)) == pytest.approx([1.0, 2.0])
    assert solve_biquadratic(Biquadratic(0.0, 1.0, -4.0)) == pytest.approx([2.0])
    assert solve_biquadratic(Biquadratic(1.0, 0.0, 1.0)) == []


def test_solve_biquadratics_matches_the_scalar_rule():
    # row by row the same roots, bit for bit, in the same order: integer
    # coefficients give every branch (a = 0, b = 0, c = 0, double roots),
    # signed zeros and extreme magnitudes give the edge cases, and the
    # perturbed double roots reach the discriminant rescue and the merge
    rng = np.random.default_rng(21)
    grid = np.array(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3)).reshape(3, -1).T
    special = [(1.0, -0.0, -1.0), (-0.0, 0.0, -0.0), (0.0, -0.0, 1.0), (1e-300, 1e300, -1.0),
               (1e300, -1e-300, 1e300), (8.9e-16, 6.0, -2.0), (np.inf, 1.0, -1.0),
               (np.nan, 1.0, -1.0), (1.0, np.nan, 0.0)]
    lam = rng.uniform(0.1, 10.0, 300)
    double = np.stack([np.ones(300), -2.0 * lam**2, lam**4 * (1.0 + rng.normal(0.0, 1e-13, 300))], axis=1)
    coefs = np.concatenate([grid, special, double, rng.uniform(-5, 5, (300, 3))])
    with np.errstate(all="ignore"):
        roots, found = solve_biquadratics(Biquadratic(*coefs.T))
        for k, (a, b, c) in enumerate(coefs):
            expect = solve_biquadratic(Biquadratic(a, b, c))
            assert np.array_equal(np.array(expect).view(np.uint64),
                                  roots[k][found[k]].view(np.uint64)), (a, b, c)


def test_small_root_survives_tiny_leading_coefficient():
    # naive (-b + sqrt(disc)) / 2a cancels catastrophically when |4ac| << b*b;
    # the small root must still come out accurately
    roots = solve_biquadratic(Biquadratic(8.9e-16, 6.0, -2.0))
    target = math.sqrt(1.0 / 3.0)
    assert any(abs(r - target) <= 1e-9 for r in roots)


def test_roots_satisfy_polynomial():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b, c = rng.uniform(-5, 5, size=3)
        bq = Biquadratic(a, b, c)
        scale = max(abs(a), abs(b), abs(c))
        for lam in solve_biquadratic(bq):
            assert abs(a * lam**4 + b * lam**2 + c) <= 1e-9 * max(scale, 1.0)
