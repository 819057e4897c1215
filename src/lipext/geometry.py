"""Distance-geometry primitives.

Bordered squared-distance determinants, simplex tests, barycentric and
convex-hull certificates, sphere-intersection solving in the affine hull of
the centers, and root extraction for the even quartic that the determinant
substitution produces.

All arithmetic is 64-bit floating point; determinants go through LAPACK's
partially pivoted LU factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSimplex, NotInAffineHull

# Relative threshold deciding whether a bordered determinant is "nonzero";
# absolute thresholds fail across coordinate scales.
SIMPLEX_TOL = 1e-12

# Default relative tolerance for hull/affine residual checks.
HULL_TOL = 1e-9


@dataclass(frozen=True)
class SquaredDistanceMatrix:
    """Symmetric matrix of squared pairwise distances with zero diagonal."""

    d2: np.ndarray

    def __post_init__(self):
        d2 = np.asarray(self.d2, dtype=float)
        if d2.ndim != 2 or d2.shape[0] != d2.shape[1] or d2.shape[0] < 1:
            raise ValueError("squared distance matrix must be square, k >= 1")
        if not np.array_equal(d2, d2.T):
            raise ValueError("squared distance matrix must be symmetric")
        if np.any(np.diag(d2) != 0.0):
            raise ValueError("diagonal must be zero")
        if np.any(d2 < 0.0):
            raise ValueError("squared distances must be nonnegative")
        object.__setattr__(self, "d2", d2)

    @classmethod
    def from_points(cls, points) -> "SquaredDistanceMatrix":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        # exact symmetry and zero diagonal regardless of rounding
        d2 = 0.5 * (d2 + d2.T)
        np.fill_diagonal(d2, 0.0)
        return cls(d2)


class Biquadratic(NamedTuple):
    """Coefficients of a*lam**4 + b*lam**2 + c."""

    a: float
    b: float
    c: float


def pow2_shift(mag: float) -> int:
    """Exponent of the power of two that brings mag into [0.5, 1): scaling
    by it is exact for normal inputs, and keeps squares and sums of
    quantities near mag free of overflow and underflow."""
    return min(-math.frexp(mag)[1], 1022)


def _bordered(d2: np.ndarray) -> np.ndarray:
    """Bordered matrix: zero corner, row/column of ones, d2 block."""
    k = d2.shape[0]
    m = np.ones((k + 1, k + 1))
    m[0, 0] = 0.0
    m[1:, 1:] = d2
    return m


def cayley_menger(m: SquaredDistanceMatrix) -> float:
    """Determinant of the bordered squared-distance matrix of k points."""
    return float(np.linalg.det(_bordered(m.d2)))


def cayley_menger_points(points) -> float:
    """cayley_menger of the pairwise squared distances of the given points."""
    return cayley_menger(SquaredDistanceMatrix.from_points(points))


def is_simplex(points, tol: float = SIMPLEX_TOL) -> bool:
    """True iff the k points span a nondegenerate (k-1)-simplex.

    The test is |det| > tol * scale**(k-1) with scale the largest pairwise
    squared distance; the determinant of k points is homogeneous of degree
    k-1 in the squared distances, so this ratio is scale-free.  A single
    point always counts as a 0-simplex.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k == 1:
        return True
    sq = SquaredDistanceMatrix.from_points(pts)
    scale = float(sq.d2.max())
    if scale == 0.0:
        return False
    return abs(cayley_menger(sq)) > tol * scale ** (k - 1)


def barycentric_coordinates(vertices, y, tol: float = HULL_TOL) -> np.ndarray:
    """Coefficients t with sum(t) = 1 and t @ vertices = y.

    Raises DegenerateSimplex when the vertices fail the simplex test and
    NotInAffineHull when y cannot be reconstructed within tol (relative to
    the diameter of the configuration).
    """
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    y = np.asarray(y, dtype=float)
    if not is_simplex(verts):
        raise DegenerateSimplex(f"{verts.shape[0]} points do not span a simplex")
    k = verts.shape[0]
    base = verts[-1]
    shifted = verts - base
    yb = y - base
    if k == 1:
        t = np.array([1.0])
    else:
        # eliminate the constraint sum(t) = 1 by solving for t[:-1]
        head, *_ = np.linalg.lstsq(shifted[:-1].T, yb, rcond=None)
        t = np.append(head, 1.0 - head.sum())
    # residual in shifted coordinates: a large common offset of the inputs
    # must not drown the reconstruction error
    resid = float(np.linalg.norm(t @ shifted - yb))
    scale = _config_scale(verts, y)
    if resid > tol * scale:
        raise NotInAffineHull(f"reconstruction residual {resid:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return t


def in_convex_hull(vertices, y, tol: float = HULL_TOL) -> bool:
    """Non-strict hull membership: all barycentric coordinates >= -tol."""
    try:
        t = barycentric_coordinates(vertices, y, tol)
    except NotInAffineHull:
        return False
    return bool(np.all(t >= -tol))


def solve_sphere_intersection(centers, radii, tol: float = HULL_TOL):
    """Point of the affine hull of the centers at distance radii[l] from each.

    Subtracting the sphere equations pairwise leaves a linear system in
    affine coordinates; one radius residual is checked on the solution.
    Returns None when no such point exists.
    """
    ctr = np.atleast_2d(np.asarray(centers, dtype=float))
    rad = np.atleast_1d(np.asarray(radii, dtype=float))
    if ctr.shape[0] != rad.shape[0]:
        raise ValueError("need one radius per center")
    if not is_simplex(ctr):
        raise DegenerateSimplex("sphere centers must span a simplex")
    k = ctr.shape[0]
    scale = max(_config_scale(ctr, ctr[0]), float(rad.max(initial=0.0)))
    if k == 1:
        return ctr[0].copy() if rad[0] <= tol * max(scale, 1e-300) else None
    _, y = sphere_point(ctr, rad)
    resid = abs(float(np.linalg.norm(y - ctr[0])) - float(rad[0]))
    if resid > tol * max(scale, 1e-300):
        return None
    return y


def sphere_point(centers: np.ndarray, rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine coordinates s and the point y = c_0 + s @ (c_l - c_0) of the
    affine hull of k >= 2 centers c_l at distance rad[l] from each.

    Subtracting the sphere equations pairwise leaves a linear system in s;
    it raises LinAlgError when singular.  y also satisfies the first
    sphere equation only if such a point exists, which the caller checks.
    """
    base = centers[0]
    b = centers[1:] - base  # (k-1, m)
    rhs = np.einsum("ij,ij->i", b, b) + rad[0] ** 2 - rad[1:] ** 2
    s = np.linalg.solve(2.0 * (b @ b.T), rhs)
    return s, base + s @ b


def biquadratic_coefficients(values, dists) -> Biquadratic:
    """Even-quartic coefficients of the substituted bordered determinant.

    The unknown point's squared distances to the k data values are replaced
    by mu * dists**2 with mu = lam**2; see bordered_determinants.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    d = np.asarray(dists, dtype=float)
    k = vals.shape[0]
    if k < 2:
        raise ValueError("need at least two values")
    if np.any(d <= 0.0):
        raise ValueError("distances must be positive")
    vsq = SquaredDistanceMatrix.from_points(vals).d2
    bq = bordered_determinants(vsq[None], (d**2)[None])
    return Biquadratic(*(float(coef[0]) for coef in bq))


def bordered_determinants(d2, r2) -> Biquadratic:
    """Substituted bordered determinants, batched.

    d2 stacks the squared-distance matrices of K configurations of k
    points, shape (K, k, k); r2 holds K rows of k squared radii.  Returns a
    Biquadratic of (K,) coefficient arrays: the bordered determinant with an
    unknown point whose squared distances to the k points are mu * r2, an
    exact quadratic in mu = lam**2 recovered by evaluation at mu = 0, 1, 2.
    All 3K determinants go through one det call.  No Cayley-Menger test of
    the k points comes with them: the kernel certifies each candidate
    directly, and a degenerate configuration fails that certificate or the
    sphere solve.
    """
    d2 = np.asarray(d2, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    count, k = r2.shape
    stack = np.zeros((count, 3, k + 2, k + 2))
    stack[:, :, 0, 1:] = 1.0
    stack[:, :, 1:, 0] = 1.0
    radii = r2[:, None, :] * np.array([0.0, 1.0, 2.0])[:, None]  # mu * r2, mu = 0, 1, 2
    stack[:, :, 1, 2:] = radii
    stack[:, :, 2:, 1] = radii
    stack[:, :, 2:, 2:] = d2[:, None]
    d0, d1, dd2 = np.linalg.det(stack).T
    a = 0.5 * (dd2 - 2.0 * d1 + d0)
    return Biquadratic(a=a, b=d1 - d0 - a, c=d0)


def solve_biquadratic(bq: Biquadratic) -> list[float]:
    """Nonnegative real roots lam of a*lam**4 + b*lam**2 + c = 0, ascending.

    Handles the linear case a = 0 and double roots; an identically zero
    polynomial yields [0.0]. May be empty.
    """
    a, b, c = bq
    mus: list[float] = []
    if a == 0.0:
        if b == 0.0:
            return [0.0] if c == 0.0 else []
        mus.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        # rescue discriminants that are zero up to rounding
        if disc < 0.0 and abs(disc) <= 1e-12 * (b * b + 4.0 * abs(a * c)):
            disc = 0.0
        if disc < 0.0:
            return []
        # stable quadratic roots: avoids the -b + sqrt(disc) cancellation
        # that destroys the small root when |4ac| << b*b
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
        if q == 0.0:
            mus.append(0.0)
        else:
            mus.extend((q / a, c / q))
    mu_scale = max(map(abs, mus))
    roots: list[float] = []
    for mu in mus:
        if -1e-10 * mu_scale <= mu < 0.0:
            mu = 0.0
        if mu >= 0.0:
            lam = math.sqrt(mu)
            # at most two roots: a second one that rounds to the first is dropped
            if not (roots and abs(lam - roots[0]) <= 1e-12 * max(lam, roots[0])):
                roots.append(lam)
    return sorted(roots)


def solve_biquadratics(bq: Biquadratic) -> tuple[np.ndarray, np.ndarray]:
    """solve_biquadratic for a Biquadratic of (K,) coefficient arrays, bit
    for bit: (roots, found), both of shape (K, 2).  Row k holds the roots
    of polynomial k in its found entries, ascending.

    The branches follow solve_biquadratic's, comparison for comparison:
    the quadratic's two candidates are q / a then c / q, the second is
    dropped when it rounds to the first, and only then are they sorted.
    """
    a, b, c = (np.asarray(coef, dtype=float) for coef in bq)
    with np.errstate(all="ignore"):  # entries of the branches not taken are masked
        disc = b * b - 4.0 * a * c
        # rescue discriminants that are zero up to rounding
        disc[(disc < 0.0) & (np.abs(disc) <= 1e-12 * (b * b + 4.0 * np.abs(a * c)))] = 0.0
        real = ~(disc < 0.0)
        q = -0.5 * (b + np.copysign(np.sqrt(disc), np.where(b != 0.0, b, 1.0)))
        mu = np.stack([np.where(q == 0.0, 0.0, q / a), c / q], axis=1)
        has = np.stack([real, real & (q != 0.0)], axis=1)
        linear = a == 0.0
        if linear.any():
            bl, cl = b[linear], c[linear]
            mu[linear, 0] = np.where(bl == 0.0, 0.0, -cl / bl)
            has[linear, 0] = (bl != 0.0) | (cl == 0.0)
            has[linear, 1] = False
        size = np.abs(mu)
        scale = np.where(has[:, 1] & (size[:, 1] > size[:, 0]), size[:, 1], size[:, 0])
        mu[(-1e-10 * scale[:, None] <= mu) & (mu < 0.0)] = 0.0
        found = has & (mu >= 0.0)
        roots = np.sqrt(mu)
        lo, hi = roots.T
        found[:, 1] &= ~(found[:, 0] & (np.abs(hi - lo) <= 1e-12 * np.where(lo > hi, lo, hi)))
    swap = found.all(axis=1) & (hi < lo)
    roots[swap] = roots[swap, ::-1]
    return roots, found


def _config_scale(points: np.ndarray, y) -> float:
    """Largest pairwise distance among the points and the query."""
    all_pts = np.vstack([points, np.atleast_2d(y)])
    diff = all_pts[:, None, :] - all_pts[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))
