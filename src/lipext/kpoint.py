"""Pointwise minimax extension values for labeled samples.

Given samples p_i with values f_i and a query x, the kernel computes the
smallest ratio lam such that some point y satisfies ||y - f_i|| <= lam *
||x - p_i|| for every i, together with that optimal point.  The scalar case
has a closed form over pairs; the vector case enumerates candidate active
subsets, solving the substituted bordered determinant for lam and a sphere
system for the point, and certifies the first subset whose candidate
dominates every sample.  An independent convex-feasibility oracle is
provided for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import NoCertifiedSubset, QueryCoincidesWithSample
from .geometry import (
    HULL_TOL,
    Biquadratic,
    bordered_determinants,
    in_convex_hull,
    is_simplex,
    pow2_shift,
    solve_biquadratic,
    solve_biquadratics,
    sphere_point,
)


# scipy.optimize adds about 0.3 s to `import lipext`, and only the oracle's
# hull coordinates need it here: import it on first use.
def nnls(*args, **kwargs):
    """scipy.optimize.nnls."""
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(*args, **kwargs)


# Certificate tolerances, stated once: equality and domination are checked
# to CERT_TOL relative to lam * max distance, with an absolute floor of
# NOISE_TOL times the value magnitude (distances computed in floating point
# carry rounding error on that scale even when lam is tiny).
CERT_TOL = 1e-9
NOISE_TOL = 1e-13
# Value spread below this fraction of the value magnitude counts as constant.
CONSTANT_TOL = 1e-14


@dataclass(frozen=True)
class LabeledPointSet:
    """Finite sample set: positions p_i in R^n with values f_i in R^m."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if pts.shape[0] != vals.shape[0] or pts.shape[0] < 1:
            raise ValueError("need one value per point, at least one point")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("points and values must be finite")
        for i in range(pts.shape[0]):
            for j in range(i + 1, pts.shape[0]):
                if np.array_equal(pts[i], pts[j]):
                    raise ValueError(f"points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def value_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class KPointResult:
    """Minimax value at a query point with its certificate data."""

    lam: float
    point: np.ndarray
    active: tuple[int, ...]
    max_violation: float
    hull_coords: np.ndarray | None


def lip_constant(s: LabeledPointSet) -> float:
    """Largest value-to-position distance ratio over sample pairs.

    The norms are taken of values and positions scaled by powers of two,
    as in _spread: exact for normal inputs, and free of overflow and
    underflow at extreme scales.
    """
    vshift = pow2_shift(float(np.abs(s.values).max()))
    pshift = pow2_shift(float(np.abs(s.points).max()))
    vals = np.ldexp(s.values, vshift)
    pts = np.ldexp(s.points, pshift)
    i, j = np.triu_indices(s.size, 1)
    num = np.linalg.norm(vals[i] - vals[j], axis=1)
    den = np.linalg.norm(pts[i] - pts[j], axis=1)
    best = float(np.max(num / den, initial=0.0))
    return math.ldexp(best, pshift - vshift)


def pair_candidate(s: LabeledPointSet, i: int, j: int, x) -> tuple[np.ndarray, float]:
    """Distance-weighted average of f_i, f_j and its ratio at the query."""
    if i == j:
        raise ValueError("pair indices must differ")
    x = np.asarray(x, dtype=float)
    di = float(np.linalg.norm(x - s.points[i]))
    dj = float(np.linalg.norm(x - s.points[j]))
    if di == 0.0 or dj == 0.0:
        raise QueryCoincidesWithSample("query equals a sample position")
    point = (dj * s.values[i] + di * s.values[j]) / (di + dj)
    lam = float(np.linalg.norm(s.values[i] - s.values[j])) / (di + dj)
    return point, lam


# Query offsets and distances in this range are squared without overflow or
# loss to underflow.
OFFSET_RANGE = (2.0**-500, 2.0**500)


def _distances(s: LabeledPointSet, x) -> np.ndarray:
    """Distances from the query to the sample positions.

    One test on the plain norms passes a finite query that lies on no
    sample and whose distances lie in OFFSET_RANGE.  The rest are sorted
    out after it: a non-finite query, or offsets that overflow, raise
    ValueError; offsets whose largest component lies outside OFFSET_RANGE
    are scaled by a power of two, as in _spread, which is exact, so the
    result equals the plain norm wherever that neither overflows nor
    underflows; and a zero distance raises QueryCoincidesWithSample.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (s.points.shape[1],):
        raise ValueError(f"query dimension {x.shape} does not match positions")
    with np.errstate(over="ignore"):
        diff = s.points - x
        # np.linalg.norm's own sum of squares, without its argument checks
        d = np.sqrt(np.add.reduce(diff * diff, axis=1))
    lo, hi = OFFSET_RANGE
    if not (d.min() > 0.0 and lo <= d.max() <= hi):
        if not np.all(np.isfinite(x)):
            raise ValueError("query must be finite")
        mag = float(np.abs(diff).max())
        if mag == math.inf:
            raise ValueError("query offsets overflow")
        if not lo <= mag <= hi:
            shift = pow2_shift(mag)
            d = np.ldexp(np.linalg.norm(np.ldexp(diff, shift), axis=1), -shift)
        if not d.min() > 0.0:
            raise QueryCoincidesWithSample("query equals a sample position")
    return d


def _canonical_order(s: LabeledPointSet) -> list[int]:
    """Sample order that is stable under permutation of the input."""
    return sorted(range(s.size), key=lambda i: (tuple(s.points[i]), tuple(s.values[i])))


def _spread(rows: list[list[float]]) -> tuple[float, bool]:
    """Largest distance between two rows, and whether the rows count as
    constant: spread at most CONSTANT_TOL times the value magnitude.

    The squares are taken of differences scaled by the power of two that
    brings the magnitude into [0.5, 1): exact for normal inputs, and free
    of the overflow (values beyond ~1e154) and underflow (below ~1e-162)
    that would make any data look constant.
    """
    vmag = max([abs(x) for row in rows for x in row])
    shift = pow2_shift(vmag)
    sc = math.ldexp(1.0, shift)
    top = 0.0
    for i, ri in enumerate(rows):
        for rj in rows[i + 1:]:
            sq = 0.0
            for a, b in zip(ri, rj):
                t = (a - b) * sc
                sq += t * t
            if sq > top:
                top = sq
    spread = math.sqrt(top)
    return math.ldexp(spread, -shift), spread <= CONSTANT_TOL * max(vmag * sc, spread)


def pairwise_optimum(values, dists) -> tuple[float, float, tuple[int, int]]:
    """Scalar closed form: the pair maximizing |u_i - u_j| / (d_i + d_j).

    Returns (value, ratio, (i, j)).  Plain-float loops: this sits in the
    inner loop of the graph solvers, which pass lists of floats.
    """
    u = list(map(float, values))
    d = list(map(float, dists))
    n = len(u)
    if n == 1:
        return u[0], 0.0, (0, 0)
    best = -1.0
    bi, bj = 0, 0
    for i in range(n):
        ui, di = u[i], d[i]
        for j in range(i + 1, n):
            r = abs(ui - u[j]) / (di + d[j])
            if r > best:
                best, bi, bj = r, i, j
    point = (d[bj] * u[bi] + d[bi] * u[bj]) / (d[bi] + d[bj])
    return point, best, (bi, bj)


def kpoint_scalar(s: LabeledPointSet, x) -> KPointResult:
    """Minimax value for real-valued samples via the pair formula."""
    if s.value_dim != 1:
        raise ValueError("kpoint_scalar requires one-dimensional values")
    d = _distances(s, x)
    order = _canonical_order(s)
    u = s.values[order, 0]
    dd = d[order]
    point, lam, (bi, bj) = pairwise_optimum(u, dd)
    pt = np.array([point])
    if s.size == 1:
        return KPointResult(0.0, pt, (0,), 0.0, np.array([1.0]))
    viol = float(np.max(np.abs(pt[0] - s.values[:, 0]) - lam * d))
    i, j = order[bi], order[bj]
    active = tuple(sorted((i, j)))
    da, db = d[active[0]], d[active[1]]
    coords = np.array([db, da]) / (da + db)
    return KPointResult(lam, pt, active, viol, coords)


def minimax_kernel(values, dists, tol: float = CERT_TOL):
    """Subset enumeration on raw arrays, in the given sample order.

    Returns (lam, point, active_index_tuple, hull_coords, max_violation).
    Sizes ascend from 2 to min(m + 1, N); within a size subsets are tested
    lexicographically and the first certified candidate wins.  Raises
    NoCertifiedSubset if nothing certifies (numerical failure).

    The constant test and the pair phase run on plain floats, and each
    call does only the work its exit needs: pairs are scanned in row-major
    order up to the first certified one, a pair is dropped at its first
    violated sample, and the determinants of a subset size are computed
    only when the enumeration reaches it.  A size class of more than
    STACK_CUTOVER subsets is tested in one numpy pass (_stacked_simplex),
    a smaller one candidate by candidate (_looped_simplex); the two give
    the same bits.
    """
    raw_values = np.asarray(values, dtype=float)
    if raw_values.ndim < 2:
        raw_values = np.atleast_2d(raw_values)
    rows = raw_values.tolist()
    spread, constant = _spread(rows)
    if constant:
        return 0.0, raw_values[0].copy(), (0,), np.array([1.0]), 0.0
    # center and rescale: the bordered determinants mix squared value
    # distances with squared sample distances, and mismatched scales drown
    # the small coefficients in cancellation noise
    n, m = raw_values.shape
    center = (np.add.reduce(raw_values, axis=0) / n).tolist()
    vals = [[(x - c) / spread for x, c in zip(row, center)] for row in rows]
    raw_dists = list(map(float, dists))
    dscale = max(raw_dists)
    d = [x / dscale for x in raw_dists]
    dmax = max(d)
    noise = NOISE_TOL  # rounding-noise floor on the unit value scale

    def denorm(lam, point, active, coords, viol):
        return (
            lam * spread / dscale,
            np.array([c + p * spread for c, p in zip(center, point)]),
            active,
            coords,
            viol * spread,
        )

    # pair phase: lam_ij = ||f_i - f_j|| / (d_i + d_j) for every pair
    pairs = []
    lam_max = span = -1.0
    for i in range(n):
        vi, di = vals[i], d[i]
        for j in range(i + 1, n):
            sq = 0.0
            for a, b in zip(vi, vals[j]):
                t = a - b
                sq += t * t
            dist = math.sqrt(sq)
            ds = di + d[j]
            lam = dist / ds
            pairs.append((lam, i, j, dist))
            if lam > lam_max:
                lam_max, span = lam, ds
    # A certified pair's candidate y has ||y - f_k|| <= lam d_k + thr for
    # every k, so at the steepest pair (k, l) the triangle inequality gives
    # lam >= lam_max - 2 thr / (d_k + d_l).  With thr at its largest and
    # the bound doubled (rounding stays below 1e-15 on the unit scale,
    # against thr >= NOISE_TOL), pairs below the floor cannot certify.
    # Skipping them costs less than testing them, even at degree 3 to 6,
    # and is what keeps a pair exit cheap at high degree.
    floor = lam_max - 4.0 * (tol * lam_max * dmax + noise) / span
    for lam, i, j, _ in pairs:
        if lam < floor:
            continue
        di, dj = d[i], d[j]
        ds = di + dj
        point = [(dj * a + di * b) / ds for a, b in zip(vals[i], vals[j])]
        thr = tol * lam * dmax + noise
        worst = -math.inf
        for vk, dk in zip(vals, d):
            sq = 0.0
            for a, b in zip(point, vk):
                t = a - b
                sq += t * t
            gap = math.sqrt(sq) - lam * dk
            if not gap <= thr:
                break
            if gap > worst:
                worst = gap
        else:
            return denorm(lam, point, (i, j), np.array([dj / ds, di / ds]), worst)

    # simplex phase: sizes ascending, subsets in lexicographic order, roots
    # ascending, and the first certified candidate wins.  No simplex test
    # filters the subsets first: the minimax point is unique, so every
    # subset that certifies yields it within the certificate's tolerance,
    # and a degenerate subset either makes the sphere system singular
    # (LinAlgError) or has to pass the same equality, hull and domination
    # checks as any other.  The sphere system is solved in affine
    # coordinates whose coefficients are exactly the hull coordinates of
    # the candidate, so no separate hull solve is needed.
    values = np.array(vals)
    dists = np.array(d)
    vsq = np.zeros((n, n))
    for _, i, j, dist in pairs:
        vsq[i, j] = vsq[j, i] = dist * dist
    for size in range(3, min(m + 1, n) + 1):
        subsets, bq, scales = _size_class(vsq, dists, size)
        test = _stacked_simplex if len(subsets) > STACK_CUTOVER else _looped_simplex
        hit = test(values, dists, subsets, bq, scales, tol, dmax)
        if hit is not None:
            return denorm(*hit)
    raise NoCertifiedSubset(f"no certified subset among {n} samples (m = {m})")


# Size classes of more subsets than this go through the simplex phase in one
# numpy pass (_stacked_simplex), smaller ones candidate by candidate
# (_looped_simplex).  Both apply one rule and give the same bits.  Measured
# per class on the classes that random m = 2..8 calls reach, interleaved,
# the pass costs 1.43x the loop at 5 subsets and 1.28x at 6, and 0.75x at
# 10, 0.37x at 20 and 0.16x at 56; the cutover sits at the interpolated
# break-even.  Classes of 7 to 9 subsets arise only for m >= 5.
STACK_CUTOVER = 8
# Rows of (candidate, sample) gaps per domination pass of _stacked_simplex.
GAP_ROWS = 1 << 14


def _size_class(vsq: np.ndarray, dists: np.ndarray, size: int):
    """(subsets, biquadratics, scales) for every subset of the given size in
    lexicographic order, subsets as an int array of shape (K, size), scale
    being the largest squared value distance within the subset (the length
    scale of its equality check)."""
    idx = np.array(list(combinations(range(dists.size), size)))
    block = vsq[idx[:, :, None], idx[:, None, :]]
    bq = bordered_determinants(block, dists[idx] ** 2)
    return idx, bq, block.max(axis=(1, 2))


def _looped_simplex(values, dists, subsets, bq, scales, tol, dmax):
    """The first certified candidate of a size class as (lam, point, active,
    coords, violation) on the unit scale, or None; one candidate at a time."""
    for si, subset in enumerate(subsets.tolist()):
        centers = values[subset]
        dj = dists[subset]
        for lam in solve_biquadratic(Biquadratic(bq.a[si], bq.b[si], bq.c[si])):
            if lam <= 0.0:
                continue
            rad = lam * dj
            try:
                coef, y = sphere_point(centers, rad)
            except np.linalg.LinAlgError:
                continue
            lscale = max(float(rad.max()), math.sqrt(float(scales[si])))
            if abs(float(np.linalg.norm(y - centers[0])) - rad[0]) > CERT_TOL * lscale:
                continue
            coords = np.concatenate([[1.0 - coef.sum()], coef])
            if coords.min() < -HULL_TOL:
                continue
            viol = float(np.max(np.linalg.norm(y - values, axis=1) - lam * dists))
            if viol <= tol * lam * dmax + NOISE_TOL:
                return lam, y, tuple(subset), coords, viol
    return None


def _stacked_simplex(values, dists, subsets, bq, scales, tol, dmax):
    """_looped_simplex in one numpy pass over the size class, bit for bit.

    Every candidate (subset, positive root) gets its sphere solve, equality
    and hull checks at once, in the loop's order.  Each operation is the
    loop's own on a stack: np.linalg.solve and the sum of squares per row
    match their per-matrix forms, a stacked np.matmul takes the dot
    products that sphere_point's `s @ b` and a 1-d np.linalg.norm take, and
    rad[0] ** 2 is squared by C pow on Python floats, as sphere_point's
    numpy-scalar power is.  A singular system fails only its own subset.
    The domination check, the costly one, runs on the survivors in chunks
    of GAP_ROWS gaps, and the first certified candidate wins.
    """
    roots, found = solve_biquadratics(bq)
    sub, slot = np.nonzero(found & (roots > 0.0))
    centers = values[subsets]
    base = centers[:, 0]
    edge = centers[:, 1:] - base[:, None]
    gram = 2.0 * np.matmul(edge, edge.transpose(0, 2, 1))
    # det uses solve's LU: a nonzero det leaves no zero pivot, and the rare
    # zero det (singular or underflowed) is tried on its own
    regular = np.linalg.det(gram) != 0.0
    for si in np.flatnonzero(~regular):
        try:
            np.linalg.solve(gram[si], np.ones(len(gram[si])))
            regular[si] = True
        except np.linalg.LinAlgError:
            pass
    keep = regular[sub]
    sub, lam = sub[keep], roots[sub[keep], slot[keep]]
    if not sub.size:
        return None
    rad = lam[:, None] * dists[subsets[sub]]
    rad0_sq = np.array([r ** 2 for r in rad[:, 0].tolist()])
    rhs = np.einsum("kij,kij->ki", edge, edge)[sub] + rad0_sq[:, None] - rad[:, 1:] ** 2
    coef = np.linalg.solve(gram[sub], rhs[:, :, None])[:, :, 0]
    base, edge = base[sub], edge[sub]
    y = base + np.matmul(coef[:, None, :], edge)[:, 0]
    off = y - base
    dist0 = np.sqrt(np.matmul(off[:, None, :], off[:, :, None])[:, 0, 0])
    rmax, span = rad.max(axis=1), np.sqrt(scales[sub])
    lscale = np.where(span > rmax, span, rmax)
    coords = np.concatenate([1.0 - coef.sum(axis=1, keepdims=True), coef], axis=1)
    ok = ~(np.abs(dist0 - rad[:, 0]) > CERT_TOL * lscale) & ~(coords.min(axis=1) < -HULL_TOL)
    survivors = np.flatnonzero(ok)
    step = max(1, GAP_ROWS // dists.size)
    for start in range(0, survivors.size, step):
        c = survivors[start:start + step]
        gaps = np.linalg.norm(y[c, None, :] - values, axis=-1) - lam[c, None] * dists
        viol = gaps.max(axis=1)
        certified = viol <= tol * lam[c] * dmax + NOISE_TOL
        if certified.any():
            k = int(np.argmax(certified))
            w = c[k]
            return float(lam[w]), y[w], tuple(subsets[sub[w]].tolist()), coords[w].copy(), float(viol[k])
    return None


def _sum_squares(t: np.ndarray) -> np.ndarray:
    """Sum of squares over the first axis, added in coordinate order as the
    kernel's plain-float loops add them."""
    sq = t[0] * t[0]
    for c in range(1, t.shape[0]):
        sq = sq + t[c] * t[c]
    return sq


class PairBlock:
    """The pair step for a block of neighbourhoods at once.

    Row r of a block holds count[r] samples, padded to the block's width by
    repeats of its first sample (value and distance).  A repeat changes no
    maximum, and every pair it forms ties with an earlier pair or is never
    steepest, so the pair rules need no mask.  `step` returns for every row
    the point that the per-row rule returns: `pairwise_optimum`'s for
    m = 1, and for m > 1 `minimax_kernel`'s (at its default tolerance)
    when it exits through the constant test or a pair.  The arithmetic is the per-row code's,
    operation for operation, so the points agree bit for bit; rows whose
    answer needs a larger subset are reported as not certified and left to
    the kernel.
    """

    def __init__(self, dists: np.ndarray, count: np.ndarray):
        self.dists = dists
        self.count = count
        self.rows = np.arange(dists.shape[0])
        self.first, self.second = np.triu_indices(dists.shape[1], 1)  # row-major pairs
        self.sums = dists[:, self.first] + dists[:, self.second]

    @cached_property
    def _unit(self):
        """The kernel's distances on the unit scale, their pair sums and row
        maxima, and the columns that the centre's sum adds: None where no
        row pads the column, else a mask of the rows that do not."""
        unit = self.dists / self.dists.max(axis=1)[:, None]
        padded = [(k, None if (self.count > k).all() else self.count > k)
                  for k in range(1, self.dists.shape[1])]
        return unit, unit[:, self.first] + unit[:, self.second], unit.max(axis=1), padded

    def step(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(points, certified) for values of shape (m, rows, width): points
        of shape (rows, m), and whether each row's rule exits here."""
        certified = np.ones(values.shape[1], dtype=bool)
        if values.shape[2] == 1:
            return values[:, :, 0].T.copy(), certified
        with np.errstate(all="ignore"):
            if values.shape[0] == 1:
                return self._scalar(values[0]), certified
            return self._vector(values)

    def _scalar(self, u: np.ndarray) -> np.ndarray:
        first, second, rows = self.first, self.second, self.rows
        k = np.argmax(np.abs(u[:, first] - u[:, second]) / self.sums, axis=1)
        bi, bj = first[k], second[k]
        ui, uj = u[rows, bi], u[rows, bj]
        di, dj = self.dists[rows, bi], self.dists[rows, bj]
        point = (dj * ui + di * uj) / (di + dj)
        # a single sample is its own optimum (pairwise_optimum's n == 1)
        return np.where(self.count == 1, u[:, 0], point)[:, None]

    def _vector(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first, second, rows = self.first, self.second, self.rows
        unit, unit_sums, unit_max, padded = self._unit
        # _spread: the largest scaled pair distance and the constant test
        vmag = np.abs(values).max(axis=(0, 2))
        shift = np.minimum(-np.frexp(vmag)[1], 1022)  # pow2_shift, row by row
        sc = np.ldexp(1.0, shift)
        sq = _sum_squares((values[:, :, first] - values[:, :, second]) * sc[:, None])
        top = np.sqrt(sq.max(axis=1))
        spread = np.ldexp(top, -shift)
        constant = top <= CONSTANT_TOL * np.maximum(vmag * sc, top)
        # centre and rescale
        center = values[:, :, 0]
        for k, ok in padded:
            added = center + values[:, :, k]
            center = added if ok is None else np.where(ok, added, center)
        center = center / self.count
        vals = (values - center[:, :, None]) / spread[:, None]
        # pair phase: the first steepest pair sets the floor, and the first
        # pair at or above it whose candidate dominates every sample wins
        lam = np.sqrt(_sum_squares(vals[:, :, first] - vals[:, :, second])) / unit_sums
        k = np.argmax(lam, axis=1)
        lam_max, span = lam[rows, k], unit_sums[rows, k]
        floor = lam_max - 4.0 * (CERT_TOL * lam_max * unit_max + NOISE_TOL) / span
        di, dj = unit[:, first], unit[:, second]
        point = (dj * vals[:, :, first] + di * vals[:, :, second]) / unit_sums
        thr = CERT_TOL * lam * unit_max[:, None] + NOISE_TOL
        gap = (np.sqrt(_sum_squares(point[:, :, :, None] - vals[:, :, None, :]))
               - lam[:, :, None] * unit[:, None, :])
        certified = ~(lam < floor[:, None]) & (gap <= thr[:, :, None]).all(axis=2)
        k = np.argmax(certified, axis=1)
        out = center + point[:, rows, k] * spread
        out = np.where(constant, values[:, :, 0], out)
        return out.T, constant | certified[rows, k]


def kpoint_vector(s: LabeledPointSet, x, tol: float = CERT_TOL) -> KPointResult:
    """Minimax value for vector samples via certified subset enumeration."""
    d = _distances(s, x)
    order = _canonical_order(s)
    lam, point, active_local, coords, viol = minimax_kernel(
        s.values[order], d[order], tol
    )
    pairs = sorted(zip((order[a] for a in active_local), coords))
    active = tuple(p[0] for p in pairs)
    hull = np.array([p[1] for p in pairs])
    return KPointResult(lam, point, active, viol, hull)


def certificate_check(s: LabeledPointSet, x, lambda0: float, point0, subset, tol: float = CERT_TOL) -> bool:
    """Equality on the subset, domination everywhere, point in the hull."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    d = _distances(s, x)
    point0 = np.asarray(point0, dtype=float)
    thr = tol * lambda0 * float(d.max()) + NOISE_TOL * float(np.abs(s.values).max())
    vals = s.values[list(subset)]
    for j in subset:
        if abs(float(np.linalg.norm(point0 - s.values[j])) - lambda0 * d[j]) > thr:
            return False
    if float(np.max(np.linalg.norm(point0 - s.values, axis=1) - lambda0 * d)) > thr:
        return False
    if not is_simplex(vals):
        return False
    return in_convex_hull(vals, point0)


# ---------------------------------------------------------------------------
# independent oracle: bisection over lam with ball-intersection feasibility
# ---------------------------------------------------------------------------

# Knobs: 80 bisection iterations, 2500 projection cycles over all probes,
# convergence threshold tol/10.  Each probe has three outcomes.  It
# is feasible when cyclic projection reaches a point within the threshold of
# every ball.  It is proven infeasible only by a dual certificate: weights
# w >= 0 with sum_i w_i (||c - f_i||^2 - r_i^2) > 0 at the weighted mean c
# of the centres (see _separated); lo moves only then.  Certificates are
# tried after cycles 1, 2, 4, 8, ... and when the projections stop.
# Otherwise the probe is undecided: the violation stalled over
# STALL_WINDOW cycles, or the decay estimator found that reaching the
# threshold would take more than STALL_PATIENCE further cycles (cyclic
# projections converge sublinearly when active balls touch tangentially).
# An undecided probe ends the bisection, as does the global cycle budget.
# The bisection is the oracle's fallback: it runs, down to INTERVAL_REL,
# only when the exact polish (minimize) does not give a point to keep.
BISECT_ITERS = 80
CYCLE_BUDGET = 2_500
STALL_WINDOW = 20
STALL_PATIENCE = 100
INTERVAL_REL = 1e-9
# A certificate counts only above this fraction of its own rounding scale.
PROOF_REL = 1e-12


class Feasibility(Enum):
    """Outcome of one ball-intersection test."""

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


def _separated(w, fvals, r2) -> bool:
    """True when weights w prove that the balls B(f_i, r_i) share no point.

    Any y in every ball has sum_i w_i (||y - f_i||^2 - r_i^2) <= 0.  The
    left side is smallest at the weighted mean c of the centres, so a
    positive value at c, beyond its rounding error, is a proof.  An error
    e in the computed c raises the value by only sum(w) * e^2, which stays
    far below that margin when the centres are given relative to their mean.
    """
    tot = sum(w)
    if not tot > 0.0:
        return False
    m = len(fvals[0])
    c = [sum(wi * fi[k] for wi, fi in zip(w, fvals)) / tot for k in range(m)]
    gap = scale = 0.0
    for wi, fi, ri2 in zip(w, fvals, r2):
        if wi > 0.0:
            sq = 0.0
            for k in range(m):
                dk = fi[k] - c[k]
                sq += dk * dk
            gap += wi * (sq - ri2)
            scale += wi * (sq + ri2)
    return gap > PROOF_REL * scale


def _project_cycles(lam, y, fvals, d, tol_lam, cap):
    """Cyclic projection of y onto the balls B(f_i, lam * d_i), for at
    most cap cycles.

    Returns (outcome, point, cycles), outcome a Feasibility.  The weights
    tried as a _separated certificate are the fractions by which the last
    cycle moved y toward each centre.  Pure floats in the inner loop, with
    squared-distance comparisons so square roots happen only on an actual
    projection (rare near convergence) and once per cycle for the residual.
    """
    y = list(y)
    m = len(y)
    n = len(fvals)
    r = [lam * di for di in d]
    r2 = [ri * ri for ri in r]
    d2 = [di * di for di in d]
    pull = [0.0] * n
    hist: list[float] = []
    for t in range(cap):
        for i in range(n):
            fi = fvals[i]
            sq = 0.0
            for k in range(m):
                dk = y[k] - fi[k]
                sq += dk * dk
            if sq > r2[i]:
                sc = r[i] / math.sqrt(sq)
                pull[i] = 1.0 - sc
                for k in range(m):
                    y[k] = fi[k] + (y[k] - fi[k]) * sc
            else:
                pull[i] = 0.0
        worst_ratio2 = 0.0
        for i in range(n):
            fi = fvals[i]
            sq = 0.0
            for k in range(m):
                dk = y[k] - fi[k]
                sq += dk * dk
            ratio2 = sq / d2[i]
            if ratio2 > worst_ratio2:
                worst_ratio2 = ratio2
        viol = math.sqrt(worst_ratio2) - lam
        if viol <= tol_lam:
            return Feasibility.FEASIBLE, y, t + 1
        hist.append(viol)
        stop = t + 1 == cap
        if len(hist) > STALL_WINDOW:
            prev = hist[-STALL_WINDOW - 1]
            if prev <= viol:
                stop = True
            else:
                rate = viol / prev
                need = STALL_WINDOW * math.log(max(viol / max(tol_lam, 1e-300), 1.0)) / max(-math.log(rate), 1e-12)
                stop = stop or need > min(cap - t, STALL_PATIENCE)
        # t & (t + 1) == 0 holds after cycles 1, 2, 4, 8, ...
        if (stop or t & (t + 1) == 0) and _separated(pull, fvals, r2):
            return Feasibility.INFEASIBLE, y, t + 1
        if stop:
            return Feasibility.UNDECIDED, y, t + 1
    return Feasibility.UNDECIDED, y, cap


def _max_ratio(y: np.ndarray, values: np.ndarray, d: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(y - values, axis=1) / d))


# ---------------------------------------------------------------------------
# epigraph polish: active-set Newton on the KKT system of min t s.t.
# k_i ||y - u_i|| <= t
# ---------------------------------------------------------------------------

# A working set W is accepted when its multipliers are >= -KKT_TOL and its
# point satisfies k_i ||y - u_i|| <= t (1 + KKT_TOL) on the samples it must
# cover; Newton stops when its step in (y, t) is at most STEP_TOL max(1, |t|).
KKT_TOL = 1e-12
STEP_TOL = 1e-14
NEWTON_ITERS = 40
PIVOT_ITERS = 100


def _kkt_newton(u: np.ndarray, k: np.ndarray, y: np.ndarray):
    """Newton's method on the KKT system of min t s.t. k_i ||y - u_i|| <= t
    with every row of u active, started at y.

    The unknowns are y, t and the multipliers w; the equations are
    sum_i w_i k_i n_i = 0 (n_i the unit vector from u_i to y), sum_i w_i = 1
    and k_i ||y - u_i|| = t.  w starts as the least-squares multipliers at
    y, clipped to >= 0 and renormalised.  Returns (y, t, w), or None on a
    singular system, a non-finite value, a zero distance or no convergence.
    Two rows have a closed-form solution (_kkt_pair), and y is unused there.
    """
    s, m = u.shape
    if s == 1:
        return u[0].copy(), 0.0, np.ones(1)
    if s == 2:
        return _kkt_pair(u, k)
    size = m + 1 + s
    jac = np.zeros((size, size))
    jac[m, m + 1:] = 1.0
    jac[m + 1:, m] = -1.0
    res = np.empty(size)
    w = t = None
    try:
        for _ in range(NEWTON_ITERS):
            diff = y - u
            r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            if not r.min() > 0.0:
                return None
            g = diff * (k / r)[:, None]  # k_i n_i
            if w is None:
                # least squares for sum_i w_i k_i n_i = 0, sum_i w_i = 1
                e = np.zeros(m + 1)
                e[m] = 1.0
                w = np.linalg.lstsq(np.vstack([g.T, np.ones(s)]), e, rcond=None)[0]
                w = np.maximum(w, 0.0)
                w = w / w.sum() if w.sum() > 0.0 else np.full(s, 1.0 / s)
                t = float(np.max(k * r))
            # d/dy of sum_i w_i k_i n_i is sum_i (w_i k_i / r_i) (I - n_i n_i^T)
            h = -(g.T * (w / (k * r))) @ g
            h.flat[::m + 1] += float(np.dot(w, k / r))
            jac[:m, :m] = h
            jac[:m, m + 1:] = g.T
            jac[m + 1:, :m] = g
            res[:m] = g.T @ w
            res[m] = w.sum() - 1.0
            res[m + 1:] = k * r - t
            step = np.linalg.solve(jac, res)
            y = y - step[:m]
            t -= float(step[m])
            w = w - step[m + 1:]
            dyt = step[:m + 1]
            if float(dyt @ dyt) <= (STEP_TOL * max(1.0, abs(t))) ** 2:
                break
        else:
            return None
    except np.linalg.LinAlgError:
        return None
    if not (math.isfinite(t) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        return None
    return y, t, w


def _kkt_pair(u: np.ndarray, k: np.ndarray):
    """Exact KKT point of min t s.t. k_i ||y - u_i|| <= t for two rows: y on
    the segment with k_0 r_0 = k_1 r_1, that is y = (k_0 u_0 + k_1 u_1) /
    (k_0 + k_1), t = k_0 k_1 ||u_1 - u_0|| / (k_0 + k_1) and w = (k_1, k_0) /
    (k_0 + k_1).  Returns None on coincident rows or a non-finite value."""
    k0, k1 = float(k[0]), float(k[1])
    ks = k0 + k1
    diff = u[1] - u[0]
    dist = math.sqrt(float(diff @ diff))
    y = (k0 * u[0] + k1 * u[1]) / ks
    t = k0 * k1 * dist / ks
    if not (dist > 0.0 and math.isfinite(t) and np.all(np.isfinite(y))):
        return None
    return y, t, np.array([k1, k0]) / ks


def minimize(unit: np.ndarray, k: np.ndarray, y0: np.ndarray) -> np.ndarray | None:
    """Epigraph polish: the point y minimizing max_i k_i ||y - u_i|| (the
    rows of unit), by an active-set pivot from y0, or None if no working
    set certifies.

    Each working set W of at most m + 1 samples is solved exactly by
    _kkt_newton: a pair in closed form, a larger set by Newton from the
    current point, and again from the k-weighted centroid of W when that
    fails or gives a negative multiplier.  The first W is the shortest
    prefix of size 2 ... m + 1 of the samples ranked by their ratio at y0
    whose solution is a KKT point that covers the prefix, and else the top
    sample alone (y = u_i, t = 0).  While some sample j
    violates the solution, W becomes the first subset of W + {j} holding j,
    by ascending size, whose solution is a KKT point covering W + {j} with
    t no lower than before; the optimum over W + {j} is such a subset, and
    t never decreases, so the pivot cannot cycle.  The returned point is
    certified: a KKT point of W that covers every sample.
    """
    if not (np.all(np.isfinite(unit)) and np.all(np.isfinite(k)) and np.all(np.isfinite(y0))):
        return None
    n, m = unit.shape

    def ratios(y, idx=slice(None)):
        diff = y - unit[idx]
        return k[idx] * np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def solve(ws, y, cover, floor):
        uw, kw = unit[ws], k[ws]
        sol = _kkt_newton(uw, kw, y)
        if sol is None or sol[2].min() < -KKT_TOL:
            sol = _kkt_newton(uw, kw, kw @ uw / kw.sum())
        if (sol is not None and sol[1] >= floor and sol[2].min() >= -KKT_TOL
                and ratios(sol[0], cover).max() <= sol[1] * (1.0 + KKT_TOL)):
            return sol
        return None

    rank = np.argsort(-ratios(y0), kind="stable")
    for size in range(2, min(n, m + 1) + 1):
        ws = rank[:size].tolist()
        sol = solve(ws, y0, ws, -math.inf)
        if sol is not None:
            y, t = sol[0], sol[1]
            break
    else:
        ws = rank[:1].tolist()
        y, t = unit[ws[0]].copy(), 0.0
    for _ in range(PIVOT_ITERS):
        r = ratios(y)
        j = int(np.argmax(r))
        if r[j] <= t * (1.0 + KKT_TOL):
            return y
        cover = ws + [j]
        subsets = (list(rest) + [j] for size in range(1, min(len(ws), m) + 1)
                   for rest in combinations(ws, size))
        for cand in subsets:
            sol = solve(cand, y, cover, t)
            if sol is not None:
                break
        else:
            return None
        ws, y, t = cand, sol[0], sol[1]
    return None


def _bisect(fvals, d, hi, tol):
    """Bisection over lam in [0, hi] with ball-feasibility probes, down to
    an INTERVAL_REL relative interval.

    Sets hi at probes that cyclic projection shows feasible and moves lo
    only at probes proven infeasible by a dual certificate (see
    _separated).  The first undecided probe, the cycle budget or
    BISECT_ITERS probes end it earlier.  Returns its last feasible point,
    in the frame of fvals.
    """
    lo = 0.0
    y = [0.0] * len(fvals[0])
    ybest = list(y)
    budget = CYCLE_BUDGET
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if budget <= 0 or mid <= lo or mid >= hi or (hi - lo) <= INTERVAL_REL * hi:
            break
        outcome, ynew, used = _project_cycles(mid, y, fvals, d, tol / 10.0 * mid, cap=budget)
        budget -= used
        if outcome is Feasibility.UNDECIDED:
            break
        y = ynew
        if outcome is Feasibility.FEASIBLE:
            hi = mid
            ybest = list(ynew)
        else:
            lo = mid
    return ybest


def kpoint_oracle(s: LabeledPointSet, x, tol: float = 1e-7) -> KPointResult:
    """Minimax value by an exact epigraph polish, with a bisection on lam
    as its fallback.

    The polish (minimize) solves min t s.t. ||y - f_i|| <= t * d_i from the
    steepest pair's weighted point (d_j f_i + d_i f_j) / (d_i + d_j), the
    pair maximising ||f_i - f_j|| / (d_i + d_j), and certifies its point
    with the KKT conditions.  Its point is kept when it does not worsen the
    minimax ratio of that start by more than 1e-9 relative.  Otherwise (no
    certified point, or a worse one) a bisection on lam with
    ball-feasibility tests (_bisect) gives the answer; tol sets only that
    bisection's tolerance.  Values and distances are scaled by powers of
    two on entry and back on exit, so no square overflows or underflows at
    extreme scales.
    """
    d = _distances(s, x)
    spread, constant = _spread(s.values.tolist())
    if s.size == 1 or constant:
        point = s.values[0].copy()
        return KPointResult(0.0, point, (0,), 0.0, np.array([1.0]))
    vshift = pow2_shift(float(np.abs(s.values).max()))
    dshift = pow2_shift(float(d.max()))
    values = np.ldexp(s.values, vshift)
    d = np.ldexp(d, dshift)
    spread = math.ldexp(spread, vshift)
    # the polish works in units where every quantity is of order one: the
    # point as (y - center) / spread, and t as a multiple of the start's
    # ratio t0, so constraint i reads t >= k_i ||y - u_i|| with
    # k_i = 1 / (t0 d_i).  The start and the guard are taken in these units
    # too: in the scaled frame the rounding of values far larger than their
    # spread can exceed the guard's 1e-9.
    center = values.mean(axis=0)
    unit = (values - center) / spread
    i, j = np.triu_indices(s.size, 1)
    k = int(np.argmax(np.linalg.norm(unit[i] - unit[j], axis=1) / (d[i] + d[j])))
    a, b = i[k], j[k]
    z0 = (d[b] * unit[a] + d[a] * unit[b]) / (d[a] + d[b])
    t0 = _max_ratio(z0, unit, d)
    z = minimize(unit, 1.0 / (t0 * d), z0)
    if z is not None and _max_ratio(z, unit, d) <= t0 * (1.0 + 1e-9):
        point = center + spread * z
    else:
        # the bisection works relative to the mean value, which keeps the
        # certificates' rounding error on the scale of the spread
        lip = math.ldexp(lip_constant(s), vshift - dshift)
        point = center + np.asarray(_bisect([tuple(row) for row in values - center],
                                            [float(v) for v in d], lip, tol))
    lam = _max_ratio(point, values, d)

    ratios = np.linalg.norm(point - values, axis=1) / d
    active = tuple(int(i) for i in np.flatnonzero(ratios >= lam * (1.0 - 1e-6)))
    if not active:
        active = (int(np.argmax(ratios)),)
    viol = float(np.max(np.linalg.norm(point - values, axis=1) - lam * d))
    hull = _nnls_hull_coords(values[list(active)], point)
    return KPointResult(math.ldexp(lam, dshift - vshift), np.ldexp(point, -vshift), active,
                        math.ldexp(viol, -vshift), hull)


def _nnls_hull_coords(vertices: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Nonnegative weights summing to one that best reconstruct y."""
    scale = max(float(np.abs(vertices).max()), 1e-300)
    a = np.vstack([vertices.T / scale, np.ones(vertices.shape[0])])
    b = np.concatenate([np.asarray(y, dtype=float) / scale, [1.0]])
    try:
        w, _ = nnls(a, b)
    except RuntimeError:
        return None
    return w
