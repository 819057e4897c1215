"""Pointwise minimax extension values for labeled samples.

Given samples p_i with values f_i and a query x, the kernel computes the
smallest ratio lam such that some point y satisfies ||y - f_i|| <= lam *
||x - p_i|| for every i, together with that optimal point.  The scalar case
has a closed form over pairs; the vector case enumerates candidate active
subsets, solving the substituted bordered determinant for lam and a sphere
system for the point, and certifies the first subset whose candidate
dominates every sample.  An independent oracle, an active-set solve of the
epigraph problem min t s.t. ||y - f_i|| <= t d_i certified by its KKT
conditions, is provided for validation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .errors import NoCertifiedSubset, QueryCoincidesWithSample
from .geometry import (
    HULL_TOL,
    Biquadratic,
    biquadratic_coefficients,
    bordered_determinants,
    in_convex_hull,
    is_simplex,
    pow2_shift,
    solve_biquadratic,
    solve_biquadratics,
)

log = logging.getLogger("lipext.kpoint")


# scipy.optimize adds about 0.3 s to `import lipext`, and only the oracle's
# hull coordinates of three or more samples need it here (one or two have a
# closed form): import it on first use.
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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: they are shared through a cache."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1): the pairs of n samples in row-major order,
    cached per n as read-only arrays."""
    return _read_only(*np.triu_indices(n, 1))


@lru_cache(maxsize=64)
def _subsets(n: int, size: int) -> np.ndarray:
    """Every subset of range(n) of the given size in lexicographic order, as
    a read-only int array of shape (K, size), cached per (n, size)."""
    return _read_only(np.array(list(combinations(range(n), size)), dtype=np.intp).reshape(-1, size))[0]


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
        # the kernel's centre sums the values and the spread takes their
        # differences: both stay finite while n max|f| does
        if not math.isfinite(pts.shape[0] * float(np.abs(vals).max())):
            raise ValueError("values overflow: n times the largest |f| is not finite")
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
    i, j = _pair_indices(s.size)
    num = np.linalg.norm(vals[i] - vals[j], axis=1)
    den = np.linalg.norm(pts[i] - pts[j], axis=1)
    best = float(np.max(num / den, initial=0.0))
    return math.ldexp(best, pshift - vshift)


def pair_candidate(s: LabeledPointSet, i: int, j: int, x) -> tuple[np.ndarray, float]:
    """Distance-weighted average of f_i, f_j and its ratio at the query.

    Raises ValueError for indices outside range(s.size) or equal, and for
    a query that is not a finite point of the positions' dimension;
    QueryCoincidesWithSample when the query lies on sample i or j (a query
    on another sample is allowed).
    """
    if i not in range(s.size) or j not in range(s.size):
        raise ValueError(f"pair indices must lie in range({s.size})")
    if i == j:
        raise ValueError("pair indices must differ")
    x = np.array(_query(s, x))
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


def _query(s: LabeledPointSet, x) -> list[float]:
    """The query's coordinates as floats; ValueError unless it is a finite
    point of the positions' dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.points.shape[1],):
        raise ValueError(f"query dimension {x.shape} does not match positions")
    x = x.tolist()
    if not all(map(math.isfinite, x)):
        raise ValueError("query must be finite")
    return x


def _norm(a, b) -> float:
    """||a - b|| for two sequences of floats, the squares added in
    coordinate order: the bits of np.linalg.norm below eight coordinates,
    and of the kernel's pair phase."""
    sq = 0.0
    for p, q in zip(a, b):
        t = p - q
        sq += t * t
    return math.sqrt(sq)


def _lane_norm(a, b) -> float:
    """||a - b|| for two sequences of floats, the squares of the even
    coordinates and of the odd ones added in two sums that are then added,
    as np.einsum("ij,ij->i") adds them below eight coordinates.  The polish
    ranks its samples and tests its cover with it: the order of two samples
    whose ratios tie to rounding sets the row order of a Newton solve, and
    with it the last bits of the oracle's answer, which the tests compare
    with a reference on arrays."""
    even = odd = 0.0
    pairs = zip(a, b)
    for p, q in pairs:
        t = p - q
        even += t * t
        for p, q in pairs:  # the next coordinate, if any, is odd
            t = p - q
            odd += t * t
            break
    return math.sqrt(even + odd)


def _distances(s: LabeledPointSet, x) -> list[float]:
    """Distances from the query to the sample positions, as floats.

    The query passes `_query`.  One test on the plain norms then passes a
    query that lies on no sample and whose distances lie in OFFSET_RANGE.
    The rest are sorted out after it: offsets that overflow raise
    ValueError; offsets whose largest component lies outside OFFSET_RANGE
    are scaled by a power of two, as in _spread, which is exact, so the
    result equals the plain norm wherever that neither overflows nor
    underflows; and a zero distance raises QueryCoincidesWithSample.
    """
    x = _query(s, x)
    rows = s.points.tolist()
    d = [_norm(p, x) for p in rows]
    lo, hi = OFFSET_RANGE
    if not (min(d) > 0.0 and lo <= max(d) <= hi):
        diff = [[a - b for a, b in zip(p, x)] for p in rows]
        mag = max([abs(t) for row in diff for t in row])
        if mag == math.inf:
            raise ValueError("query offsets overflow")
        if not lo <= mag <= hi:
            shift = pow2_shift(mag)
            zero = [0.0] * len(x)
            d = np.ldexp([_norm([math.ldexp(t, shift) for t in row], zero) for row in diff],
                         -shift).tolist()
        if not min(d) > 0.0:
            raise QueryCoincidesWithSample("query equals a sample position")
    return d


def _canonical_order(s: LabeledPointSet) -> list[int]:
    """Sample order that is stable under permutation of the input: by
    position, which LabeledPointSet keeps distinct."""
    return sorted(range(s.size), key=s.points.tolist().__getitem__)


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

    Returns (value, ratio, (i, j)).  Plain-float loops (`_pair_optimum`).
    """
    return _pair_optimum(list(map(float, values)), list(map(float, dists)))


def _pair_optimum(u: list[float], d: list[float]) -> tuple[float, float, tuple[int, int]]:
    """`pairwise_optimum` on lists of floats, which it does not copy: the
    sweep solvers' single step, in their inner loop."""
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
    d = np.array(_distances(s, x))
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
    only when the enumeration reaches it.  Every size class is tested in
    one numpy pass (_stacked_simplex), whatever its number of subsets.
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
        hits = _stacked_simplex(values[None], dists[None], np.zeros(len(subsets), dtype=np.intp),
                                subsets, bq, scales, tol, np.array([dmax]))
        if hits.rows.size:
            return denorm(float(hits.lam[0]), hits.point[0], tuple(hits.active[0].tolist()),
                          hits.coords[0], float(hits.viol[0]))
    raise NoCertifiedSubset(f"no certified subset among {n} samples (m = {m})")


# Classes of fewer biquadratics than this take their roots from
# solve_biquadratic on Python floats, larger ones from solve_biquadratics
# on arrays; the two give the same bits.  Measured on random coefficients,
# the floats cost about 2 us a polynomial and the arrays about 55 us up to
# 100 polynomials; they cross between 24 and 32.
ROOT_CUTOVER = 28
# Rows of (candidate, sample) gaps per domination pass of _stacked_simplex.
GAP_ROWS = 1 << 14


def _size_class(vsq: np.ndarray, dists: np.ndarray, size: int):
    """(subsets, biquadratics, scales) for every subset of the given size in
    lexicographic order, subsets as an int array of shape (K, size), scale
    being the largest squared value distance within the subset (the length
    scale of its equality check)."""
    idx = _subsets(dists.size, size)
    block = vsq[idx[:, :, None], idx[:, None, :]]
    bq = bordered_determinants(block, dists[idx] ** 2)
    return idx, bq, block.max(axis=(1, 2))


def _positive_roots(bq: Biquadratic) -> tuple[np.ndarray, np.ndarray]:
    """(polynomial, lam) for every positive root of a size class's
    biquadratics: the class's candidates, polynomials in order and each
    one's roots ascending.  Fewer than ROOT_CUTOVER polynomials are solved
    one by one (solve_biquadratic), more on arrays (solve_biquadratics)."""
    if len(bq.a) < ROOT_CUTOVER:
        poly, lams = [], []
        for k, coefs in enumerate(zip(bq.a.tolist(), bq.b.tolist(), bq.c.tolist())):
            for lam in solve_biquadratic(Biquadratic(*coefs)):
                if lam > 0.0:
                    poly.append(k)
                    lams.append(lam)
        return np.array(poly, dtype=np.intp), np.array(lams)
    roots, found = solve_biquadratics(bq)
    poly, slot = np.nonzero(found & (roots > 0.0))
    return poly, roots[poly, slot]


class _Hits(NamedTuple):
    """The certified candidate of every row that has one, rows ascending:
    its lam, point, active subset, hull coordinates and violation, on the
    unit scale."""

    rows: np.ndarray
    lam: np.ndarray
    point: np.ndarray
    active: np.ndarray
    coords: np.ndarray
    viol: np.ndarray


def _stacked_simplex(values, dists, owner, subsets, bq, scales, tol, dmax) -> _Hits:
    """The simplex phase's candidate test in one numpy pass over the size
    classes of several rows.

    values (rows, width, m), dists (rows, width) and dmax (rows,) are the
    rows' samples on the unit scale.  Subset k is subsets[k] of row
    owner[k], owner ascending, with biquadratic k of bq and scale
    scales[k]; a row's subsets come in the kernel's order.  A row's winner
    is its first certified candidate (subset, then root ascending).  The
    kernel's own classes are the one-row case, and `KernelBlock` passes
    the rows of a block that no pair certifies.

    Every candidate (subset, positive root) gets its sphere solve, equality
    and hull checks at once.  Each operation is the one that a test of the
    candidate alone (geometry.sphere_point, then 1-d norms) applies, on a
    stack, so a row gets the bits of testing its candidates one at a time
    (the tests keep that loop as the reference): np.linalg.solve and the
    sum of squares per row match their per-matrix forms, a stacked
    np.matmul takes the dot products that sphere_point's `s @ b` and a 1-d
    np.linalg.norm take, and rad[0] ** 2 is squared by C pow on Python
    floats, as sphere_point's numpy-scalar power is.  A singular system
    fails only its own subset.  The domination check, the costly one, runs
    on the survivors in chunks of GAP_ROWS gaps, and a chunk skips the rows
    that an earlier one has decided.
    """
    poly, lam = _positive_roots(bq)
    centers = values[owner[:, None], subsets]
    base = centers[:, 0]
    edge = centers[:, 1:] - base[:, None]
    gram = 2.0 * np.matmul(edge, edge.transpose(0, 2, 1))
    sub, own = poly, owner[poly]
    rad = lam[:, None] * dists[own[:, None], subsets[sub]]
    rad0_sq = np.array([r ** 2 for r in rad[:, 0].tolist()])
    rhs = np.einsum("kij,kij->ki", edge, edge)[sub] + rad0_sq[:, None] - rad[:, 1:] ** 2
    try:
        coef = np.linalg.solve(gram[sub], rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # the stacked solve fails as a whole: drop the singular subsets
        keep = _regular(gram)[sub]
        sub, own, lam, rad, rhs = sub[keep], own[keep], lam[keep], rad[keep], rhs[keep]
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
    decided = np.zeros(len(dists), dtype=bool)
    won, won_viol = [], []
    step = max(1, GAP_ROWS // dists.shape[1])
    for start in range(0, survivors.size, step):
        c = survivors[start:start + step]
        if won:
            c = c[~decided[own[c]]]
        rc = own[c]
        diff = y[c, None, :] - values[rc]
        # np.linalg.norm's own sum of squares, without its argument checks
        gaps = np.sqrt(np.add.reduce(diff * diff, axis=-1)) - lam[c, None] * dists[rc]
        viol = gaps.max(axis=1)
        at = np.flatnonzero(viol <= tol * lam[c] * dmax[rc] + NOISE_TOL)
        if at.size:
            # candidates run row by row: keep each row's first
            at = at[np.concatenate([[True], rc[at[1:]] != rc[at[:-1]]])]
            won.append(c[at])
            won_viol.append(viol[at])
            decided[rc[at]] = True
            if decided.all():
                break
    w = np.concatenate(won) if won else np.zeros(0, dtype=np.intp)
    return _Hits(own[w], lam[w], y[w], subsets[sub[w]], coords[w],
                 np.concatenate(won_viol) if won else np.zeros(0))


def _regular(gram: np.ndarray) -> np.ndarray:
    """Whether np.linalg.solve takes each matrix of a stack on its own.  det
    uses solve's LU: a nonzero det leaves no zero pivot, and the rare zero
    det (singular or underflowed) is tried alone."""
    regular = np.linalg.det(gram) != 0.0
    for si in np.flatnonzero(~regular):
        try:
            np.linalg.solve(gram[si], np.ones(len(gram[si])))
            regular[si] = True
        except np.linalg.LinAlgError:
            pass
    return regular


def _sum_squares(t: np.ndarray) -> np.ndarray:
    """Sum of squares over the first axis, added in coordinate order as the
    kernel's plain-float loops add them."""
    sq = t[0] * t[0]
    for c in range(1, t.shape[0]):
        sq = sq + t[c] * t[c]
    return sq


class KernelBlock:
    """The local rule for a block of neighbourhoods at once.

    Row r of a block holds count[r] samples, padded to the block's width by
    repeats of its first sample (value and distance).  `step` returns for
    every row the point that the per-row rule returns: `pairwise_optimum`'s
    for m = 1, and for m > 1 `minimax_kernel`'s at its default tolerance,
    and on request the active set that the rule returns with it.
    The arithmetic is the per-row code's, operation for operation, so the
    points agree bit for bit.  For m > 1 the constant test and the pair
    phase run on every row, and a block whose rows are all constant ends
    after the constant test.  A repeat changes no maximum, and every pair
    it forms ties with an earlier pair or is never steepest, so they need
    no mask.  The rows that they leave go through the simplex phase, one
    stacked pass per subset size, sizes ascending, from the pair phase's
    unit-scale values, spread, centre and pair distances: the kernel's own
    pass (`_stacked_simplex`), on several rows at once, with the subsets
    that hold a repeat masked.  Rows that no subset certifies,
    where the kernel raises NoCertifiedSubset, are reported as not
    certified.
    """

    def __init__(self, dists: np.ndarray, count: np.ndarray):
        self.dists = dists
        self.count = count
        self.rows = np.arange(dists.shape[0])
        self.first, self.second = _pair_indices(dists.shape[1])  # row-major pairs
        self.sums = dists[:, self.first] + dists[:, self.second]
        self._classes: dict[int, tuple] = {}

    @cached_property
    def _unit(self):
        """The kernel's distances on the unit scale, at the first and the
        second sample of every pair, their pair sums and row maxima, and the
        columns that the centre's sum adds: None where no row pads the
        column, else a mask of the rows that do not."""
        unit = self.dists / self.dists.max(axis=1)[:, None]
        padded = [(k, None if (self.count > k).all() else self.count > k)
                  for k in range(1, self.dists.shape[1])]
        di, dj = unit[:, self.first], unit[:, self.second]
        return unit, di, dj, di + dj, unit.max(axis=1), padded

    def _class_constants(self, size: int):
        """The subsets of the block's columns of one size in lexicographic
        order, whether each lies within each row's samples, and each row's
        squared unit distances over each: (subsets, inside, r2), built once
        per block."""
        if size not in self._classes:
            subsets = _subsets(self.dists.shape[1], size)
            self._classes[size] = (subsets, subsets[:, -1] < self.count[:, None],
                                   self._unit[0][:, subsets] ** 2)
        return self._classes[size]

    def step(self, values: np.ndarray, active: bool = False):
        """(points, certified) for values of shape (m, rows, width): points
        of shape (rows, m), and whether some subset certifies each row.
        With active, also each row's active set, as the columns of an int
        array of shape (rows, m + 1): those of its certified pair or
        subset, ascending, then -1s.  A constant row (every sample equal;
        for m = 1 a steepest pair of ratio 0) reads (0, -1, ...), and a row
        that no subset certifies all -1s."""
        m, n, width = values.shape
        sets = np.full((n, m + 1), -1, dtype=np.intp) if active else None
        certified = np.ones(n, dtype=bool)
        if width == 1:
            points = values[:, :, 0].T.copy()
            if active:
                sets[:, 0] = 0
        else:
            with np.errstate(all="ignore"):
                if m == 1:
                    points = self._scalar(values[0], sets)
                else:
                    points, certified = self._vector(values, sets)
        return (points, certified, sets) if active else (points, certified)

    def _scalar(self, u: np.ndarray, sets: np.ndarray | None) -> np.ndarray:
        first, second, rows = self.first, self.second, self.rows
        ratio = np.abs(u[:, first] - u[:, second]) / self.sums
        k = np.argmax(ratio, axis=1)
        bi, bj = first[k], second[k]
        ui, uj = u[rows, bi], u[rows, bj]
        di, dj = self.dists[rows, bi], self.dists[rows, bj]
        point = (dj * ui + di * uj) / (di + dj)
        # a single sample is its own optimum (pairwise_optimum's n == 1)
        single = self.count == 1
        if sets is not None:
            flat = single | (ratio[rows, k] == 0.0)
            sets[:, 0] = np.where(flat, 0, bi)
            sets[:, 1] = np.where(flat, -1, bj)
        return np.where(single, u[:, 0], point)[:, None]

    def _vector(self, values: np.ndarray, sets: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        first, second, rows = self.first, self.second, self.rows
        unit, di, dj, unit_sums, unit_max, padded = self._unit
        # _spread: the largest scaled pair distance and the constant test
        vmag = np.abs(values).max(axis=(0, 2))
        shift = np.minimum(-np.frexp(vmag)[1], 1022)  # pow2_shift, row by row
        sc = np.ldexp(1.0, shift)
        sq = _sum_squares((values[:, :, first] - values[:, :, second]) * sc[:, None])
        top = np.sqrt(sq.max(axis=1))
        spread = np.ldexp(top, -shift)
        constant = top <= CONSTANT_TOL * np.maximum(vmag * sc, top)
        if sets is not None:
            sets[constant, 0] = 0
        if constant.all():
            return values[:, :, 0].T.copy(), np.ones(values.shape[1], dtype=bool)
        # centre and rescale
        center = values[:, :, 0]
        for k, ok in padded:
            added = center + values[:, :, k]
            center = added if ok is None else np.where(ok, added, center)
        center = center / self.count
        vals = (values - center[:, :, None]) / spread[:, None]
        # pair phase: the first steepest pair sets the floor, and the first
        # pair at or above it whose candidate dominates every sample wins
        vi, vj = vals[:, :, first], vals[:, :, second]
        dist = np.sqrt(_sum_squares(vi - vj))
        lam = dist / unit_sums
        k = np.argmax(lam, axis=1)
        lam_max, span = lam[rows, k], unit_sums[rows, k]
        floor = lam_max - 4.0 * (CERT_TOL * lam_max * unit_max + NOISE_TOL) / span
        point = (dj * vi + di * vj) / unit_sums
        thr = CERT_TOL * lam * unit_max[:, None] + NOISE_TOL
        gap = (np.sqrt(_sum_squares(point[:, :, :, None] - vals[:, :, None, :]))
               - lam[:, :, None] * unit[:, None, :])
        certified = ~(lam < floor[:, None]) & (gap <= thr[:, :, None]).all(axis=2)
        k = np.argmax(certified, axis=1)
        out = center + point[:, rows, k] * spread
        out = np.where(constant, values[:, :, 0], out)
        done = constant | certified[rows, k]
        if sets is not None:
            paired = done & ~constant
            sets[paired, 0], sets[paired, 1] = first[k[paired]], second[k[paired]]
        left = np.flatnonzero(~done)
        if left.size:
            hit, y, subsets = self._simplex(vals[:, left].transpose(1, 2, 0), dist[left], left)
            won = left[hit]
            out[:, won] = center[:, won] + y.T * spread[won]
            if sets is not None:
                sets[won] = subsets
            done[won] = True
        return out.T, done

    def _simplex(self, values: np.ndarray, dist: np.ndarray, left: np.ndarray):
        """The simplex phase of the block's rows `left`, from their values
        (rows, width, m) and pair distances on the unit scale: whether some
        subset certifies each row, and the points and subsets (padded with
        -1 to m + 1 columns) of those that it does."""
        unit, _, _, _, unit_max, _ = self._unit
        dists, dmax = unit[left], unit_max[left]
        width, m = values.shape[1:]
        vsq = np.zeros((len(left), width, width))
        vsq[:, self.first, self.second] = vsq[:, self.second, self.first] = dist * dist
        hit = np.zeros(len(left), dtype=bool)
        points = np.empty((len(left), m))
        subsets_won = np.full((len(left), m + 1), -1, dtype=np.intp)
        todo = np.arange(len(left))
        for size in range(3, min(m + 1, width) + 1):
            subsets, inside, r2 = self._class_constants(size)
            owner, which = np.nonzero(inside[left[todo]])
            if not owner.size:
                break
            owner = todo[owner]
            idx = subsets[which]
            block = vsq[owner[:, None, None], idx[:, :, None], idx[:, None, :]]
            bq = bordered_determinants(block, r2[left[owner], which])
            hits = _stacked_simplex(values, dists, owner, idx, bq, block.max(axis=(1, 2)),
                                    CERT_TOL, dmax)
            hit[hits.rows] = True
            points[hits.rows] = hits.point
            subsets_won[hits.rows, :size] = hits.active
            todo = todo[~hit[todo]]
            if not todo.size:
                break
        return hit, points[hit], subsets_won[hit]


def kpoint_vector(s: LabeledPointSet, x, tol: float = CERT_TOL) -> KPointResult:
    """Minimax value for vector samples via certified subset enumeration."""
    d = _distances(s, x)
    order = _canonical_order(s)
    lam, point, active_local, coords, viol = minimax_kernel(
        s.values[order], [d[i] for i in order], tol
    )
    pairs = sorted(zip((order[a] for a in active_local), coords.tolist()))
    active = tuple(p[0] for p in pairs)
    hull = np.array([p[1] for p in pairs])
    return KPointResult(_finite(lam), point, active, viol, hull)


def _finite(lam: float) -> float:
    """lam, or ValueError when the answer overflows: finite samples and
    query distances can still make the ratio exceed the largest float."""
    if not math.isfinite(lam):
        raise ValueError("the answer overflows: lam is not finite")
    return lam


def certificate_check(s: LabeledPointSet, x, lambda0: float, point0, subset, tol: float = CERT_TOL) -> bool:
    """Equality on the subset, domination everywhere, point in the hull."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    d = np.array(_distances(s, x))
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


def _max_ratio(y, rows, d) -> float:
    """Largest ratio ||y - u_i|| / d_i over rows u_i, on floats."""
    return max([_norm(y, u) / di for u, di in zip(rows, d)])


# ---------------------------------------------------------------------------
# epigraph polish: active-set Newton on the KKT system of min t s.t.
# k_i ||y - u_i|| <= t
# ---------------------------------------------------------------------------

# A working set W is accepted when its multipliers are >= -KKT_TOL and its
# point satisfies k_i ||y - u_i|| <= t (1 + KKT_TOL) on the samples it must
# cover; Newton stops when its step in (y, t) is at most STEP_TOL max(1, |t|).
# Over C06 and the `kpoint-check` corpora of seeds 1-10 (5500 queries), every
# Newton solve that gave nonnegative multipliers took 4 to 9 steps; those
# that converged to a negative multiplier, which the polish rejects, took 5
# to 11 or 19, and a triple with no equal-ratio point never converges.  NEWTON_ITERS is about twice
# the longest certifying solve.
KKT_TOL = 1e-12
STEP_TOL = 1e-14
NEWTON_ITERS = 16
PIVOT_ITERS = 100


def _kkt_newton(u: np.ndarray, k: np.ndarray, y: np.ndarray):
    """Newton's method on the KKT system of min t s.t. k_i ||y - u_i|| <= t
    with every row of u active, started at y; u has three or more rows (a
    pair has a closed form, _kkt_pair).

    The unknowns are y, t and the multipliers w; the equations are
    sum_i w_i k_i n_i = 0 (n_i the unit vector from u_i to y), sum_i w_i = 1
    and k_i ||y - u_i|| = t.  w starts as the least-squares multipliers at
    y, clipped to >= 0 and renormalised.  Returns (y, t, w), or None on a
    singular system, a non-finite value, a zero distance or no convergence.
    """
    s, m = u.shape
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
    if not (math.isfinite(t) and np.isfinite(y).all() and np.isfinite(w).all()):
        return None
    return y, t, w


def _kkt_pair(u: list[list[float]], k: list[float]):
    """Exact KKT point of min t s.t. k_i ||y - u_i|| <= t for two rows, on
    floats: y on the segment with k_0 r_0 = k_1 r_1, that is y = (k_0 u_0 +
    k_1 u_1) / (k_0 + k_1), t = k_0 k_1 ||u_1 - u_0|| / (k_0 + k_1) and w =
    (k_1, k_0) / (k_0 + k_1).  Returns None on coincident rows or a
    non-finite value."""
    (u0, u1), (k0, k1) = u, k
    ks = k0 + k1
    dist = _norm(u1, u0)
    y = [(k0 * a + k1 * b) / ks for a, b in zip(u0, u1)]
    t = k0 * k1 * dist / ks
    if not (dist > 0.0 and math.isfinite(t) and all(map(math.isfinite, y))):
        return None
    return y, t, [k1 / ks, k0 / ks]


def _share_no_point(u: np.ndarray, k: np.ndarray) -> bool:
    """Whether the ratio spheres k_i ||y - u_i|| = t of a working set surely
    meet in no point of its rows' affine hull, where every KKT point of the
    set lies: the rows span a simplex, and the bordered determinant with
    radii t d_i, d_i = 1 / k_i, a biquadratic in t, has no root.  A test
    that is unsure reports a common point: a degenerate simplex, or a
    discriminant within rounding of zero, which solve_biquadratic takes
    for a double root."""
    return is_simplex(u) and not solve_biquadratic(biquadratic_coefficients(u, 1.0 / k))


def minimize(unit: np.ndarray, k: np.ndarray, y0: np.ndarray) -> np.ndarray | None:
    """Epigraph polish: the point y minimizing max_i k_i ||y - u_i|| (the
    rows of unit), by an active-set pivot from y0, or None if no working
    set certifies.

    Each working set W of at most m + 1 samples is solved exactly: a pair
    in closed form (_kkt_pair), a larger set by Newton (_kkt_newton) from
    the current point, and again from the k-weighted centroid of W when
    that gives a negative multiplier, or fails on a set whose ratio spheres
    may share a point (_share_no_point).  The first W is the shortest
    prefix of size 2 ... m + 1 of the samples ranked by their ratio at y0
    whose solution is a KKT point that covers the prefix, and else the top
    sample alone (y = u_i, t = 0).  While some sample j
    violates the solution, W becomes the first subset of W + {j} holding j,
    by ascending size, whose solution is a KKT point covering W + {j} with
    t no lower than before; the optimum over W + {j} is such a subset, and
    t never decreases, so the pivot cannot cycle.  The returned point is
    certified: a KKT point of W that covers every sample.

    The pivot runs on Python floats, which for the few samples of a query
    cost less than numpy calls; arrays are built only for Newton on three
    or more samples.  Every solution's ratios are taken once, over all
    samples, and serve both its cover test and the pivot's search for a
    violated sample.  The top-ranked pair, which certifies most queries, is
    certified by that one pass before the pivot starts.
    """
    unit, k, y0 = unit.tolist(), k.tolist(), y0.tolist()
    if not all(map(math.isfinite, chain(k, y0, *unit))):
        return None
    n, m = len(unit), len(y0)

    def ratios(y):
        return [ki * _lane_norm(y, u) for u, ki in zip(unit, k)]

    def solve(ws, y, cover, floor):
        """(y, t, ratios at y) for W = ws when its solution is a KKT point
        with t >= floor that covers the samples `cover`, else None."""
        if len(ws) == 2:
            sol = _kkt_pair([unit[i] for i in ws], [k[i] for i in ws])
        else:
            uw, kw = np.array([unit[i] for i in ws]), np.array([k[i] for i in ws])
            sol = _kkt_newton(uw, kw, np.array(y))
            if sol is None and _share_no_point(uw, kw):
                return None
            if sol is None or sol[2].min() < -KKT_TOL:
                sol = _kkt_newton(uw, kw, kw @ uw / kw.sum())
            if sol is not None:
                sol = sol[0].tolist(), sol[1], sol[2].tolist()
        if sol is None or not (sol[1] >= floor and min(sol[2]) >= -KKT_TOL):
            return None
        r = ratios(sol[0])
        return (sol[0], sol[1], r) if max([r[i] for i in cover]) <= sol[1] * (1.0 + KKT_TOL) else None

    r0 = ratios(y0)
    rank = sorted(range(n), key=r0.__getitem__, reverse=True)
    ws, sol = rank[:2], None
    pair = _kkt_pair([unit[i] for i in ws], [k[i] for i in ws]) if n > 1 else None
    if pair is not None:
        y, t, _ = pair
        r = ratios(y)
        bound = t * (1.0 + KKT_TOL)
        if max(r) <= bound:
            return np.array(y)
        if max([r[i] for i in ws]) <= bound:
            sol = y, t, r
    if sol is None:
        for size in range(3, min(n, m + 1) + 1):
            ws = rank[:size]
            sol = solve(ws, y0, ws, -math.inf)
            if sol is not None:
                break
        else:
            ws = rank[:1]
            y = list(unit[ws[0]])
            sol = y, 0.0, ratios(y)
    y, t, r = sol
    for _ in range(PIVOT_ITERS):
        j = max(range(n), key=r.__getitem__)
        if r[j] <= t * (1.0 + KKT_TOL):
            return np.array(y)
        cover = ws + [j]
        subsets = (list(rest) + [j] for size in range(1, min(len(ws), m) + 1)
                   for rest in combinations(ws, size))
        for cand in subsets:
            sol = solve(cand, y, cover, t)
            if sol is not None:
                break
        else:
            return None
        ws, (y, t, r) = cand, sol
    return None


def kpoint_oracle(s: LabeledPointSet, x) -> KPointResult:
    """Minimax value by an exact epigraph polish.

    The polish (minimize) solves min t s.t. ||y - f_i|| <= t * d_i from the
    steepest pair's weighted point (d_j f_i + d_i f_j) / (d_i + d_j), the
    pair maximising ||f_i - f_j|| / (d_i + d_j), and certifies its point
    with the KKT conditions.  Its point is kept when it does not worsen the
    minimax ratio of that start by more than 1e-9 relative.  Otherwise (no
    certified point, or a worse one) the start itself is returned, with a
    warning on the lipext.kpoint logger.  Either way lam is the largest
    ratio at the returned point, an upper bound on the optimum.  Values and
    distances are scaled by powers of two on entry and back on exit, so no
    square overflows or underflows at extreme scales.  The values'
    scaling, their centre and the unit values are taken on arrays, the rest
    on Python floats, but for Newton on three or more samples.
    """
    d = _distances(s, x)
    raw = s.values.tolist()
    spread, constant = _spread(raw)
    if s.size == 1 or constant:
        point = s.values[0].copy()
        return KPointResult(0.0, point, (0,), 0.0, np.array([1.0]))
    n = s.size
    vshift = pow2_shift(max([abs(v) for row in raw for v in row]))
    dshift = pow2_shift(max(d))
    values = np.ldexp(s.values, vshift)
    rows = values.tolist()
    d = [math.ldexp(di, dshift) for di in d]
    spread = math.ldexp(spread, vshift)
    # the polish works in units where every quantity is of order one: the
    # point as (y - center) / spread, and t as a multiple of the start's
    # ratio t0, so constraint i reads t >= k_i ||y - u_i|| with
    # k_i = 1 / (t0 d_i).  The start and the guard are taken in these units
    # too: in the scaled frame the rounding of values far larger than their
    # spread can exceed the guard's 1e-9.
    center = np.add.reduce(values, axis=0) / n  # values.mean(axis=0)
    unit_array = (values - center) / spread
    center, unit = center.tolist(), unit_array.tolist()
    # the steepest pair: the first largest ratio in row-major order
    best, a, b = -1.0, 0, 0
    for i in range(n):
        ui, di = unit[i], d[i]
        for j in range(i + 1, n):
            ratio = _norm(ui, unit[j]) / (di + d[j])
            if ratio > best:
                best, a, b = ratio, i, j
    da, db = d[a], d[b]
    z0 = [(db * p + da * q) / (da + db) for p, q in zip(unit[a], unit[b])]
    t0 = _max_ratio(z0, unit, d)
    z = minimize(unit_array, np.array([1.0 / (t0 * di) for di in d]), np.array(z0))
    z = None if z is None else z.tolist()
    if z is None or _max_ratio(z, unit, d) > t0 * (1.0 + 1e-9):
        log.warning("oracle polish certified no point at query %s; "
                    "keeping the steepest pair's weighted point", np.asarray(x).tolist())
        z = z0
    point = [c + spread * p for c, p in zip(center, z)]
    lam, active, viol, hull = _oracle_tail(rows, d, point)
    try:
        lam = math.ldexp(lam, dshift - vshift)
    except OverflowError:
        lam = math.inf
    return KPointResult(_finite(lam), np.ldexp(point, -vshift), active, math.ldexp(viol, -vshift), hull)


def _oracle_tail(rows: list[list[float]], d: list[float], point: list[float]):
    """(lam, active, max_violation, hull_coords) of the oracle's point in
    its scaled frame, on floats: lam the largest ratio ||point - f_i|| /
    d_i, the samples within 1e-6 of it, the largest ||point - f_i|| - lam
    d_i and the active samples' hull coordinates.  One pass over the
    point's sample distances serves all four."""
    dist = [_norm(point, f) for f in rows]
    ratios = [di / dd for di, dd in zip(dist, d)]
    lam = max(ratios)
    active = tuple(i for i, r in enumerate(ratios) if r >= lam * (1.0 - 1e-6))
    viol = max([di - lam * dd for di, dd in zip(dist, d)])
    if len(active) == 1:
        hull = np.array([1.0])
    elif len(active) == 2:
        # the ratio of the distances: the coordinates of a point on the
        # segment between the two, where a certified polish puts it
        da, db = dist[active[0]], dist[active[1]]
        hull = np.array([db / (da + db), da / (da + db)])
    else:
        hull = _nnls_hull_coords(np.array([rows[i] for i in active]), np.array(point))
    return lam, active, viol, hull


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
