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
from itertools import combinations

import numpy as np

from .errors import NoCertifiedSubset, QueryCoincidesWithSample
from .geometry import (
    HULL_TOL,
    Biquadratic,
    bordered_determinants,
    in_convex_hull,
    is_simplex,
    solve_biquadratic,
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
    vshift = _pow2_shift(float(np.abs(s.values).max()))
    pshift = _pow2_shift(float(np.abs(s.points).max()))
    vals = np.ldexp(s.values, vshift)
    pts = np.ldexp(s.points, pshift)
    best = 0.0
    for i in range(s.size):
        for j in range(i + 1, s.size):
            num = float(np.linalg.norm(vals[i] - vals[j]))
            den = float(np.linalg.norm(pts[i] - pts[j]))
            best = max(best, num / den)
    return float(np.ldexp(best, pshift - vshift))


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


def _distances(s: LabeledPointSet, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (s.points.shape[1],):
        raise ValueError(f"query dimension {x.shape} does not match positions")
    d = np.linalg.norm(s.points - x, axis=1)
    if np.any(d == 0.0):
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
    shift = _pow2_shift(vmag)
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


def _pow2_shift(mag: float) -> int:
    """Exponent of the power of two that brings mag into [0.5, 1)."""
    return min(-math.frexp(mag)[1], 1022)


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
    only when the enumeration reaches it.
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
        for si, subset in enumerate(subsets):
            js = list(subset)
            centers = values[js]
            dj = dists[js]
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
                if viol <= tol * lam * dmax + noise:
                    return denorm(lam, y, subset, coords, viol)
    raise NoCertifiedSubset(f"no certified subset among {n} samples (m = {m})")


def _size_class(vsq: np.ndarray, dists: np.ndarray, size: int):
    """(subsets, biquadratics, scales) for every subset of the given size in
    lexicographic order, scale being the largest squared value distance
    within the subset (the length scale of its equality check)."""
    subsets = list(combinations(range(dists.size), size))
    idx = np.array(subsets)
    block = vsq[idx[:, :, None], idx[:, None, :]]
    bq = bordered_determinants(block, dists[idx] ** 2)
    return subsets, bq, block.max(axis=(1, 2))


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
# An undecided probe ends the bisection, as do the global cycle budget and
# an interval below 1e-9 relative.  The bisection supplies only a start:
# its last feasible point ranks the samples for the polish's first working
# set.  The accuracy comes from the polish (minimize), an exact active-set
# solve that certifies its point with the KKT conditions, so the patience
# is short.
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
    """
    s, m = u.shape
    if s == 1:
        return u[0].copy(), 0.0, np.ones(1)
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


def minimize(unit: np.ndarray, k: np.ndarray, y0: np.ndarray) -> np.ndarray | None:
    """Epigraph polish: the point y minimizing max_i k_i ||y - u_i|| (the
    rows of unit), by an active-set pivot from y0, or None if no working
    set certifies.

    Each working set W of at most m + 1 samples is solved exactly by
    _kkt_newton from the current point, and again from the k-weighted
    centroid of W (the exact optimum of a pair) when that fails or gives a
    negative multiplier.  The first W is
    the shortest prefix of size 2 ... m + 1 of the samples ranked by their
    ratio at y0 whose solution is a KKT point that covers the prefix, and
    else the top sample alone (y = u_i, t = 0).  While some sample j
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


def kpoint_oracle(s: LabeledPointSet, x, tol: float = 1e-7) -> KPointResult:
    """Minimax value by bisection on lam with ball-feasibility tests, then
    an exact epigraph polish.

    Bisection sets hi at probes that cyclic projection shows feasible and
    moves lo only at probes proven infeasible by a dual certificate (see
    _separated).  The first undecided probe, the cycle budget or a 1e-9
    relative interval ends it, so its last feasible point is only a start.
    The polish (minimize) solves min t s.t. ||y - f_i|| <= t * d_i from that
    start and certifies its point with the KKT conditions; it supplies the
    accuracy.  Its point is kept only when it does not worsen the minimax
    ratio of the bisection's point.  Values and distances are scaled by
    powers of two on entry and back on exit, so no square overflows or
    underflows at extreme scales.
    """
    d = _distances(s, x)
    n, m = s.values.shape
    spread, constant = _spread(s.values.tolist())
    if n == 1 or constant:
        point = s.values[0].copy()
        return KPointResult(0.0, point, (0,), 0.0, np.array([1.0]))
    vshift = _pow2_shift(float(np.abs(s.values).max()))
    dshift = _pow2_shift(float(d.max()))
    values = np.ldexp(s.values, vshift)
    d = np.ldexp(d, dshift)
    spread = math.ldexp(spread, vshift)
    lip = math.ldexp(lip_constant(s), vshift - dshift)
    # the bisection works relative to the mean value, which keeps the
    # certificates' rounding error on the scale of the spread
    center = values.mean(axis=0)
    fvals = [tuple(row) for row in values - center]
    dl = [float(v) for v in d]
    lo, hi = 0.0, lip
    y = [0.0] * m
    ybest = list(y)
    budget = CYCLE_BUDGET
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if budget <= 0 or mid <= lo or mid >= hi or (hi - lo) <= INTERVAL_REL * hi:
            break
        outcome, ynew, used = _project_cycles(
            mid, y, fvals, dl, tol / 10.0 * mid, cap=budget
        )
        budget -= used
        if outcome is Feasibility.UNDECIDED:
            break
        y = ynew
        if outcome is Feasibility.FEASIBLE:
            hi = mid
            ybest = list(ynew)
        else:
            lo = mid
    yb = center + np.asarray(ybest)
    ratio_b = _max_ratio(yb, values, d)

    # the polish works in units where every quantity is of order one: the
    # point as (y - center) / spread, and t as a multiple of ratio_b, so
    # constraint i reads t >= k_i ||y - u_i|| with k_i = spread / (ratio_b d_i)
    lam, point = ratio_b, yb
    z = minimize((values - center) / spread, spread / (ratio_b * d), (yb - center) / spread)
    if z is not None:
        yp = center + spread * z
        ratio_p = _max_ratio(yp, values, d)
        if ratio_p <= ratio_b * (1.0 + 1e-9):
            lam, point = ratio_p, yp

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
