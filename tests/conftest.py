import copy
import math
from itertools import accumulate

import numpy as np
import pytest

from lipext.graph import Graph


def path_graph(values=(0.0, 3.0), n=4):
    """Unit-spaced path v0 - v1 - ... with labeled ends."""
    ids = [f"v{i}" for i in range(n)]
    vertices = {vid: [float(i)] for i, vid in enumerate(ids)}
    edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    return Graph(vertices, edges, [ids[0], ids[-1]], {ids[0]: values[0], ids[-1]: values[1]})


def star_graph(leaf_values=(0.0, 4.0, 10.0)):
    """Center with unit spokes to labeled leaves."""
    k = len(leaf_values)
    vertices = {"c": [0.0, 0.0]}
    edges = []
    boundary = {}
    for i, val in enumerate(leaf_values):
        ang = 2 * np.pi * i / k
        leaf = f"l{i}"
        vertices[leaf] = [np.cos(ang), np.sin(ang)]
        edges.append(("c", leaf, 1.0))
        boundary[leaf] = val
    return Graph(vertices, edges, boundary.keys(), boundary)


def grid_graph(n, boundary_fn=lambda x, y: x):
    """n x n lattice on the unit square, 4-neighbor edges, perimeter labeled."""
    h = 1.0 / (n - 1)
    vertices = {}
    edges = []
    boundary = {}
    for i in range(n):
        for j in range(n):
            vid = f"g{i:02d}_{j:02d}"
            x, y = i * h, j * h
            vertices[vid] = [x, y]
            if i > 0:
                edges.append((f"g{i-1:02d}_{j:02d}", vid))
            if j > 0:
                edges.append((f"g{i:02d}_{j-1:02d}", vid))
            if i in (0, n - 1) or j in (0, n - 1):
                boundary[vid] = boundary_fn(x, y)
    return Graph(vertices, edges, boundary.keys(), boundary)


def random_graph(rng, max_vertices=60, m=1, extra_edge_factor=0.5):
    """Connected random graph: spanning tree plus extra edges.

    Positions are uniform in the unit square, the boundary is a random
    subset of size in [1, |V|/2], boundary values are uniform in [0, 1]^m.
    """
    n = int(rng.integers(2, max_vertices + 1))
    ids = [f"v{i:03d}" for i in range(n)]
    vertices = {vid: rng.uniform(0, 1, size=2) for vid in ids}
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(extra_edge_factor * n)):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    n_bdy = int(rng.integers(1, max(2, n // 2 + 1)))
    bdy = rng.choice(n, size=n_bdy, replace=False)
    boundary = {ids[int(i)]: rng.uniform(0, 1, size=m) for i in bdy}
    return Graph(vertices, [(ids[a], ids[b]) for a, b in sorted(edges)],
                 boundary.keys(), boundary)


def colour_order(g):
    """The interior of g in (colour class, id) order, the classes those of
    a greedy colouring of the interior in id order: the order in which the
    sweep solvers replace the interior."""
    colour = {}
    for v in g.interior():
        used = {colour.get(w) for w, _ in g.neighbors(v)}
        colour[v] = next(c for c in range(len(used) + 1) if c not in used)
    return sorted(g.interior(), key=lambda v: (colour[v], v))


@pytest.fixture
def path4():
    return path_graph()


@pytest.fixture
def star3():
    return star_graph()


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def looped_simplex(values, dists, owner, subsets, bq, scales, tol, dmax):
    """kpoint._stacked_simplex's one-row case (a size class of
    minimax_kernel) tested one candidate at a time: subsets in order, each
    one's positive roots ascending, through geometry.sphere_point and 1-d
    norms, and the first certified candidate wins.  The bitwise reference
    for the stacked pass; returns kpoint._Hits."""
    from lipext import kpoint
    from lipext.geometry import HULL_TOL, Biquadratic, solve_biquadratic, sphere_point

    assert not owner.any()
    values, dists, dmax = values[0], dists[0], float(dmax[0])
    coefficients = zip(bq.a.tolist(), bq.b.tolist(), bq.c.tolist())
    for si, (subset, coefs) in enumerate(zip(subsets.tolist(), coefficients)):
        centers = values[subset]
        dj = dists[subset]
        for lam in solve_biquadratic(Biquadratic(*coefs)):
            if lam <= 0.0:
                continue
            rad = lam * dj
            try:
                coef, y = sphere_point(centers, rad)
            except np.linalg.LinAlgError:
                continue
            lscale = max(float(rad.max()), math.sqrt(float(scales[si])))
            if abs(float(np.linalg.norm(y - centers[0])) - rad[0]) > kpoint.CERT_TOL * lscale:
                continue
            coords = np.concatenate([[1.0 - coef.sum()], coef])
            if coords.min() < -HULL_TOL:
                continue
            viol = float(np.max(np.linalg.norm(y - values, axis=1) - lam * dists))
            if viol <= tol * lam * dmax + kpoint.NOISE_TOL:
                return kpoint._Hits(np.array([0]), np.array([lam]), y[None], np.array([subset]),
                                    coords[None], np.array([viol]))
    size = subsets.shape[1]
    return kpoint._Hits(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros((0, values.shape[1])),
                        np.zeros((0, size), dtype=np.intp), np.zeros((0, size)), np.zeros(0))


def nnls_hull_coords(vertices, y):
    """Nonnegative weights summing to one that best reconstruct y, by
    scipy.optimize.nnls: an independent check of the oracle's hull
    coordinates, which it takes from its own certificate."""
    from scipy.optimize import nnls

    scale = max(float(np.abs(vertices).max()), 1e-300)
    a = np.vstack([vertices.T / scale, np.ones(vertices.shape[0])])
    b = np.concatenate([np.asarray(y, dtype=float) / scale, [1.0]])
    try:
        w, _ = nnls(a, b)
    except RuntimeError:
        return None
    return w


def reference_hull_gap(g, u):
    """vector.boundary_hull_gap as it was before its facet test: every
    value reconstructed from the boundary values by scipy.optimize.nnls.
    The reference for the gaps and witnesses of the facet test and its
    nnls fallback."""
    from scipy.optimize import nnls

    from lipext.graph import as_vertex_function

    u = as_vertex_function(u)
    bvals = np.array([g.boundary_values[b] for b in sorted(g.omega)])
    center = bvals.mean(axis=0)
    spread = float(np.linalg.norm(bvals - center, axis=1).max())
    vmag = max(float(np.abs(bvals).max()), *(float(np.abs(u[v]).max()) for v in g.ids))
    noise = 1e-13 * vmag
    scale = max(spread, noise, 1e-300)
    a = np.vstack([(bvals - center).T / scale, np.ones(len(bvals))])
    worst, witness = 0.0, None
    for v in g.ids:
        b = np.concatenate([(u[v] - center) / scale, [1.0]])
        _, rnorm = nnls(a, b)
        gap = max(0.0, float(rnorm) * scale - noise) / scale
        if gap > worst:
            worst, witness = gap, v
    return worst, witness


def reference_edge_table(g):
    """The edges of g in sorted key order as (keys, heads, tails, lengths),
    heads and tails indexing g.ids: the table of `Graph.indexed`, built
    without it."""
    index = {v: i for i, v in enumerate(g.ids)}
    keys = sorted(g.lengths)
    return (keys, np.array([index[a] for a, _ in keys], dtype=np.intp),
            np.array([index[b] for _, b in keys], dtype=np.intp),
            np.array([g.lengths[k] for k in keys], dtype=float))


def reference_plan(g):
    """(rows, start, cols, lengths) of g's interior, built from
    g.neighbors: the k-th interior vertex in id order is g.ids[rows[k]],
    and its neighbours' indices and edge lengths are cols and lengths from
    start[k] to start[k + 1], in `neighbors` order."""
    index = {v: i for i, v in enumerate(g.ids)}
    adj = [g.neighbors(v) for v in g.interior()]
    return ([index[v] for v in g.interior()], list(accumulate(map(len, adj), initial=0)),
            [index[w] for a in adj for w, _ in a], [ln for a in adj for _, ln in a])


def reference_boundary_ratio(g):
    """The boundary data's largest ratio |f(b) - f(a)| / d(a, b) over pairs
    a < b at a finite positive distance, d read from a's row, as
    scalar.verify_extension searched it before its search was limited:
    the graph built by scipy from (row, column) pairs, every boundary row
    in blocks of scalar.SOURCE_BLOCK, no distance limit, and the first
    maximum of each block kept only when it beats the last."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    from lipext.scalar import SOURCE_BLOCK

    ids = g.ids
    _, heads, tails, lengths = reference_edge_table(g)
    n = len(ids)
    graph = csr_array((np.concatenate([lengths, lengths]),
                       (np.concatenate([heads, tails]), np.concatenate([tails, heads]))),
                      shape=(n, n))
    omega = np.array([i for i, x in enumerate(ids) if x in g.omega], dtype=np.intp)
    f = np.array([float(g.boundary_values[ids[i]][0]) for i in omega])
    best = -1.0
    cols = np.arange(f.size)
    for start in range(0, f.size, SOURCE_BLOCK):
        r = np.arange(start, min(start + SOURCE_BLOCK, f.size))
        dist = dijkstra(graph, directed=True, indices=omega[r])[:, omega]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.abs(f - f[r][:, None]) / dist
        slope[np.isinf(dist) | (dist == 0.0)] = -1.0
        slope[cols <= r[:, None]] = -1.0
        top = slope.flat[np.argmax(slope)]
        if top > best:
            best = float(top)
    return max(0.0, best)


def reference_verify_extension(g, u, tol=1e-9):
    """scalar.verify_extension with the boundary search of
    `reference_boundary_ratio`."""
    from lipext.graph import steepest_edge
    from lipext.scalar import VerifyReport, _boundary_range, maximum_principle
    from lipext.vector import _worst_move

    lo, hi, scaled = _boundary_range(g, tol)
    worst, witness = _worst_move(g, u)
    mp_ok, mp_witness = maximum_principle(g, u, tol)
    edges = reference_edge_table(g)
    interior_ratio, k = steepest_edge(edges, np.array([u[x] for x in g.ids], dtype=float))
    boundary_ratio = reference_boundary_ratio(g)
    geodesic_ok = interior_ratio <= boundary_ratio * (1.0 + tol) + (0.0 if hi - lo > 0.0 else tol)
    return VerifyReport(worst, worst <= scaled, None if worst <= scaled else witness, mp_ok,
                        mp_witness, interior_ratio, boundary_ratio, geodesic_ok,
                        None if geodesic_ok or k < 0 else edges[0][k], tol)


def assert_same_report(a, b):
    """Two VerifyReports equal field for field, NaN matching NaN."""
    assert type(a) is type(b)
    for name, x in vars(a).items():
        y = getattr(b, name)
        assert x == y or (x != x and y != y), (name, x, y)


def reference_oracle_tail(values, d, point, cert):
    """kpoint._oracle_tail as it was before it shared one distance pass:
    lam, the active set and the violation from three norm passes, and the
    active set's hull coordinates by nnls whatever its size (the
    certificate is ignored), on arrays made from the scaled rows, distances
    and point that the oracle passes.  The reference for the one-pass tail
    and its hull coordinates; run it with kpoint.NEWTON_ITERS at its former
    40."""
    values, d, point = np.array(values), np.array(d), np.array(point)
    lam = float(np.max(np.linalg.norm(point - values, axis=1) / d))
    ratios = np.linalg.norm(point - values, axis=1) / d
    active = tuple(int(i) for i in np.flatnonzero(ratios >= lam * (1.0 - 1e-6)))
    if not active:
        active = (int(np.argmax(ratios)),)
    viol = float(np.max(np.linalg.norm(point - values, axis=1) - lam * d))
    return lam, active, viol, nnls_hull_coords(values[list(active)], point)


# ---------------------------------------------------------------------------
# the query path on numpy arrays, as it was before it ran on Python floats:
# the bitwise references for kpoint_vector's wrapper and for the oracle's
# start, pair stage and tail
# ---------------------------------------------------------------------------

def reference_distances(s, x):
    """kpoint._distances on arrays: the same errors, and the same bits."""
    from lipext import kpoint
    from lipext.errors import QueryCoincidesWithSample
    from lipext.geometry import pow2_shift

    x = np.asarray(x, dtype=float)
    if x.shape != (s.points.shape[1],):
        raise ValueError(f"query dimension {x.shape} does not match positions")
    if not np.isfinite(x).all():
        raise ValueError("query must be finite")
    with np.errstate(over="ignore"):
        diff = s.points - x
        d = np.sqrt(np.add.reduce(diff * diff, axis=1))
    lo, hi = kpoint.OFFSET_RANGE
    if not (d.min() > 0.0 and lo <= d.max() <= hi):
        mag = float(np.abs(diff).max())
        if mag == math.inf:
            raise ValueError("query offsets overflow")
        if not lo <= mag <= hi:
            shift = pow2_shift(mag)
            d = np.ldexp(np.linalg.norm(np.ldexp(diff, shift), axis=1), -shift)
        if not d.min() > 0.0:
            raise QueryCoincidesWithSample("query equals a sample position")
    return d


def reference_kpoint_vector(s, x, tol=1e-9):
    """kpoint.kpoint_vector with its wrapper on arrays: numpy distances, the
    canonical order sorted on tuples of numpy scalars, and the result
    assembled from the kernel's coordinate array."""
    from lipext import kpoint

    d = reference_distances(s, x)
    order = sorted(range(s.size), key=lambda i: (tuple(s.points[i]), tuple(s.values[i])))
    lam, point, active_local, coords, viol = kpoint.minimax_kernel(s.values[order], d[order], tol)
    pairs = sorted(zip((order[a] for a in active_local), coords))
    hull = np.array([p[1] for p in pairs])
    return kpoint.KPointResult(kpoint._finite(lam), point, tuple(p[0] for p in pairs), viol, hull)


def _reference_kkt_pair(u, k):
    k0, k1 = float(k[0]), float(k[1])
    ks = k0 + k1
    diff = u[1] - u[0]
    dist = math.sqrt(float(diff @ diff))
    y = (k0 * u[0] + k1 * u[1]) / ks
    t = k0 * k1 * dist / ks
    if not (dist > 0.0 and math.isfinite(t) and np.isfinite(y).all()):
        return None
    return y, t, np.array([k1, k0]) / ks


def reference_kkt_newton(u, k, y):
    """kpoint._kkt_newton as it was on arrays: Newton's method on the full
    KKT system of min t s.t. k_i ||y - u_i|| <= t, every row of u active,
    started at y.  The unknowns are y, t and the multipliers w; the
    equations are sum_i w_i k_i n_i = 0 (n_i the unit vector from u_i to
    y), sum_i w_i = 1 and k_i ||y - u_i|| = t.  w starts as the
    least-squares multipliers at y, clipped to >= 0 and renormalised; each
    step solves the (m + 1 + s)-square Jacobian with np.linalg.solve.
    Returns (y, t, w) as arrays, or None on a singular system, a non-finite
    value, a zero distance or no convergence: the independent reference for
    the Newton on the working set's hull."""
    from lipext import kpoint

    s, m = u.shape
    size = m + 1 + s
    jac = np.zeros((size, size))
    jac[m, m + 1:] = 1.0
    jac[m + 1:, m] = -1.0
    res = np.empty(size)
    w = t = None
    try:
        for _ in range(kpoint.NEWTON_ITERS):
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
            if float(dyt @ dyt) <= (kpoint.STEP_TOL * max(1.0, abs(t))) ** 2:
                break
        else:
            return None
    except np.linalg.LinAlgError:
        return None
    if not (math.isfinite(t) and np.isfinite(y).all() and np.isfinite(w).all()):
        return None
    return y, t, w


def reference_minimize(unit, k, y0):
    """kpoint.minimize on arrays: ratios by np.einsum, the pair in closed
    form on arrays, and every failed Newton run retried from the centroid.
    Newton is kpoint._kkt_newton, on the rows' lists, as in minimize.
    Returns the certificate (y, W, w) or None, as minimize does."""
    from itertools import combinations

    from lipext import kpoint

    if not (np.isfinite(unit).all() and np.isfinite(k).all() and np.isfinite(y0).all()):
        return None
    n, m = unit.shape
    tol = kpoint.KKT_TOL

    def ratios(y):
        diff = y - unit
        return k * np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def newton(uw, kw, y=None):
        if len(uw) == 2:
            return _reference_kkt_pair(uw, kw)
        sol = kpoint._kkt_newton(uw.tolist(), kw.tolist(), None if y is None else y.tolist())
        return None if sol is None else (np.array(sol[0]), sol[1], np.array(sol[2]))

    def solve(ws, y, cover, floor):
        uw, kw = unit[ws], k[ws]
        sol = newton(uw, kw, y)
        if sol is None or sol[2].min() < -tol:
            sol = newton(uw, kw)  # from the centroid
        if sol is None or not (sol[1] >= floor and sol[2].min() >= -tol):
            return None
        r = ratios(sol[0])
        return (*sol, r) if r[cover].max() <= sol[1] * (1.0 + tol) else None

    rank = np.argsort(-ratios(y0), kind="stable")
    ws, sol = rank[:2].tolist(), None
    pair = _reference_kkt_pair(unit[ws], k[ws]) if n > 1 else None
    if pair is not None:
        y, t, w = pair
        r = ratios(y)
        bound = t * (1.0 + tol)
        if r.max() <= bound:
            return y, ws, w
        if r[ws].max() <= bound:
            sol = y, t, w, r
    if sol is None:
        for size in range(3, min(n, m + 1) + 1):
            ws = rank[:size].tolist()
            sol = solve(ws, y0, ws, -math.inf)
            if sol is not None:
                break
        else:
            ws = rank[:1].tolist()
            y = unit[ws[0]].copy()
            sol = y, 0.0, np.array([1.0]), ratios(y)
    y, t, w, r = sol
    for _ in range(kpoint.PIVOT_ITERS):
        j = int(np.argmax(r))
        if r[j] <= t * (1.0 + tol):
            return y, ws, w
        cover = ws + [j]
        subsets = (list(rest) + [j] for size in range(1, min(len(ws), m) + 1)
                   for rest in combinations(ws, size))
        for cand in subsets:
            sol = solve(cand, y, cover, t)
            if sol is not None:
                break
        else:
            return None
        ws, (y, t, w, r) = cand, sol
    return None


def reference_kpoint_oracle(s, x):
    """kpoint.kpoint_oracle on arrays: its start, the polish
    (reference_minimize), the hull coordinates of its certificate and its
    one-pass tail."""
    from lipext import kpoint
    from lipext.geometry import pow2_shift

    d = reference_distances(s, x)
    spread, constant = kpoint._spread(s.values.tolist())
    if s.size == 1 or constant:
        return kpoint.KPointResult(0.0, s.values[0].copy(), (0,), 0.0, np.array([1.0]))
    vshift = pow2_shift(float(np.abs(s.values).max()))
    dshift = pow2_shift(float(d.max()))
    values = np.ldexp(s.values, vshift)
    d = np.ldexp(d, dshift)
    spread = math.ldexp(spread, vshift)
    center = np.add.reduce(values, axis=0) / s.size
    unit = (values - center) / spread
    i, j = np.triu_indices(s.size, 1)
    pair_diff = unit[i] - unit[j]
    norms = np.sqrt(np.add.reduce(pair_diff * pair_diff, axis=1))
    a = int(np.argmax(norms / (d[i] + d[j])))
    a, b = i[a], j[a]
    z0 = (d[b] * unit[a] + d[a] * unit[b]) / (d[a] + d[b])

    def max_ratio(y):
        diff = y - unit
        return float((np.sqrt(np.add.reduce(diff * diff, axis=1)) / d).max())

    t0 = max_ratio(z0)
    k = 1.0 / (t0 * d)
    cert = reference_minimize(unit, k, z0)
    if cert is None or max_ratio(cert[0]) > t0 * (1.0 + 1e-9):
        cert = z0, [int(a), int(b)], np.array([d[a], d[b]])
    z, ws, w = cert
    q = np.maximum(w, 0.0) * k[ws] * k[ws]
    coords = q / math.fsum(q)
    point = center + spread * z
    diff = point - values
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
    ratios = dist / d
    lam = float(ratios.max())
    active = tuple(np.flatnonzero(ratios >= lam * (1.0 - 1e-6)).tolist())
    viol = float((dist - lam * d).max())
    if len(active) == 1:
        hull = np.array([1.0])
    elif len(active) == 2:
        da, db = dist[active[0]], dist[active[1]]
        hull = np.array([db, da]) / (da + db)
    elif set(ws) <= set(active):
        by_sample = dict(zip(ws, coords.tolist()))
        hull = np.array([by_sample.get(i, 0.0) for i in active])
    else:
        hull = None
    try:
        lam = math.ldexp(lam, dshift - vshift)
    except OverflowError:
        lam = math.inf
    return kpoint.KPointResult(kpoint._finite(lam), np.ldexp(point, -vshift), active,
                               math.ldexp(viol, -vshift), hull)


def assert_same_result(a, b):
    """Two KPointResults with the same bits in every field."""
    assert a.active == b.active and all(type(i) is int for i in a.active)
    for u, v in ((a.lam, b.lam), (a.point, b.point), (a.max_violation, b.max_violation),
                 (a.hull_coords, b.hull_coords)):
        assert np.asarray(u).shape == np.asarray(v).shape
        assert np.array_equal(_bits(u), _bits(v))


def assert_simplex_paths_agree(values, dists):
    """Run minimax_kernel with every simplex size class tested candidate by
    candidate (looped_simplex in place of the stacked pass), then through
    the stacked pass with its roots taken on Python floats and then on
    arrays, and assert that all three give the same bits (lam, point,
    active set, hull coordinates and violation) or all raise
    NoCertifiedSubset.  Returns the result, or the error type."""
    from lipext import kpoint
    from lipext.errors import NoCertifiedSubset

    out = []
    for name, value in (("_stacked_simplex", looped_simplex),
                        ("ROOT_CUTOVER", 10**9), ("ROOT_CUTOVER", 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kpoint, name, value)
            try:
                out.append(kpoint.minimax_kernel(values, dists))
            except NoCertifiedSubset:
                out.append(NoCertifiedSubset)
    looped, *stacked = out
    for other in stacked:
        if looped is NoCertifiedSubset or other is NoCertifiedSubset:
            assert looped is other
            continue
        assert looped[2] == other[2] and all(type(i) is int for i in other[2])
        for a, b in zip(looped[:2] + looped[3:], other[:2] + other[3:]):
            assert np.array_equal(_bits(a), _bits(b))
    return stacked[-1]


def assert_sweep_paths_agree(g, tol=1e-10, max_iter=500):
    """Run vector._sweep on g, with the exact finish switched off, with
    every colour class in one batched pass (SWEEP_BLOCK_MIN (1, 1)), at the
    module's cutovers, and with every class replaced vertex by vertex (a
    cutover above every class), and assert that all three give the same
    value bits, sweeps and history of largest moves.  Then assert the same
    of the first and last runs with the finish on.  Each run takes its own
    copy of g, so that it plans its groups at its own cutovers, and the
    first run's groups hold blocks where the last run's hold none.  Returns
    the first run's (values, history, converged), finish off."""
    from lipext import vector

    runs = []
    m = g.value_dim()
    for finish_at, cutovers in ((0.0, ((1, 1), vector.SWEEP_BLOCK_MIN, (len(g.ids) + 1,) * 2)),
                                (vector.FINISH_AT, ((1, 1), (len(g.ids) + 1,) * 2))):
        out = []
        blocks = []
        for block_min in cutovers:
            h = copy.deepcopy(g)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(vector, "FINISH_AT", finish_at)
                mp.setattr(vector, "SWEEP_BLOCK_MIN", block_min)
                out.append(vector._sweep(h, tol, max_iter))
                plan = vector._plan(h, m)
                blocks.append([group.block is not None for group in plan.sweep_order + [plan.whole]])
        assert any(blocks[0]) and not any(blocks[-1])
        values, history, converged = out[0]
        for other, other_history, other_converged in out[1:]:
            assert other_converged == converged
            assert np.array_equal(_bits(other_history), _bits(history))
            assert all(np.array_equal(_bits(other[v]), _bits(values[v])) for v in g.ids)
        runs.append(out[0])
    return runs[0]
