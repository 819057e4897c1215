import math

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


def reference_oracle_tail(values, d, point):
    """kpoint._oracle_tail as it was before it shared one distance pass:
    lam, the active set and the violation from three norm passes, and the
    active set's hull coordinates by nnls whatever its size, on arrays made
    from the scaled rows, distances and point that the oracle passes.  The
    reference for the one-pass tail and its closed-form hull coordinates;
    run it with kpoint.NEWTON_ITERS at its former 40."""
    from lipext import kpoint

    values, d, point = np.array(values), np.array(d), np.array(point)
    lam = float(np.max(np.linalg.norm(point - values, axis=1) / d))
    ratios = np.linalg.norm(point - values, axis=1) / d
    active = tuple(int(i) for i in np.flatnonzero(ratios >= lam * (1.0 - 1e-6)))
    if not active:
        active = (int(np.argmax(ratios)),)
    viol = float(np.max(np.linalg.norm(point - values, axis=1) - lam * d))
    return lam, active, viol, kpoint._nnls_hull_coords(values[list(active)], point)


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


def reference_minimize(unit, k, y0):
    """kpoint.minimize on arrays: ratios by np.einsum, the pair in closed
    form on arrays, and every failed Newton run retried from the centroid."""
    from itertools import combinations

    from lipext import kpoint

    if not (np.isfinite(unit).all() and np.isfinite(k).all() and np.isfinite(y0).all()):
        return None
    n, m = unit.shape
    tol = kpoint.KKT_TOL

    def ratios(y):
        diff = y - unit
        return k * np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def newton(uw, kw, y):
        return _reference_kkt_pair(uw, kw) if len(uw) == 2 else kpoint._kkt_newton(uw, kw, y)

    def solve(ws, y, cover, floor):
        uw, kw = unit[ws], k[ws]
        sol = newton(uw, kw, y)
        if sol is None or sol[2].min() < -tol:
            sol = newton(uw, kw, kw @ uw / kw.sum())
        if sol is None or not (sol[1] >= floor and sol[2].min() >= -tol):
            return None
        r = ratios(sol[0])
        return (sol[0], sol[1], r) if r[cover].max() <= sol[1] * (1.0 + tol) else None

    rank = np.argsort(-ratios(y0), kind="stable")
    ws, sol = rank[:2].tolist(), None
    pair = _reference_kkt_pair(unit[ws], k[ws]) if n > 1 else None
    if pair is not None:
        y, t, _ = pair
        r = ratios(y)
        bound = t * (1.0 + tol)
        if r.max() <= bound:
            return y
        if r[ws].max() <= bound:
            sol = y, t, r
    if sol is None:
        for size in range(3, min(n, m + 1) + 1):
            ws = rank[:size].tolist()
            sol = solve(ws, y0, ws, -math.inf)
            if sol is not None:
                break
        else:
            ws = rank[:1].tolist()
            y = unit[ws[0]].copy()
            sol = y, 0.0, ratios(y)
    y, t, r = sol
    for _ in range(kpoint.PIVOT_ITERS):
        j = int(np.argmax(r))
        if r[j] <= t * (1.0 + tol):
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
        ws, (y, t, r) = cand, sol
    return None


def reference_kpoint_oracle(s, x):
    """kpoint.kpoint_oracle on arrays: its start, the polish
    (reference_minimize) and its one-pass tail."""
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
    z = reference_minimize(unit, 1.0 / (t0 * d), z0)
    if z is None or max_ratio(z) > t0 * (1.0 + 1e-9):
        z = z0
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
    else:
        hull = kpoint._nnls_hull_coords(values[list(active)], point)
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
    of the first and last runs with the finish on.  Returns the first run's
    (values, history, converged), finish off."""
    from lipext import vector

    runs = []
    for finish_at, cutovers in ((0.0, ((1, 1), vector.SWEEP_BLOCK_MIN, (len(g.ids) + 1,) * 2)),
                                (vector.FINISH_AT, ((1, 1), (len(g.ids) + 1,) * 2))):
        out = []
        for block_min in cutovers:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(vector, "FINISH_AT", finish_at)
                mp.setattr(vector, "SWEEP_BLOCK_MIN", block_min)
                out.append(vector._sweep(g, tol, max_iter))
        values, history, converged = out[0]
        for other, other_history, other_converged in out[1:]:
            assert other_converged == converged
            assert np.array_equal(_bits(other_history), _bits(history))
            assert all(np.array_equal(_bits(other[v]), _bits(values[v])) for v in g.ids)
        runs.append(out[0])
    return runs[0]
