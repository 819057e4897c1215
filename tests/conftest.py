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
    """Run vector._sweep on g with every colour class in one batched pass
    (SWEEP_BLOCK_MIN (1, 1)), at the module's cutovers, and with every
    class replaced vertex by vertex (a cutover above every class), and
    assert that all three give the same value bits, sweeps and history of
    largest moves.  Returns the first run's (values, history, converged)."""
    from lipext import vector

    out = []
    for block_min in ((1, 1), vector.SWEEP_BLOCK_MIN, (len(g.ids) + 1,) * 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vector, "SWEEP_BLOCK_MIN", block_min)
            out.append(vector._sweep(g, tol, max_iter))
    values, history, converged = out[0]
    for other, other_history, other_converged in out[1:]:
        assert other_converged == converged
        assert np.array_equal(_bits(other_history), _bits(history))
        assert all(np.array_equal(_bits(other[v]), _bits(values[v])) for v in g.ids)
    return out[0]
