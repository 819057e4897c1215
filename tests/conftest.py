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


@pytest.fixture
def path4():
    return path_graph()


@pytest.fixture
def star3():
    return star_graph()


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_simplex_paths_agree(values, dists):
    """Run minimax_kernel with every simplex size class tested candidate by
    candidate, then with every class in one stacked pass, its roots taken
    on Python floats and then on arrays, and assert that all three give the
    same bits (lam, point, active set, hull coordinates and violation) or
    all raise NoCertifiedSubset.  Returns the result, or the error type."""
    from lipext import kpoint
    from lipext.errors import NoCertifiedSubset

    out = []
    for stack, roots in ((10**9, 10**9), (0, 10**9), (0, 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kpoint, "STACK_CUTOVER", stack)
            mp.setattr(kpoint, "ROOT_CUTOVER", roots)
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
