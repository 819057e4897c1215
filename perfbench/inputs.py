"""Seeded inputs for the benchmark workloads.

Graphs are built here as plain `Spec` records (ids, positions, edges with
explicit lengths, boundary values) so the independent checks read the same
numbers the program was given without going through the program's own
loaders.  Nothing in this module imports lipext.

Random structures (graphs, k-point sample sets) are drawn once from fixed
corpus seeds; the run seed moves every instance by an isometry of its
values (and, for sample sets, of its positions), and draws the curved
grids' sign and shift.  Outputs differ per seed while the amount of work
does not, so runs with different seeds are comparable (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Structure seeds of the fixed corpora.  Changing them changes the workload.
SCALAR_CORPUS_SEED = 2015
SWEEP_CORPUS_SEED = 909
KPOINT_CORPUS_SEED = 20260810
KPOINT_CORPUS_SIZE = 500


@dataclass(frozen=True)
class Spec:
    """A graph with boundary data, in the benchmark's own representation."""

    name: str
    ids: list[str]
    pos: dict[str, list[float]]
    edges: list[tuple[str, str, float]]
    boundary: dict[str, list[float]]
    linear: tuple[float, float, float] | None = None  # (a, b, c): f = a x + b y + c

    @property
    def m(self) -> int:
        return len(next(iter(self.boundary.values())))


def orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    """Uniformly random k x k orthogonal matrix (rotations and reflections)."""
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def _length(p, q) -> float:
    return float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float)))


def grid(name: str, n: int, fn, boundary: str = "perimeter") -> Spec:
    """n x n lattice on the unit square with 4-neighbour edges.

    `boundary` is "perimeter" (every outer vertex) or "sides" (the left and
    right columns only: a boundary with two components).  `fn(x, y)` gives
    the boundary value as a list.
    """
    h = 1.0 / (n - 1)
    ids, pos, edges, bdy = [], {}, [], {}
    for i in range(n):
        for j in range(n):
            vid = f"g{i:02d}_{j:02d}"
            ids.append(vid)
            pos[vid] = [i * h, j * h]
            if i > 0:
                edges.append((f"g{i - 1:02d}_{j:02d}", vid))
            if j > 0:
                edges.append((f"g{i:02d}_{j - 1:02d}", vid))
            on_side = i in (0, n - 1)
            if on_side or (boundary == "perimeter" and j in (0, n - 1)):
                bdy[vid] = [float(v) for v in fn(i * h, j * h)]
    return Spec(name, ids, pos, [(a, b, _length(pos[a], pos[b])) for a, b in edges], bdy)


def _spanning_tree_plus(rng: np.random.Generator, ids: list[str], pos) -> list:
    """Random spanning tree plus n/2 random extra edges, Euclidean lengths."""
    n = len(ids)
    order = rng.permutation(n)
    pairs = set()
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        pairs.add((min(a, b), max(a, b)))
    for _ in range(n // 2):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return [(ids[a], ids[b], _length(pos[ids[a]], pos[ids[b]])) for a, b in sorted(pairs)]


def random_graph(name: str, rng: np.random.Generator, n: int, m: int = 1,
                 boundary_share: float = 0.3) -> Spec:
    """Connected random graph: spanning tree plus n/2 extra edges.

    Positions uniform in the unit square, a boundary of
    max(2, boundary_share * n) vertices with values uniform in [0, 1]^m.
    """
    ids = [f"v{i:03d}" for i in range(n)]
    pos = {v: [float(c) for c in rng.uniform(0, 1, 2)] for v in ids}
    edges = _spanning_tree_plus(rng, ids, pos)
    picked = rng.choice(n, size=max(2, int(boundary_share * n)), replace=False)
    bdy = {ids[int(i)]: [float(c) for c in rng.uniform(0, 1, m)] for i in sorted(picked)}
    return Spec(name, ids, pos, edges, bdy)


def c09_graph(name: str, rng: np.random.Generator, max_vertices: int = 24, m: int = 2) -> Spec:
    """Random graph as drawn by the vector-solver certificate criterion C09:
    2..max_vertices vertices, boundary share drawn per graph."""
    n = int(rng.integers(2, max_vertices + 1))
    ids = [f"v{i:03d}" for i in range(n)]
    pos = {v: [float(c) for c in rng.uniform(0, 1, 2)] for v in ids}
    edges = _spanning_tree_plus(rng, ids, pos)
    n_bdy = int(rng.integers(1, max(2, n // 2 + 1)))
    picked = rng.choice(n, size=n_bdy, replace=False)
    bdy = {ids[int(i)]: [float(c) for c in rng.uniform(0, 1, m)] for i in picked}
    return Spec(name, ids, pos, edges, dict(sorted(bdy.items())))


def move_values(spec: Spec, rng: np.random.Generator) -> Spec:
    """Same graph, boundary values moved by a random isometry of R^m."""
    q = orthogonal(rng, spec.m)
    c = rng.uniform(-1, 1, spec.m)
    bdy = {v: [float(t) for t in q @ np.asarray(val) + c] for v, val in spec.boundary.items()}
    return Spec(spec.name, spec.ids, spec.pos, spec.edges, bdy)


# -- scalar boundary data ----------------------------------------------------

def curved(rng: np.random.Generator):
    """f = s (x^2 - y) + c with a random sign s and shift c.  No random
    scale: the sweep solvers stop at an absolute tolerance, so scaled data
    would take a seed-dependent number of sweeps."""
    s = float(rng.choice([-1.0, 1.0]))
    c = float(rng.uniform(-1.0, 1.0))
    return lambda x, y: [s * (x * x - y) + c]


def linear_grid(name: str, n: int) -> Spec:
    """Grid with the linear boundary data f = x + y/2, which the extension
    reproduces exactly.  Not seeded: on linear data many paths tie in
    slope, and rounding of other coefficients would change which one the
    solver takes, and with it the solver's cost."""
    spec = grid(name, n, lambda x, y: [x + 0.5 * y])
    return Spec(spec.name, spec.ids, spec.pos, spec.edges, spec.boundary, linear=(1.0, 0.5, 0.0))


def two_sided(name: str, n: int, rng: np.random.Generator) -> Spec:
    """m = 2 grid whose boundary is the left and right columns: a quarter
    circle arc on one side and a parabola on the other, then moved by a
    random isometry."""
    def fn(x, y):
        if x == 0.0:
            return [math.cos(0.5 * math.pi * y), math.sin(0.5 * math.pi * y)]
        return [1.0 + y, -y * y]
    return move_values(grid(name, n, fn, boundary="sides"), rng)


# -- k-point sample sets -----------------------------------------------------

@dataclass(frozen=True)
class Query:
    """Labeled samples (points in R^n, values in R^m) and a query point."""

    index: int
    points: np.ndarray
    values: np.ndarray
    x: np.ndarray

    @property
    def m(self) -> int:
        return self.values.shape[1]


def kpoint_corpus(seed: int | None) -> list[Query]:
    """The fixed corpus of acceptance criterion C06 (N 1-8, n 1-3, m 1-3,
    query at least 1e-3 from every sample), each instance moved by its own
    random isometry of the positions (query included) and of the values.
    With seed None the instances are C06's own."""
    base = np.random.default_rng(KPOINT_CORPUS_SEED)
    pose = np.random.default_rng(seed)
    out = []
    for i in range(KPOINT_CORPUS_SIZE):
        n = int(base.integers(1, 4))
        m = int(base.integers(1, 4))
        size = int(base.integers(1, 9))
        pts = base.uniform(-1, 1, (size, n))
        vals = base.uniform(-1, 1, (size, m))
        x = base.uniform(-1, 1, n)
        while np.linalg.norm(pts - x, axis=1).min() < 1e-3:
            x = base.uniform(-1, 1, n)
        if seed is not None:
            qp, cp = orthogonal(pose, n), pose.uniform(-1, 1, n)
            qv, cv = orthogonal(pose, m), pose.uniform(-1, 1, m)
            pts, vals, x = pts @ qp.T + cp, vals @ qv.T + cv, qp @ x + cp
        out.append(Query(i, pts, vals, x))
    return out
