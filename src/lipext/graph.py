"""Graph data model with boundary data.

Vertices carry positions, edges carry positive lengths (Euclidean between
the endpoint positions unless overridden), and a nonempty boundary set
carries the values to extend.  Queries are read-only; a Graph is immutable
after construction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMismatch, BoundaryVertex, UnknownVertex, ValidationError
from .geometry import pow2_shift

# A vertex function assigns an m-vector to every vertex id.
VertexFunction = dict[str, np.ndarray]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


class Graph:
    """Undirected graph with positions, edge lengths and boundary values.

    Parameters
    ----------
    vertices : mapping id -> position (sequence of floats)
    edges : iterable of (a, b) or (a, b, length); length defaults to the
        Euclidean distance between the endpoint positions
    omega : iterable of boundary vertex ids
    boundary_values : mapping id -> value (scalar or sequence), defined on
        exactly the omega set
    """

    def __init__(self, vertices, edges, omega, boundary_values):
        pos: dict[str, np.ndarray] = {}
        for vid, p in dict(vertices).items():
            pos[str(vid)] = np.atleast_1d(np.asarray(p, dtype=float))
        dims = {p.shape[0] for p in pos.values()}
        if len(dims) > 1:
            raise ValueError(f"positions have mixed dimensions {sorted(dims)}")
        lengths: dict[tuple[str, str], float] = {}
        for edge in edges:
            a, b = str(edge[0]), str(edge[1])
            if a not in pos:
                raise UnknownVertex(a)
            if b not in pos:
                raise UnknownVertex(b)
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            key = (a, b) if a < b else (b, a)
            if key in lengths:
                raise ValueError(f"duplicate edge {key}")
            if len(edge) > 2 and edge[2] is not None:
                lengths[key] = float(edge[2])
            else:
                lengths[key] = float(np.linalg.norm(pos[a] - pos[b]))
        bvals: dict[str, np.ndarray] = {}
        for vid, val in dict(boundary_values).items():
            value = np.atleast_1d(np.asarray(val, dtype=float))
            if value.ndim > 1:
                raise ValueError(f"boundary value of {vid!r} is not a vector: {val!r}")
            bvals[str(vid)] = value
        self.positions = pos
        self.lengths = lengths
        self.omega = frozenset(str(v) for v in omega)
        self.boundary_values = bvals
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in pos}
        for (a, b), ln in lengths.items():
            adj[a].append((b, ln))
            adj[b].append((a, ln))
        for v in adj:
            adj[v].sort()
        self._adj = adj
        self.ids = sorted(pos)

    # -- basic queries ------------------------------------------------------

    def __contains__(self, vid: str) -> bool:
        return vid in self.positions

    def _require(self, vid: str) -> str:
        if vid not in self.positions:
            raise UnknownVertex(vid)
        return vid

    def interior(self) -> list[str]:
        return [v for v in self.ids if v not in self.omega]

    def neighbors(self, x: str) -> list[tuple[str, float]]:
        """Sorted (neighbor, edge length) pairs."""
        return self._adj[self._require(x)]

    def value_dim(self) -> int:
        return next(iter(self.boundary_values.values())).shape[0] if self.boundary_values else 0


def neighborhood(g: Graph, x: str) -> set[str]:
    """All vertices sharing an edge with x; never contains x itself."""
    return {y for y, _ in g.neighbors(x)}


def geodesic_distance(g: Graph, x: str, y: str) -> float:
    """Infimum of chain lengths between x and y under the edge lengths."""
    g._require(x)
    g._require(y)
    return _dijkstra(g, x, target=y).get(y, math.inf)


def geodesic_distances_from(g: Graph, x: str) -> dict[str, float]:
    """Shortest-path distance from x to every reachable vertex."""
    g._require(x)
    return _dijkstra(g, x)


def _dijkstra(g: Graph, source: str, target: str | None = None) -> dict[str, float]:
    dist = {source: 0.0}
    done: set[str] = set()
    heap = [(0.0, source)]
    while heap:
        dx, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == target:
            break
        for w, ln in g._adj[v]:
            alt = dx + ln
            if alt < dist.get(w, math.inf):
                dist[w] = alt
                heapq.heappush(heap, (alt, w))
    return dist


def as_vertex_function(values) -> VertexFunction:
    """Normalize a mapping of vertex values to 1-d float arrays."""
    return {str(k): np.atleast_1d(np.asarray(v, dtype=float)) for k, v in dict(values).items()}


def edge_arrays(g: Graph) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray, np.ndarray]:
    """Edges in sorted key order as (keys, heads, tails, lengths); heads and
    tails index g.ids, with heads < tails."""
    index = {v: i for i, v in enumerate(g.ids)}
    keys = sorted(g.lengths)
    heads = np.array([index[a] for a, _ in keys], dtype=np.intp)
    tails = np.array([index[b] for _, b in keys], dtype=np.intp)
    lengths = np.array([g.lengths[k] for k in keys], dtype=float)
    return keys, heads, tails, lengths


def steepest_edge(edges, vals: np.ndarray) -> tuple[float, int]:
    """Largest value distance to length ratio over the edges of
    `edge_arrays`, with vals[i] the value at g.ids[i]: (ratio, k) for the
    first steepest edge k, or (0.0, -1) if there is none.

    Along a shortest path the value distance is at most the sum of the edge
    differences, so on a graph that passes `validate` no vertex pair is
    steeper than this edge.  Zero-length edges are skipped.
    """
    _, heads, tails, lengths = edges
    if not lengths.size:
        return 0.0, -1
    d = vals[heads] - vals[tails]
    # |d| is the norm's value for scalars, without squaring's overflow
    if d.shape[1] == 1:
        diff = np.abs(d[:, 0])
    else:
        with np.errstate(over="ignore"):
            diff = np.linalg.norm(d, axis=1)
        if not np.all(np.isfinite(diff)) and np.all(np.isfinite(d)):
            # squares overflow: scale by a power of two, as kpoint does
            shift = pow2_shift(float(np.abs(d).max()))
            diff = np.ldexp(np.linalg.norm(np.ldexp(d, shift), axis=1), -shift)
    ratios = np.divide(diff, lengths, out=np.zeros_like(diff), where=lengths > 0.0)
    k = int(np.argmax(ratios))
    return float(ratios[k]), k


def lipschitz_ratio(g: Graph, u) -> float:
    """Largest value distance to geodesic distance ratio over vertex pairs,
    taken over edges (see `steepest_edge`)."""
    u = as_vertex_function(u)
    return steepest_edge(edge_arrays(g), np.array([u[v] for v in g.ids]))[0]


def local_lipschitz(g: Graph, u, x: str) -> float:
    """Largest difference quotient of u over the neighbors of x."""
    g._require(x)
    if x in g.omega:
        raise BoundaryVertex(x)
    u = u if isinstance(u, dict) else dict(u)
    ux = np.atleast_1d(np.asarray(u[x], dtype=float))
    best = 0.0
    for y, ln in g.neighbors(x):
        uy = np.atleast_1d(np.asarray(u[y], dtype=float))
        best = max(best, float(np.linalg.norm(uy - ux)) / ln)
    return best


def is_tighter(g: Graph, v, u) -> bool:
    """Comparison of local Lipschitz profiles: True when the worst vertices
    where u is steeper dominate the worst where v is steeper (empty max = 0)."""
    v = as_vertex_function(v)
    u = as_vertex_function(u)
    for b in g.omega:
        if not np.array_equal(v[b], u[b]):
            raise BoundaryMismatch(b)
    u_worse = 0.0
    v_worse = 0.0
    for x in g.interior():
        lu = local_lipschitz(g, u, x)
        lv = local_lipschitz(g, v, x)
        if lu > lv:
            u_worse = max(u_worse, lu)
        elif lv > lu:
            v_worse = max(v_worse, lv)
    return u_worse > v_worse


def validate(g: Graph) -> list[Violation]:
    """Structural checks; an empty list means the graph is usable."""
    out: list[Violation] = []
    if not g.omega:
        out.append(Violation("EmptyBoundary", "boundary set is empty"))
    for v in g.omega:
        if v not in g.positions:
            out.append(Violation("UnknownVertex", f"boundary vertex {v!r} not in graph"))
    missing = set(g.omega) - set(g.boundary_values)
    extra = set(g.boundary_values) - set(g.omega)
    if missing:
        out.append(Violation("MissingBoundaryValue", f"no value for {sorted(missing)}"))
    if extra:
        out.append(Violation("ExtraBoundaryValue", f"values outside boundary: {sorted(extra)}"))
    dims = {v.shape[0] for v in g.boundary_values.values()}
    if len(dims) > 1:
        out.append(Violation("DimensionMismatch", f"boundary value dimensions {sorted(dims)}"))
    # one finiteness pass over every number (axis=None flattens arrays of
    # any shape); the per-item messages are built only when it fails
    lens = np.fromiter(g.lengths.values(), dtype=float, count=len(g.lengths))
    finite = bool(np.isfinite(np.concatenate(
        [*g.positions.values(), *g.boundary_values.values(), lens], axis=None)).all())
    positive = bool((lens > 0.0).all())
    if not finite:
        for v, p in sorted(g.positions.items()):
            if not np.isfinite(p).all():
                out.append(Violation("NonFinite", f"vertex {v!r} has position {p.tolist()}"))
        for v, val in sorted(g.boundary_values.items()):
            if not np.isfinite(val).all():
                out.append(Violation("NonFinite",
                                     f"boundary vertex {v!r} has value {val.tolist()}"))
    if not (finite and positive):
        for (a, b), ln in sorted(g.lengths.items()):
            if not math.isfinite(ln):
                out.append(Violation("NonFinite", f"edge ({a}, {b}) has length {ln}"))
            elif not ln > 0.0:
                out.append(Violation("ZeroLengthEdge", f"edge ({a}, {b}) has length {ln}"))
    if len(dims) == 1 and lens.size and positive and np.isfinite(lens).all():
        vals = np.array(list(g.boundary_values.values()))
        # the solvers' slopes stay within 2 max|f| / shortest edge and the
        # pair formula's length-weighted values within 2 max|f| * longest
        top, short, long = float(np.abs(vals).max()), float(lens.min()), float(lens.max())
        if math.isfinite(top) and not math.isfinite(max(2.0 * top / short, 2.0 * top * long)):
            out.append(Violation("ValueOverflow", f"boundary values up to {top:g} in size "
                                 f"overflow against edge lengths in [{short:g}, {long:g}]"))
        # every path length, and every sum d_i + d_j of two, is at most the
        # total length; it is summed in units of the longest edge, so the
        # sum itself cannot overflow
        if not math.isfinite(long * float((lens / long).sum())):
            out.append(Violation("ValueOverflow", f"edge lengths up to {long:g} sum past "
                                 "the largest float"))
    if g.ids:
        seen = {g.ids[0]}
        stack = [g.ids[0]]
        while stack:
            v = stack.pop()
            for w, _ in g._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(g.ids):
            out.append(Violation("Disconnected", f"{len(g.ids) - len(seen)} vertices unreachable"))
    return out


def require_valid(g: Graph) -> None:
    """Raise ValidationError listing every violation `validate` finds."""
    violations = validate(g)
    if violations:
        raise ValidationError("; ".join(f"{v.code}: {v.message}" for v in violations))
