"""Exact scalar extension by the connecting-path construction.

Starting from the boundary, the solver repeatedly finds the steepest
connecting path between two labeled vertices (through unlabeled interior
vertices and unused edges, single-edge paths allowed), interpolates
linearly along it, and finally floods any remaining dead-end components
with the value of their unique labeled attachment.  A Gauss-Seidel sweep
solver (the sweep loop of `vector` on scalar data) is provided as an
independent cross-check, and a verifier re-derives the defining equation,
the maximum principle and the geodesic ratio bound for any candidate
solution.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidPath, MethodUnavailable, MultipleAttachments, NotConverged
# perfbench/tracing.py wraps geodesic_distances_from, pairwise_optimum and
# validate here
from .graph import (  # noqa: F401
    Graph,
    VertexFunction,
    edge_arrays,
    geodesic_distances_from,
    require_valid,
    steepest_edge,
    validate,
)
from .kpoint import pairwise_optimum  # noqa: F401
from .vector import _sweep, _worst_move

if TYPE_CHECKING:
    from scipy.sparse import csr_array as CSRArray

log = logging.getLogger("lipext.scalar")


# scipy.sparse more than doubles the time of `import lipext` (0.2 against
# 0.55-0.65 s under -X importtime), and only the path search and the
# verifier need it: import it on first use.
def csr_array(*args, **kwargs):
    """scipy.sparse.csr_array."""
    from scipy.sparse import csr_array as sparse_csr_array

    return sparse_csr_array(*args, **kwargs)


def dijkstra(*args, **kwargs):
    """scipy.sparse.csgraph.dijkstra."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(*args, **kwargs)


# Sources per multi-source Dijkstra call: bounds each distance block at
# SOURCE_BLOCK x 2|V| floats.
SOURCE_BLOCK = 64
# Up to this many rows, a path search runs them all in one Dijkstra call
# instead of two bounded passes: on graphs of a few dozen vertices, the
# second call costs more than the rows the bounds save (with two passes
# throughout, the scalar-path benchmark's S solves take 25 % longer).
SMALL_SEARCH = 24
# Relative margin of the search's row bounds: a pair's distance read from
# either end's row can differ in the last bits.
BOUND_MARGIN = 1e-9


@dataclass
class SubgraphState:
    """Growing labeled subgraph: values, consumed edges, slope log."""

    labeled: dict[str, float]
    used_edges: set[tuple[str, str]] = field(default_factory=set)
    stage_slopes: list[float] = field(default_factory=list)

    def copy(self) -> "SubgraphState":
        return SubgraphState(dict(self.labeled), set(self.used_edges), list(self.stage_slopes))


@dataclass(frozen=True)
class ConnectingPath:
    """Path between labeled endpoints, oriented so the value rises.

    vertices[0] and vertices[-1] are labeled, interior vertices are not;
    lengths[i] is the edge length between vertices[i] and vertices[i+1].
    """

    vertices: tuple[str, ...]
    lengths: tuple[float, ...]
    slope: float

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(_edge_key(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


@dataclass(frozen=True)
class VerifyReport:
    """Checks of a candidate extension, each with a witness on failure."""

    residual: float
    residual_ok: bool
    residual_witness: str | None
    max_principle_ok: bool | None
    max_principle_witness: str | None
    interior_ratio: float
    boundary_ratio: float
    geodesic_ok: bool
    geodesic_witness: tuple[str, str] | None
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return self.residual_ok and self.max_principle_ok is not False and self.geodesic_ok


@dataclass(frozen=True)
class ExtensionResult:
    """Full vertex-value map plus its verification report."""

    values: VertexFunction
    report: VerifyReport
    stage_slopes: list[float] | None


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def initial_state(g: Graph) -> SubgraphState:
    """Trivial subgraph: boundary vertices labeled with their data."""
    return SubgraphState({b: float(v[0]) for b, v in g.boundary_values.items()})


def _rank(path: ConnectingPath) -> tuple:
    """Deterministic order: steepest first, then lexicographic tie-break on
    (sorted endpoints, interior sequence read from the smaller endpoint)."""
    a, b = path.vertices[0], path.vertices[-1]
    if a <= b:
        return (-path.slope, (a, b), path.vertices[1:-1])
    return (-path.slope, (b, a), tuple(reversed(path.vertices[1:-1])))


def _oriented(vertices: tuple[str, ...], lengths: tuple[float, ...],
              labeled: dict[str, float]) -> ConnectingPath:
    """Orient so that the end value is not below the start value."""
    v0, vk = vertices[0], vertices[-1]
    total = sum(lengths)
    slope = abs(labeled[vk] - labeled[v0]) / total
    if labeled[v0] <= labeled[vk]:
        return ConnectingPath(vertices, lengths, slope)
    return ConnectingPath(tuple(reversed(vertices)), tuple(reversed(lengths)), slope)


def _single_edge_candidates(g: Graph, state: SubgraphState, at) -> list[ConnectingPath]:
    """Unused edges between labeled vertices, at least one of them in `at`,
    as one-edge paths."""
    edges = {_edge_key(v, w): ln for v in at for w, ln in g.neighbors(v)}
    out = []
    for (a, b), ln in edges.items():
        if (a, b) in state.used_edges:
            continue
        if a in state.labeled and b in state.labeled:
            out.append(_oriented((a, b), (ln,), state.labeled))
    return out


def _slopes(graph: CSRArray, sources: np.ndarray, sinks: np.ndarray, f_from: np.ndarray,
            f_to: np.ndarray) -> np.ndarray:
    """|f_to[c] - f_from[r]| / d(sources[r], sinks[c]) for every row r and
    column c, in one multi-source Dijkstra call; -1 where the sink is
    unreachable or at distance 0."""
    dist = dijkstra(graph, directed=True, indices=sources)[:, sinks]
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        slope = np.abs(f_to - f_from[:, None]) / dist
    slope[np.isinf(dist) | (dist == 0.0)] = -1.0
    return slope


def _steepest_pair(graph: CSRArray, src: np.ndarray, dst: np.ndarray, f: np.ndarray,
                   rows: np.ndarray) -> tuple[float, int, int]:
    """First largest |f[c] - f[r]| / d(src[r], dst[c]) in row-major order
    over reachable pairs r < c with r in rows, as (slope, r, c); slope is
    -1 when there is no such pair.  Pairs at distance 0 are skipped.  The
    rows go through one multi-source Dijkstra call per SOURCE_BLOCK of
    them."""
    best = (-1.0, -1, -1)
    cols = np.arange(f.size)
    for start in range(0, rows.size, SOURCE_BLOCK):
        r = rows[start:start + SOURCE_BLOCK]
        slope = _slopes(graph, src[r], dst, f[r], f)
        slope[cols <= r[:, None]] = -1.0
        i, c = divmod(int(np.argmax(slope)), f.size)
        if slope[i, c] > best[0]:
            best = (float(slope[i, c]), int(r[i]), c)
    return best


class _PathSearch:
    """Steepest connecting path with at least one interior vertex, searched
    stage after stage of one solve.

    The distances come from a split graph: each labeled vertex keeps its
    node as a source copy with arcs only to unlabeled neighbours, and gets
    a sink copy n + v with arcs only from them, so no labeled vertex is ever
    a transit vertex.  The graph is one CSR array of all arcs, sorted by
    source; an arc into a labeled vertex points at its sink copy, and an
    arc of a used edge or between two labeled vertices (a single edge,
    handled separately) weighs inf, which no shortest path takes.  `label`
    patches in only the arcs at each stage's new vertices and edges.  With
    the labeled ids in sorted order, the first maximum of
    |f(b) - f(a)| / d(a, b) over pairs a < b, d read from a's row, is the
    pair that `_rank` puts first; `_lexicographic_path` then recovers its
    interior.

    Rows are bounded lazily.  Between searches vertices only become labeled
    and edges only become used, so no path between two labeled vertices
    appears and every old pair's slope can only fall.  `bound[a]` holds row
    a's maximum from its last run (inf before its first), raised by a
    margin-inflated slope for each pair (a, b) with b labeled since: d(a, b)
    then came from b's row, and the two directions can differ in the last
    bits.  A search first runs every row bounded at or above the previous
    search's slope, the newly labeled ones included, then every other row
    whose bound reaches its best slope less the margin.  No row left out
    can hold a pair at the best slope, so the tie rule sees every such pair.

    Once a search returns slope 0, every later search takes the first
    connected pair (`_first_connected`).  That search saw every reachable
    pair at a computed slope of 0, so with equal values (unless a nonzero
    difference over its distance underflows to 0); a zero-slope path
    labels its interior with its start's value exactly, and cutting arcs
    never shortens a distance, so every pair reachable later was reachable
    through that start and still has slope 0.  All later slopes are 0 or
    unreachable, and the first row in id order with a reachable later
    column, at its first such column, is the pair the tie rule picks.
    """

    def __init__(self, g: Graph, state: SubgraphState, edges):
        keys, heads, tails, lengths = edges
        n, m = len(g.ids), len(keys)
        order = np.argsort(np.concatenate([heads, tails]), kind="stable")
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        self.n = n
        self.index = {v: i for i, v in enumerate(g.ids)}
        self.edge_index = dict(zip(keys, range(m)))
        self.src = np.concatenate([heads, tails])[order]
        self.dst = np.concatenate([tails, heads])[order]
        self.twin = where[(order + m) % max(2 * m, 1)]  # the reverse arc
        self.arcs = where.reshape(2, m)  # the two arcs of each edge
        self.starts = np.searchsorted(self.src, np.arange(n + 1))
        self.labeled = np.fromiter(map(state.labeled.__contains__, g.ids), bool, n)
        self.f = np.array([state.labeled.get(v, 0.0) for v in g.ids])
        indptr = np.full(2 * n + 1, order.size)
        indptr[:n + 1] = self.starts
        self.graph = csr_array((np.concatenate([lengths, lengths])[order],
                                np.where(self.labeled[self.dst], self.dst + n, self.dst),
                                indptr), shape=(2 * n, 2 * n))
        self.live = np.diff(self.starts)  # finite arcs out of each vertex
        used = np.fromiter(map(state.used_edges.__contains__, keys), bool, m)
        self._cut(np.concatenate([self.arcs[:, used].ravel(),
                                  np.flatnonzero(self.labeled[self.src] & self.labeled[self.dst])]))
        self.bound = np.full(n, np.inf)  # inf: never run
        self.last = np.inf

    def _cut(self, arcs: np.ndarray) -> None:
        """Give the arcs weight inf."""
        data = self.graph.data
        arcs = np.unique(arcs)
        arcs = arcs[np.isfinite(data[arcs])]
        data[arcs] = np.inf
        np.subtract.at(self.live, self.src[arcs], 1)

    def label(self, state: SubgraphState, path: ConnectingPath) -> None:
        """Record the vertices and edges that applying `path` consumed."""
        new = np.array([self.index[v] for v in path.vertices[1:-1]], dtype=np.intp)
        self.labeled[new] = True
        self.f[new] = [state.labeled[v] for v in path.vertices[1:-1]]
        out = np.concatenate([np.arange(self.starts[i], self.starts[i + 1]) for i in new])
        self.graph.indices[self.twin[out]] = self.src[out] + self.n
        used = self.arcs[:, [self.edge_index[e] for e in path.edges]].ravel()
        between = out[self.labeled[self.dst[out]]]
        self._cut(np.concatenate([used, between, self.twin[between]]))

    def steepest(self) -> tuple[int, int] | None:
        """Vertex indices (a, b), a < b, of the first steepest pair."""
        graph = self.graph
        cols = np.flatnonzero(self.labeled)
        rows = cols[self.live[cols] > 0]
        f = self.f[cols]
        sinks = cols + self.n
        if self.last == 0.0:
            return self._first_connected(rows, cols, sinks, f)
        best = [-1.0, -1, -1]
        cross = np.full(cols.size, -1.0)

        def run(todo: np.ndarray) -> None:
            for start in range(0, todo.size, SOURCE_BLOCK):
                r = todo[start:start + SOURCE_BLOCK]
                slope = _slopes(graph, r, sinks, self.f[r], f)
                fresh = np.isinf(self.bound[r])
                if fresh.any():  # their pairs (b, a), b < a, belong to b's row
                    earlier = np.where(cols < r[fresh, None], slope[fresh], -1.0)
                    np.maximum(cross, earlier.max(axis=0), out=cross)
                slope[cols <= r[:, None]] = -1.0
                c = np.argmax(slope, axis=1)
                top = slope[np.arange(r.size), c]
                self.bound[r] = top
                i = int(np.argmax(top))
                if top[i] > best[0] or (top[i] == best[0] and r[i] < best[1]):
                    best[:] = float(top[i]), int(r[i]), int(cols[c[i]])

        if rows.size <= SMALL_SEARCH:
            run(rows)
        else:
            first = self.bound[rows] >= self.last
            run(rows[first])
            ran = np.zeros(self.labeled.size, dtype=bool)
            ran[rows[first]] = True
            old = ~ran[cols]
            self.bound[cols[old]] = np.maximum(self.bound[cols[old]],
                                               cross[old] * (1.0 + BOUND_MARGIN))
            rest = rows[~first]
            run(rest[self.bound[rest] >= best[0] * (1.0 - BOUND_MARGIN)])
        self.last = best[0]
        return None if best[0] < 0.0 else (best[1], best[2])

    def _first_connected(self, rows: np.ndarray, cols: np.ndarray, sinks: np.ndarray,
                         f: np.ndarray) -> tuple[int, int] | None:
        """The first row with a reachable later column, and its first such
        column: the steepest pair once the slope is 0.  Rows run in id order,
        in blocks of 1, 2, 4, ... up to SOURCE_BLOCK."""
        start, size = 0, 1
        while start < rows.size:
            r = rows[start:start + size]
            slope = _slopes(self.graph, r, sinks, self.f[r], f)
            slope[cols <= r[:, None]] = -1.0
            hit = np.flatnonzero((slope >= 0.0).any(axis=1))
            if hit.size:
                i = int(hit[0])
                c = int(np.argmax(slope[i]))
                self.last = float(slope[i, c])
                return int(r[i]), int(cols[c])
            start += size
            size = min(2 * size, SOURCE_BLOCK)
        self.last = -1.0
        return None

    def interior_path(self, g: Graph, state: SubgraphState) -> ConnectingPath | None:
        """Steepest connecting path with at least one interior vertex."""
        pair = self.steepest()
        if pair is None:
            return None
        return _lexicographic_path(g, state, g.ids[pair[0]], g.ids[pair[1]])


def _lexicographic_path(g: Graph, state: SubgraphState, a: str, b: str) -> ConnectingPath:
    """Shortest interior route from labeled a to labeled b.

    Heap entries carry the path itself, so equal-length ties resolve to
    the smallest vertex sequence.
    """
    labeled = state.labeled
    used = state.used_edges
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (a,))]
    closed: set[str] = set()
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in closed:
            continue
        closed.add(v)
        if v == b:
            lengths = tuple(g.lengths[_edge_key(x, y)] for x, y in zip(path, path[1:]))
            return _oriented(path, lengths, labeled)
        if v != a and v in labeled:
            continue
        for w, ln in g.neighbors(v):
            if w in closed or _edge_key(v, w) in used:
                continue
            if w in labeled and v == a:
                continue  # single edges are handled separately
            heapq.heappush(heap, (dist + ln, path + (w,)))
    raise InvalidPath(f"no interior route from {a!r} to {b!r}")


def find_max_slope_connecting_path(g: Graph, state: SubgraphState) -> ConnectingPath | None:
    """Steepest connecting path over all labeled pairs, or None."""
    cands = _single_edge_candidates(g, state, state.labeled)
    interior = _PathSearch(g, state, edge_arrays(g)).interior_path(g, state)
    if interior is not None:
        cands.append(interior)
    if not cands:
        return None
    return min(cands, key=_rank)


def apply_path(state: SubgraphState, path: ConnectingPath) -> SubgraphState:
    """Label the interior of the path by linear interpolation."""
    labeled = state.labeled
    v0, vk = path.vertices[0], path.vertices[-1]
    if v0 not in labeled or vk not in labeled:
        raise InvalidPath("endpoints must be labeled")
    if labeled[vk] < labeled[v0]:
        raise InvalidPath("path must be oriented with nondecreasing endpoint values")
    if len(set(path.vertices)) != len(path.vertices):
        raise InvalidPath("path vertices must be distinct")
    for v in path.vertices[1:-1]:
        if v in labeled:
            raise InvalidPath(f"interior vertex {v!r} already labeled")
    for e in path.edges:
        if e in state.used_edges:
            raise InvalidPath(f"edge {e} already used")
    new = state.copy()
    acc = 0.0
    base = labeled[v0]
    for v, ln in zip(path.vertices[1:-1], path.lengths):
        acc += ln
        new.labeled[v] = base + path.slope * acc
    new.used_edges.update(path.edges)
    new.stage_slopes.append(path.slope)
    return new


def finalize_components(g: Graph, state: SubgraphState) -> dict[str, float]:
    """Flood the remaining unlabeled components from their attachments.

    Pre: no connecting path exists.  Each unlabeled component then touches
    exactly one labeled vertex and receives its value.
    """
    labeled = dict(state.labeled)
    seen: set[str] = set()
    for start in g.ids:
        if start in labeled or start in seen:
            continue
        comp = [start]
        seen.add(start)
        attachments: set[str] = set()
        queue = [start]
        while queue:
            v = queue.pop()
            for w, _ in g.neighbors(v):
                if w in state.labeled:
                    attachments.add(w)
                elif w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        if len(attachments) != 1:
            raise MultipleAttachments(
                f"component of {start!r} attaches to {sorted(attachments)}"
            )
        val = state.labeled[attachments.pop()]
        for v in comp:
            labeled[v] = val
    return labeled


def solve_scalar(g: Graph) -> ExtensionResult:
    """Exact extension of scalar boundary data on a connected graph."""
    require_valid(g)
    if g.value_dim() != 1:
        raise MethodUnavailable("the connecting-path solver requires scalar values")
    state = initial_state(g)
    search = _PathSearch(g, state, edge_arrays(g))
    # single labeled-labeled edges neither move values nor relabel anything,
    # so the steepest interior path stays valid while they are drained
    interior = search.interior_path(g, state)
    # (rank, path) heap; ranks are unique, one edge each
    pending = [(_rank(p), p) for p in _single_edge_candidates(g, state, state.labeled)]
    heapq.heapify(pending)
    while True:
        top = _rank(interior) if interior is not None else None
        while pending and (top is None or pending[0][0] < top):
            path = heapq.heappop(pending)[1]
            state.used_edges.update(path.edges)
            state.stage_slopes.append(path.slope)
        if interior is None:
            break
        log.debug("stage %d: slope %.6g through %s",
                  len(state.stage_slopes) + 1, interior.slope, interior.vertices)
        state = apply_path(state, interior)
        search.label(state, interior)
        # only edges at the newly labeled vertices can have become single
        for p in _single_edge_candidates(g, state, interior.vertices[1:-1]):
            heapq.heappush(pending, (_rank(p), p))
        interior = search.interior_path(g, state)
    values = finalize_components(g, state)
    vf: VertexFunction = {v: np.array([val]) for v, val in values.items()}
    report = verify_extension(g, vf)
    return ExtensionResult(vf, report, list(state.stage_slopes))


def gauss_seidel_scalar(g: Graph, tol: float = 1e-10, max_iter: int = 100_000) -> ExtensionResult:
    """Sweep solver: replace each interior value by its local optimum.

    Initializes the interior at the mean of the boundary data and stops
    once no value moves by more than tol in a sweep.  Raises ValueError
    unless tol is a positive finite number.
    """
    require_valid(g)
    if g.value_dim() != 1:
        raise MethodUnavailable("gauss_seidel_scalar requires scalar values")
    values, _, converged = _sweep(g, tol, max_iter)
    report = verify_extension(g, values)
    if not converged:
        raise NotConverged(
            f"displacement above {tol} after {max_iter} sweeps", values=values, report=report
        )
    return ExtensionResult(values, report, None)


def _boundary_range(g: Graph, tol: float) -> tuple[float, float, float]:
    """(lo, hi, slack): the range of the scalar boundary data and the
    checks' tolerance, tol times its span (tol for constant data)."""
    fvals = [float(v[0]) for v in g.boundary_values.values()]
    lo, hi = min(fvals), max(fvals)
    return lo, hi, tol * (hi - lo) if hi > lo else tol


def maximum_principle(g: Graph, u: VertexFunction, tol: float = 1e-9) -> tuple[bool, str | None]:
    """Whether every value of the scalar candidate u is finite and lies in
    the range of the boundary data, widened by tol times its span (by tol
    for constant data), with the first vertex in id order that does not."""
    lo, hi, scaled = _boundary_range(g, tol)
    for x in g.ids:
        val = float(u[x][0])
        if not (math.isfinite(val) and lo - scaled <= val <= hi + scaled):
            return False, x
    return True, None


def verify_extension(g: Graph, u: VertexFunction, tol: float = 1e-9) -> VerifyReport:
    """Re-derive the defining checks for a scalar candidate extension."""
    lo, hi, scaled = _boundary_range(g, tol)
    span = hi - lo

    worst, witness = _worst_move(g, u)
    residual_ok = worst <= scaled

    mp_ok, mp_witness = maximum_principle(g, u, tol)

    ids = g.ids
    edges = edge_arrays(g)
    _, heads, tails, lengths = edges
    interior_ratio, k = steepest_edge(edges, np.array([u[x] for x in ids], dtype=float))
    geo_witness = edges[0][k] if k >= 0 else None
    # d(x, y) for x < y is read from source x: the two directions can
    # differ in the last bit
    omega = np.array([i for i, x in enumerate(ids) if x in g.omega], dtype=np.intp)
    f = np.array([float(g.boundary_values[ids[i]][0]) for i in omega])
    n = len(ids)
    graph = csr_array((np.concatenate([lengths, lengths]),
                       (np.concatenate([heads, tails]), np.concatenate([tails, heads]))),
                      shape=(n, n))
    boundary_ratio = max(0.0, _steepest_pair(graph, omega, omega, f, np.arange(omega.size))[0])
    geodesic_ok = interior_ratio <= boundary_ratio * (1.0 + tol) + (0.0 if span > 0.0 else tol)
    if geodesic_ok:
        geo_witness = None

    return VerifyReport(
        residual=worst,
        residual_ok=residual_ok,
        residual_witness=None if residual_ok else witness,
        max_principle_ok=mp_ok,
        max_principle_witness=mp_witness,
        interior_ratio=interior_ratio,
        boundary_ratio=boundary_ratio,
        geodesic_ok=geodesic_ok,
        geodesic_witness=geo_witness,
        tol=tol,
    )
