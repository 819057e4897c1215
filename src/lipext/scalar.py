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

`solve_scalar` runs its stages on the graph's indexed form alone
(`_PathSearch`, `_stages`).  The public stage operations on id-keyed state
(`initial_state`, `find_max_slope_connecting_path`, `apply_path`,
`finalize_components`) are the slow path it is checked against.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import InvalidPath, MethodUnavailable, MultipleAttachments, NotConverged
# perfbench/tracing.py wraps geodesic_distances_from, pairwise_optimum and
# validate here
from .graph import (  # noqa: F401
    Graph,
    Indexed,
    VertexFunction,
    geodesic_distances_from,
    require_valid,
    sparse_graph,
    steepest_edge,
    validate,
)
from .kpoint import pairwise_optimum  # noqa: F401
from .vector import _sweep, _worst_move

if TYPE_CHECKING:
    from scipy.sparse import csr_array as CSRArray

log = logging.getLogger("lipext.scalar")


def dijkstra(*args, **kwargs):
    """scipy.sparse.csgraph.dijkstra, imported on first use (see
    `graph.sparse_graph`)."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(*args, **kwargs)


# Sources per multi-source Dijkstra call: bounds each distance block at
# SOURCE_BLOCK x 2|V| floats, and the path search's predecessor block at as
# many indices.
SOURCE_BLOCK = 64
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
            f_to: np.ndarray, limit: float = math.inf) -> np.ndarray:
    """|f_to[c] - f_from[r]| / d(sources[r], sinks[c]) for every row r and
    column c, in one multi-source Dijkstra call that stops at distance
    limit; -1 where the sink is beyond it, unreachable or at distance 0."""
    dist = dijkstra(graph, directed=True, indices=sources, limit=limit)[:, sinks]
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        slope = np.abs(f_to - f_from[:, None]) / dist
    slope[np.isinf(dist) | (dist == 0.0)] = -1.0
    return slope


def _boundary_ratio(graph: CSRArray, omega: np.ndarray, f: np.ndarray, theta: float) -> float:
    """Largest |f[c] - f[r]| / d(omega[r], omega[c]) over pairs r < c at a
    finite positive distance, d read from omega[r]'s row, or 0.0 when there
    is none (constant data included).

    The rows but the last, which has no later column, go through one
    multi-source Dijkstra call per SOURCE_BLOCK of them.  A call stops at
    the largest value difference of its pairs over theta (widened by
    BOUND_MARGIN against rounding): every pair of slope theta or more lies
    within that limit, and Dijkstra gives each vertex within it the same
    distance, bit for bit, as without one.  So a maximum that reaches theta
    is the exact one; otherwise the rows run again without limits.  A theta
    that is not a positive finite number sets no limit."""
    if f.size < 2 or f.min() == f.max():
        return 0.0
    rows = np.arange(f.size - 1)
    cols = np.arange(f.size)
    # the largest |f[c] - f[r]| over c > r, for each row r
    later_max = np.maximum.accumulate(f[::-1])[-2::-1]
    later_min = np.minimum.accumulate(f[::-1])[-2::-1]
    reach = np.maximum(later_max - f[:-1], f[:-1] - later_min)
    bounded = theta > 0.0 and math.isfinite(theta)
    best, exact = -1.0, True
    for start in range(0, rows.size, SOURCE_BLOCK):
        r = rows[start:start + SOURCE_BLOCK]
        limit = float(reach[r].max()) / theta * (1.0 + BOUND_MARGIN) if bounded else math.inf
        if not limit < math.inf:  # inf or nan
            limit = math.inf
        exact &= limit == math.inf
        slope = _slopes(graph, omega[r], omega, f[r], f, limit)
        slope[cols <= r[:, None]] = -1.0
        top = slope.flat[np.argmax(slope)]
        if top > best:
            best = float(top)
    if not (exact or best >= theta):
        return _boundary_ratio(graph, omega, f, 0.0)
    return max(0.0, best)


class _PathSearch:
    """Steepest connecting paths, stage after stage of one solve, on the
    graph's indexed form.

    The solve's state is a labeled mask, a value array and the arcs of a
    split graph: each labeled vertex keeps its node as a source copy with
    arcs only to unlabeled neighbours, and gets a sink copy n + v with arcs
    only from them, so no labeled vertex is ever a transit vertex.  The
    graph is one CSR array of all arcs (`Indexed`), on copies of their
    destinations and lengths: an arc into a labeled vertex points at its
    sink copy, and an arc of a used edge or between two labeled vertices (a
    single edge, handled separately) weighs inf, which no shortest path
    takes.  `label` applies a stage and patches in only the arcs at its new
    vertices and edges.

    `steepest` gives the first maximum of |f(b) - f(a)| / d(a, b) over
    labeled pairs a < b, d read from a's row: the pair that `_rank` puts
    first.  Each row is kept from one search to the next with its maximum,
    the column of its first maximum and the interior vertices of its route
    there (Dijkstra's predecessors).  Between searches vertices only become
    labeled and edges only become used, so every distance can only grow.
    While no vertex on a row's route is labeled, the route is intact and
    keeps its float distance bit for bit, so the row's old answer stands
    against every old column.  Only the newly labeled columns can move it.
    Their pairs with an older row a come from the new rows, d(b, a) for
    d(a, b), and the two directions can differ in the last bits: a row is
    rerun when such a slope, widened by BOUND_MARGIN, reaches its maximum.
    A row whose route is broken keeps its old maximum as an upper bound,
    raised the same way, and is rerun only once that bound reaches the
    best slope less the margin.  So a search first runs the new rows and
    the broken rows bounded at or above the largest kept maximum, then
    the rows that the new rows' pairs lift to the best slope.  No row left
    out can hold a pair at the best slope, so the tie rule sees every such
    pair.  `interior` then recovers the pair's route.
    """

    def __init__(self, g: Graph, state: SubgraphState):
        form = g.indexed
        n = len(g.ids)
        self.n, self.ids, self.form = n, g.ids, form
        self.src, self.dst, self.arcs = form.src, form.dst, form.arcs
        self.key = self.src * n + self.dst  # ascending: arcs sort by source, then destination
        self.starts = form.indptr  # each vertex's first arc
        self.twin = np.empty_like(self.src)  # the reverse arc
        self.twin[self.arcs] = self.arcs[::-1]
        self.edge = np.empty_like(self.src)  # the edge of each arc
        self.edge[self.arcs] = np.arange(self.arcs.shape[1])
        self.labeled = np.fromiter(map(state.labeled.__contains__, g.ids), bool, n)
        self.f = np.array([state.labeled.get(v, 0.0) for v in g.ids])
        # the graph shares the arrays it is given, and `label` writes to them
        self.graph = sparse_graph(self.src,
                                  np.where(self.labeled[self.dst], self.dst + n, self.dst),
                                  form.weight.copy(), 2 * n)
        self.live = np.diff(self.starts)  # finite arcs out of each vertex
        _, heads, tails, _ = form.edges
        used = np.zeros(heads.size, dtype=bool)
        if state.used_edges:
            used[:] = np.fromiter(map(state.used_edges.__contains__, form.edges[0]), bool,
                                  heads.size)
        self._cut(np.concatenate([self.arcs[:, used].ravel(),
                                  np.flatnonzero(self.labeled[self.src] & self.labeled[self.dst])]))
        # the same state as lists, for the per-vertex loops
        self.vals = self.f.tolist()
        self._lab = bytearray(self.labeled)
        self._ptr, self._nbr, self._len = (form.indptr.tolist(), form.dst.tolist(),
                                           form.weight.tolist())
        # the single edges left, as a heap of (-slope, a, b), a < b
        self.pending = self._singles(
            np.flatnonzero(self.labeled[heads] & self.labeled[tails] & ~used))
        heapq.heapify(self.pending)
        # each row's maximum at its last run, the column of its first
        # maximum, and whether that is still its answer; bound holds an
        # upper bound on the answer (inf: never run)
        self.top = np.full(n, -1.0)
        self.col = np.zeros(n, dtype=np.intp)
        self.exact = np.zeros(n, dtype=bool)
        self.bound = np.full(n, np.inf)
        # runs[a] counts row a's runs; watch[x] holds (a, run) for each run
        # whose route passes through x
        self.runs = [0] * n
        self.watch: list = [[] for _ in range(n)]
        self.searches = self.rows_run = self.rows_reused = 0

    def _cut(self, arcs: np.ndarray) -> None:
        """Give the arcs weight inf."""
        if not arcs.size:
            return
        data = self.graph.data
        arcs = np.unique(arcs)
        arcs = arcs[np.isfinite(data[arcs])]
        data[arcs] = np.inf
        np.subtract.at(self.live, self.src[arcs], 1)

    def _singles(self, edges) -> list[tuple[float, int, int]]:
        """Heap entries (-slope, a, b) of the edges, a < b."""
        _, heads, tails, lengths = self.form.edges
        vals = self.vals
        return [(-(abs(vals[b] - vals[a]) / ln), a, b)
                for a, b, ln in zip(heads[edges].tolist(), tails[edges].tolist(),
                                    lengths[edges].tolist())]

    def label(self, path: ConnectingPath) -> list[tuple[float, int, int]]:
        """Apply the stage `path` (vertex indices): label its interior by
        linear interpolation, with `apply_path`'s float sums, and patch the
        arcs at its new vertices and edges.  Returns the single edges it
        makes, as heap entries."""
        n, vals, runs, exact = self.n, self.vals, self.runs, self.exact
        inner = path.vertices[1:-1]
        base, slope, acc = vals[path.vertices[0]], path.slope, 0.0
        for v, ln in zip(inner, path.lengths):
            acc += ln
            vals[v] = base + slope * acc
            self._lab[v] = 1
            for row, run in self.watch[v]:  # routes through v are broken
                if runs[row] == run:
                    exact[row] = False
            self.watch[v] = ()
        at = np.array(path.vertices, dtype=np.intp)
        new = at[1:-1]
        self.labeled[new] = True
        self.f[new] = [vals[v] for v in inner]
        out = np.concatenate([np.arange(self.starts[i], self.starts[i + 1]) for i in new])
        self.graph.indices[self.twin[out]] = self.src[out] + n
        along = np.searchsorted(self.key, at[:-1] * n + at[1:])  # the path's arcs
        between = out[self.labeled[self.dst[out]]]
        self._cut(np.concatenate([along, self.twin[along], between, self.twin[between]]))
        # only edges at the newly labeled vertices can have become single
        return self._singles(list(set(self.edge[between].tolist())
                                  - set(self.edge[along].tolist())))

    def _run(self, rows: np.ndarray, cols: np.ndarray, f: np.ndarray,
             cross: np.ndarray | None = None) -> None:
        """Run the rows and keep each one's maximum over the columns after
        it, the column and the route.  With cross, also raise cross[j] to
        the slope of (cols[j], r) for each never-run row r after cols[j]."""
        n, runs, watch = self.n, self.runs, self.watch
        sinks = cols + n
        for start in range(0, rows.size, SOURCE_BLOCK):
            r = rows[start:start + SOURCE_BLOCK]
            dist, pred = dijkstra(self.graph, directed=True, indices=r, return_predecessors=True)
            dist = dist[:, sinks]
            with np.errstate(divide="ignore", invalid="ignore"):  # masked below
                slope = np.abs(f - self.f[r][:, None]) / dist
            slope[np.isinf(dist) | (dist == 0.0)] = -1.0
            if cross is not None:
                fresh = np.isinf(self.bound[r])
                if fresh.any():  # their pairs (b, a), b < a, belong to b's row
                    earlier = np.where(cols < r[fresh, None], slope[fresh], -1.0)
                    np.maximum(cross, earlier.max(axis=0), out=cross)
            slope[cols <= r[:, None]] = -1.0
            c = np.argmax(slope, axis=1)
            top = slope[np.arange(r.size), c]
            self.top[r] = self.bound[r] = top
            self.col[r] = cols[c]
            self.exact[r] = True
            for i, (row, sink, best) in enumerate(zip(r.tolist(), sinks[c].tolist(),
                                                      top.tolist())):
                runs[row] += 1
                if best >= 0.0:  # walk the route back from the sink
                    back, stamp = pred[i].item, (row, runs[row])
                    x = back(sink)
                    while x != row:
                        watch[x].append(stamp)
                        x = back(x)
        self.rows_run += rows.size

    def _best(self, rows: np.ndarray) -> tuple[float, int]:
        """(slope, row) of the first largest answer among the exact rows."""
        kept = rows[self.exact[rows]]
        if not kept.size:
            return -1.0, -1
        i = int(np.argmax(self.top[kept]))
        return float(self.top[kept[i]]), int(kept[i])

    def steepest(self) -> tuple[float, int, int] | None:
        """(slope, a, b) of the first steepest pair, a < b vertex indices."""
        exact, top, bound = self.exact, self.top, self.bound
        cols = np.flatnonzero(self.labeled)
        rows = cols[self.live[cols] > 0]
        f = self.f[cols]
        fresh = np.isinf(bound[rows])
        old = rows[~fresh]
        # an exact row's pair keeps its slope: a floor for the best one
        floor = top[old[exact[old]]].max(initial=-1.0)
        now = ~exact[old] & (bound[old] >= floor * (1.0 - BOUND_MARGIN))
        first, rest = np.concatenate([rows[fresh], old[now]]), old[~now]
        if rest.size and fresh.any():  # the new rows' pairs lift the rows left out
            cross = np.full(cols.size, -1.0)
            self._run(first, cols, f, cross)
            lift = cross[np.searchsorted(cols, rest)] * (1.0 + BOUND_MARGIN)
            exact[rest[lift >= top[rest]]] = False
            bound[rest] = np.maximum(bound[rest], lift)
        else:
            self._run(first, cols, f)
        best, a = self._best(rows)
        then = rest[~exact[rest]]
        then = then[bound[then] >= best * (1.0 - BOUND_MARGIN)]
        if then.size:
            self._run(then, cols, f)
            best, a = self._best(rows)
        self.searches += 1
        self.rows_reused += rest.size - then.size - int(np.count_nonzero(~exact[rest]))
        return None if best < 0.0 else (best, a, int(self.col[a]))

    def interior(self) -> ConnectingPath | None:
        """Steepest connecting path with at least one interior vertex, by
        vertex index, or None.  Of the shortest routes between the pair, the
        one that `_lexicographic_path` gives: heap entries carry the path
        itself, by true vertex index (a sink copy's index n + v would sort
        after every vertex and change the tie order).  A used edge joins two
        labeled vertices, which the search never steps between."""
        found = self.steepest()
        if found is None:
            return None
        _, a, b = found
        lab, ptr, nbr, length = self._lab, self._ptr, self._nbr, self._len
        closed = bytearray(self.n)
        # the least entry pushed for each vertex: a greater one would pop
        # after it, when the vertex is closed
        least: dict[int, tuple] = {}
        heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (a,))]
        while heap:
            dist, path = heapq.heappop(heap)
            v = path[-1]
            if closed[v]:
                continue
            closed[v] = 1
            if v == b:
                break
            if v != a and lab[v]:
                continue
            for p in range(ptr[v], ptr[v + 1]):
                w = nbr[p]
                if not closed[w] and not (v == a and lab[w]):
                    entry = (dist + length[p], path + (w,))
                    if w not in least or entry < least[w]:
                        least[w] = entry
                        heapq.heappush(heap, entry)
        else:
            raise InvalidPath(f"no interior route from {self.ids[a]!r} to {self.ids[b]!r}")
        at = np.array(path, dtype=np.intp)
        arcs = np.searchsorted(self.key, at[:-1] * self.n + at[1:]).tolist()
        return _oriented(path, tuple(length[p] for p in arcs), self.vals)

    def flood(self) -> np.ndarray:
        """The values of all vertices once no connecting path is left: each
        unlabeled component takes the value of the one labeled vertex it
        touches, as in `finalize_components`."""
        f = self.f
        lab = self.labeled.tolist()
        seen = list(lab)
        ptr, nbr = self._ptr, self._nbr
        for start in np.flatnonzero(~self.labeled).tolist():
            if seen[start]:
                continue
            seen[start] = True
            comp, attachments = [start], set()
            for v in comp:  # grows as the component is found
                for w in nbr[ptr[v]:ptr[v + 1]]:
                    if lab[w]:
                        attachments.add(w)
                    elif not seen[w]:
                        seen[w] = True
                        comp.append(w)
            if len(attachments) != 1:
                raise MultipleAttachments(f"component of {self.ids[start]!r} attaches to "
                                          f"{sorted(self.ids[w] for w in attachments)}")
            f[comp] = f[attachments.pop()]
        return f


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
    found = _PathSearch(g, state).steepest()
    if found is not None:
        cands.append(_lexicographic_path(g, state, g.ids[found[1]], g.ids[found[2]]))
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


def _zero_phase(form: Indexed, labeled: np.ndarray,
                f: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Once the steepest slope is 0: the unlabeled vertices that the
    remaining stages label, in an array, with their values; or None when
    some component of the unlabeled vertices U has labeled neighbours that
    compare unequal.  labeled and f give the state by vertex index.

    No used edge touches U, so two labeled neighbours of one component are
    joined through it by a connecting path.  When they all compare equal,
    every connecting path from here on has slope 0 and labels its interior
    with its start's value + 0.0: the component's common value c + 0.0,
    whichever neighbour it starts from.  A vertex of U is labeled exactly
    when it lies on a connecting path now, that is, in a biconnected block
    of H with a super-terminal t.  H has the edges with an end in U, plus
    an edge from t to every labeled vertex next to U.  Every vertex labeled
    later lies on such a path: a path between two vertices of blocks at t
    closes a cycle with t through each of its interior vertices.  And no
    such vertex stays unlabeled: walked from it to the first labeled vertex
    on each side, its path would still connect.  The blocks come from one
    iterative Tarjan pass from t.
    """
    from scipy.sparse.csgraph import connected_components

    n = labeled.size
    src, dst = form.src, form.dst
    free = ~labeled
    inner = free[src] & free[dst]
    _, comp = connected_components(
        sparse_graph(src[inner], dst[inner], np.ones(np.count_nonzero(inner)), n), directed=False)
    rim = free[src] & labeled[dst]  # arcs from U to its labeled neighbours
    at, val = comp[src[rim]], f[dst[rim]]
    lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
    np.minimum.at(lo, at, val)
    np.maximum.at(hi, at, val)
    if (lo[at] != hi[at]).any():
        return None
    ptr, nbr, lab = form.indptr.tolist(), dst.tolist(), labeled.tolist()
    t = n
    disc, low, parent = [-1] * (n + 1), [0] * (n + 1), [-1] * (n + 1)
    disc[t] = 0
    order: list[int] = []
    stack = [(t, iter(np.unique(dst[rim]).tolist()))]
    while stack:
        v, todo = stack[-1]
        for w in todo:
            if disc[w] < 0:
                disc[w] = low[w] = len(order) + 1
                parent[w] = v
                order.append(w)
                around = nbr[ptr[w]:ptr[w + 1]]
                # a labeled vertex keeps its edges into U and gains t
                stack.append((w, iter([x for x in around if not lab[x]] + [t] if lab[w]
                                      else around)))
                break
            if w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack and low[v] < low[parent[v]]:
                low[parent[v]] = low[v]
    # a tree edge (p, w) shares the block of p's own tree edge iff low[w] < disc[p]
    block = [False] * (n + 1)
    for w in order:
        p = parent[w]
        block[w] = p == t or (block[p] and low[w] < disc[p])
    new = np.array([w for w in order if block[w] and not lab[w]], dtype=np.intp)
    return new, hi[comp[new]] + 0.0


def _finish_at_zero(search: _PathSearch, stages: int) -> int | None:
    """End a solve whose steepest slope is 0 in one pass, if `_zero_phase`
    can: label its vertices in the search's mask and values.  Returns the
    number of zero stages that the stage loop would have run after the
    first `stages`, or None if it cannot; once it has, only the mask and
    the values are current.

    Every edge with both ends in the final labeled set F is used once, by a
    single-edge stage or on a path, and a path with j interior vertices
    uses j + 1 edges.  So the solve runs E_F - (|F| - |omega|) stages, E_F
    the number of such edges, and every stage left has slope 0.
    """
    form, labeled = search.form, search.labeled
    found = _zero_phase(form, labeled, search.f)
    if found is None:
        return None
    new, vals = found
    labeled[new] = True
    search.f[new] = vals
    _, heads, tails, _ = form.edges
    size = int(np.count_nonzero(labeled))
    zeros = (int(np.count_nonzero(labeled[heads] & labeled[tails]))
             - (size - int(np.count_nonzero(form.boundary))) - stages)
    log.debug("slope 0 from stage %d: %d vertices labeled, %d flooded, %d zero stages",
              stages + 1, new.size, labeled.size - size, zeros)
    return zeros


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


def _stages(search: _PathSearch) -> Iterator[tuple[float, tuple[int, ...] | None]]:
    """The stages of a solve in order, applied to the search as they are
    taken: (slope, path), the path by vertex index and oriented so that the
    value rises, or None for each zero stage that `_finish_at_zero`
    appends."""
    pending, vals = search.pending, search.vals
    debug = log.isEnabledFor(logging.DEBUG)
    done = 0
    # single labeled-labeled edges neither move values nor relabel anything,
    # so the steepest interior path stays valid while they are drained
    path = search.interior()
    while True:
        if path is not None:  # `_rank`: at equal slope and ends, the edge goes first
            a, b = path.vertices[0], path.vertices[-1]
            rank = (-path.slope, min(a, b), max(a, b))
        while pending and (path is None or pending[0] <= rank):
            key, a, b = heapq.heappop(pending)
            done += 1
            yield -key, (a, b) if vals[a] <= vals[b] else (b, a)
        if path is None:
            return
        if path.slope == 0.0:
            zeros = _finish_at_zero(search, done)
            if zeros is not None:
                yield from [(0.0, None)] * zeros
                return
        if debug:
            log.debug("stage %d: slope %.6g through %s", done + 1, path.slope,
                      tuple(search.ids[v] for v in path.vertices))
        done += 1
        yield path.slope, path.vertices
        for edge in search.label(path):
            heapq.heappush(pending, edge)
        path = search.interior()


def solve_scalar(g: Graph) -> ExtensionResult:
    """Exact extension of scalar boundary data on a connected graph: the
    stages of `_stages`, on the indexed form alone, then the flood.  The
    values, their sign of zero and the slope log are those of the public
    stage operations (`find_max_slope_connecting_path`, `apply_path` and
    `finalize_components`) driven stage by stage."""
    require_valid(g)
    if g.value_dim() != 1:
        raise MethodUnavailable("the connecting-path solver requires scalar values")
    search = _PathSearch(g, initial_state(g))
    slopes = [slope for slope, _ in _stages(search)]
    values = search.flood().tolist()
    log.debug("%d stages: %d searches, %d rows run, %d rows reused", len(slopes),
              search.searches, search.rows_run, search.rows_reused)
    vf: VertexFunction = {v: np.array([val]) for v, val in zip(g.ids, values)}
    report = verify_extension(g, vf)
    return ExtensionResult(vf, report, slopes)


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
    checks' tolerance, tol times its span (tol for constant data).  Raises
    MethodUnavailable on vector data."""
    if g.value_dim() != 1:
        raise MethodUnavailable("the scalar checks require scalar values")
    fvals = [float(v[0]) for v in g.boundary_values.values()]
    lo, hi = min(fvals), max(fvals)
    return lo, hi, tol * (hi - lo) if hi > lo else tol


def maximum_principle(g: Graph, u: VertexFunction, tol: float = 1e-9) -> tuple[bool, str | None]:
    """Whether every value of the scalar candidate u is finite and lies in
    the range of the boundary data, widened by tol times its span (by tol
    for constant data), with the first vertex in id order that does not.
    Raises MethodUnavailable on vector data."""
    lo, hi, scaled = _boundary_range(g, tol)
    for x in g.ids:
        val = float(u[x][0])
        if not (math.isfinite(val) and lo - scaled <= val <= hi + scaled):
            return False, x
    return True, None


def verify_extension(g: Graph, u: VertexFunction, tol: float = 1e-9) -> VerifyReport:
    """Re-derive the defining checks for a scalar candidate extension.
    Raises MethodUnavailable on vector data."""
    lo, hi, scaled = _boundary_range(g, tol)
    span = hi - lo

    worst, witness = _worst_move(g, u)
    residual_ok = worst <= scaled

    mp_ok, mp_witness = maximum_principle(g, u, tol)

    ids, form = g.ids, g.indexed
    interior_ratio, k = steepest_edge(form.edges, np.array([u[x] for x in ids], dtype=float))
    geo_witness = form.edges[0][k] if k >= 0 else None
    # arcs in (source, destination) order, as scipy sorts (row, column) pairs
    graph = sparse_graph(form.src, form.dst, form.weight, len(ids))
    omega = np.flatnonzero(form.boundary)
    f = np.array([float(g.boundary_values[ids[i]][0]) for i in omega])
    # no boundary pair below this slope decides the bound
    boundary_ratio = _boundary_ratio(graph, omega, f, interior_ratio / (1.0 + tol))
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
