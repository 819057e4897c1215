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
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

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

log = logging.getLogger("lipext.scalar")

# Sources per multi-source Dijkstra call: bounds each distance block at
# SOURCE_BLOCK x 2|V| floats.
SOURCE_BLOCK = 64


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


def _steepest_pair(graph: csr_array, src: np.ndarray, dst: np.ndarray, f: np.ndarray,
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
        dist = dijkstra(graph, directed=True, indices=src[r])[:, dst]
        with np.errstate(divide="ignore", invalid="ignore"):  # masked below
            slope = np.abs(f - f[r, None]) / dist
        slope[(cols <= r[:, None]) | np.isinf(dist) | (dist == 0.0)] = -1.0
        i, c = divmod(int(np.argmax(slope)), f.size)
        if slope[i, c] > best[0]:
            best = (float(slope[i, c]), int(r[i]), c)
    return best


def _best_interior_path(g: Graph, state: SubgraphState, edges) -> ConnectingPath | None:
    """Steepest connecting path with at least one interior vertex.

    The distances come from a split graph: each labeled vertex keeps its
    node as a source copy with arcs only to unlabeled neighbours, and gets
    a sink copy with arcs only from them, so no labeled vertex is ever a
    transit vertex.  With the labeled ids in sorted order, the first
    maximum of |f(b) - f(a)| / d(a, b) over pairs a < b is the pair that
    `_rank` puts first; `_lexicographic_path` then recovers its interior.
    `edges` is `edge_arrays(g)`, built once per solve.
    """
    labeled, used = state.labeled, state.used_edges
    n = len(g.ids)
    is_lab = np.fromiter(map(labeled.__contains__, g.ids), bool, n)
    keys, heads, tails, lengths = edges
    free = ~np.fromiter(map(used.__contains__, keys), bool, len(keys))
    heads, tails, lengths = heads[free], tails[free], lengths[free]
    lab_h, lab_t = is_lab[heads], is_lab[tails]
    keep = ~(lab_h & lab_t)  # single edges are handled separately
    heads, tails, lengths = heads[keep], tails[keep], lengths[keep]
    # an arc into labeled vertex v enters its sink copy n + v
    rows = np.concatenate([heads, tails])
    cols = np.concatenate([tails + n * lab_t[keep], heads + n * lab_h[keep]])
    graph = csr_array((np.concatenate([lengths, lengths]), (rows, cols)), shape=(2 * n, 2 * n))
    lab = np.flatnonzero(is_lab)
    has_arc = np.zeros(n, dtype=bool)
    has_arc[rows] = True
    f = np.array([labeled[g.ids[i]] for i in lab])
    slope, r, c = _steepest_pair(graph, lab, n + lab, f, np.flatnonzero(has_arc[lab]))
    if slope < 0.0:
        return None
    return _lexicographic_path(g, state, g.ids[lab[r]], g.ids[lab[c]])


def _lexicographic_path(g: Graph, state: SubgraphState, a: str, b: str) -> ConnectingPath:
    """Shortest interior route from labeled a to labeled b.

    Heap entries carry the path itself, so equal-length ties resolve to
    the smallest vertex sequence.
    """
    labeled = state.labeled
    used = state.used_edges
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (a,))]
    closed: set[str] = set()
    lengths: dict[tuple[str, ...], tuple[float, ...]] = {(a,): ()}
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in closed:
            lengths.pop(path, None)
            continue
        closed.add(v)
        plens = lengths.pop(path)
        if v == b:
            return _oriented(path, plens, labeled)
        if v != a and v in labeled:
            continue
        for w, ln in g.neighbors(v):
            if w in closed or _edge_key(v, w) in used:
                continue
            if w in labeled and v == a:
                continue  # single edges are handled separately
            np_path = path + (w,)
            heapq.heappush(heap, (dist + ln, np_path))
            lengths[np_path] = plens + (ln,)
    raise InvalidPath(f"no interior route from {a!r} to {b!r}")


def find_max_slope_connecting_path(g: Graph, state: SubgraphState) -> ConnectingPath | None:
    """Steepest connecting path over all labeled pairs, or None."""
    cands = _single_edge_candidates(g, state, state.labeled)
    interior = _best_interior_path(g, state, edge_arrays(g))
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
    edges = edge_arrays(g)
    # single labeled-labeled edges neither move values nor relabel anything,
    # so the steepest interior path stays valid while they are drained
    interior = _best_interior_path(g, state, edges)
    pending = _single_edge_candidates(g, state, state.labeled)
    pending.sort(key=_rank)
    while True:
        take_single = bool(pending) and (
            interior is None or _rank(pending[0]) < _rank(interior)
        )
        if take_single:
            path = pending.pop(0)
            state.used_edges.update(path.edges)
            state.stage_slopes.append(path.slope)
            continue
        if interior is None:
            break
        log.debug("stage %d: slope %.6g through %s",
                  len(state.stage_slopes) + 1, interior.slope, interior.vertices)
        state = apply_path(state, interior)
        # only edges at the newly labeled vertices can have become single
        pending.extend(_single_edge_candidates(g, state, interior.vertices[1:-1]))
        pending.sort(key=_rank)
        interior = _best_interior_path(g, state, edges)
    values = finalize_components(g, state)
    vf: VertexFunction = {v: np.array([val]) for v, val in values.items()}
    report = verify_extension(g, vf)
    return ExtensionResult(vf, report, list(state.stage_slopes))


def gauss_seidel_scalar(g: Graph, tol: float = 1e-10, max_iter: int = 100_000) -> ExtensionResult:
    """Sweep solver: replace each interior value by its local optimum.

    Initializes the interior at the mean of the boundary data and stops
    once no value moves by more than tol in a sweep.
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
    """Whether every value of the scalar candidate u lies in the range of
    the boundary data, widened by tol times its span (by tol for constant
    data), with the first vertex in id order that does not."""
    lo, hi, scaled = _boundary_range(g, tol)
    for x in g.ids:
        val = float(u[x][0])
        if val < lo - scaled or val > hi + scaled:
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
