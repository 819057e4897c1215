"""Extension by iterated local replacement, for scalar and vector data.

Each sweep replaces every interior value with the minimax point of its
neighborhood: the pair formula for scalar data, the kernel for vector
data.  `iterate_tight` and `scalar.gauss_seidel_scalar` run this one sweep
loop, and `residual` and `scalar.verify_extension` share one residual
pass.  A sweep replaces the colour classes of a greedy colouring of the
interior in turn, and the residual, which only reads the values, takes the
whole interior as one group.  A group large enough to batch is a block
of pairwise non-adjacent vertices, whose local rule takes a few numpy
passes (`kpoint.KernelBlock`): the pair formula, or the kernel's constant
test and pair phase and then one stacked simplex pass per subset size for
the rows no pair certifies.  The rule gives the per-vertex rule's bits, so
batching changes the cost of a sweep and never its values.  The kernel
itself sees the vertices replaced on their own, and a block row only
where no subset certifies it.  Every replacement tightens the local
Lipschitz profile, and a fixed point of all replacements is an extension
in the defining sense; no convergence rate is guaranteed, so the iteration
certifies whatever limit it reaches through its residual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NotConverged
from .graph import (  # noqa: F401  (perfbench/tracing.py wraps validate here)
    Graph,
    VertexFunction,
    as_vertex_function,
    is_tighter,
    require_valid,
    validate,
)
from .geometry import pow2_shift
from .kpoint import CERT_TOL, KernelBlock, _pair_optimum, minimax_kernel, nnls

log = logging.getLogger("lipext.vector")


@dataclass(frozen=True)
class IterationReport:
    sweeps: int
    final_residual: float
    residual_history: list[float]
    converged: bool


# The fewest vertices replaced in one batched pass, for m = 1 and m > 1;
# smaller groups go vertex by vertex.  A sweep gives the same values either
# way (`_Plan.sweep_order`), so these set the cost alone.  Measured per
# colour class at converged values, batched and vertex by vertex in turn:
# a scalar pass costs about 45 us, as much as 14 pair formulas on grid
# classes (gs7's classes of 12 and 13 break even) and 20 to 24 on random
# graphs, whose vertices have fewer neighbours.  An m = 2 pass costs as
# much as 5 kernel calls on grid classes (a class of 7 with simplex exits:
# 1118 us vertex by vertex, 597 us batched) and about 8 on random graphs
# (classes of 6 to 8 break even), where a class whose rows all end in the
# kernel's cheap constant test stays cheaper vertex by vertex (a class of
# 7: 103 against 211 us).  A sweep reuses its blocks every sweep; the
# residual builds its block for one pass, and breaks even at about 40
# scalar rows, and at about 10 (grids) to 12-17 (random graphs) vector
# rows.
SWEEP_BLOCK_MIN = (16, 7)
RESIDUAL_BLOCK_MIN = (40, 12)
# Vertices of higher degree are replaced one at a time: a block pads every
# row to its largest degree, and the pair step's work per row grows with
# the cube of the width (m = 2: 6 us at degree 4, 11 us at 8, 78 us at 16).
DEGREE_CAP = 8


def _local_rule(m: int):
    """Local replacement for m-vector values, held as plain floats when
    m == 1 and as 1-d arrays otherwise: (rule, at), rule(values, lens)[at]
    being the minimax point of a neighbourhood (the pair formula on lists
    of floats for scalars, the kernel for vectors)."""
    if m == 1:
        return _pair_optimum, 0
    return minimax_kernel, 1


def _move_lengths(moves, m: int) -> np.ndarray:
    """Length of each move, given as a (k, m) array or as a list of moves
    held as `_local_rule` holds values: np.linalg.norm's value to the bit,
    as the stacked matrix product takes each row's dot product as the norm
    takes that of one vector.  When a plain length overflows, or the
    longest is so short that its squares lose bits to underflow (below
    2**-511), and every move is finite and some move nonzero, the moves are
    scaled by a power of two first."""
    d = np.asarray(moves, dtype=float).reshape(-1, m)
    if m == 1:
        return np.abs(d[:, 0])
    with np.errstate(over="ignore"):
        lengths = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    if not 2.0**-511 <= lengths.max(initial=0.0) < math.inf and np.isfinite(d).all() and d.any():
        shift = pow2_shift(float(np.abs(d).max()))
        return np.ldexp(_move_lengths(np.ldexp(d, shift), m), -shift)
    return lengths


@dataclass(frozen=True)
class _Block:
    """Pairwise non-adjacent interior vertices, replaced together: their
    rows of u, their neighbours' rows padded to the largest degree, and
    the local rule over their neighbourhoods."""

    rows: np.ndarray
    nbrs: np.ndarray
    rule: KernelBlock

    def step(self, u: np.ndarray) -> np.ndarray:
        """New values of the rows, read from the (vertices, m) array u.  A
        row that no subset certifies goes to the kernel on its own, which
        raises NoCertifiedSubset for it."""
        new, certified = self.rule.step(u.T[:, self.nbrs])
        for r in np.flatnonzero(~certified):
            n = self.rule.count[r]
            new[r] = minimax_kernel(u[self.nbrs[r, :n]], self.rule.dists[r, :n].tolist())[1]
        return new


class _Plan:
    """Replacement groups of a graph's interior vertices: a block (or None)
    and single vertices (row, neighbour rows, lengths), rows being indices
    into g.ids, to be replaced in turn."""

    def __init__(self, g: Graph, block_min: int):
        index = {v: i for i, v in enumerate(g.ids)}
        interior = g.interior()
        adj = [g.neighbors(v) for v in interior]
        self.rows = [index[v] for v in interior]
        # neighbours of the k-th interior vertex: cols and lengths from
        # start[k] to start[k + 1], in `neighbors` order
        self.start = list(accumulate(map(len, adj), initial=0))
        self.cols = [index[w] for a in adj for w, _ in a]
        self.lengths = [ln for a in adj for _, ln in a]
        self.block_min = block_min

    def _single(self, k: int):
        s, e = self.start[k], self.start[k + 1]
        return self.rows[k], self.cols[s:e], self.lengths[s:e]

    def group(self, ks: list[int]):
        """(block, singles) for pairwise non-adjacent interior vertices, by
        position in the interior: those of degree up to DEGREE_CAP form the
        block when there are at least block_min of them, and the rest are
        singles."""
        start = self.start
        batched = [k for k in ks if start[k + 1] - start[k] <= DEGREE_CAP]
        if len(batched) < self.block_min:
            return None, [self._single(k) for k in ks]
        # rows are padded with repeats of their first neighbour (KernelBlock)
        at = np.array([start[k] for k in batched])
        degree = np.array([start[k + 1] for k in batched]) - at
        col = np.arange(degree.max())
        take = at[:, None] + np.where(col < degree[:, None], col, 0)
        block = _Block(np.array([self.rows[k] for k in batched], dtype=np.intp),
                       np.array(self.cols, dtype=np.intp)[take],
                       KernelBlock(np.array(self.lengths)[take], degree))
        return block, [self._single(k) for k in ks if start[k + 1] - start[k] > DEGREE_CAP]

    def sweep_order(self) -> list:
        """Gauss-Seidel groups: the colour classes of a greedy colouring of
        the interior in id order (red-black on grids), each split by
        `group`.  No two vertices of a class are adjacent, so a class
        replaced in one batched pass and the same class replaced vertex by
        vertex give the same values: block_min sets the cost alone."""
        colour: dict[int, int] = {}
        classes: list[list[int]] = []
        for k, row in enumerate(self.rows):
            used = {colour.get(j) for j in self.cols[self.start[k]:self.start[k + 1]]}
            c = 0
            while c in used:
                c += 1
            colour[row] = c
            if c == len(classes):
                classes.append([])
            classes[c].append(k)
        return [self.group(c) for c in classes]


def _centroid(bvals: np.ndarray) -> np.ndarray:
    """Mean of the rows of bvals.  When the plain mean overflows, the rows
    are scaled by a power of two first, so finite data has a finite mean
    and the rest keeps the plain mean's bits."""
    with np.errstate(over="ignore"):
        mean = np.mean(bvals, axis=0)
    if np.all(np.isfinite(mean)) or not np.all(np.isfinite(bvals)):
        return mean
    shift = pow2_shift(float(np.abs(bvals).max()))
    return np.ldexp(np.mean(np.ldexp(bvals, shift), axis=0), -shift)


def _sweep(g: Graph, tol: float, max_iter: int):
    """Gauss-Seidel sweeps of local replacement until no value moves by tol
    or more; at most max_iter sweeps.

    A sweep replaces the colour classes of a greedy colouring in turn
    (`_Plan.sweep_order`): each class of at least SWEEP_BLOCK_MIN vertices
    in one batched pass, a smaller one vertex by vertex in id order.  No two
    vertices of a class are adjacent, so both give the same values, sweep
    counts and histories.  Interior values start at the centroid of the
    boundary data over sorted omega.  Returns (values, history,
    converged), history holding each sweep's largest move.  Raises
    ValueError unless tol is a positive finite number.  The graph is not
    validated here.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    ids = g.ids
    centroid = _centroid(np.array([g.boundary_values[b] for b in sorted(g.omega)]))
    m = centroid.size
    rule, at = _local_rule(m)
    order = _Plan(g, SWEEP_BLOCK_MIN[m > 1]).sweep_order()
    rows = [g.boundary_values[v] if v in g.omega else centroid for v in ids]
    # blocks read and write a (vertices, m) array.  Graphs without a block
    # keep a list: scalar steps that index the array's column read numpy
    # scalars, which made the benchmark's small sweeps (`sweep` solve_s.S,
    # query_ms.p50) 8-10 % slower, 9 and 10 of 10 run pairs
    if any(block is not None for block, _ in order):
        u = np.array(rows, dtype=float)
        vals = u[:, 0] if m == 1 else u
    else:
        vals = [float(x[0]) for x in rows] if m == 1 else rows
    history: list[float] = []
    converged = False
    for _ in range(max_iter):
        delta = 0.0
        moves = []
        for block, singles in order:
            if block is not None:
                new = block.step(u)
                delta = max(delta, float(_move_lengths(new - u[block.rows], m).max()))
                u[block.rows] = new
            for i, idxs, lens in singles:
                new = rule([vals[j] for j in idxs], lens)[at]
                moves.append(new - vals[i])
                vals[i] = new
        if moves:
            # the single vertices' moves in one pass per sweep; plain float
            # moves: Python's abs and max cost less than numpy
            longest = max(map(abs, moves)) if m == 1 else float(_move_lengths(moves, m).max())
            delta = max(delta, longest)
        history.append(delta)
        if delta < tol:
            converged = True
            break
    log.debug("%d sweeps, converged=%s", len(history), converged)
    values: VertexFunction = {v: np.array(vals[i], dtype=float, ndmin=1) for i, v in enumerate(ids)}
    return values, history, converged


def iterate_tight(g: Graph, tol: float = 1e-10, max_iter: int = 100_000):
    """Sweep local replacements until no value moves by more than tol.

    Returns (values, report); raises NotConverged with the partial result
    when the sweep budget runs out, and ValueError unless tol is a positive
    finite number.  Interior values start at the centroid of the boundary
    data, so they remain inside its convex hull throughout.
    """
    require_valid(g)
    values, history, converged = _sweep(g, tol, max_iter)
    report = IterationReport(len(history), residual(g, values), history, converged)
    if not converged:
        raise NotConverged(
            f"displacement above {tol} after {max_iter} sweeps",
            values=values, report=report,
        )
    return values, report


def _worst_move(g: Graph, u: VertexFunction) -> tuple[float, str | None]:
    """Largest distance between an interior value of u and its neighbourhood
    optimum, with the first vertex in id order that attains it.

    u is only read, so the whole interior is one group (`_Plan.group`)."""
    m = g.value_dim()
    rule, at = _local_rule(m)
    plan = _Plan(g, RESIDUAL_BLOCK_MIN[m > 1])
    block, singles = plan.group(list(range(len(plan.rows))))
    # a list for the single steps and an array for the block, as in `_sweep`
    vals = [float(u[v][0]) for v in g.ids] if m == 1 else [u[v] for v in g.ids]
    lengths = _move_lengths([rule([vals[j] for j in idxs], lens)[at] - vals[i]
                             for i, idxs, lens in singles], m)
    moves = dict(zip([i for i, _, _ in singles], lengths.tolist()))
    if block is not None:
        arr = np.array(vals, dtype=float).reshape(len(vals), m)
        lengths = _move_lengths(block.step(arr) - arr[block.rows], m)
        moves.update(zip(block.rows.tolist(), lengths.tolist()))
    worst, witness = 0.0, None
    for i in plan.rows:
        if moves[i] > worst:
            worst, witness = moves[i], g.ids[i]
    return worst, witness


def residual(g: Graph, u) -> float:
    """Largest distance between a value and its neighborhood optimum."""
    return _worst_move(g, as_vertex_function(u))[0]


def local_replacement_tightens(g: Graph, u, x: str, tol: float = CERT_TOL) -> bool:
    """Replace u(x) by its neighborhood optimum and compare tightness.

    Pre: the replacement actually moves the value (beyond tol relative to
    the local scale); the result is true for every such instance.
    """
    u = as_vertex_function(u)
    nv = np.array([u[w] for w, _ in g.neighbors(x)])
    lens = np.array([ln for _, ln in g.neighbors(x)])
    lam, point, _, _, _ = minimax_kernel(nv, lens)
    scale = max(lam * float(lens.max()), 1e-300)
    if float(np.linalg.norm(point - u[x])) <= tol * scale:
        raise ValueError("replacement does not move the value; precondition unmet")
    v = dict(u)
    v[x] = point
    return is_tighter(g, v, u)


def boundary_hull_gap(g: Graph, u) -> tuple[float, str | None]:
    """Worst normalized distance from a value to the boundary hull.

    Nonnegative-least-squares reconstruction of each value as a convex
    combination of the boundary values; the distance is relative to the
    spread of the boundary data, after discounting coordinate rounding
    noise so that (near-)constant data does not explode the ratio.
    """
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
