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
in the defining sense.  The sweeps contract only by about 1 - c/n each,
so once their moves are small an exact finish (`_Finish`) freezes every
row's active set and solves the frozen system for its fixed point: the
policy-evaluation step of policy iteration (Hoffman and Karp, 1966) for
the sweep, a sparse linear solve for scalar data and Newton's method on a
sparse Jacobian for vector data.  No convergence rate is guaranteed
either way, so the result is certified by the sweeps' own stop rule, one
ordinary sweep that moves no value by tol or more, and reported with its
residual.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import NoCertifiedSubset, NotConverged
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
    """How `iterate_tight` ended: the sweeps it ran, counting the sweep
    that checked an accepted exact finish but not the rejected ones nor
    the finish's solves, the residual of the values returned, each counted
    sweep's largest move, and whether the last of them fell below tol."""

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
# 7: 103 against 211 us).  With the exact finish, a solve was timed whole
# at cutovers from 16 to 32 (m = 1) and 4 to 10 (m = 2), minimum of 11
# interleaved runs: curved grids of 6 to 10 read the same from 16 to 24
# and gs9 (classes of 24 and 25) 21 % slower at 32, while random graphs
# of up to 120 vertices with one class of 17 to 23 read 17-25 % faster
# at 24, where that class no longer turns the other vertices' values into
# an array; m = 2 grids want a cutover of 4 and random graphs one of 10, as
# before, so 7 stays.  A sweep reuses its blocks every sweep; the residual
# (and the finish's freeze) builds its block for one pass, and breaks even
# at about 40 scalar rows, and at about 10 (grids) to 12-17 (random graphs)
# vector rows, measured again with the all-constant exit of KernelBlock.
SWEEP_BLOCK_MIN = (24, 7)
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

    def __init__(self, g: Graph):
        index = {v: i for i, v in enumerate(g.ids)}
        interior = g.interior()
        adj = [g.neighbors(v) for v in interior]
        self.rows = [index[v] for v in interior]
        # neighbours of the k-th interior vertex: cols and lengths from
        # start[k] to start[k + 1], in `neighbors` order
        self.start = list(accumulate(map(len, adj), initial=0))
        self.cols = [index[w] for a in adj for w, _ in a]
        self.lengths = [ln for a in adj for _, ln in a]

    def _single(self, k: int):
        s, e = self.start[k], self.start[k + 1]
        return self.rows[k], self.cols[s:e], self.lengths[s:e]

    def group(self, ks: list[int], block_min: int):
        """(block, singles) for pairwise non-adjacent interior vertices, by
        position in the interior: those of degree up to DEGREE_CAP form the
        block when there are at least block_min of them, and the rest are
        singles."""
        start = self.start
        batched = [k for k in ks if start[k + 1] - start[k] <= DEGREE_CAP]
        if len(batched) < block_min:
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

    def sweep_order(self, block_min: int) -> list:
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
        return [self.group(c, block_min) for c in classes]


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


def spsolve(*args, **kwargs):
    """scipy.sparse.linalg.spsolve, imported on first use: `import lipext`
    leaves scipy.sparse unloaded (see `scalar.csr_array`)."""
    from scipy.sparse.linalg import spsolve as sparse_spsolve

    return sparse_spsolve(*args, **kwargs)


def csc_array(*args, **kwargs):
    """scipy.sparse.csc_array, imported on first use."""
    from scipy.sparse import csc_array as sparse_csc_array

    return sparse_csc_array(*args, **kwargs)


def breadth_first_order(*args, **kwargs):
    """scipy.sparse.csgraph.breadth_first_order, imported on first use."""
    from scipy.sparse.csgraph import breadth_first_order as csgraph_breadth_first_order

    return csgraph_breadth_first_order(*args, **kwargs)


# The exact finish (`_Finish`).  A sweep whose largest move first falls
# below FINISH_AT hands its values to the finish, and so does each later
# sweep whose move falls below FINISH_RETRY times that of the last attempt.
# An attempt freezes and solves at most FINISH_ROUNDS times, and stops
# early once a checking sweep moves as much as the one before it.  A solve
# takes at most NEWTON_STEPS Newton steps, none of which moves a value
# further than STEP_CAP times the move of the sweep that started the
# attempt.  Measured on the `sweep` benchmark's graphs (seeds 1-3), 90
# random graphs of up to 40 vertices (m = 1-3) and curved grids up to
# 48x48 (m = 1) and 24x24 (m = 2), at FINISH_AT from 1e-5 to 3e-2: the
# higher the level, the fewer the sweeps (benchmark graphs: 705 sweeps in
# all at 1e-5, 267 at 3e-3, 180 at 1e-2, 129 at 3e-2), while the large
# grids need more re-freezes and attempts from 3e-3 up and their time
# stays flat within noise; 1e-2 was fastest on the first two sets.  More
# Newton steps or a larger cap accepted no more attempts, a cap of 10 took
# more steps, and 6 steps lost some attempts.  A solve also stops once its
# next step is predicted to move no value by more than PREDICTED_STOP times
# the largest (`_Finish.candidate`).  That is rounding, so the finish ends
# at the same residual (at most 2.5e-16 on C09 and the (x^2 - y, sin(3x) y)
# grids up to 24x24) in 7 % fewer steps (201 against 216 there and on the
# benchmark's graphs).  A stop at a predicted 2**-40 saved 12 % but left
# residuals up to 1e-12, and a contraction read off the values alone
# under-predicted the next step several-fold.
FINISH_AT = 1e-2
FINISH_RETRY = 1e-1
FINISH_ROUNDS = 8
NEWTON_STEPS = 8
STEP_CAP = 1e2
PREDICTED_STOP = 2.0**-52


class _Finish:
    """The exact finish of a sweep on one graph.

    Near the limit every interior row keeps the active set of its local
    rule, and a sweep is then a fixed-point iteration of a map that is
    affine on constant rows (u_v = u_i) and pair rows (u_v = (d_j u_i +
    d_i u_j) / (d_i + d_j)), and smooth on the rows whose active set holds
    k >= 3 samples (`_Frozen`).  `candidate` freezes the active sets at the
    given values and solves that system by Newton's method on its sparse
    analytic Jacobian: one linear solve when every row is affine, as it
    always is for m = 1.  The counters are the finish's work on the graph:
    attempts, re-freeze rounds, Newton steps, and whether an attempt was
    accepted.
    """

    def __init__(self, plan: _Plan, n_vertices: int, m: int):
        self.m = m
        self.rows = np.array(plan.rows, dtype=np.intp)
        self.interior = np.full(n_vertices, -1, dtype=np.intp)  # vertex -> row, or -1
        self.interior[plan.rows] = np.arange(len(plan.rows))
        # the freeze reads the values once, as the residual does
        self.group = plan.group(list(range(len(plan.rows))), RESIDUAL_BLOCK_MIN[m > 1])
        # every (row, neighbour) pair, which a constant row may follow
        self.nbr_row = np.repeat(np.arange(len(plan.rows)), np.diff(plan.start))
        self.nbr_col = np.array(plan.cols, dtype=np.intp)
        self.attempts = self.rounds = self.steps = 0
        self.accepted = False

    def attempt(self, x: np.ndarray, delta: float, tol: float, load, sweep) -> float | None:
        """Finish from the sweep's (vertices, m) values x, after a sweep
        whose largest move was delta: solve the system frozen at x, `load`
        the candidate into the sweep and run one `sweep`.  Returns that
        sweep's largest move when it is below tol.  Otherwise re-freezes
        at the candidate, while each checking sweep moves less than the one
        before, for at most FINISH_ROUNDS solves, and returns None, leaving
        the sweep's values to the caller."""
        self.attempts += 1
        last = math.inf
        for rounds in range(FINISH_ROUNDS):
            x = self.candidate(x, STEP_CAP * delta)
            if x is None:
                return None
            self.rounds += rounds > 0
            load(x)
            check = sweep()
            if check < tol:
                self.accepted = True
                return check
            if not check < last:
                return None
            last = check
        return None

    def _rule(self, x: np.ndarray):
        """The local rule of every interior row at the (vertices, m) values
        x, in one group (`_Plan.group`): (verts, lens, points), verts and
        lens (rows, m + 1) being the vertices of its active samples, -1
        padded, and their lengths, and points (rows, m) its optimum.  A
        constant row has one active sample.  Raises NoCertifiedSubset where
        the kernel does."""
        m, interior = self.m, self.interior
        n = len(self.rows)
        verts = np.full((n, m + 1), -1, dtype=np.intp)
        lens = np.zeros((n, m + 1))
        points = np.empty((n, m))
        block, singles = self.group
        if block is not None:
            p, certified, sets = block.rule.step(x.T[:, block.nbrs], active=True)
            k, cols, valid = interior[block.rows], np.maximum(sets, 0), sets >= 0
            verts[k] = np.where(valid, np.take_along_axis(block.nbrs, cols, axis=1), -1)
            lens[k] = np.where(valid, np.take_along_axis(block.rule.dists, cols, axis=1), 0.0)
            points[k] = p
            singles = singles + [
                (block.rows[r], block.nbrs[r, :c].tolist(), block.rule.dists[r, :c].tolist())
                for r, c in zip(np.flatnonzero(~certified), block.rule.count[~certified])]
        for v, idxs, dists in singles:
            if m == 1:
                point, ratio, active = _pair_optimum(x[idxs, 0].tolist(), dists)
                active = active if ratio else (0,)
            else:
                _, point, active, _, _ = minimax_kernel(x[idxs], dists)
            k = interior[v]
            verts[k, :len(active)] = [idxs[a] for a in active]
            lens[k, :len(active)] = [dists[a] for a in active]
            points[k] = point
        return verts, lens, points

    def _freeze(self, x: np.ndarray):
        """Each interior row's active set at the (vertices, m) values x
        (`_Active`), with lam and hull coordinates read off the local
        optimum.  A constant row (every sample equal: the kernel's size-1
        set, or a pair of ratio 0 for m = 1) may follow any of its samples,
        and follows one whose chain of active samples reaches the boundary.
        None when x is not finite, when no subset certifies a row, or when
        some row's chain never reaches the boundary: tied pairs in flat
        regions form such cycles, and make the system singular."""
        if not np.isfinite(x).all():
            return None
        try:
            verts, lens, points = self._rule(x)
        except NoCertifiedSubset:
            return None
        m, rows, n_vertices = self.m, self.rows, len(self.interior)
        count = (verts >= 0).sum(axis=1)
        constant = count == 1
        # breadth first from the boundary, along sample -> row: each row
        # follows its active samples, a constant row every sample
        at, col = np.nonzero((verts >= 0) & ~constant[:, None])
        spread = constant[self.nbr_row]
        boundary = np.flatnonzero(self.interior < 0)
        src = np.concatenate([verts[at, col], self.nbr_col[spread],
                              np.full(boundary.size, n_vertices)])
        dst = np.concatenate([rows[at], rows[self.nbr_row[spread]], boundary])
        graph = csc_array((np.ones(src.size), (src, dst)), shape=(n_vertices + 1,) * 2)
        via = breadth_first_order(graph, n_vertices, return_predecessors=True)[1][rows]
        if (via < 0).any():
            return None
        verts[constant, 0] = via[constant]
        lam = np.full(len(rows), np.nan)
        coords = np.full((len(rows), m + 1), np.nan)
        curved = np.flatnonzero(count > 2)
        offset = points[curved] - x[verts[curved, 0]]
        lam[curved] = np.sqrt((offset * offset).sum(axis=1)) / lens[curved, 0]
        for k in curved[count[curved] < m + 1]:
            vals = x[verts[k, :count[k]]]
            c = np.linalg.lstsq((vals[1:] - vals[0]).T, points[k] - vals[0], rcond=None)[0]
            coords[k, :count[k]] = np.concatenate([[1.0 - c.sum()], c])
        return _Active(verts, lens, lam, coords)

    def candidate(self, x: np.ndarray, cap: float) -> np.ndarray | None:
        """The solution of the system frozen at the (vertices, m) values x,
        as a new array, or None where the freeze fails, Newton's method
        does not converge in NEWTON_STEPS steps or a step is not finite.
        No step of a system with curved rows moves a value by more than
        cap.  The solve ends with a step that moves no value by more than a
        2**-40 share of the largest value, or sooner, once the next step is
        predicted to move none by more than a PREDICTED_STOP share, which
        is rounding: the error contracts quadratically, so after steps whose
        largest components were p and then q, the next moves the values by
        about q_x (q / p)**2, q_x being the last step's largest move of a
        value.  The contraction is read off the whole step (values, lam and
        hull coordinates), because the values can settle before the rest."""
        frozen = self._freeze(x)
        if frozen is None:
            return None
        system = _Frozen(frozen, self.rows, self.interior, self.m)
        n = len(self.rows) * self.m
        x, z = x.copy(), system.start.copy()
        top = float(np.abs(x).max())
        previous = 0.0  # the last uncapped step's largest component, else 0
        for _ in range(NEWTON_STEPS):
            self.steps += 1
            f, jac = system.linearize(x, z)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")  # spsolve warns of a singular matrix
                step = -spsolve(jac, f)
            if not np.isfinite(step).all():
                return None
            longest = float(np.abs(step[:n]).max(initial=0.0))
            full = float(np.abs(step).max(initial=0.0))
            if system.curved and longest > cap:
                step *= cap / longest
            x[self.rows] += step[:n].reshape(-1, self.m)
            z += step[n:]
            if not system.curved or longest <= 2.0**-40 * top or (
                    previous and longest * (full / previous) ** 2 <= PREDICTED_STOP * top):
                return x
            previous = 0.0 if longest > cap else full
        return None


class _Active(NamedTuple):
    """The frozen active sets of a graph's interior rows: the vertices of
    each row's active samples (rows, m + 1), -1 padded, their edge lengths,
    and for the curved rows (three or more samples) lam and, below m + 1
    samples, hull coordinates (rows, m + 1); NaN elsewhere."""

    verts: np.ndarray
    lens: np.ndarray
    lam: np.ndarray
    coords: np.ndarray


class _Frozen:
    """The system of a freeze (`_Finish._freeze`), with the Jacobian's
    pattern, which its steps share.

    Unknowns and equations come in one layout: row k's value at [k m,
    (k + 1) m), then the lam and hull coordinates of the curved rows, in
    row order.  An affine row's equations are its value's; a curved row
    puts its sphere equations there when k = m + 1, else its hull
    equations, and its remaining equations where its lam and coordinates
    are."""

    def __init__(self, active: _Active, rows: np.ndarray, interior: np.ndarray, m: int):
        self.rows, self.m = rows, m
        n = len(rows)
        count = (active.verts >= 0).sum(axis=1)
        # affine rows: u_v = u_i, or the pair's weighted mean
        self.affine = np.flatnonzero(count <= 2)
        pair, d = active.verts[self.affine, :2], active.lens[self.affine, :2]
        single = pair[:, 1] < 0
        total = np.where(single, 1.0, d[:, 0] + d[:, 1])
        weight = np.where(single[:, None], [1.0, 0.0], d[:, ::-1] / total[:, None])
        used = (pair >= 0).ravel()
        self.eq = np.repeat(self.affine, 2)[used]
        self.vert, self.weight = pair.ravel()[used], weight.ravel()[used]
        # curved rows: lam, then their hull coordinates, in row order
        curved = np.flatnonzero(count > 2)
        count = count[curved]
        hull = count < m + 1
        width = 1 + np.where(hull, count, 0)
        at = np.cumsum(width) - width
        self.start = np.empty(int(width.sum()))
        self.start[at] = active.lam[curved]
        for k, a, c in zip(curved[hull], at[hull], count[hull]):
            self.start[a + 1:a + 1 + c] = active.coords[k, :c]
        self.size = size = n * m + self.start.size
        self.curved = []
        for c in range(3, m + 2):
            k = curved[count == c]
            if k.size:
                self.curved.append(_Curved(k, active.verts[k, :c], active.lens[k, :c],
                                           active.lam[k], at[count == c], rows, interior, m,
                                           n * m))
        # the affine rows' Jacobian entries, which no step changes
        coord = np.arange(m)
        inside = interior[self.vert] >= 0
        self.fixed = np.concatenate([np.ones(self.affine.size * m),
                                     np.repeat(-self.weight[inside], m)])
        jr = np.concatenate([((self.affine * m)[:, None] + coord).ravel(),
                             ((self.eq[inside] * m)[:, None] + coord).ravel()]
                            + [c.jr for c in self.curved])
        jc = np.concatenate([((self.affine * m)[:, None] + coord).ravel(),
                             ((interior[self.vert[inside]] * m)[:, None] + coord).ravel()]
                            + [c.jc for c in self.curved])
        # the pattern in compressed-column order; `slot` places each entry
        key, self.slot = np.unique(jc * size + jr, return_inverse=True)
        self.indices = key % size
        self.indptr = np.searchsorted(key // size, np.arange(size + 1))

    def linearize(self, x: np.ndarray, z: np.ndarray):
        """(equations, Jacobian) at the (vertices, m) values x and the
        curved rows' lam and coordinates z."""
        m = self.m
        f = np.zeros(self.size)
        fu = f[:len(self.rows) * m].reshape(-1, m)
        fu[self.affine] = x[self.rows[self.affine]]
        np.subtract.at(fu, self.eq, self.weight[:, None] * x[self.vert])
        entries = [self.fixed] + [c.linearize(x, z, f) for c in self.curved]
        data = np.bincount(self.slot, weights=np.concatenate(entries), minlength=self.indices.size)
        return f, csc_array((data, self.indices, self.indptr), shape=(self.size, self.size))


class _Curved:
    """The curved rows of a freeze whose active sets hold the same number
    s >= 3 of samples, stacked.  A row's sphere equations ||u_v - u_a||^2
    - lam^2 d_a^2 are scaled by 1 / (2 lam0 d_a), lam0 being the freeze's
    lam, so that they read about ||u_v - u_a|| - lam d_a.  When s < m + 1
    the row also carries hull coordinates c: u_v - sum c_a u_a and
    sum c_a - 1."""

    def __init__(self, k: np.ndarray, verts: np.ndarray, lens: np.ndarray, lam0: np.ndarray,
                 at: np.ndarray, rows: np.ndarray, interior: np.ndarray, m: int, base: int):
        s = verts.shape[1]
        self.hull = s < m + 1
        self.vertex, self.verts = rows[k], verts
        self.lens, self.scale = lens, 0.5 / (lam0[:, None] * lens)
        self.at = at  # lam's index in z, its coordinates following
        coord = np.arange(m)
        own = (k * m)[:, None] + coord  # (rows, m): the row's value columns
        nbr = interior[verts]
        self.inside = nbr >= 0
        nbr_cols = (np.where(self.inside, nbr, 0) * m)[:, :, None] + coord  # (rows, s, m)
        lam = (base + at)[:, None]
        cols = base + at[:, None] + 1 + np.arange(s) if self.hull else None
        sphere = cols if self.hull else np.concatenate([own, lam], axis=1)  # (rows, s)
        self.sphere = sphere
        spread = np.broadcast_to(sphere[:, :, None], (len(k), s, m))
        jr = [spread.ravel(), spread[self.inside].ravel(), sphere.ravel()]
        jc = [np.broadcast_to(own[:, None, :], spread.shape).ravel(), nbr_cols[self.inside].ravel(),
              np.broadcast_to(lam, sphere.shape).ravel()]
        if self.hull:
            own_rows = np.broadcast_to(own[:, None, :], spread.shape)
            self.own, self.sum_row = own, base + at
            jr += [own.ravel(), own_rows[self.inside].ravel(), own_rows.ravel(),
                   np.broadcast_to(lam, cols.shape).ravel()]
            jc += [own.ravel(), nbr_cols[self.inside].ravel(),
                   np.broadcast_to(cols[:, :, None], spread.shape).ravel(), cols.ravel()]
        self.jr, self.jc = np.concatenate(jr), np.concatenate(jc)

    def linearize(self, x: np.ndarray, z: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Write the rows' equations at x and z into f, and return their
        Jacobian entries in the order of jr and jc."""
        vals = x[self.verts]  # (rows, s, m)
        diff = x[self.vertex][:, None, :] - vals
        lam = z[self.at]
        f[self.sphere] = ((diff * diff).sum(axis=2) - (lam[:, None] * self.lens) ** 2) * self.scale
        grad = 2.0 * diff * self.scale[:, :, None]
        data = [grad.ravel(), -grad[self.inside].ravel(),
                (-2.0 * lam[:, None] * self.lens * self.lens * self.scale).ravel()]
        if self.hull:
            s = self.verts.shape[1]
            c = z[self.at[:, None] + 1 + np.arange(s)]
            f[self.own] = x[self.vertex] - np.einsum("rs,rsm->rm", c, vals)
            f[self.sum_row] = c.sum(axis=1) - 1.0
            data += [np.ones(self.own.size),
                     np.broadcast_to(-c[:, :, None], vals.shape)[self.inside].ravel(),
                     -vals.ravel(), np.ones(c.size)]
        return np.concatenate(data)


def _sweep(g: Graph, tol: float, max_iter: int):
    """Gauss-Seidel sweeps of local replacement until no value moves by tol
    or more; at most max_iter sweeps.

    A sweep replaces the colour classes of a greedy colouring in turn
    (`_Plan.sweep_order`): each class of at least SWEEP_BLOCK_MIN vertices
    in one batched pass, a smaller one vertex by vertex in id order.  No two
    vertices of a class are adjacent, so both give the same values, sweep
    counts and histories.  Interior values start at the centroid of the
    boundary data over sorted omega.

    The sweeps contract only by about 1 - c/n each, so they end with an
    exact finish (`_Finish.attempt`).  After the stop rule, while the
    budget leaves room for one more sweep, a sweep whose largest move falls
    below FINISH_AT, or later below FINISH_RETRY times the move that
    started the last attempt, hands its values to the finish.  The finish
    freezes each row's active set and solves the frozen system directly.
    One ordinary sweep from that candidate must then move no value by tol
    or more: it is counted as a sweep, and its values are returned.
    Otherwise the finish may re-freeze at the candidate, and then the sweep
    goes on from its own values: where no attempt is accepted, values,
    sweep counts and histories are those of the sweeps alone.  Returns
    (values, history, converged), history holding each counted sweep's
    largest move.  Raises ValueError unless tol is a positive finite
    number.  The graph is not validated here.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    ids = g.ids
    centroid = _centroid(np.array([g.boundary_values[b] for b in sorted(g.omega)]))
    m = centroid.size
    rule, at = _local_rule(m)
    plan = _Plan(g)
    order = plan.sweep_order(SWEEP_BLOCK_MIN[m > 1])
    rows = [g.boundary_values[v] if v in g.omega else centroid for v in ids]
    # blocks read and write a (vertices, m) array.  Graphs without a block
    # keep a list: scalar steps that index the array's column read numpy
    # scalars, which made the benchmark's small sweeps (`sweep` solve_s.S,
    # query_ms.p50) 8-10 % slower, 9 and 10 of 10 run pairs
    if any(block is not None for block, _ in order):
        u = np.array(rows, dtype=float)
        vals = u[:, 0] if m == 1 else u
    else:
        u = None
        vals = [float(x[0]) for x in rows] if m == 1 else rows

    def sweep() -> float:
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
        return delta

    def load(x: np.ndarray) -> None:
        """Set the sweep's values from a (vertices, m) array."""
        if u is not None:
            u[:] = x
        else:
            vals[:] = x[:, 0].tolist() if m == 1 else list(x)

    history: list[float] = []
    converged = False
    finish = None
    level = FINISH_AT
    while len(history) < max_iter:
        delta = sweep()
        history.append(delta)
        if delta < tol:
            converged = True
            break
        if delta < level and len(history) < max_iter:
            level = delta * FINISH_RETRY
            if finish is None:
                finish = _Finish(plan, len(ids), m)
            own = np.array(vals, dtype=float).reshape(len(ids), m)
            check = finish.attempt(own, delta, tol, load, sweep)
            if check is not None:
                history.append(check)
                converged = True
                break
            load(own)
    if finish is None:
        log.debug("%d sweeps, converged=%s", len(history), converged)
    else:
        log.debug("%d sweeps, converged=%s; finish: %d attempts, %d re-freeze rounds, "
                  "%d Newton steps, accepted=%s", len(history), converged, finish.attempts,
                  finish.rounds, finish.steps, finish.accepted)
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
    plan = _Plan(g)
    block, singles = plan.group(list(range(len(plan.rows))), RESIDUAL_BLOCK_MIN[m > 1])
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
