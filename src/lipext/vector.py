"""Extension by iterated local replacement, for scalar and vector data.

Each sweep replaces every interior value with the minimax point of its
neighborhood: the pair formula for scalar data, the kernel for vector
data.  `iterate_tight` and `scalar.gauss_seidel_scalar` run this one sweep
loop, and `residual` and `scalar.verify_extension` share one residual
pass.  Every replacement tightens the local Lipschitz profile, and
a fixed point of all replacements is an extension in the defining sense;
no convergence rate is guaranteed, so the iteration certifies whatever
limit it reaches through its residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
from .kpoint import CERT_TOL, minimax_kernel, nnls, pairwise_optimum

log = logging.getLogger("lipext.vector")


@dataclass(frozen=True)
class IterationReport:
    sweeps: int
    final_residual: float
    residual_history: list[float]
    converged: bool


def _local_rule(m: int):
    """(step, dist) of the local replacement for m-vector values, held as
    plain floats when m == 1 and as 1-d arrays otherwise: step(values,
    lens) is the minimax point of a neighbourhood (the pair formula for
    scalars, the kernel for vectors), dist(d) the length of a move d."""
    if m == 1:
        return (lambda values, lens: pairwise_optimum(values, lens)[0]), abs
    return ((lambda values, lens: minimax_kernel(values, lens)[1]),
            (lambda d: float(np.linalg.norm(d))))


def _sweep(g: Graph, tol: float, max_iter: int):
    """Gauss-Seidel sweeps of local replacement, in id order, until no value
    moves by tol or more; at most max_iter sweeps.

    Interior values start at the centroid of the boundary data over sorted
    omega.  Returns (values, history, converged), history holding each
    sweep's largest move.  The graph is not validated here.
    """
    ids = g.ids
    index = {v: i for i, v in enumerate(ids)}
    centroid = np.mean([g.boundary_values[b] for b in sorted(g.omega)], axis=0)
    step, dist = _local_rule(centroid.size)
    u = [g.boundary_values[v] if v in g.omega else centroid for v in ids]
    if centroid.size == 1:
        u = [float(x[0]) for x in u]
    table = [
        (index[v], [index[w] for w, _ in g.neighbors(v)], [ln for _, ln in g.neighbors(v)])
        for v in ids
        if v not in g.omega
    ]
    history: list[float] = []
    converged = False
    for _ in range(max_iter):
        delta = 0.0
        for i, idxs, lens in table:
            new = step([u[j] for j in idxs], lens)
            delta = max(delta, dist(new - u[i]))
            u[i] = new
        history.append(delta)
        if delta < tol:
            converged = True
            break
    log.debug("%d sweeps, converged=%s", len(history), converged)
    values: VertexFunction = {v: np.array(u[i], dtype=float, ndmin=1) for i, v in enumerate(ids)}
    return values, history, converged


def iterate_tight(g: Graph, tol: float = 1e-10, max_iter: int = 100_000):
    """Sweep local replacements until no value moves by more than tol.

    Returns (values, report); raises NotConverged with the partial result
    when the sweep budget runs out.  Interior values start at the centroid
    of the boundary data, so they remain inside its convex hull throughout.
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
    optimum, with the first vertex in id order that attains it."""
    m = g.value_dim()
    step, dist = _local_rule(m)
    if m == 1:
        u = {v: float(x[0]) for v, x in u.items()}
    worst, witness = 0.0, None
    for x in g.interior():
        nbrs = g.neighbors(x)
        r = dist(step([u[w] for w, _ in nbrs], [ln for _, ln in nbrs]) - u[x])
        if r > worst:
            worst, witness = r, x
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
