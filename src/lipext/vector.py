"""Vector-valued extension by iterated local replacement.

Each sweep replaces every interior value with the minimax point of its
neighborhood.  Every replacement tightens the local Lipschitz profile, and
a fixed point of all replacements is an extension in the defining sense;
no convergence rate is guaranteed, so the iteration certifies whatever
limit it reaches through its residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, ValidationError
from .graph import Graph, VertexFunction, as_vertex_function, is_tighter, validate
from .kpoint import CERT_TOL, minimax_kernel, nnls

log = logging.getLogger("lipext.vector")


@dataclass(frozen=True)
class IterationReport:
    sweeps: int
    final_residual: float
    residual_history: list[float]
    converged: bool


def _neighbor_tables(g: Graph, ids: list[str]):
    index = {v: i for i, v in enumerate(ids)}
    return {
        v: (
            np.array([index[w] for w, _ in g.neighbors(v)], dtype=int),
            np.array([ln for _, ln in g.neighbors(v)]),
        )
        for v in ids
        if v not in g.omega
    }


def iterate_tight(g: Graph, tol: float = 1e-10, max_iter: int = 100_000):
    """Sweep local replacements until no value moves by more than tol.

    Returns (values, report); raises NotConverged with the partial result
    when the sweep budget runs out.  Interior values start at the centroid
    of the boundary data, so they remain inside its convex hull throughout.
    """
    violations = validate(g)
    if violations:
        raise ValidationError("; ".join(f"{v.code}: {v.message}" for v in violations))
    ids = g.ids
    index = {v: i for i, v in enumerate(ids)}
    m = g.value_dim()
    vals = np.zeros((len(ids), m))
    centroid = np.mean([g.boundary_values[b] for b in sorted(g.omega)], axis=0)
    for v in ids:
        vals[index[v]] = g.boundary_values[v] if v in g.omega else centroid
    interior = [v for v in ids if v not in g.omega]
    tables = _neighbor_tables(g, ids)
    history: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        delta = 0.0
        for v in interior:
            idxs, lens = tables[v]
            _, point, _, _, _ = minimax_kernel(vals[idxs], lens)
            delta = max(delta, float(np.linalg.norm(point - vals[index[v]])))
            vals[index[v]] = point
        history.append(delta)
        if delta < tol:
            converged = True
            break
    values: VertexFunction = {v: vals[index[v]].copy() for v in ids}
    final = residual(g, values)
    report = IterationReport(sweeps, final, history, converged)
    log.debug("%d sweeps, residual %.3g, converged=%s", sweeps, final, converged)
    if not converged:
        raise NotConverged(
            f"displacement above {tol} after {max_iter} sweeps",
            values=values, report=report,
        )
    return values, report


def residual(g: Graph, u) -> float:
    """Largest distance between a value and its neighborhood optimum."""
    u = as_vertex_function(u)
    worst = 0.0
    for x in g.interior():
        nv = np.array([u[w] for w, _ in g.neighbors(x)])
        lens = np.array([ln for _, ln in g.neighbors(x)])
        _, point, _, _, _ = minimax_kernel(nv, lens)
        worst = max(worst, float(np.linalg.norm(u[x] - point)))
    return worst


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
