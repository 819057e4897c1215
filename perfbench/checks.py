"""Output checks computed apart from lipext.

Every check recomputes its criterion from the benchmark's own reading of
the inputs (a `Spec` or a `Query`) with numpy and scipy, and raises
`CheckFailed` naming the first offending vertex or sample.  None of them
calls into lipext, so a fault in the program's verifiers cannot hide a
fault in its solvers.

Values are passed as `{vertex id: 1-d array}` maps.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Tolerances, relative to the spread of the boundary data unless noted.
EQUATION_TOL = 1e-9       # scalar defining equation and maximum principle
LINEAR_TOL = 1e-10        # exact reproduction of linear data
SLOPE_TOL = 1e-12         # relative slack between consecutive stage slopes
RATIO_TOL = 1e-9          # relative slack of the geodesic ratio bound
ACTIVE_REL = 1e-6         # ratios within this share of the maximum are active
OPTIMALITY_TOL = 1e-7     # distance to the hull of the active values
HULL_TOL = 1e-8           # distance to the hull of the boundary values
KPOINT_LAM_TOL = 1e-6     # kernel vs oracle, as in C06
KPOINT_POINT_TOL = 1e-5
LIP_TOL = 1e-9            # lam above the sample Lipschitz constant, absolute
DOMINATION_TOL = 1e-8     # relative to lam * largest query distance
NOISE = 1e-12             # rounding floor, relative to the value magnitude


class CheckFailed(Exception):
    """An output violates a property it must have."""


# -- helpers -----------------------------------------------------------------

def _adjacency(spec) -> dict[str, list[tuple[str, float]]]:
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in spec.ids}
    for a, b, ln in spec.edges:
        adj[a].append((b, ln))
        adj[b].append((a, ln))
    return adj


def _scale(spec) -> float:
    """Spread of the boundary data (largest distance from its centroid),
    or 1 for constant data."""
    f = np.array(list(spec.boundary.values()), dtype=float)
    spread = float(np.linalg.norm(f - f.mean(axis=0), axis=1).max())
    return spread if spread > 0.0 else 1.0


def _magnitude(u) -> float:
    return max(1.0, max(float(np.abs(val).max()) for val in u.values()))


def hull_distance(vertices: np.ndarray, y: np.ndarray) -> float:
    """Distance from y to a feasible convex combination of the rows of
    `vertices`, found by NNLS with a heavily weighted sum-to-one row and
    then normalised exactly.  An upper bound on the true hull distance, so
    a small value certifies membership."""
    k = vertices.shape[0]
    shift = vertices - y
    scale = max(float(np.abs(shift).max()), 1e-300)
    weight = 1e6
    a = np.vstack([shift.T / scale, np.full(k, weight)])
    b = np.concatenate([np.zeros(vertices.shape[1]), [weight]])
    alpha, _ = nnls(a, b, maxiter=50 * (k + 1))
    if alpha.sum() <= 0.0:
        return float(np.linalg.norm(shift, axis=1).min())
    alpha = alpha / alpha.sum()
    return float(np.linalg.norm(alpha @ vertices - y))


def _active_hull_gap(values: np.ndarray, dists: np.ndarray, y: np.ndarray) -> float:
    """Distance from y to the hull of the values whose ratio ||y - f_i|| / d_i
    is (within ACTIVE_REL of) the largest: zero exactly when y minimises the
    largest ratio (first-order condition of the minimax problem)."""
    ratios = np.linalg.norm(values - y, axis=1) / dists
    top = float(ratios.max())
    active = ratios >= top * (1.0 - ACTIVE_REL)
    return hull_distance(values[active], y)


# -- scalar extensions (scalar-path, cli) ------------------------------------

def boundary_agreement(spec, u) -> None:
    for v, f in spec.boundary.items():
        got = np.asarray(u[v], dtype=float)
        want = np.asarray(f, dtype=float)
        if float(np.abs(got - want).max()) > NOISE * max(1.0, float(np.abs(want).max())):
            raise CheckFailed(f"{spec.name}: boundary vertex {v} has {got} instead of {want}")


def defining_equation(spec, u) -> None:
    """At every interior vertex the value is the midpoint, weighted by edge
    length, of the neighbour pair with the largest |u_i - u_j| / (d_i + d_j)."""
    adj = _adjacency(spec)
    tol = EQUATION_TOL * _scale(spec)
    for x in spec.ids:
        if x in spec.boundary:
            continue
        nb = [(float(u[w][0]), ln) for w, ln in adj[x]]
        best, point = -1.0, nb[0][0]
        for i in range(len(nb)):
            ui, di = nb[i]
            for j in range(i + 1, len(nb)):
                uj, dj = nb[j]
                r = abs(ui - uj) / (di + dj)
                if r > best:
                    best, point = r, (dj * ui + di * uj) / (di + dj)
        if abs(float(u[x][0]) - point) > tol:
            raise CheckFailed(
                f"{spec.name}: vertex {x} has {float(u[x][0])!r}, neighbour optimum {point!r}"
            )


def maximum_principle(spec, u) -> None:
    f = [float(val[0]) for val in spec.boundary.values()]
    lo, hi = min(f), max(f)
    tol = EQUATION_TOL * _scale(spec)
    for v in spec.ids:
        val = float(u[v][0])
        if not lo - tol <= val <= hi + tol:
            raise CheckFailed(f"{spec.name}: vertex {v} value {val!r} outside [{lo}, {hi}]")


def slopes_nonincreasing(name: str, slopes) -> None:
    for k in range(1, len(slopes)):
        if slopes[k] > slopes[k - 1] * (1.0 + SLOPE_TOL):
            raise CheckFailed(
                f"{name}: stage {k + 1} slope {slopes[k]!r} exceeds stage {k} slope {slopes[k - 1]!r}"
            )


def geodesic_bound(spec, u) -> None:
    """The largest edge ratio |u_a - u_b| / len(a, b) (which equals the
    largest ratio over all pairs) stays at or below the largest ratio of
    the boundary data over geodesic distances."""
    index = {v: i for i, v in enumerate(spec.ids)}
    rows = [index[a] for a, _, _ in spec.edges] + [index[b] for _, b, _ in spec.edges]
    cols = [index[b] for _, b, _ in spec.edges] + [index[a] for a, _, _ in spec.edges]
    lens = [ln for _, _, ln in spec.edges] * 2
    n = len(spec.ids)
    adj = csr_matrix((lens, (rows, cols)), shape=(n, n))
    omega = sorted(spec.boundary)
    dist = dijkstra(adj, directed=False, indices=[index[v] for v in omega])
    f = np.array([spec.boundary[v] for v in omega], dtype=float)
    bound = 0.0
    for i in range(len(omega)):
        d = dist[i, [index[v] for v in omega[i + 1:]]]
        if d.size:
            bound = max(bound, float((np.linalg.norm(f[i + 1:] - f[i], axis=1) / d).max()))
    worst, witness = 0.0, None
    for a, b, ln in spec.edges:
        r = float(np.linalg.norm(np.asarray(u[a], float) - np.asarray(u[b], float))) / ln
        if r > worst:
            worst, witness = r, (a, b)
    if worst > bound * (1.0 + RATIO_TOL) + NOISE * _scale(spec):
        raise CheckFailed(
            f"{spec.name}: edge {witness} ratio {worst!r} above boundary geodesic ratio {bound!r}"
        )


def linear_reproduction(spec, u) -> None:
    a, b, c = spec.linear
    tol = LINEAR_TOL * max(1.0, abs(a) + abs(b) + abs(c))
    for v in spec.ids:
        x, y = spec.pos[v]
        want = a * x + b * y + c
        if abs(float(u[v][0]) - want) > tol:
            raise CheckFailed(f"{spec.name}: vertex {v} has {float(u[v][0])!r}, linear data {want!r}")


def scalar_extension(spec, u, slopes) -> None:
    """Every check that applies to a scalar extension of `spec`."""
    boundary_agreement(spec, u)
    defining_equation(spec, u)
    maximum_principle(spec, u)
    if slopes is not None:
        slopes_nonincreasing(spec.name, slopes)
    geodesic_bound(spec, u)
    if spec.linear is not None:
        linear_reproduction(spec, u)


# -- sweep solutions ---------------------------------------------------------

def local_optimality(spec, u) -> None:
    """First-order condition of the local minimax problem at every interior
    vertex: its value lies in the convex hull of the neighbour values whose
    ratios are active."""
    adj = _adjacency(spec)
    tol = OPTIMALITY_TOL * _scale(spec) + NOISE * _magnitude(u)
    for x in spec.ids:
        if x in spec.boundary:
            continue
        values = np.array([u[w] for w, _ in adj[x]], dtype=float)
        dists = np.array([ln for _, ln in adj[x]])
        gap = _active_hull_gap(values, dists, np.asarray(u[x], dtype=float))
        if gap > tol:
            raise CheckFailed(f"{spec.name}: vertex {x} lies {gap:.3g} off its active hull")


def boundary_hull(spec, u) -> None:
    """Every value lies in the convex hull of the boundary data."""
    f = np.array(list(spec.boundary.values()), dtype=float)
    tol = HULL_TOL * _scale(spec) + NOISE * _magnitude(u)
    for v in spec.ids:
        gap = hull_distance(f, np.asarray(u[v], dtype=float))
        if gap > tol:
            raise CheckFailed(f"{spec.name}: vertex {v} lies {gap:.3g} outside the boundary hull")


def sweep_solution(spec, u) -> None:
    boundary_agreement(spec, u)
    local_optimality(spec, u)
    boundary_hull(spec, u)


# -- k-point queries ---------------------------------------------------------

def kernel_oracle_agreement(q, lam, point, oracle_lam, oracle_point) -> None:
    dl = abs(lam - oracle_lam)
    dp = float(np.linalg.norm(np.asarray(point) - np.asarray(oracle_point)))
    if dl > KPOINT_LAM_TOL or dp > KPOINT_POINT_TOL:
        raise CheckFailed(f"query {q.index}: kernel and oracle differ by lam {dl:.3g}, point {dp:.3g}")


def below_lip_constant(q, lam) -> None:
    diff_v = np.linalg.norm(q.values[:, None, :] - q.values[None, :, :], axis=2)
    diff_p = np.linalg.norm(q.points[:, None, :] - q.points[None, :, :], axis=2)
    iu = np.triu_indices(len(q.points), 1)
    lip = float((diff_v[iu] / diff_p[iu]).max()) if iu[0].size else 0.0
    if lam > lip + LIP_TOL:
        raise CheckFailed(f"query {q.index}: lam {lam!r} above the Lipschitz constant {lip!r}")


def domination(q, lam, point) -> None:
    """||point - f_i|| <= lam * ||x - p_i|| for every sample."""
    d = np.linalg.norm(q.points - q.x, axis=1)
    excess = float((np.linalg.norm(q.values - point, axis=1) - lam * d).max())
    tol = DOMINATION_TOL * lam * float(d.max()) + NOISE * max(1.0, float(np.abs(q.values).max()))
    if excess > tol:
        raise CheckFailed(f"query {q.index}: a sample is violated by {excess:.3g}")


def query_optimality(q, point) -> None:
    """The point lies in the hull of the samples whose ratio is active."""
    d = np.linalg.norm(q.points - q.x, axis=1)
    spread = float(np.linalg.norm(q.values - q.values.mean(axis=0), axis=1).max())
    gap = _active_hull_gap(q.values, d, np.asarray(point, dtype=float))
    if gap > OPTIMALITY_TOL * max(spread, NOISE):
        raise CheckFailed(f"query {q.index}: point lies {gap:.3g} off its active hull")


def kpoint_answer(q, lam, point, oracle_lam, oracle_point) -> None:
    kernel_oracle_agreement(q, lam, point, oracle_lam, oracle_point)
    below_lip_constant(q, lam)
    domination(q, lam, point)
    query_optimality(q, point)


# -- command line ------------------------------------------------------------

def exit_code(argv, code: int, stderr: str = "") -> None:
    if code != 0:
        raise CheckFailed(f"lipext {' '.join(argv[:1])} exited with {code}: {stderr.strip()}")


def verify_passed(name: str, report: dict) -> None:
    if report.get("passed") is not True:
        raise CheckFailed(f"{name}: lipext verify reports {report}")


def identical(name: str, first: bytes, second: bytes) -> None:
    if first != second:
        raise CheckFailed(f"{name}: two solve runs wrote different bytes")
