import copy
import logging
import math
import re
import warnings

import numpy as np
import pytest

from conftest import (
    assert_sweep_paths_agree,
    colour_order,
    grid_graph,
    path_graph,
    random_graph,
    reference_hull_gap,
    reference_plan,
)
from lipext import vector
from lipext.graph import Graph
from lipext.kpoint import KernelBlock, minimax_kernel, pairwise_optimum
from lipext.scalar import gauss_seidel_scalar, solve_scalar, verify_extension
from lipext.vector import (
    boundary_hull_gap,
    iterate_tight,
    local_replacement_tightens,
    residual,
)


def vector_path():
    return Graph(
        {"a": [0.0], "m": [1.0], "b": [2.0]},
        [("a", "m"), ("m", "b")],
        ["a", "b"],
        {"a": [0.0, 0.0], "b": [1.0, 1.0]},
    )


# ---------------------------------------------------------------------------
# iterate_tight
# ---------------------------------------------------------------------------

def test_path_midpoint():
    values, report = iterate_tight(vector_path())
    assert np.allclose(values["m"], [0.5, 0.5], atol=1e-9)
    assert report.converged


def test_constant_boundary_one_sweep():
    g = Graph(
        {"a": [0.0], "m": [1.0], "b": [2.0]},
        [("a", "m"), ("m", "b")],
        ["a", "b"],
        {"a": [2.0, -1.0], "b": [2.0, -1.0]},
    )
    values, report = iterate_tight(g)
    assert np.allclose(values["m"], [2.0, -1.0], atol=1e-12)
    assert report.sweeps <= 2


def test_scalar_case_matches_exact_solver(star3):
    values, report = iterate_tight(star3, tol=1e-12)
    exact = solve_scalar(star3)
    for v in star3.ids:
        assert abs(values[v][0] - exact.values[v][0]) <= 1e-6
    assert report.converged


def test_report_contract():
    values, report = iterate_tight(vector_path(), tol=1e-10)
    assert report.final_residual <= 10 * 1e-10
    assert len(report.residual_history) == report.sweeps


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_of_converged_iterate():
    g = vector_path()
    values, _ = iterate_tight(g, tol=1e-10)
    assert residual(g, values) <= 1e-9


def test_residual_of_exact_scalar(path4):
    res = solve_scalar(path4)
    assert residual(path4, res.values) <= 1e-9


def test_residual_detects_perturbation():
    g = vector_path()
    values, _ = iterate_tight(g)
    values["m"] = values["m"] + np.array([0.01, 0.0])
    assert residual(g, values) > 1e-4


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
def test_residual_at_extreme_scale(scale):
    # a move of length near 2**600 squares past the largest float, and one
    # near 2**-600 to zero: its length is taken in a power-of-two frame, not
    # read as inf or 0
    g = vector_path()
    values, _ = iterate_tight(g)
    values["m"] = values["m"] + np.array([0.01, 0.0])
    big = Graph({"a": [0.0], "m": [1.0], "b": [2.0]}, [("a", "m"), ("m", "b")], ["a", "b"],
                {v: scale * g.boundary_values[v] for v in g.omega})
    scaled = residual(big, {v: scale * x for v, x in values.items()})
    assert scaled / scale == pytest.approx(residual(g, values), rel=1e-12)


# ---------------------------------------------------------------------------
# local_replacement_tightens
# ---------------------------------------------------------------------------

def test_star_with_wrong_center(star3):
    u = {"c": [9.0], "l0": [0.0], "l1": [4.0], "l2": [10.0]}
    assert local_replacement_tightens(star3, u, "c")


def test_optimal_center_rejected(star3):
    u = {"c": [5.0], "l0": [0.0], "l1": [4.0], "l2": [10.0]}
    with pytest.raises(ValueError):
        local_replacement_tightens(star3, u, "c")


def test_random_replacements_tighten():
    rng = np.random.default_rng(61)
    done = 0
    while done < 40:
        g = random_graph(rng, max_vertices=14, m=2)
        interior = g.interior()
        if not interior:
            continue
        u = {v: g.boundary_values.get(v, rng.uniform(0, 1, 2)) for v in g.ids}
        x = interior[int(rng.integers(0, len(interior)))]
        try:
            assert local_replacement_tightens(g, u, x)
        except ValueError:
            continue
        done += 1


# ---------------------------------------------------------------------------
# hull certificate
# ---------------------------------------------------------------------------

def test_converged_values_in_boundary_hull():
    rng = np.random.default_rng(67)
    for _ in range(6):
        g = random_graph(rng, max_vertices=16, m=2)
        values, report = iterate_tight(g, tol=1e-10)
        gap, _ = boundary_hull_gap(g, values)
        assert report.converged
        assert gap <= 1e-8


def test_hull_gap_flags_outside_point():
    g = vector_path()
    values, _ = iterate_tight(g)
    values["m"] = np.array([5.0, 5.0])
    gap, witness = boundary_hull_gap(g, values)
    assert gap > 1e-2
    assert witness == "m"


def _hull_case(bvals, vals):
    """(graph, values): a path whose first vertices carry the boundary
    values bvals and whose other vertices take the values vals."""
    ids = [f"b{i}" for i in range(len(bvals))] + [f"x{i:02d}" for i in range(len(vals))]
    g = Graph({v: [float(i)] for i, v in enumerate(ids)}, list(zip(ids, ids[1:])),
              ids[:len(bvals)], dict(zip(ids, bvals)))
    return g, dict(zip(ids, [*map(np.asarray, bvals), *vals]))


def _probe_values(rng, bvals, count=24):
    """Values inside the hull of the rows of bvals, on its edges and
    vertices, and moved off those by a few noise floors (1e-13 times the
    values' magnitude) or by far more."""
    k, m = bvals.shape
    noise = 1e-13 * float(np.abs(bvals).max())
    vals = []
    for i in range(count):
        w = rng.dirichlet(np.ones(k))
        if i % 4 == 1:  # on an edge
            a, b = rng.choice(k, size=2) if k > 1 else (0, 0)
            t = rng.uniform()
            w = np.zeros(k)
            w[a] += t
            w[b] += 1.0 - t
        elif i % 4 == 2:  # on a vertex
            w = np.eye(k)[rng.integers(k)]
        y = w @ bvals
        if i % 3 == 1:
            y = y + rng.normal(size=m) * noise * rng.choice([0.5, 2.0, 3.0, 5.0])
        elif i % 6 == 5:
            y = y + rng.normal(size=m)
        vals.append(y)
    return vals


def _assert_matches_reference(g, u):
    assert boundary_hull_gap(g, u) == reference_hull_gap(g, u)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hull_gap_matches_reference_on_random_sets(m):
    # gaps and witnesses to the bit, wherever the facet test places a value
    # and wherever nnls does
    rng = np.random.default_rng(230 + m)
    for _ in range(40):
        k = int(rng.integers(1, 8))
        bvals = rng.uniform(-1.0, 1.0, (k, m)) * rng.choice([1e-6, 1.0, 1e6]) + rng.choice([0.0, 3.0])
        _assert_matches_reference(*_hull_case(bvals, _probe_values(rng, bvals)))


def test_hull_gap_matches_reference_on_random_graphs():
    rng = np.random.default_rng(23)
    for i in range(90):
        m = 1 + i % 3
        g = random_graph(rng, max_vertices=16, m=m)
        u = {v: g.boundary_values.get(v, rng.uniform(-0.2, 1.2, m)) for v in g.ids}
        _assert_matches_reference(g, u)


@pytest.mark.parametrize("shape", ["one-vertex", "collinear-r2", "coplanar-r3"])
def test_hull_gap_matches_reference_on_degenerate_hulls(shape, monkeypatch):
    rng = np.random.default_rng(231)
    nnls_impl, calls = vector.nnls, []
    monkeypatch.setattr(vector, "nnls", lambda *a: calls.append(1) or nnls_impl(*a))
    vertices = 0
    for _ in range(20):
        if shape == "one-vertex":
            bvals = rng.uniform(-1.0, 1.0, (1, 2))
        elif shape == "collinear-r2":
            bvals = rng.uniform(-1.0, 1.0, (5, 1)) * rng.normal(size=2) + rng.normal(size=2)
        else:
            bvals = rng.uniform(-1.0, 1.0, (6, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
        g, u = _hull_case(bvals, _probe_values(rng, bvals))
        _assert_matches_reference(g, u)
        vertices += len(g.ids)
    # the facet test runs in the data's own rank: it places most values
    assert len(calls) < vertices / 2


@pytest.mark.parametrize("bvals, normal", [
    ([[0.0, 0.0], [2.0, 1.0], [4.0, 2.0]], [1.0, -2.0]),  # a segment in R^2
    ([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0], [0.0, 4.0, 1.0]], [0.0, 0.0, 1.0]),  # a triangle in R^3
    ([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], [0.0, -1.0]),  # a triangle's edge in R^2
], ids=["segment", "triangle-r3", "edge"])
def test_hull_gap_at_the_noise_floor(bvals, normal):
    # values moved off the hull by multiples of the noise floor (1e-13
    # times the largest magnitude, 4 here): the facet test places those
    # within a quarter floor, nnls the rest, and the gap is positive only
    # beyond one floor
    bvals = np.array(bvals)
    mid = bvals[:2].mean(axis=0)
    normal = np.array(normal) / np.linalg.norm(normal)
    steps = [0.2, 0.4, 0.6, 1.5, 3.0]
    vals = [mid + t * 4e-13 * normal for t in steps]
    _assert_matches_reference(*_hull_case(bvals, vals))
    gaps = []
    for y in vals:
        g, u = _hull_case(bvals, [y])
        _assert_matches_reference(g, u)
        gaps.append(boundary_hull_gap(g, u)[0])
    assert [gap > 0.0 for gap in gaps] == [t > 1.0 for t in steps]


@pytest.mark.parametrize("height", [12, 40])
def test_hull_gap_on_a_thin_pyramid(height):
    # a square pyramid `height` noise floors (4e-13 each) high keeps its
    # full rank.  Its plane of best fit is z = the mean height, and a value
    # on that plane near a base edge lies outside the pyramid by more than
    # a floor, where a hull flattened to that plane would hold it
    bvals = np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0], [4.0, 4.0, 1.0], [0.0, 4.0, 1.0],
                      [2.0, 2.0, 1.0 + height * 4e-13]])
    g, u = _hull_case(bvals, [np.array([3.9, 2.0, bvals[:, 2].mean()])])
    _assert_matches_reference(g, u)
    assert boundary_hull_gap(g, u)[0] > 0.0


def test_hull_gap_places_inside_values_without_nnls(monkeypatch):
    # values strictly inside a triangle or a tetrahedron, or bit-equal to
    # a boundary value, take no nnls call
    calls = []
    monkeypatch.setattr(vector, "nnls", lambda *a: calls.append(1))
    rng = np.random.default_rng(232)
    for m in (2, 3):
        bvals = np.vstack([np.zeros(m), np.eye(m)])
        vals = [rng.dirichlet(np.ones(m + 1)) @ bvals for _ in range(10)]
        assert boundary_hull_gap(*_hull_case(bvals, vals)) == (0.0, None)
    assert calls == []


@pytest.mark.parametrize("bad", ["interior", "boundary"])
def test_hull_gap_rejects_non_finite_values(bad):
    # the facet test skips non-finite data, and nnls raises on it
    bvals = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    vals = [np.array([0.2, 0.2])]
    if bad == "interior":
        vals[0][0] = math.nan
    else:
        bvals[1][0] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        boundary_hull_gap(*_hull_case(np.array(bvals), vals))


def test_hull_gap_sends_every_value_to_nnls_when_qhull_fails(monkeypatch):
    # every value but the boundary's own, which are bit-equal to theirs; a
    # square, since a simplex takes no Qhull
    monkeypatch.setattr(vector, "convex_hull_equations", lambda points: None)
    nnls_impl, calls = vector.nnls, []
    monkeypatch.setattr(vector, "nnls", lambda *a: calls.append(1) or nnls_impl(*a))
    bvals = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    g, u = _hull_case(bvals, [np.array([0.2, 0.2]), np.array([2.0, 2.0])])
    assert boundary_hull_gap(g, u) == reference_hull_gap(g, u)
    assert reference_hull_gap(g, u)[1] == "x01" and len(calls) == 2


@pytest.mark.parametrize("m", [2, 3])
def test_hull_gap_places_a_simplex_without_qhull(monkeypatch, m):
    # r + 1 boundary values of rank r: barycentric coordinates place the
    # values inside, nnls fits the others, and Qhull never runs
    monkeypatch.setattr(vector, "convex_hull_equations", lambda points: pytest.fail("Qhull ran"))
    nnls_impl, calls = vector.nnls, []
    monkeypatch.setattr(vector, "nnls", lambda *a: calls.append(1) or nnls_impl(*a))
    rng = np.random.default_rng(240 + m)
    for _ in range(20):
        bvals = rng.uniform(-1.0, 1.0, (m + 1, m)) * rng.choice([1e-6, 1.0, 1e6])
        inside = [rng.dirichlet(np.ones(m + 1)) @ bvals for _ in range(6)]
        # beyond each facet: far, and by a millionth of the way from the
        # opposite vertex to the facet's centroid
        centroids = [np.delete(bvals, i, axis=0).mean(axis=0) for i in range(m + 1)]
        outside = [c + t * (c - b) for b, c in zip(bvals, centroids) for t in (1.0, 1e-6)]
        g, u = _hull_case(bvals, inside + outside)
        _assert_matches_reference(g, u)
        assert boundary_hull_gap(*_hull_case(bvals, outside[1::2]))[0] > 0.0
    assert len(calls) == 20 * 3 * (m + 1)


def test_hull_gap_sends_every_value_to_nnls_on_a_singular_simplex(monkeypatch):
    # a simplex whose edge matrix numpy cannot factor passes no row
    def singular(*a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(vector.np.linalg, "solve", singular)
    nnls_impl, calls = vector.nnls, []
    monkeypatch.setattr(vector, "nnls", lambda *a: calls.append(1) or nnls_impl(*a))
    bvals = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g, u = _hull_case(bvals, [np.array([0.2, 0.2]), np.array([2.0, 2.0])])
    assert boundary_hull_gap(g, u) == reference_hull_gap(g, u)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# colour-class batching
# ---------------------------------------------------------------------------

def two_sided_grid(n):
    """n x n lattice on the unit square whose left and right columns carry
    m = 2 values: a quarter circle arc and a parabola."""
    h = 1.0 / (n - 1)
    vertices, edges, boundary = {}, [], {}
    for i in range(n):
        for j in range(n):
            vid = f"g{i:02d}_{j:02d}"
            x, y = i * h, j * h
            vertices[vid] = [x, y]
            if i > 0:
                edges.append((f"g{i - 1:02d}_{j:02d}", vid))
            if j > 0:
                edges.append((f"g{i:02d}_{j - 1:02d}", vid))
            if i == 0:
                boundary[vid] = [np.cos(0.5 * np.pi * y), np.sin(0.5 * np.pi * y)]
            elif i == n - 1:
                boundary[vid] = [1.0 + y, -y * y]
    return Graph(vertices, edges, boundary.keys(), boundary)


def _recording_kernel(monkeypatch):
    """Patch vector.minimax_kernel to record each call as (size of its exit,
    whether it replaces a block row).  A group sends the block rows that no
    subset certifies to the kernel right after its batched step, before its
    single rows, so the calls that follow a batched step, as many as the
    rows it left uncertified, are the block rows'."""
    calls = []
    kernel = vector.minimax_kernel
    block_step = KernelBlock.step
    pending = [0]

    def recording(values, dists, *args):
        result = kernel(values, dists, *args)
        calls.append((len(result[2]), pending[0] > 0))
        pending[0] = max(pending[0] - 1, 0)
        return result

    def recording_block_step(self, values, active=False):
        out = block_step(self, values, active)
        pending[0] = int((~out[1]).sum())
        return out

    monkeypatch.setattr(vector, "minimax_kernel", recording)
    monkeypatch.setattr(KernelBlock, "step", recording_block_step)
    return calls


def _every_row_to_the_kernel(monkeypatch):
    """Patch the batched vector step to certify nothing, so that every row
    of a block goes to the kernel, in the same order."""
    def nothing(self, values, sets):
        return np.zeros((values.shape[1], values.shape[0])), np.zeros(values.shape[1], dtype=bool)

    monkeypatch.setattr(KernelBlock, "_vector", nothing)


def _single_calls(g, sweeps):
    """Kernel calls of the single vertices of g's vector sweep groups over
    `sweeps` sweeps, and of its residual group."""
    plan = vector._plan(g, 2)
    return sweeps * sum(len(group.singles) for group in plan.sweep_order) + len(plan.whole.singles)


def _assert_batched_sweep_is_the_kernel(monkeypatch, g):
    """iterate_tight on g, with the exact finish switched off, calls the
    kernel only for single vertices, and gives the bits, sweeps and
    residuals of a run that sends every block row to the kernel, in which
    some rows end in a simplex."""
    monkeypatch.setattr(vector, "FINISH_AT", 0.0)
    calls = _recording_kernel(monkeypatch)
    values, report = iterate_tight(g, tol=1e-10)
    assert not any(in_block for _, in_block in calls)
    assert len(calls) == _single_calls(g, report.sweeps)
    calls.clear()
    _every_row_to_the_kernel(monkeypatch)
    again, again_report = iterate_tight(g, tol=1e-10)
    assert again_report == report
    assert all(np.array_equal(again[v], values[v]) for v in g.ids)
    exits = [size for size, in_block in calls if in_block]
    assert exits.count(2) > exits.count(3) > 0
    return report


@pytest.mark.parametrize("make", [
    lambda: two_sided_grid(7),
    # two classes, every interior vertex in one of them, degrees 1 to 6:
    # rows are padded
    lambda: random_graph(np.random.default_rng(71), max_vertices=60, m=2),
])
def test_batched_sweep_calls_the_kernel_only_for_single_vertices(monkeypatch, make):
    _assert_batched_sweep_is_the_kernel(monkeypatch, make())


def test_batched_sweep_on_the_8x8_grid_is_the_kernel(monkeypatch):
    # m = 2 on every side of the grid: every interior vertex is a block row,
    # and the batched sweep and residual give the bits of the per-vertex
    # kernel, sweep for sweep
    g = grid_graph(8, lambda x, y: [x * x - y, np.sin(3.0 * x) * y])
    report = _assert_batched_sweep_is_the_kernel(monkeypatch, g)
    assert _single_calls(g, report.sweeps) == 0 and report.sweeps > 100


def with_hub(g, nbrs):
    """g plus an interior vertex "h" joined by edges of length 0.4 to nbrs:
    of degree above vector.DEGREE_CAP, it is replaced on its own."""
    vertices = dict(g.positions)
    vertices["h"] = [0.5, 0.5]
    edges = [(a, b, ln) for (a, b), ln in g.lengths.items()] + [("h", w, 0.4) for w in nbrs]
    return Graph(vertices, edges, g.omega, g.boundary_values)


def _has_block_and_single(groups):
    return any(group.block is not None and group.singles for group in groups)


# 5 boundary vertices and 5 interior vertices of one colour of the 7x7 grid
HUB_NBRS = [f"g00_{j:02d}" for j in range(5)] + [
    f"g{i:02d}_{j:02d}" for i, j in [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)]]


def test_batched_sweep_with_a_vertex_above_the_degree_cap(monkeypatch):
    # the hub joins 5 boundary vertices and 5 interior vertices of the
    # other colour, so it is coloured with 18 grid vertices: that class is
    # a block plus the hub, and so is the residual's one group
    g = with_hub(two_sided_grid(7), HUB_NBRS)
    assert len(g.neighbors("h")) > vector.DEGREE_CAP
    plan = vector._plan(g, 2)
    assert _has_block_and_single(plan.sweep_order)
    assert _has_block_and_single([plan.whole])
    # the kernel sees the hub alone: once in every sweep and in the residual
    report = _assert_batched_sweep_is_the_kernel(monkeypatch, g)
    assert _single_calls(g, report.sweeps) == report.sweeps + 1


def test_scalar_residual_with_a_vertex_above_the_degree_cap():
    # 49 interior vertices in one residual block, the hub on its own: the
    # moves and the first worst vertex are the per-vertex rule's
    nbrs = [f"g00_{j:02d}" for j in range(1, 6)] + [
        f"g{i:02d}_{j:02d}" for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]]
    g = with_hub(grid_graph(9, lambda x, y: x * x - y), nbrs)
    assert _has_block_and_single([vector._plan(g, 1).whole])
    rng = np.random.default_rng(5)
    for hub_value in (None, 10.0):
        u = {v: (g.boundary_values[v] if v in g.omega else rng.uniform(-1.0, 1.0, 1))
             for v in g.ids}
        if hub_value is not None:
            u["h"] = np.array([hub_value])
        worst, witness = 0.0, None
        for v in g.interior():
            nbrs_v = g.neighbors(v)
            point = pairwise_optimum([u[w][0] for w, _ in nbrs_v], [ln for _, ln in nbrs_v])[0]
            if abs(point - u[v][0]) > worst:
                worst, witness = abs(point - u[v][0]), v
        assert vector._worst_move(g, u) == (worst, witness)
        assert (witness == "h") == (hub_value is not None)


def _colour_order_sweeps(g, tol):
    """Gauss-Seidel sweeps of the kernel vertex by vertex in (colour class,
    id) order, from the boundary centroid: (values by id, sweeps)."""
    ids = g.ids
    index = {v: i for i, v in enumerate(ids)}
    centroid = np.mean([g.boundary_values[b] for b in sorted(g.omega)], axis=0)
    u = [g.boundary_values[v] if v in g.omega else centroid for v in ids]
    sweeps = 0
    while True:
        sweeps += 1
        delta = 0.0
        for v in colour_order(g):
            nbrs = g.neighbors(v)
            new = minimax_kernel(np.array([u[index[w]] for w, _ in nbrs]),
                                 [ln for _, ln in nbrs])[1]
            delta = max(delta, float(np.linalg.norm(new - u[index[v]])))
            u[index[v]] = new
        if delta < tol:
            return {v: u[index[v]] for v in ids}, sweeps


def test_small_graph_sweeps_vertex_by_vertex(monkeypatch):
    # classes of 4 are below the cutover: with the exact finish switched
    # off, every replacement is a kernel call, in colour order.  The
    # residual's group of all 8 interior vertices is a block.
    monkeypatch.setattr(vector, "FINISH_AT", 0.0)
    g = two_sided_grid(4)
    ref, sweeps = _colour_order_sweeps(g, 1e-10)
    exits = _recording_kernel(monkeypatch)
    values, report = iterate_tight(g, tol=1e-10)
    assert report.sweeps == sweeps
    assert all(np.array_equal(values[v], ref[v]) for v in g.ids)
    assert len(exits) == report.sweeps * len(g.interior())
    assert vector._plan(g, 2).whole.block is not None


@pytest.mark.parametrize("make", [
    lambda: grid_graph(6, lambda x, y: x * x - y),
    lambda: grid_graph(8, lambda x, y: x * x - y),
    lambda: two_sided_grid(5),
    lambda: two_sided_grid(7),
    # a class that is a block plus a vertex above the degree cap
    lambda: with_hub(two_sided_grid(7), HUB_NBRS),
], ids=["curved6", "curved8", "sides5", "sides7", "hub"])
def test_batching_does_not_change_the_sweep(make):
    # a colour class replaced in one batched pass or vertex by vertex: the
    # same values, sweeps and largest moves at every cutover
    _, history, converged = assert_sweep_paths_agree(make(), max_iter=100_000)
    assert converged and len(history) > 1


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_sweeps_reject_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        iterate_tight(vector_path(), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        gauss_seidel_scalar(grid_graph(4), tol=tol)


# ---------------------------------------------------------------------------
# exact finish
# ---------------------------------------------------------------------------

def _sweep_without_finish(monkeypatch, g, tol=1e-10):
    with monkeypatch.context() as mp:
        mp.setattr(vector, "FINISH_AT", 0.0)
        return vector._sweep(g, tol, 100_000)


def _recording_freeze(monkeypatch):
    """Patch _Finish._freeze to record what each freeze returns."""
    frozen = []
    freeze = vector._Finish._freeze

    def recording(self, x):
        frozen.append(freeze(self, x))
        return frozen[-1]

    monkeypatch.setattr(vector._Finish, "_freeze", recording)
    return frozen


def _assert_same_sweep(a, b):
    (values, history, converged), (other, other_history, other_converged) = a, b
    assert converged == other_converged
    assert np.array_equal(np.array(history).view(np.uint64),
                          np.array(other_history).view(np.uint64))
    assert all(np.array_equal(values[v].view(np.uint64), other[v].view(np.uint64)) for v in values)


def _finish_graphs():
    return [
        grid_graph(6, lambda x, y: x * x - y),  # m = 1, no block
        grid_graph(10, lambda x, y: x * x - y),  # m = 1 with blocks
        two_sided_grid(5),  # m = 2 with blocks
        random_graph(np.random.default_rng(4), max_vertices=12, m=2),  # m = 2, no block
    ]


@pytest.mark.parametrize("g", _finish_graphs(), ids=["curved6", "curved10", "sides5", "random"])
def test_finish_is_exact_and_takes_fewer_sweeps(monkeypatch, g):
    frozen = _recording_freeze(monkeypatch)
    values, history, converged = vector._sweep(g, 1e-10, 100_000)
    assert converged and frozen
    _, plain_history, _ = _sweep_without_finish(monkeypatch, g)
    assert len(history) < len(plain_history)
    assert residual(g, values) <= 1e-15
    if g.value_dim() == 1:
        exact = solve_scalar(g).values
        assert all(abs(values[v][0] - exact[v][0]) <= 1e-14 for v in g.ids)


@pytest.mark.parametrize("g", _finish_graphs(), ids=["curved6", "curved10", "sides5", "random"])
def test_finish_follows_chains_over_each_arc_once_in_order(monkeypatch, g):
    # the breadth-first search's neighbour order decides which sample a
    # constant row follows: it runs on each arc once, sorted by source and
    # then destination, as scipy sorts a graph built from (row, column) pairs
    canonical = []
    search = vector.breadth_first_order

    def recording(graph, start, return_predecessors):
        canonical.append(graph.has_canonical_format)
        return search(graph, start, return_predecessors=return_predecessors)

    monkeypatch.setattr(vector, "breadth_first_order", recording)
    assert vector._sweep(g, 1e-10, 100_000)[2]
    assert canonical and all(canonical)


@pytest.mark.parametrize("g", _finish_graphs(), ids=["curved6", "curved10", "sides5", "random"])
@pytest.mark.parametrize("bad", ["none", "nan"])
def test_a_rejected_finish_leaves_the_sweep_as_it_was(monkeypatch, g, bad):
    # no candidate, and a Newton step that is not finite (which must never
    # reach the kernel): no checking sweep runs, and each leaves the values,
    # sweeps and history of the sweeps alone
    plain = _sweep_without_finish(monkeypatch, g)
    kernel = vector.minimax_kernel

    def finite_kernel(values, dists, *args):
        assert np.isfinite(np.asarray(values, dtype=float)).all()
        return kernel(values, dists, *args)

    if bad == "none":
        monkeypatch.setattr(vector._Finish, "candidate", lambda self, x, cap: None)
    else:
        monkeypatch.setattr(vector, "spsolve", lambda a, b: np.full(len(b), np.nan))
        monkeypatch.setattr(vector, "minimax_kernel", finite_kernel)
    _assert_same_sweep(vector._sweep(g, 1e-10, 100_000), plain)


@pytest.mark.parametrize("g", _finish_graphs(), ids=["curved6", "curved10", "sides5", "random"])
def test_a_refused_candidate_is_kept(monkeypatch, g):
    # every candidate moved by 1e-3: its checking sweep refuses it, and the
    # sweeps go on from the values that sweep left, not from those the
    # attempt started at.  They still converge, to the unperturbed limit.
    values, _, _ = vector._sweep(copy.deepcopy(g), 1e-10, 100_000)
    candidate, attempt = vector._Finish.candidate, vector._Finish.attempt
    refused = []

    def moved(self, x, cap):
        y = candidate(self, x, cap)
        if y is not None:
            y[self.rows] += 1e-3
        return y

    def recording(self, u, *args):
        before = u.copy()
        accepted = attempt(self, u, *args)
        if not accepted:
            refused.append(not np.array_equal(u, before))
        return accepted

    monkeypatch.setattr(vector._Finish, "candidate", moved)
    monkeypatch.setattr(vector._Finish, "attempt", recording)
    kept, history, converged = vector._sweep(g, 1e-10, 100_000)
    assert converged and refused and all(refused)
    assert max(float(np.abs(kept[v] - values[v]).max()) for v in g.ids) <= 1e-8


@pytest.mark.parametrize("make", [
    lambda: two_sided_grid(7),
    lambda: grid_graph(32, lambda x, y: x * x - y),
], ids=["sides7", "curved32"])
def test_every_sweep_is_in_the_history_within_the_budget(make):
    # each sweep replaces the first colour class once, and the finish's
    # freezes and the residual replace the whole interior instead: the
    # sweeps run, checking sweeps included, are the history's moves, and
    # no budget runs more of them than it allows
    g = make()
    first = vector._plan(g, g.value_dim()).sweep_order[0]
    step = first.step
    runs = []

    def counting(*args, **kwargs):
        runs[-1] += 1
        return step(*args, **kwargs)

    first.step = counting
    total = None
    for max_iter in range(1, 100_000):
        runs.append(0)
        _, history, converged = vector._sweep(g, 1e-10, max_iter)
        assert runs[-1] == len(history) <= max_iter
        if converged:
            total = len(history)
            break
    assert total == max_iter and total > 1


def test_finish_counts_the_checking_sweep_within_the_budget(monkeypatch):
    # the accepted candidate's checking sweep is a counted sweep: a budget
    # that ends just before it leaves the sweeps unconverged
    g = two_sided_grid(5)
    values, history, converged = vector._sweep(g, 1e-10, 100_000)
    assert converged
    _, short, short_converged = vector._sweep(g, 1e-10, len(history) - 1)
    assert not short_converged and len(short) == len(history) - 1
    _, plain_history, _ = _sweep_without_finish(monkeypatch, g)
    assert short == plain_history[:len(history) - 1]


def test_finish_at_a_row_that_is_constant_at_the_answer(monkeypatch):
    # v2 and v3 hang off v1: they are frozen as a pair and a constant row
    # while the sweeps move them, and are constant rows at the answer.  The
    # finish accepts the answer without the active sets agreeing.
    g = Graph({"a": [0.0, 0.0], "v1": [1.0, 0.0], "b": [2.0, 0.0],
               "v2": [1.0, 1.0], "v3": [1.0, 2.0]},
              [("a", "v1", 1.0), ("v1", "b", 3.0), ("v1", "v2", 1.0), ("v2", "v3", 1.0)],
              ["a", "b"], {"a": [0.0, 0.0], "b": [1.0, 3.0]})
    frozen = _recording_freeze(monkeypatch)
    values, history, converged = vector._sweep(g, 1e-10, 100_000)
    assert converged and frozen
    finish = vector._Finish(vector._Plan(g, 2))
    answer = finish.plan.rule(np.array([values[v] for v in g.ids]), active=True)[0]
    v2 = finish.interior[g.ids.index("v2")]
    assert (frozen[0].verts[v2] >= 0).sum() == 2 and (answer[v2] >= 0).sum() == 1
    assert residual(g, values) <= 1e-15
    assert np.abs(np.array([values["v2"], values["v3"]]) - values["v1"]).max() <= 1e-15
    _, plain_history, _ = _sweep_without_finish(monkeypatch, g)
    assert len(history) < len(plain_history)


def test_finish_with_hull_coordinates(monkeypatch):
    # m = 3: a row whose active set holds 3 < m + 1 samples carries hull
    # coordinates through Newton's method
    g = random_graph(np.random.default_rng(3), max_vertices=16, m=3)
    frozen = _recording_freeze(monkeypatch)
    values, history, converged = vector._sweep(g, 1e-10, 100_000)
    assert converged
    hull = ~np.isnan(frozen[-1].coords).all(axis=1)
    assert hull.any() and ((frozen[-1].verts[hull] >= 0).sum(axis=1) == 3).all()
    assert residual(g, values) <= 1e-15
    _, plain_history, _ = _sweep_without_finish(monkeypatch, g)
    assert len(history) < len(plain_history)


def _tied_clique():
    """Four interior vertices, each joined to the other three and to one
    boundary vertex, all edges of length 1."""
    inner = ["p", "q", "r", "s"]
    vertices = {v: [float(i), 0.0] for i, v in enumerate(inner)}
    vertices.update({"b" + v: [float(i), 1.0] for i, v in enumerate(inner)})
    edges = [(a, b, 1.0) for i, a in enumerate(inner) for b in inner[i + 1:]]
    edges += [(v, "b" + v, 1.0) for v in inner]
    return Graph(vertices, edges, ["b" + v for v in inner], {"b" + v: [0.5] for v in inner})


def test_finish_leaves_a_chain_that_misses_the_boundary_to_the_sweep():
    # at p = r = 0 and q = s = 1 every steepest pair of an interior vertex
    # ties with another and the first of them joins two interior vertices:
    # no chain reaches the boundary, and the frozen system would be
    # singular.  The freeze refuses it before any solve, without a warning.
    g = _tied_clique()
    finish = vector._Finish(vector._Plan(g, 1))
    u = {"p": 0.0, "q": 1.0, "r": 0.0, "s": 1.0}
    x = np.array([[u.get(v, 0.5)] for v in g.ids])
    verts = finish.plan.rule(x, active=True)[0]
    assert all(g.ids[v] in u for v in verts[verts >= 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert finish._freeze(x) is None
        assert finish.candidate(x, 1.0) is None


def test_finish_refuses_values_that_are_not_finite(monkeypatch):
    g = two_sided_grid(5)
    finish = vector._Finish(vector._Plan(g, 2))
    x = np.array([g.boundary_values.get(v, [0.5, 0.5]) for v in g.ids], dtype=float)
    x[finish.rows[0]] = np.nan
    monkeypatch.setattr(KernelBlock, "step", None)
    monkeypatch.setattr(vector, "minimax_kernel", None)
    assert finish._freeze(x) is None


@pytest.mark.parametrize("make", [
    lambda: two_sided_grid(7),
    lambda: grid_graph(16, lambda x, y: [x * x - y, math.sin(3 * x) * y]),
], ids=["sides7", "curved16"])
def test_finish_skips_a_newton_step_predicted_to_be_rounding(monkeypatch, caplog, make):
    # with the predicted stop, the finish's Newton solves end a step
    # sooner than when each must take a step below 2**-40 of the largest
    # value, and the sweep still ends at rounding: the same sweeps,
    # values within 1e-14 and residual <= 4e-16
    g = make()
    runs = []
    for stop in (vector.PREDICTED_STOP, 0.0):
        monkeypatch.setattr(vector, "PREDICTED_STOP", stop)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="lipext.vector"):
            values, history, converged = vector._sweep(g, 1e-10, 100_000)
        steps = int(re.search(r"(\d+) Newton steps, accepted=True", caplog.text).group(1))
        runs.append((values, len(history), steps))
        assert converged and residual(g, values) <= 4e-16
    (values, sweeps, steps), (full_values, full_sweeps, full_steps) = runs
    assert sweeps == full_sweeps and steps < full_steps
    assert max(float(np.abs(values[v] - full_values[v]).max()) for v in g.ids) <= 1e-14


def test_sweep_logs_the_finish(caplog):
    with caplog.at_level(logging.DEBUG, logger="lipext.vector"):
        vector._sweep(two_sided_grid(5), 1e-10, 100_000)
    assert re.search(r"finish: 1 attempts, \d+ re-freeze rounds, \d+ Newton steps, accepted=True",
                     caplog.text)


def test_frozen_jacobian_matches_finite_differences():
    # m = 3, with rows of 3 and of 4 active samples: the analytic Jacobian
    # of the frozen system against central differences of its equations
    g = grid_graph(7, lambda x, y: [x * x - y, np.sin(3.0 * x) * y, np.cos(2.0 * y) * x])
    values, _, _ = vector._sweep(g, 1e-3, 100_000)
    finish = vector._Finish(vector._Plan(g, 3))
    x = np.array([values[v] for v in g.ids])
    frozen = finish._freeze(x)
    system = vector._Frozen(frozen, finish.rows, finish.interior, 3)
    assert sorted(c.hull for c in system.curved) == [False, True]
    n = len(finish.rows) * 3
    rng = np.random.default_rng(0)
    z = system.start + rng.uniform(-1e-3, 1e-3, system.start.size)

    def equations(w):
        y = x.copy()
        y[finish.rows] = w[:n].reshape(-1, 3)
        return system.linearize(y, w[n:])[0]

    w = np.concatenate([x[finish.rows].ravel(), z])
    jac = system.linearize(x, z)[1].toarray()
    h = 1e-6
    for j in range(w.size):
        e = np.zeros(w.size)
        e[j] = h
        assert np.allclose((equations(w + e) - equations(w - e)) / (2 * h), jac[:, j], atol=1e-6)


@pytest.mark.parametrize("m", [1, 2])
def test_freeze_follows_a_constant_row_to_the_boundary(m):
    # w's samples, the leaf l first and then the boundary vertex z, are
    # equal: w may follow either, and follows z, since l only follows w
    g = Graph({"l": [0.0], "w": [1.0], "z": [2.0]}, [("l", "w"), ("w", "z")], ["z"],
              {"z": [1.0, 2.0][:m]})
    finish = vector._Finish(vector._Plan(g, m))
    x = np.array([[1.0, 2.0][:m]] * 3)
    l, w, z = (g.ids.index(v) for v in "lwz")
    row_l, row_w = finish.interior[l], finish.interior[w]
    assert (finish.plan.rule(x, active=True)[0][row_w] >= 0).sum() == 1
    frozen = finish._freeze(x)
    assert list(frozen.verts[row_w]) == [z] + [-1] * m
    assert list(frozen.verts[row_l]) == [w] + [-1] * m


@pytest.mark.parametrize("g", _finish_graphs() + [with_hub(two_sided_grid(7), HUB_NBRS)],
                         ids=["curved6", "curved10", "sides5", "random", "hub"])
def test_freeze_in_one_batched_pass_is_the_local_rule(monkeypatch, g):
    # the freeze of every row in one block and of every row on its own
    # find the same active sets, lam and coordinates, bit for bit
    values, _, _ = _sweep_without_finish(monkeypatch, g, tol=1e-3)
    m = g.value_dim()
    x = np.array([values[v] for v in g.ids])
    frozen = []
    for block_min in (1, len(g.ids) + 1):
        # a copy of g plans its groups at the patched cutover
        monkeypatch.setattr(vector, "SWEEP_BLOCK_MIN", (block_min, block_min))
        finish = vector._Finish(vector._plan(copy.deepcopy(g), m))
        assert (finish.plan.whole.block is None) == (block_min > 1)
        frozen.append(finish._freeze(x))
    assert frozen[0] is not None
    for a, b in zip(*frozen):
        assert np.array_equal(a.view(np.uint64) if a.dtype == float else a,
                              b.view(np.uint64) if b.dtype == float else b)


@pytest.mark.parametrize("g", [with_hub(two_sided_grid(7), HUB_NBRS), path_graph(n=12),
                               random_graph(np.random.default_rng(9), max_vertices=40, m=2)],
                         ids=["hub", "path12", "random"])
def test_plan_reads_the_indexed_form_in_neighbors_order(g):
    # rows, start, cols and lengths from the arc table are those built from
    # g.neighbors, as plain ints and floats
    plan = vector._Plan(g, g.value_dim())
    assert (plan.rows, plan.start, plan.cols, plan.lengths) == reference_plan(g)
    assert all(type(i) is int for i in plan.rows + plan.start + plan.cols)
    assert all(type(ln) is float for ln in plan.lengths)
    assert plan.interior.tolist() == [plan.rows.index(i) if i in plan.rows else -1
                                      for i in range(len(g.ids))]


@pytest.mark.parametrize("g", _finish_graphs() + [with_hub(two_sided_grid(7), HUB_NBRS)],
                         ids=["curved6", "curved10", "sides5", "random", "hub"])
def test_plan_rule_gives_the_same_points_with_active_sets(monkeypatch, g):
    # the residual's pass and the freeze's pass are one: the same points to
    # the bit, from one group built once
    values, _, _ = _sweep_without_finish(monkeypatch, g, tol=1e-3)
    m = g.value_dim()
    plan = vector._Plan(g, m)
    x = np.array([values[v] for v in g.ids])
    points = plan.rule(x)
    whole = plan.whole
    verts, lens, again = plan.rule(x, active=True)
    assert plan.whole is whole
    assert points.shape == again.shape == (len(plan.rows), m)
    assert np.array_equal(points.view(np.uint64), again.view(np.uint64))
    assert ((verts >= 0).sum(axis=1) >= 1).all() and (lens[verts < 0] == 0.0).all()


def test_plan_is_built_once_per_graph(monkeypatch):
    # the sweeps, the residual and the verifier share one plan per graph,
    # and a copy of the graph plans its own
    built = []
    init = vector._Plan.__init__

    def counted(self, g, m):
        built.append((g, m))
        init(self, g, m)

    monkeypatch.setattr(vector._Plan, "__init__", counted)
    g = two_sided_grid(5)
    values, _ = iterate_tight(g)
    residual(g, values)
    boundary_hull_gap(g, values)
    iterate_tight(g)
    assert built == [(g, 2)]
    h = grid_graph(6, lambda x, y: x * x - y)
    res = gauss_seidel_scalar(h)
    assert verify_extension(h, res.values).passed
    assert built == [(g, 2), (h, 1)]
    other = copy.deepcopy(g)
    iterate_tight(other)
    assert len(built) == 3 and built[2][0] is other
