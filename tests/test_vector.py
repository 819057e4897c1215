import numpy as np
import pytest

from conftest import grid_graph, random_graph
from lipext import vector
from lipext.graph import Graph
from lipext.kpoint import KernelBlock, minimax_kernel, pairwise_optimum
from lipext.scalar import solve_scalar
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
    whether a block step made it)."""
    calls = []
    kernel = vector.minimax_kernel
    block_step = vector._Block.step
    in_block = []

    def recording(values, dists, *args):
        result = kernel(values, dists, *args)
        calls.append((len(result[2]), bool(in_block)))
        return result

    def recording_block_step(self, u):
        in_block.append(True)
        try:
            return block_step(self, u)
        finally:
            in_block.pop()

    monkeypatch.setattr(vector, "minimax_kernel", recording)
    monkeypatch.setattr(vector._Block, "step", recording_block_step)
    return calls


def _every_row_to_the_kernel(monkeypatch):
    """Patch the batched step to certify nothing, so that every row of a
    block goes to the kernel, in the same order."""
    def nothing(self, values):
        return np.zeros((values.shape[1], values.shape[0])), np.zeros(values.shape[1], dtype=bool)

    monkeypatch.setattr(KernelBlock, "step", nothing)


def _single_calls(g, sweeps):
    """Kernel calls of the single vertices of g's vector sweep groups over
    `sweeps` sweeps, and of its residual group."""
    order = vector._Plan(g, vector.SWEEP_BLOCK_MIN[1]).sweep_order()
    plan = vector._Plan(g, vector.RESIDUAL_BLOCK_MIN[1])
    _, singles = plan.group(list(range(len(plan.rows))))
    return sweeps * sum(len(group) for _, group in order) + len(singles)


def _assert_batched_sweep_is_the_kernel(monkeypatch, g):
    """iterate_tight on g calls the kernel only for single vertices, and
    gives the bits, sweeps and residuals of a run that sends every block
    row to the kernel, in which some rows end in a simplex."""
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
    return any(block is not None and singles for block, singles in groups)


def test_batched_sweep_with_a_vertex_above_the_degree_cap(monkeypatch):
    # the hub joins 5 boundary vertices and 5 interior vertices of the
    # other colour, so it is coloured with 18 grid vertices: that class is
    # a block plus the hub, and so is the residual's one group
    nbrs = [f"g00_{j:02d}" for j in range(5)] + [
        f"g{i:02d}_{j:02d}" for i, j in [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)]]
    g = with_hub(two_sided_grid(7), nbrs)
    assert len(g.neighbors("h")) > vector.DEGREE_CAP
    plan = vector._Plan(g, vector.SWEEP_BLOCK_MIN[1])
    assert _has_block_and_single(plan.sweep_order())
    plan = vector._Plan(g, vector.RESIDUAL_BLOCK_MIN[1])
    assert _has_block_and_single([plan.group(list(range(len(plan.rows))))])
    # the kernel sees the hub alone: once in every sweep and in the residual
    report = _assert_batched_sweep_is_the_kernel(monkeypatch, g)
    assert _single_calls(g, report.sweeps) == report.sweeps + 1


def test_scalar_residual_with_a_vertex_above_the_degree_cap():
    # 49 interior vertices in one residual block, the hub on its own: the
    # moves and the first worst vertex are the per-vertex rule's
    nbrs = [f"g00_{j:02d}" for j in range(1, 6)] + [
        f"g{i:02d}_{j:02d}" for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]]
    g = with_hub(grid_graph(9, lambda x, y: x * x - y), nbrs)
    plan = vector._Plan(g, vector.RESIDUAL_BLOCK_MIN[0])
    assert _has_block_and_single([plan.group(list(range(len(plan.rows))))])
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


def _id_order_sweeps(g, tol):
    """Gauss-Seidel sweeps of the kernel vertex by vertex in id order, from
    the boundary centroid: (values by id, sweeps)."""
    ids = g.ids
    index = {v: i for i, v in enumerate(ids)}
    centroid = np.mean([g.boundary_values[b] for b in sorted(g.omega)], axis=0)
    u = [g.boundary_values[v] if v in g.omega else centroid for v in ids]
    sweeps = 0
    while True:
        sweeps += 1
        delta = 0.0
        for v in g.interior():
            nbrs = g.neighbors(v)
            new = minimax_kernel(np.array([u[index[w]] for w, _ in nbrs]),
                                 [ln for _, ln in nbrs])[1]
            delta = max(delta, float(np.linalg.norm(new - u[index[v]])))
            u[index[v]] = new
        if delta < tol:
            return {v: u[index[v]] for v in ids}, sweeps


def test_small_graph_sweeps_vertex_by_vertex(monkeypatch):
    # classes of 4 are below the cutover: every replacement is a kernel
    # call, in id order, and so is every residual check
    g = two_sided_grid(4)
    ref, sweeps = _id_order_sweeps(g, 1e-10)
    exits = _recording_kernel(monkeypatch)
    values, report = iterate_tight(g, tol=1e-10)
    assert report.sweeps == sweeps
    assert all(np.array_equal(values[v], ref[v]) for v in g.ids)
    assert len(exits) == (report.sweeps + 1) * len(g.interior())
