import heapq
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import colour_order, grid_graph, path_graph, random_graph
from lipext.errors import InvalidPath, NotConverged, ValidationError
from lipext.graph import Graph, geodesic_distances_from, lipschitz_ratio
from lipext import scalar, vector
from lipext.kpoint import minimax_kernel, pairwise_optimum
from lipext.scalar import (
    ConnectingPath,
    _edge_key,
    _oriented,
    _rank,
    _single_edge_candidates,
    apply_path,
    finalize_components,
    find_max_slope_connecting_path,
    gauss_seidel_scalar,
    initial_state,
    solve_scalar,
    verify_extension,
)
from lipext.vector import iterate_tight, residual


def test_import_leaves_scipy_sparse_unloaded():
    # only the path search and the verifier load scipy.sparse, on first use;
    # a path solve then loads it
    import lipext

    src = os.path.dirname(os.path.dirname(lipext.__file__))
    code = ("import sys, lipext, lipext.cli; print('scipy.sparse' in sys.modules); "
            "from conftest import path_graph; lipext.solve_scalar(path_graph()); "
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# find_max_slope_connecting_path
# ---------------------------------------------------------------------------

def test_unique_candidate_on_path(path4):
    state = initial_state(path4)
    path = find_max_slope_connecting_path(path4, state)
    assert path is not None
    assert path.vertices == ("v0", "v1", "v2", "v3")
    assert path.slope == pytest.approx(1.0)


def test_prefers_steeper_pair():
    # pair (a0, a1) through mid: slope 5; adjacent (b0, b1): slope 1;
    # the connector to mid is long so the cross pair is shallow
    g = Graph(
        {"a0": [0.0, 0.0], "mid": [1.0, 0.0], "a1": [2.0, 0.0],
         "b0": [0.0, 5.0], "b1": [1.0, 5.0]},
        [("a0", "mid"), ("mid", "a1"), ("b0", "b1"), ("mid", "b0", 10.0)],
        ["a0", "a1", "b0", "b1"],
        {"a0": 0.0, "a1": 10.0, "b0": 0.0, "b1": 1.0},
    )
    path = find_max_slope_connecting_path(g, initial_state(g))
    assert path.slope == pytest.approx(5.0)
    assert set(path.vertices) == {"a0", "mid", "a1"}


def test_no_candidates_when_edges_used(path4):
    state = initial_state(path4)
    state.labeled.update({"v1": 1.0, "v2": 2.0})
    state.used_edges.update({("v0", "v1"), ("v1", "v2"), ("v2", "v3")})
    assert find_max_slope_connecting_path(path4, state) is None


def test_single_edge_path_allowed():
    g = path_graph(n=2, values=(0.0, 2.0))
    path = find_max_slope_connecting_path(g, initial_state(g))
    assert path.vertices == ("v0", "v1")
    assert path.slope == pytest.approx(2.0)


def test_tie_break_prefers_smaller_endpoints():
    # two disjoint candidates with identical slope 1: (a0, a1) beats (b0, b1)
    g = Graph(
        {"a0": [0.0, 0.0], "am": [1.0, 0.0], "a1": [2.0, 0.0],
         "b0": [0.0, 3.0], "bm": [1.0, 3.0], "b1": [2.0, 3.0]},
        [("a0", "am"), ("am", "a1"), ("b0", "bm"), ("bm", "b1"), ("a0", "b0", 3.0)],
        ["a0", "a1", "b0", "b1"],
        {"a0": 0.0, "a1": 2.0, "b0": 0.0, "b1": 2.0},
    )
    path = find_max_slope_connecting_path(g, initial_state(g))
    assert path.slope == pytest.approx(1.0)
    assert set(path.vertices) == {"a0", "am", "a1"}


def test_tie_break_prefers_smaller_interior():
    # two equal-length routes between the same endpoints; the interior
    # sequence starting with "m0" wins over "m1"
    g = Graph(
        {"a": [0.0, 0.0], "b": [2.0, 0.0], "m0": [1.0, 1.0], "m1": [1.0, -1.0]},
        [("a", "m0", 1.0), ("m0", "b", 1.0), ("a", "m1", 1.0), ("m1", "b", 1.0)],
        ["a", "b"], {"a": 0.0, "b": 2.0},
    )
    path = find_max_slope_connecting_path(g, initial_state(g))
    assert path.vertices == ("a", "m0", "b")


# ---------------------------------------------------------------------------
# apply_path
# ---------------------------------------------------------------------------

def test_apply_interpolates(path4):
    state = initial_state(path4)
    path = find_max_slope_connecting_path(path4, state)
    state = apply_path(state, path)
    assert state.labeled["v1"] == pytest.approx(1.0)
    assert state.labeled["v2"] == pytest.approx(2.0)
    assert state.stage_slopes == [pytest.approx(1.0)]
    assert set(state.used_edges) == {("v0", "v1"), ("v1", "v2"), ("v2", "v3")}


def test_apply_zero_slope():
    g = path_graph(values=(2.0, 2.0))
    state = initial_state(g)
    path = find_max_slope_connecting_path(g, state)
    state = apply_path(state, path)
    assert state.labeled["v1"] == pytest.approx(2.0)
    assert state.labeled["v2"] == pytest.approx(2.0)


def test_apply_nonuniform_lengths():
    g = Graph(
        {"a": [0.0], "w": [1.0], "b": [4.0]},
        [("a", "w", 1.0), ("w", "b", 3.0)],
        ["a", "b"], {"a": 0.0, "b": 4.0},
    )
    state = initial_state(g)
    path = find_max_slope_connecting_path(g, state)
    assert path.slope == pytest.approx(1.0)
    state = apply_path(state, path)
    assert state.labeled["w"] == pytest.approx(1.0)


def test_apply_rejects_wrong_orientation(path4):
    state = initial_state(path4)
    bad = ConnectingPath(("v3", "v2", "v1", "v0"), (1.0, 1.0, 1.0), 1.0)
    with pytest.raises(InvalidPath):
        apply_path(state, bad)


# ---------------------------------------------------------------------------
# finalize_components
# ---------------------------------------------------------------------------

def test_finalize_dead_branch():
    # stem s (labeled 2.0) with a dangling branch s - u1 - u2
    g = Graph(
        {"s": [0.0], "u1": [1.0], "u2": [2.0]},
        [("s", "u1"), ("u1", "u2")],
        ["s"], {"s": 2.0},
    )
    values = finalize_components(g, initial_state(g))
    assert values == {"s": 2.0, "u1": 2.0, "u2": 2.0}


def test_finalize_identity_when_total(path4):
    state = initial_state(path4)
    state.labeled.update({"v1": 1.0, "v2": 2.0})
    values = finalize_components(path4, state)
    assert values == state.labeled


def test_finalize_rejects_double_attachment():
    # state says no connecting paths, but the component touches two labeled
    # vertices: internal inconsistency
    g = Graph(
        {"a": [0.0], "w": [1.0], "b": [2.0]},
        [("a", "w"), ("w", "b")],
        ["a", "b"], {"a": 0.0, "b": 1.0},
    )
    from lipext.errors import MultipleAttachments

    with pytest.raises(MultipleAttachments):
        finalize_components(g, initial_state(g))


def test_finalize_two_branches():
    g = Graph(
        {"a": [0.0, 0.0], "b": [4.0, 0.0], "a1": [-1.0, 0.0], "b1": [5.0, 0.0], "m": [2.0, 0.0]},
        [("a", "m"), ("m", "b"), ("a", "a1"), ("b", "b1")],
        ["a", "b"], {"a": 0.0, "b": 4.0},
    )
    state = initial_state(g)
    state.labeled["m"] = 2.0
    state.used_edges.update({("a", "m"), ("b", "m")})
    values = finalize_components(g, state)
    assert values["a1"] == pytest.approx(0.0)
    assert values["b1"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# solve_scalar
# ---------------------------------------------------------------------------

def test_solve_path(path4):
    res = solve_scalar(path4)
    assert res.values["v1"][0] == pytest.approx(1.0)
    assert res.values["v2"][0] == pytest.approx(2.0)
    assert res.stage_slopes == [pytest.approx(1.0)]
    assert res.report.passed


def test_solve_grid_linear_data():
    g = grid_graph(8, boundary_fn=lambda x, y: x)
    res = solve_scalar(g)
    for vid, pos in g.positions.items():
        assert abs(res.values[vid][0] - pos[0]) <= 1e-10
    # independent check: every interior value is its own pairwise optimum
    for x in g.interior():
        vals = [float(res.values[w][0]) for w, _ in g.neighbors(x)]
        lens = [ln for _, ln in g.neighbors(x)]
        k, _, _ = pairwise_optimum(vals, lens)
        assert abs(res.values[x][0] - k) <= 1e-10


def test_solve_matches_gauss_seidel():
    rng = np.random.default_rng(123)
    for _ in range(10):
        g = random_graph(rng, max_vertices=30)
        exact = solve_scalar(g)
        sweep = gauss_seidel_scalar(g, tol=1e-12)
        for v in g.ids:
            assert abs(exact.values[v][0] - sweep.values[v][0]) <= 1e-6


def test_solve_residual_on_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, max_vertices=40)
        res = solve_scalar(g)
        assert res.report.residual <= 1e-9
        assert res.report.passed


# ---------------------------------------------------------------------------
# gauss_seidel_scalar
# ---------------------------------------------------------------------------

def test_gs_path(path4):
    res = gauss_seidel_scalar(path4, tol=1e-12)
    assert res.values["v1"][0] == pytest.approx(1.0, abs=1e-9)
    assert res.values["v2"][0] == pytest.approx(2.0, abs=1e-9)


def test_gs_constant_boundary():
    g = path_graph(values=(5.0, 5.0))
    res = gauss_seidel_scalar(g)
    assert all(v[0] == pytest.approx(5.0) for v in res.values.values())


def test_gs_star(star3):
    res = gauss_seidel_scalar(star3, tol=1e-12)
    assert res.values["c"][0] == pytest.approx(5.0, abs=1e-9)


def test_gs_not_converged_carries_partial(star3):
    with pytest.raises(NotConverged) as err:
        gauss_seidel_scalar(star3, tol=1e-15, max_iter=0)
    assert err.value.values is not None
    assert err.value.report is not None


# ---------------------------------------------------------------------------
# verify_extension
# ---------------------------------------------------------------------------

def test_verify_accepts_solution(path4):
    res = solve_scalar(path4)
    assert verify_extension(path4, res.values).passed


def test_verify_flags_corruption(path4):
    res = solve_scalar(path4)
    bad = dict(res.values)
    bad["v1"] = np.array([2.5])
    report = verify_extension(path4, bad)
    assert not report.residual_ok
    assert report.residual_witness == "v1"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_verify_fails_on_non_finite_values(path4, bad):
    res = solve_scalar(path4)
    u = dict(res.values)
    u["v2"] = np.array([bad])
    report = verify_extension(path4, u)
    assert not report.passed
    assert not report.max_principle_ok and report.max_principle_witness == "v2"


def test_solve_rejects_overflowing_value_span():
    # f(b) - f(a) overflows: the data fails validation instead of giving inf
    g = path_graph(n=3, values=(-1e308, 1e308))
    with pytest.raises(ValidationError, match="ValueOverflow"):
        solve_scalar(g)


@pytest.mark.parametrize("value,length", [(8e307, 0.1), (1e300, 1e-9), (1e307, 30.0)])
def test_solve_rejects_overflowing_slopes(value, length):
    # the span is finite, but a slope (span / 0.2 for the first) or a
    # length-weighted value (30 * 1e307) is not
    g = Graph({"a": [0.0], "m": [1.0], "b": [2.0]}, [("a", "m", length), ("m", "b", length)],
              ["a", "b"], {"a": -value, "b": value})
    with pytest.raises(ValidationError, match="ValueOverflow"):
        solve_scalar(g)


@pytest.mark.parametrize("value,length", [(4e307, 0.5), (8.9e307, 1.0), (5e306, 10.0)])
def test_solve_just_inside_overflow_limit(value, length):
    g = Graph({"a": [0.0], "m": [1.0], "b": [2.0]}, [("a", "m", length), ("m", "b", length)],
              ["a", "b"], {"a": -value, "b": value})
    res = solve_scalar(g)
    assert res.values["m"][0] == 0.0
    assert res.report.passed and res.report.interior_ratio == value / length


def test_solve_at_extreme_finite_scale():
    # a span near the largest float: the edge ratios take |d| instead of
    # squaring it, so the report checks the true ratios
    g = path_graph(n=3, values=(-1e200, 1e200))
    res = solve_scalar(g)
    assert res.values["v1"][0] == 0.0
    assert res.stage_slopes == [1e200]
    assert res.report.passed and res.report.interior_ratio == 1e200


def test_gauss_seidel_start_does_not_overflow():
    # the boundary values sum past the largest float, although each passes
    # validation: the sweep's starting centroid is taken with power-of-two
    # scaling, so the interior stays finite
    ids = [f"v{i}" for i in range(6)]
    g = Graph({v: [float(i)] for i, v in enumerate(ids)}, [(ids[i], ids[i + 1]) for i in range(5)],
              ["v0", "v2", "v5"], {"v0": 8e307, "v2": 8.5e307, "v5": 8.9e307})
    res = gauss_seidel_scalar(g)
    assert all(np.isfinite(res.values[v][0]) for v in ids)
    assert res.report.passed
    exact = solve_scalar(g)
    assert all(abs(res.values[v][0] - exact.values[v][0]) <= 1e-12 * 8.9e307 for v in ids)


def test_verify_boundary_only_graph():
    g = path_graph(n=2, values=(0.0, 1.0))
    state = initial_state(g)
    values = {v: np.array([state.labeled[v]]) for v in g.ids}
    assert verify_extension(g, values).passed


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_naive_stage_loop_matches_solver():
    # drive the public operations stage by stage; the solver's batched loop
    # must produce identical values and an identical slope log
    rng = np.random.default_rng(97)
    for _ in range(8):
        g = random_graph(rng, max_vertices=25)
        state = initial_state(g)
        while True:
            path = find_max_slope_connecting_path(g, state)
            if path is None:
                break
            if path.vertices[1:-1]:
                state = apply_path(state, path)
            else:
                state.used_edges.update(path.edges)
                state.stage_slopes.append(path.slope)
        naive_values = finalize_components(g, state)
        res = solve_scalar(g)
        assert res.stage_slopes == state.stage_slopes
        for v in g.ids:
            assert res.values[v][0] == naive_values[v]


def test_stage_slopes_non_increasing():
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = random_graph(rng, max_vertices=30)
        slopes = solve_scalar(g).stage_slopes
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
        assert len(slopes) <= len(g.lengths)


def test_single_vertex_graph():
    g = Graph({"a": [0.0]}, [], ["a"], {"a": 3.0})
    res = solve_scalar(g)
    assert res.values["a"][0] == 3.0
    assert res.stage_slopes == []
    assert res.report.passed


def test_single_boundary_vertex_cycle():
    # one labeled vertex on a triangle: no connecting paths at all, the
    # whole cycle floods with the boundary value
    g = Graph(
        {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.5, 1.0]},
        [("a", "b"), ("b", "c"), ("c", "a")],
        ["a"], {"a": 0.7},
    )
    res = solve_scalar(g)
    assert all(res.values[v][0] == 0.7 for v in g.ids)


def test_idempotent_when_boundary_total():
    g = Graph(
        {"a": [0.0], "b": [1.0], "c": [2.0]},
        [("a", "b"), ("b", "c")],
        ["a", "b", "c"], {"a": 0.3, "b": 0.9, "c": 0.1},
    )
    res = solve_scalar(g)
    for v, val in g.boundary_values.items():
        assert res.values[v][0] == val[0]


def test_shift_and_scale_exact():
    # data chosen so every intermediate (slope 0.5 included) is dyadic,
    # which keeps the affine transformations exact in floating point
    base = Graph(
        {"a": [0.0], "w": [1.0], "x": [2.0], "b": [3.0]},
        [("a", "w"), ("w", "x"), ("x", "b")],
        ["a", "b"], {"a": 0.5, "b": 2.0},
    )
    res = solve_scalar(base)
    shifted = Graph(base.positions, [("a", "w"), ("w", "x"), ("x", "b")],
                    ["a", "b"], {"a": 0.5 + 4.0, "b": 2.0 + 4.0})
    res_shift = solve_scalar(shifted)
    for v in base.ids:
        assert res_shift.values[v][0] == res.values[v][0] + 4.0
    scaled = Graph(base.positions, [("a", "w"), ("w", "x"), ("x", "b")],
                   ["a", "b"], {"a": 0.5 * 2.0, "b": 2.0 * 2.0})
    res_scale = solve_scalar(scaled)
    for v in base.ids:
        assert res_scale.values[v][0] == res.values[v][0] * 2.0


def test_shift_scale_random_tolerant():
    rng = np.random.default_rng(37)
    g = random_graph(rng, max_vertices=25)
    res = solve_scalar(g)
    c, s = 0.731, 1.618
    edges = [(a, b, ln) for (a, b), ln in g.lengths.items()]
    shifted = Graph(g.positions, edges, g.omega,
                    {k: v + c for k, v in g.boundary_values.items()})
    scaled = Graph(g.positions, edges, g.omega,
                   {k: v * s for k, v in g.boundary_values.items()})
    rs = solve_scalar(shifted)
    rc = solve_scalar(scaled)
    for v in g.ids:
        assert rs.values[v][0] == pytest.approx(res.values[v][0] + c, abs=1e-12)
        assert rc.values[v][0] == pytest.approx(res.values[v][0] * s, abs=1e-12)


# ---------------------------------------------------------------------------
# fast paths against the slow ones they replace
# ---------------------------------------------------------------------------

def _reference_interior_path(g, state):
    """Per-source search: one lexicographic shortest-path search from every
    labeled vertex, heap entries carrying the path itself."""
    labeled = state.labeled
    used = state.used_edges
    best = None
    for a in sorted(labeled):
        heap = [(0.0, (a,))]
        closed = set()
        lengths = {(a,): ()}
        while heap:
            dist, path = heapq.heappop(heap)
            v = path[-1]
            if v in closed:
                lengths.pop(path, None)
                continue
            closed.add(v)
            plens = lengths.pop(path)
            if v != a and v in labeled:
                if v > a:
                    cand = _oriented(path, plens, labeled)
                    if best is None or _rank(cand) < _rank(best):
                        best = cand
                continue
            for w, ln in g.neighbors(v):
                if w in closed or _edge_key(v, w) in used:
                    continue
                if w in labeled and v == a:
                    continue
                heapq.heappush(heap, (dist + ln, path + (w,)))
                lengths[path + (w,)] = plens + (ln,)
    return best


def _reference_path(g, state):
    cands = _single_edge_candidates(g, state, state.labeled)
    interior = _reference_interior_path(g, state)
    if interior is not None:
        cands.append(interior)
    return min(cands, key=_rank) if cands else None


def _fast_path_graphs():
    rng = np.random.default_rng(2718)
    graphs = [random_graph(rng, max_vertices=40) for _ in range(12)]
    # linear data on a lattice: every stage has many equally steep paths
    graphs += [grid_graph(n, boundary_fn=lambda x, y: x) for n in (5, 7)]
    graphs += [grid_graph(6, boundary_fn=lambda x, y: x + 0.5 * y)]
    return graphs


@pytest.mark.parametrize("block", [3, None])
def test_search_matches_per_source_reference(monkeypatch, block):
    if block is not None:  # several Dijkstra calls per stage
        monkeypatch.setattr(scalar, "SOURCE_BLOCK", block)
    for g in _fast_path_graphs():
        state = initial_state(g)
        while True:
            path = find_max_slope_connecting_path(g, state)
            assert path == _reference_path(g, state)
            if path is None:
                break
            if path.vertices[1:-1]:
                state = apply_path(state, path)
            else:
                state.used_edges.update(path.edges)
                state.stage_slopes.append(path.slope)
        res = solve_scalar(g)
        assert res.stage_slopes == state.stage_slopes
        values = finalize_components(g, state)
        assert all(res.values[v][0] == values[v] for v in g.ids)


def _tie_graphs(count):
    """Random graphs with values in {0, 1, 2} and lengths in {1, 2}: many
    pairs tie at the best slope, on both sides of the row bounds."""
    rng = np.random.default_rng(5)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(30, 60))
        ids = [f"v{i:02d}" for i in range(n)]
        order = rng.permutation(n)
        pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(0, k)]))))
                 for k in range(1, n)}
        pairs |= {tuple(sorted(p)) for p in rng.integers(0, n, (n, 2)) if p[0] != p[1]}
        edges = [(ids[a], ids[b], float(rng.integers(1, 3))) for a, b in sorted(pairs)]
        picked = rng.choice(n, int(rng.integers(2, n // 2)), replace=False)
        boundary = {ids[i]: float(rng.integers(0, 3)) for i in picked}
        graphs.append(Graph({v: [float(i)] for i, v in enumerate(ids)}, edges,
                            boundary.keys(), boundary))
    return graphs


@pytest.mark.parametrize("block", [3, None])
@pytest.mark.parametrize("small", [0, None])
def test_solver_search_matches_per_source_reference(monkeypatch, block, small):
    # the bounded search inside solve_scalar, stage by stage; SMALL_SEARCH 0
    # makes every search take the two bounded passes
    if block is not None:
        monkeypatch.setattr(scalar, "SOURCE_BLOCK", block)
    if small is not None:
        monkeypatch.setattr(scalar, "SMALL_SEARCH", small)
    search = scalar._PathSearch.interior_path
    calls = []

    def checked(self, g, state):
        path = search(self, g, state)
        assert path == _reference_interior_path(g, state)
        calls.append(path)
        return path

    monkeypatch.setattr(scalar._PathSearch, "interior_path", checked)
    graphs = (_fast_path_graphs() + _tie_graphs(8)
              + [grid_graph(9, boundary_fn=lambda x, y: x * x - y)])
    for g in graphs:
        solve_scalar(g)
    assert len(calls) > len(graphs)


def _arc_rows(g, state):
    """Sources of one unbounded search: labeled vertices with a free edge
    to an unlabeled neighbour."""
    labeled, used = state.labeled, state.used_edges
    return sum(any(w not in labeled and _edge_key(v, w) not in used for w, _ in g.neighbors(v))
               for v in labeled)


def test_bounds_skip_search_rows(monkeypatch):
    g = grid_graph(16, boundary_fn=lambda x, y: x * x - y)
    n = len(g.ids)
    rows, unbounded = [], []
    real = scalar.dijkstra

    def counting(graph, directed, indices):
        if graph.shape[0] == 2 * n:  # the split graph, not the verifier's
            rows.append(len(indices))
        return real(graph, directed=directed, indices=indices)

    search = scalar._PathSearch.interior_path

    def counted(self, g, state):
        unbounded.append(_arc_rows(g, state))
        return search(self, g, state)

    monkeypatch.setattr(scalar, "dijkstra", counting)
    monkeypatch.setattr(scalar._PathSearch, "interior_path", counted)
    res = solve_scalar(g)
    assert res.report.passed
    # the parent's per-stage search ran every row at every stage
    assert 2 * sum(rows) < sum(unbounded)


def _all_pairs_ratios(g, u, pairs_in=None):
    """Largest |u(x) - u(y)| / d(x, y) over x < y, d read from source x."""
    best = 0.0
    for x in g.ids:
        for y, d in geodesic_distances_from(g, x).items():
            if y > x and (pairs_in is None or (x in pairs_in and y in pairs_in)):
                best = max(best, float(np.linalg.norm(u[x] - u[y])) / d)
    return best


def test_edge_ratios_match_all_pairs():
    rng = np.random.default_rng(1618)
    for k in range(12):
        g = random_graph(rng, max_vertices=30)
        if k % 2:
            u = solve_scalar(g).values
        else:
            u = {v: g.boundary_values.get(v, rng.uniform(0, 1, 1)) for v in g.ids}
        brute = _all_pairs_ratios(g, u)
        rep = verify_extension(g, u)
        assert rep.interior_ratio == pytest.approx(brute, rel=1e-12, abs=0.0)
        assert lipschitz_ratio(g, u) == pytest.approx(brute, rel=1e-12, abs=0.0)
        assert rep.boundary_ratio == _all_pairs_ratios(g, u, pairs_in=g.omega)
        vec = {v: rng.uniform(0, 1, 2) for v in g.ids}
        assert lipschitz_ratio(g, vec) == pytest.approx(_all_pairs_ratios(g, vec),
                                                        rel=1e-12, abs=0.0)


def test_geodesic_witness_is_steepest_edge():
    g = path_graph(values=(0.0, 3.0))
    # two edges tie at ratio 2.5; the first in sorted order is the witness
    u = {"v0": np.array([0.0]), "v1": np.array([2.5]), "v2": np.array([5.0]),
         "v3": np.array([3.0])}
    rep = verify_extension(g, u)
    assert not rep.geodesic_ok
    assert rep.geodesic_witness == ("v0", "v1")
    assert rep.interior_ratio == 2.5


@pytest.mark.parametrize("fb", [0.0, 0.5])
def test_ratios_skip_zero_length_edges(fb):
    # fails validate(): pairs at distance 0 and zero-length edges are
    # skipped instead of turning a maximum into nan or inf (the edge pass
    # then sees only b-c, so it no longer bounds the pair a-c)
    g = Graph({"a": [0.0], "b": [0.0], "c": [1.0]}, [("a", "b", 0.0), ("b", "c", 1.0)],
              ["a", "b", "c"], {"a": 0.0, "b": fb, "c": 1.0})
    u = {v: g.boundary_values[v] for v in g.ids}
    rep = verify_extension(g, u)
    assert rep.boundary_ratio == 1.0
    assert rep.interior_ratio == 1.0 - fb
    assert lipschitz_ratio(g, u) == 1.0 - fb


# ---------------------------------------------------------------------------
# the shared sweep engine against the scalar loop it replaced
# ---------------------------------------------------------------------------

def _reference_gauss_seidel(g, tol):
    """The former scalar sweep loop on plain floats, over the interior in
    (colour class, id) order: returns (values by id, sweeps), the sweep
    count being None when max_iter ran out."""
    ids = g.ids
    index = {v: i for i, v in enumerate(ids)}
    u = [0.0] * len(ids)
    mean = float(np.mean([v[0] for v in g.boundary_values.values()]))
    for v in ids:
        u[index[v]] = float(g.boundary_values[v][0]) if v in g.omega else mean
    interior = colour_order(g)
    nbrs = {
        v: ([index[w] for w, _ in g.neighbors(v)], [ln for _, ln in g.neighbors(v)])
        for v in interior
    }
    for sweep in range(100_000):
        delta = 0.0
        for v in interior:
            idxs, lens = nbrs[v]
            new, _, _ = pairwise_optimum([u[i] for i in idxs], lens)
            delta = max(delta, abs(new - u[index[v]]))
            u[index[v]] = new
        if delta < tol:
            return {v: u[index[v]] for v in ids}, sweep + 1
    return {v: u[index[v]] for v in ids}, None


def _sweep_graphs():
    rng = np.random.default_rng(31415)
    # random_graph lists the boundary in random order, not sorted
    graphs = [random_graph(rng, max_vertices=30) for _ in range(12)]
    graphs += [grid_graph(n, boundary_fn=lambda x, y: x * x - y) for n in (4, 6, 8)]
    graphs += [grid_graph(7, boundary_fn=lambda x, y: np.sin(3.0 * x) + y * y)]
    return graphs


def test_gauss_seidel_matches_reference_loop(monkeypatch):
    # the sweeps alone, with the exact finish switched off
    monkeypatch.setattr(vector, "FINISH_AT", 0.0)
    for g in _sweep_graphs():
        ref, sweeps = _reference_gauss_seidel(g, tol=1e-12)
        assert sweeps is not None
        res = gauss_seidel_scalar(g, tol=1e-12)
        assert all(res.values[v][0] == ref[v] for v in g.ids)
        # the same sweep count: the budget of `sweeps` suffices, one less does not
        gauss_seidel_scalar(g, tol=1e-12, max_iter=sweeps)
        with pytest.raises(NotConverged):
            gauss_seidel_scalar(g, tol=1e-12, max_iter=sweeps - 1)
        values, report = iterate_tight(g, tol=1e-12)
        assert report.sweeps == sweeps
        assert all(values[v][0] == ref[v] for v in g.ids)


@pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
def test_gauss_seidel_is_exact_on_grids(n):
    # the sweeps' exact finish: within 1e-12 of the path solver at the
    # default tolerance
    fns = [lambda x, y: x * x - y, lambda x, y: x, lambda x, y: np.sin(3.0 * x) + y * y]
    for fn in fns[:1] if n == 32 else fns:
        g = grid_graph(n, boundary_fn=fn)
        sweep, exact = gauss_seidel_scalar(g), solve_scalar(g)
        assert all(abs(sweep.values[v][0] - exact.values[v][0]) <= 1e-12 for v in g.ids)


def _kernel_residual(g, u):
    """Residual by the minimax kernel, as for vector data."""
    worst = 0.0
    for x in g.interior():
        nv = np.array([u[w] for w, _ in g.neighbors(x)])
        lens = np.array([ln for _, ln in g.neighbors(x)])
        _, point, _, _, _ = minimax_kernel(nv, lens)
        worst = max(worst, float(np.linalg.norm(u[x] - point)))
    return worst


def test_scalar_residual_matches_kernel_residual():
    rng = np.random.default_rng(2178)
    for k, g in enumerate(_sweep_graphs()):
        if k % 2:
            u = solve_scalar(g).values
        else:
            u = {v: g.boundary_values.get(v, rng.uniform(-1, 2, 1)) for v in g.ids}
        assert abs(residual(g, u) - _kernel_residual(g, u)) <= 1e-12
        assert verify_extension(g, u).residual == residual(g, u)
