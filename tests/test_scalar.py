import heapq
import importlib.util
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_same_report,
    colour_order,
    grid_graph,
    level_graph,
    naive_stage_loop,
    path_graph,
    random_graph,
    reference_verify_extension,
)
from lipext.cli import generate
from lipext.errors import InvalidPath, MethodUnavailable, NotConverged, ValidationError
from lipext.graph import Graph, geodesic_distances_from, lipschitz_ratio
from lipext import scalar, vector
from lipext.kpoint import minimax_kernel, pairwise_optimum
from lipext.scalar import (
    ConnectingPath,
    SubgraphState,
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
    # only the path search and the verifier load scipy.sparse, on first use,
    # and the graph's indexed form is numpy alone; a path solve then loads it
    import lipext

    src = os.path.dirname(os.path.dirname(lipext.__file__))
    code = ("import sys, lipext, lipext.cli; print('scipy.sparse' in sys.modules); "
            "from conftest import path_graph; g = path_graph(); g.indexed; "
            "print('scipy.sparse' in sys.modules); lipext.solve_scalar(g); "
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True"]


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
        naive_values, naive_slopes = naive_stage_loop(g)
        res = solve_scalar(g)
        assert res.stage_slopes == naive_slopes
        for v in g.ids:
            assert res.values[v][0] == naive_values[v]


def test_underflowing_zero_slope_takes_the_stage_loop(monkeypatch):
    # |5e-324 - 0| / 2e10 underflows to slope 0 while a's and b's values
    # differ, so the one-pass finish does not apply; the stage loop goes on
    # with the bounded search and labels x and y with a's +0.0
    g = Graph({v: [float(i)] for i, v in enumerate("abcxy")},
              [("a", "x", 1e10), ("x", "b", 1e10), ("y", "c", 1e10), ("x", "y", 1.0)],
              ["a", "b", "c"], {"a": 0.0, "b": 5e-324, "c": 5e-324})
    finish = scalar._finish_at_zero
    finished = []

    def counted(search, stages):
        zeros = finish(search, stages)
        finished.append(zeros is not None)
        return zeros

    monkeypatch.setattr(scalar, "_finish_at_zero", counted)
    res = solve_scalar(g)
    values, slopes = naive_stage_loop(g)
    assert finished == [False, False]
    assert res.stage_slopes == slopes == [0.0, 0.0]
    assert [res.values[v][0] for v in g.ids] == [values[v] for v in g.ids]
    assert not np.signbit([res.values[v][0] for v in g.ids]).any()
    assert values["x"] == values["y"] == 0.0


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


def _tie_graphs(count, levels=3, seed=5, extra=1.0):
    """Random graphs with values in {0, ..., levels - 1}, lengths in {1, 2}
    and up to extra * |V| edges beside a spanning tree: many pairs tie at
    the best slope, on both sides of the row bounds."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(30, 60))
        ids = [f"v{i:02d}" for i in range(n)]
        order = rng.permutation(n)
        pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(0, k)]))))
                 for k in range(1, n)}
        pairs |= {tuple(sorted(p)) for p in rng.integers(0, n, (int(extra * n), 2))
                  if p[0] != p[1]}
        edges = [(ids[a], ids[b], float(rng.integers(1, 3))) for a, b in sorted(pairs)]
        picked = rng.choice(n, int(rng.integers(2, n // 2)), replace=False)
        boundary = {ids[i]: float(rng.integers(0, levels)) for i in picked}
        graphs.append(Graph({v: [float(i)] for i, v in enumerate(ids)}, edges,
                            boundary.keys(), boundary))
    return graphs


def _state_of(search):
    """The id-keyed state of a solve's search: its labeled values.  Used
    edges join two labeled vertices, which no interior route steps between,
    so the interior search needs none of them."""
    return SubgraphState({search.ids[i]: search.vals[i] for i in np.flatnonzero(search.labeled)})


@pytest.mark.parametrize("block", [3, None])
@pytest.mark.parametrize("kept", [0, None])
def test_solver_search_matches_per_source_reference(monkeypatch, block, kept):
    # the search inside solve_scalar, stage by stage; kept 0 drops every
    # row's answer after each stage, so each search takes its rows from the
    # bounds alone, None keeps the rows whose routes stay intact
    if block is not None:
        monkeypatch.setattr(scalar, "SOURCE_BLOCK", block)
    if kept is not None:
        label = scalar._PathSearch.label

        def forgetting(self, path):
            singles = label(self, path)
            self.exact[:] = False
            return singles

        monkeypatch.setattr(scalar._PathSearch, "label", forgetting)
    interior = scalar._PathSearch.interior
    finish = scalar._finish_at_zero
    calls, finished = [], []

    def checked(self):
        path = interior(self)
        state = _state_of(self)
        want = _reference_interior_path(g, state)
        if path is None:
            assert want is None
        else:
            assert tuple(g.ids[v] for v in path.vertices) == want.vertices
            assert path.lengths == want.lengths and path.slope == want.slope
        calls.append(path)
        return path

    def counted(search, stages):
        zeros = finish(search, stages)
        finished.append(zeros is not None)
        return zeros

    monkeypatch.setattr(scalar._PathSearch, "interior", checked)
    monkeypatch.setattr(scalar, "_finish_at_zero", counted)
    graphs = (_fast_path_graphs() + _tie_graphs(8) + _tie_graphs(6, levels=2, seed=14, extra=0.5)
              + [grid_graph(9, boundary_fn=lambda x, y: x * x - y),
                 generate("grid", 12, None, "corners")])
    for g in graphs:
        solve_scalar(g)
    assert len(calls) > len(graphs)
    # four of the three-level graphs, three of the two-level ones and the
    # 12 x 12 corners grid end in the one-pass finish at slope 0, each at
    # its first zero-slope search
    assert finished == [True] * 8


def _split_rows(real, n, rows, when=lambda: True):
    """A dijkstra wrapper that appends the number of source rows of each
    call on the search's split graph (2n nodes, not the verifier's n)."""

    def counting(graph, **kwargs):
        if graph.shape[0] == 2 * n and when():
            rows.append(len(kwargs["indices"]))
        return real(graph, **kwargs)

    return counting


def test_bounds_skip_search_rows(monkeypatch):
    g = grid_graph(16, boundary_fn=lambda x, y: x * x - y)
    rows, unbounded = [], []
    steepest = scalar._PathSearch.steepest

    def counted(self):
        # sources of one unbounded search: labeled vertices with a free edge
        # to an unlabeled neighbour
        unbounded.append(int(np.count_nonzero(self.live[self.labeled] > 0)))
        return steepest(self)

    monkeypatch.setattr(scalar, "dijkstra", _split_rows(scalar.dijkstra, len(g.ids), rows))
    monkeypatch.setattr(scalar._PathSearch, "steepest", counted)
    res = solve_scalar(g)
    assert res.report.passed
    # a search from every row at every stage runs 1423 rows here; the
    # bounded search that kept no row from one search to the next ran 451,
    # and the kept rows bring it to 349
    assert sum(unbounded) == 1423
    assert 3 * sum(rows) < sum(unbounded)


@pytest.mark.parametrize("size", [12, 24])
def test_zero_slope_searches_run_few_rows(monkeypatch, size):
    # once a search returns slope 0 the solve ends in one pass: no search
    # row runs after it (a search per zero-slope stage took 50 searches at
    # slope 0 at 12 x 12 and 242 at 24 x 24)
    g = generate("grid", size, None, "corners")
    rows, zero = [], []
    steepest = scalar._PathSearch.steepest

    def flagged(self):
        found = steepest(self)
        if found is not None and found[0] == 0.0:
            zero.append(found)
        return found

    monkeypatch.setattr(scalar, "dijkstra",
                        _split_rows(scalar.dijkstra, len(g.ids), rows, lambda: bool(zero)))
    monkeypatch.setattr(scalar._PathSearch, "steepest", flagged)
    res = solve_scalar(g)
    assert res.report.passed
    assert len(zero) == 1
    assert rows == []
    assert res.stage_slopes.count(0.0) > size


def test_zero_slope_finish_logs_one_line(caplog):
    # the one-pass finish logs one line in place of the stage lines it
    # skips: x lies on the path a-x-b, the pendant p is flooded, and the
    # path is the one zero stage
    g = Graph({v: [float(i)] for i, v in enumerate("abpx")},
              [("a", "x", 1.0), ("x", "b", 2.0), ("x", "p", 1.0)],
              ["a", "b"], {"a": 1.0, "b": 1.0})
    with caplog.at_level(logging.DEBUG, logger="lipext.scalar"):
        res = solve_scalar(g)
    assert [r.getMessage() for r in caplog.records] == [
        "slope 0 from stage 1: 1 vertices labeled, 1 flooded, 1 zero stages",
        "1 stages: 1 searches, 2 rows run, 0 rows reused"]
    assert res.stage_slopes == [0.0]
    assert [res.values[v][0] for v in "abpx"] == [1.0] * 4


def test_solve_logs_its_searches_and_rows(monkeypatch, caplog):
    # the solve's closing line counts its searches, the search rows it ran
    # and the rows it kept from earlier searches; one line per interior
    # stage comes before it
    g = _scalar_path_graphs(1)[-1]  # the benchmark's random120-0
    rows, searches = [], []
    steepest = scalar._PathSearch.steepest

    def counted(self):
        searches.append(self)
        return steepest(self)

    monkeypatch.setattr(scalar, "dijkstra", _split_rows(scalar.dijkstra, len(g.ids), rows))
    monkeypatch.setattr(scalar._PathSearch, "steepest", counted)
    with caplog.at_level(logging.DEBUG, logger="lipext.scalar"):
        res = solve_scalar(g)
    lines = [r.getMessage() for r in caplog.records]
    assert (len(res.stage_slopes), len(searches), sum(rows)) == (94, 50, 136)
    assert lines[-1] == "94 stages: 50 searches, 136 rows run, 939 rows reused"
    assert len(lines) == len(searches)  # a stage line per search but the last
    assert all(line.startswith("stage ") for line in lines[:-1])


def test_kept_rows_halve_the_search_rows(monkeypatch):
    # on the benchmark's random120-0 the bounded search without kept rows
    # ran 645 rows of the split graph, and the kept rows bring it to 136
    g = _scalar_path_graphs(1)[-1]
    rows = []
    monkeypatch.setattr(scalar, "dijkstra", _split_rows(scalar.dijkstra, len(g.ids), rows))
    assert solve_scalar(g).report.passed
    assert 2 * sum(rows) < 645


def _solve_stages(g):
    """solve_scalar's stage loop on g: its stages as (slope, path by id, or
    None for a zero stage of the one-pass finish), the values and the
    search."""
    search = scalar._PathSearch(g, initial_state(g))
    stages = [(slope, path and tuple(g.ids[v] for v in path))
              for slope, path in scalar._stages(search)]
    return stages, search.flood(), search


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_stages_match_the_stage_loop(g):
    """The stage loop of solve_scalar against the public operations: values
    bit for bit (the sign of zero included), the slope log and every stage's
    path up to the one-pass finish.  Returns the search."""
    paths = []
    values, slopes = naive_stage_loop(g, paths)
    stages, got, search = _solve_stages(g)
    want = [values[v] for v in g.ids]
    assert _bits(got) == _bits(want)
    assert _bits([slope for slope, _ in stages]) == _bits(slopes)
    walked = [path for _, path in stages if path is not None]
    assert walked == [path.vertices for path in paths[:len(walked)]]
    assert all(path is None for _, path in stages[len(walked):])
    res = solve_scalar(g)
    assert _bits([res.values[v][0] for v in g.ids]) == _bits(want)
    assert res.stage_slopes == slopes
    return search


def test_stages_match_the_stage_loop_on_large_random_graphs():
    # 80-200 vertices: many rows per search, and searches that keep rows
    rng = np.random.default_rng(80)
    graphs = []
    while len(graphs) < 8:
        g = random_graph(rng, max_vertices=200)
        if len(g.ids) >= 80:
            graphs.append(g)
    kept = [_assert_stages_match_the_stage_loop(g).rows_reused for g in graphs]
    assert min(kept) > 0


def _integer_grid(n, seed):
    """An n x n lattice with edge lengths in {1, 2} and perimeter values in
    {0, 1, 2}: equally long routes and equally steep pairs everywhere."""
    rng = np.random.default_rng(seed)
    ids = [[f"g{i:02d}_{j:02d}" for j in range(n)] for i in range(n)]
    edges = [(ids[i][j], ids[i + di][j + dj], float(rng.integers(1, 3)))
             for i in range(n) for j in range(n) for di, dj in ((1, 0), (0, 1))
             if i + di < n and j + dj < n]
    rim = [ids[i][j] for i in range(n) for j in range(n) if i in (0, n - 1) or j in (0, n - 1)]
    return Graph({v: [float(k)] for k, v in enumerate(sum(ids, []))}, edges, rim,
                 {v: float(rng.integers(0, 3)) for v in rim})


@pytest.mark.parametrize("n", [5, 8, 12])
def test_stages_match_the_stage_loop_on_integer_grids(n):
    for seed in range(3):
        _assert_stages_match_the_stage_loop(_integer_grid(n, seed))


def test_interior_routes_tie_on_true_vertex_indices():
    # heap entries that named a labeled vertex b by its sink copy n + b
    # would sort b after every vertex and take another route at a tie;
    # level_graph(171) moves a stage that way
    _assert_stages_match_the_stage_loop(level_graph(171))


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
# the verifier's limited boundary search against the unlimited one
# ---------------------------------------------------------------------------

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _scalar_path_graphs(seed):
    """The scalar-path benchmark's eleven graphs for a run seed."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(inputs)
        rng = np.random.default_rng(seed)
        corpus = np.random.default_rng(inputs.SCALAR_CORPUS_SEED)
        graphs = {n: [inputs.move_values(inputs.random_graph(f"random{n}-{i}", corpus, n), rng)
                      for i in range(count)]
                  for n, count in ((30, 4), (80, 2), (120, 1))}
        specs = ([inputs.grid("grid6", 6, inputs.curved(rng)), inputs.linear_grid("linear8", 8)]
                 + graphs[30] + [inputs.grid("grid10", 10, inputs.curved(rng))] + graphs[80]
                 + [inputs.grid("grid14", 14, inputs.curved(rng))] + graphs[120])
    finally:
        del sys.modules[spec.name]
    return [Graph(s.pos, s.edges, s.boundary.keys(), s.boundary) for s in specs]


def _grid_fixtures():
    return [grid_graph(n, fn) for n in (5, 9, 16)
            for fn in (lambda x, y: x, lambda x, y: x * x - y, lambda x, y: math.sin(3 * x) * y)] + [
        generate("grid", n, None, boundary) for n in (8, 12) for boundary in ("corners", "linear-x")]


def _assert_verifies_as_reference(g, u, tol=1e-9):
    assert_same_report(verify_extension(g, u, tol), reference_verify_extension(g, u, tol))


def _moved(g, values, value):
    """values with the first interior vertex set to value."""
    u = dict(values)
    u[g.interior()[0]] = np.array([value])
    return u


@pytest.mark.parametrize("seed", range(1, 11))
def test_verify_matches_reference_on_scalar_path_graphs(seed):
    for g in _scalar_path_graphs(seed):
        res = solve_scalar(g)
        assert_same_report(res.report, reference_verify_extension(g, res.values))
        assert res.report.passed
        # a candidate that fails the geodesic bound takes the unlimited search
        bad = _moved(g, res.values, 5.0)
        assert not verify_extension(g, bad).geodesic_ok
        _assert_verifies_as_reference(g, bad)


def test_verify_matches_reference_on_grid_fixtures():
    for g in _grid_fixtures():
        for u in (solve_scalar(g).values, gauss_seidel_scalar(g).values):
            _assert_verifies_as_reference(g, u)
            for value in (5.0, -3.0, 0.5):
                _assert_verifies_as_reference(g, _moved(g, u, value))


def test_verify_matches_reference_on_random_candidates():
    # candidates near and far from the extension, at tolerances from tight
    # to loose, on graphs that pass and fail the geodesic bound
    rng = np.random.default_rng(2424)
    verdicts = set()
    for k in range(60):
        g = random_graph(rng, max_vertices=40)
        exact = solve_scalar(g).values
        noise = rng.choice([0.0, 1e-12, 1e-3, 0.3])
        u = {v: exact[v] + (0.0 if v in g.omega else noise * rng.normal()) for v in g.ids}
        tol = float(rng.choice([1e-12, 1e-9, 1e-3, 0.5]))
        _assert_verifies_as_reference(g, u, tol)
        verdicts.add(verify_extension(g, u, tol).geodesic_ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", ["constant", "one-boundary-vertex", "nan-interior",
                                  "nan-boundary", "inf-interior"])
def test_verify_matches_reference_on_edge_cases(case):
    g = grid_graph(6, lambda x, y: x * x - y)
    u = solve_scalar(g).values
    if case == "constant":
        g = grid_graph(6, lambda x, y: 2.5)
        u = {v: np.array([2.5]) for v in g.ids}
        u[g.interior()[0]] = np.array([3.0])
    elif case == "one-boundary-vertex":
        g = Graph(g.positions, list(g.lengths), ["g00_00"], {"g00_00": 1.0})
        u = {v: np.array([1.0 if v == "g00_00" else 0.5]) for v in g.ids}
    elif case == "nan-interior":
        u = _moved(g, u, math.nan)
    elif case == "nan-boundary":  # verify_extension itself does not validate
        b = sorted(g.omega)
        g = Graph(g.positions, list(g.lengths), g.omega,
                  {**g.boundary_values, b[3]: math.nan})
        u = {**u, b[3]: np.array([math.nan])}
    else:
        u = _moved(g, u, math.inf)
    _assert_verifies_as_reference(g, u)


def test_verify_limits_its_boundary_search(monkeypatch):
    # a passing candidate takes one limited pass over the boundary rows but
    # the last; a failing one adds an unlimited pass
    g = _scalar_path_graphs(1)[-1]  # 120 vertices
    omega = len(g.omega)
    limits = []
    real = scalar.dijkstra

    def recording(graph, directed, indices, limit):
        limits.append((len(indices), limit))
        return real(graph, directed=directed, indices=indices, limit=limit)

    res = solve_scalar(g)
    monkeypatch.setattr(scalar, "dijkstra", recording)
    verify_extension(g, res.values)
    assert sum(rows for rows, _ in limits) == omega - 1
    assert all(math.isfinite(limit) for _, limit in limits)
    # every pair at the boundary ratio lies within the limit
    spread = max(f[0] for f in g.boundary_values.values()) - min(
        f[0] for f in g.boundary_values.values())
    assert max(limit for _, limit in limits) <= spread / res.report.boundary_ratio * 1.01
    limits.clear()
    verify_extension(g, _moved(g, res.values, 5.0))
    assert sum(rows for rows, limit in limits if limit == math.inf) == omega - 1


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


def test_gauss_seidel_finishes_the_64_grid_in_few_sweeps(monkeypatch):
    # a refused finish leaves the sweeps at its last checking sweep, so
    # the 64 x 64 grid lands in a few hundred sweeps
    g = grid_graph(64, boundary_fn=lambda x, y: x * x - y)
    histories = []
    sweep = scalar._sweep

    def recording(*args):
        histories.append(sweep(*args))
        return histories[-1]

    monkeypatch.setattr(scalar, "_sweep", recording)
    res, exact = gauss_seidel_scalar(g), solve_scalar(g)
    assert len(histories[0][1]) <= 300
    assert all(abs(res.values[v][0] - exact.values[v][0]) <= 5e-15 for v in g.ids)


def test_scalar_checks_reject_vector_data():
    # the path a - p - b with values (0, 0) and (0, 5): the checks read
    # scalar data only, and would judge the first coordinate alone
    g = Graph({"a": [0.0], "p": [1.0], "b": [2.0]}, [("a", "p"), ("p", "b")], ["a", "b"],
              {"a": [0.0, 0.0], "b": [0.0, 5.0]})
    values, _ = iterate_tight(g)
    with pytest.raises(MethodUnavailable):
        verify_extension(g, values)
    with pytest.raises(MethodUnavailable):
        scalar.maximum_principle(g, values)


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
