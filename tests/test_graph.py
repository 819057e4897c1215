import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import path_graph, random_graph
from lipext.errors import BoundaryMismatch, BoundaryVertex, UnknownVertex
from lipext.graph import (
    Graph,
    geodesic_distance,
    is_tighter,
    lipschitz_ratio,
    local_lipschitz,
    neighborhood,
    validate,
)


def six_vertex_graph():
    """Six vertices, ten edges, v3 adjacent to exactly v1, v2, v4, v5."""
    vertices = {f"v{i}": [float(i), float(i % 2)] for i in range(1, 7)}
    edges = [
        ("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v4"), ("v3", "v5"),
        ("v4", "v5"), ("v4", "v6"), ("v5", "v6"), ("v1", "v5"), ("v2", "v4"),
    ]
    return Graph(vertices, edges, ["v1"], {"v1": 0.0})


# ---------------------------------------------------------------------------
# neighborhood
# ---------------------------------------------------------------------------

def test_neighborhood_example_graph():
    g = six_vertex_graph()
    assert neighborhood(g, "v3") == {"v1", "v2", "v4", "v5"}


def test_neighborhood_path(path4):
    assert neighborhood(path4, "v1") == {"v0", "v2"}


def test_neighborhood_nonempty_on_connected():
    rng = np.random.default_rng(1)
    g = random_graph(rng, max_vertices=20)
    for v in g.ids:
        assert neighborhood(g, v)


def test_neighborhood_unknown_vertex(path4):
    with pytest.raises(UnknownVertex):
        neighborhood(path4, "nope")


# ---------------------------------------------------------------------------
# geodesic_distance
# ---------------------------------------------------------------------------

def test_geodesic_adjacent(path4):
    assert geodesic_distance(path4, "v0", "v1") == pytest.approx(1.0)


def test_geodesic_path_ends(path4):
    assert geodesic_distance(path4, "v0", "v3") == pytest.approx(3.0)


def test_geodesic_shortcut_diagonal():
    # unit square plus an explicit 1.2 diagonal: shorter than going around
    g = Graph(
        {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [1.0, 1.0], "d": [0.0, 1.0]},
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c", 1.2)],
        ["a"], {"a": 0.0},
    )
    assert geodesic_distance(g, "a", "c") == pytest.approx(1.2)


def _exhaustive_min_path(g, x, y):
    best = math.inf if x != y else 0.0
    adj = {v: g.neighbors(v) for v in g.ids}

    def walk(v, seen, acc):
        nonlocal best
        if acc >= best:
            return
        if v == y:
            best = acc
            return
        for w, ln in adj[v]:
            if w not in seen:
                walk(w, seen | {w}, acc + ln)

    walk(x, {x}, 0.0)
    return best


def test_geodesic_metric_properties_medium():
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = random_graph(rng, max_vertices=30)
        ids = g.ids
        picks = rng.choice(len(ids), size=(40, 3))
        for i, j, k in picks:
            x, y, z = ids[int(i)], ids[int(j)], ids[int(k)]
            dxy = geodesic_distance(g, x, y)
            assert dxy >= 0.0
            assert dxy == pytest.approx(geodesic_distance(g, y, x), rel=1e-12)
            if x == y:
                assert dxy == 0.0
            assert geodesic_distance(g, x, z) <= dxy + geodesic_distance(g, y, z) + 1e-12


def test_geodesic_metric_against_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_graph(rng, max_vertices=8)
        ids = g.ids
        for x, y in itertools.combinations(ids, 2):
            d = geodesic_distance(g, x, y)
            assert d == pytest.approx(_exhaustive_min_path(g, x, y), rel=1e-12)
            assert d == pytest.approx(geodesic_distance(g, y, x), rel=1e-12)
        for x in ids:
            assert geodesic_distance(g, x, x) == 0.0
        for x, y, z in itertools.islice(itertools.permutations(ids, 3), 60):
            dxz = geodesic_distance(g, x, z)
            assert dxz <= geodesic_distance(g, x, y) + geodesic_distance(g, y, z) + 1e-12


# ---------------------------------------------------------------------------
# local_lipschitz
# ---------------------------------------------------------------------------

def test_local_lipschitz_constant(path4):
    u = {v: 5.0 for v in path4.ids}
    assert local_lipschitz(path4, u, "v1") == 0.0


def test_local_lipschitz_path():
    g = path_graph(n=3)
    u = {"v0": 0.0, "v1": 1.0, "v2": 3.0}
    assert local_lipschitz(g, u, "v1") == pytest.approx(2.0)


def test_local_lipschitz_star(star3):
    u = {"c": 5.0, "l0": 0.0, "l1": 4.0, "l2": 10.0}
    assert local_lipschitz(star3, u, "c") == pytest.approx(5.0)


def test_local_lipschitz_boundary_vertex(star3):
    u = {v: 0.0 for v in star3.ids}
    with pytest.raises(BoundaryVertex):
        local_lipschitz(star3, u, "l0")


def test_local_lipschitz_below_global():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng, max_vertices=15)
        u = {v: rng.uniform(0, 1, size=1) for v in g.ids}
        glob = max(
            (np.linalg.norm(u[a] - u[b]) / ln for (a, b), ln in g.lengths.items()),
            default=0.0,
        )
        for x in g.interior():
            assert local_lipschitz(g, u, x) <= glob + 1e-12


# ---------------------------------------------------------------------------
# is_tighter
# ---------------------------------------------------------------------------

def _middle_vertex_instance(center_u, center_v):
    g = path_graph(values=(0.0, 2.0), n=3)
    u = {"v0": 0.0, "v1": center_u, "v2": 2.0}
    v = {"v0": 0.0, "v1": center_v, "v2": 2.0}
    return g, u, v


def test_tighter_reflexive_false(path4):
    u = {v: float(i) for i, v in enumerate(path4.ids)}
    assert not is_tighter(path4, u, u)


def test_tighter_improvement():
    g, u, v = _middle_vertex_instance(9.0, 1.0)
    assert is_tighter(g, v, u)
    assert not is_tighter(g, u, v)


def test_tighter_boundary_mismatch(path4):
    u = {v: 0.0 for v in path4.ids}
    v = dict(u, v0=1.0)
    with pytest.raises(BoundaryMismatch):
        is_tighter(path4, v, u)


def test_tighter_asymmetric_on_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = random_graph(rng, max_vertices=12)
        u = {x: g.boundary_values.get(x, rng.uniform(0, 1, 1)) for x in g.ids}
        v = {x: g.boundary_values.get(x, rng.uniform(0, 1, 1)) for x in g.ids}
        assert not (is_tighter(g, u, v) and is_tighter(g, v, u))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_clean(path4):
    assert validate(path4) == []


def test_validate_disconnected():
    g = Graph(
        {"a": [0.0], "b": [1.0], "c": [5.0], "d": [6.0]},
        [("a", "b"), ("c", "d")],
        ["a"], {"a": 0.0},
    )
    assert any(v.code == "Disconnected" for v in validate(g))


def test_validate_empty_boundary():
    g = Graph({"a": [0.0], "b": [1.0]}, [("a", "b")], [], {})
    assert any(v.code == "EmptyBoundary" for v in validate(g))


def test_validate_zero_length_edge():
    g = Graph({"a": [0.0], "b": [0.0]}, [("a", "b")], ["a"], {"a": 1.0})
    assert any(v.code == "ZeroLengthEdge" for v in validate(g))
    ok = Graph({"a": [0.0], "b": [0.0]}, [("a", "b", 2.0)], ["a"], {"a": 1.0})
    assert validate(ok) == []


def test_validate_non_finite():
    nan, inf = float("nan"), float("inf")
    cases = [
        Graph({"a": [nan], "b": [1.0]}, [("a", "b", 1.0)], ["a"], {"a": 1.0}),
        Graph({"a": [0.0], "b": [1.0]}, [("a", "b")], ["a"], {"a": -inf}),
        Graph({"a": [0.0], "b": [1.0]}, [("a", "b", inf)], ["a"], {"a": 1.0}),
        Graph({"a": [0.0], "b": [1.0]}, [("a", "b", nan)], ["a"], {"a": 1.0}),
    ]
    for g in cases:
        assert [v.code for v in validate(g)] == ["NonFinite"]


def test_validate_rejects_edge_lengths_that_sum_past_the_largest_float():
    # each length is finite, but the path a - b - c is not: the path solver
    # would find no connecting path and the sweep would put b at 0
    g = Graph({"a": [0.0], "b": [1.0], "c": [2.0]}, [("a", "b", 1e308), ("b", "c", 1e308)],
              ["a", "c"], {"a": 0.0, "c": 1e-10})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [v.code for v in validate(g)] == ["ValueOverflow"]
    ok = Graph({"a": [0.0], "b": [1.0], "c": [2.0]}, [("a", "b", 8e307), ("b", "c", 8e307)],
               ["a", "c"], {"a": 0.0, "c": 1e-10})
    assert validate(ok) == []


def test_validate_lists_every_violation_in_order():
    # the finiteness checks run as one array pass; the messages that follow
    # a failure keep their kinds and order
    nan, inf = float("nan"), float("inf")
    g = Graph({"a": [0.0, nan], "b": [1.0, 0.0], "c": [2.0, 0.0], "d": [5.0, 5.0]},
              [("a", "b", inf), ("b", "c", 0.0), ("a", "c", -1.0)],
              ["a", "b", "x"], {"a": [inf], "b": [1.0, 2.0], "z": [1.0]})
    assert [(v.code, v.message) for v in validate(g)] == [
        ("UnknownVertex", "boundary vertex 'x' not in graph"),
        ("MissingBoundaryValue", "no value for ['x']"),
        ("ExtraBoundaryValue", "values outside boundary: ['z']"),
        ("DimensionMismatch", "boundary value dimensions [1, 2]"),
        ("NonFinite", "vertex 'a' has position [0.0, nan]"),
        ("NonFinite", "boundary vertex 'a' has value [inf]"),
        ("NonFinite", "edge (a, b) has length inf"),
        ("ZeroLengthEdge", "edge (a, c) has length -1.0"),
        ("ZeroLengthEdge", "edge (b, c) has length 0.0"),
        ("Disconnected", "1 vertices unreachable"),
    ]


def test_vector_ratio_at_extreme_scale():
    # squared differences near 1e400 overflow; the norms are scaled by a
    # power of two instead, and only then
    g = Graph({"a": [0.0], "m": [1.0], "b": [2.0]}, [("a", "m"), ("m", "b")], ["a", "b"],
              {"a": [1e200, 0.0], "b": [-1e200, 0.0]})
    u = {"a": [1e200, 0.0], "m": [0.0, 0.0], "b": [-1e200, 0.0]}
    assert lipschitz_ratio(g, u) == 1e200
    assert lipschitz_ratio(g, {"a": [3.0, 4.0], "m": [0.0, 0.0], "b": [0.0, 1.0]}) == 5.0


def test_constructor_rejects_bad_edges():
    with pytest.raises(UnknownVertex):
        Graph({"a": [0.0]}, [("a", "zzz")], ["a"], {"a": 0.0})
    with pytest.raises(ValueError):
        Graph({"a": [0.0], "b": [1.0]}, [("a", "a")], ["a"], {"a": 0.0})
