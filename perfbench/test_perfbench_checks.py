"""The benchmark's output checks accept correct answers and reject perturbed ones.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
Each test takes a correct answer (computed by lipext, or known in closed
form), shows that the check passes it, then perturbs the answer and shows
that the same check raises CheckFailed.
"""

import json

import numpy as np
import pytest

import checks
import inputs
from checks import CheckFailed
from lipext import cli, kpoint, scalar, vector
from lipext.graph import Graph


def to_graph(spec):
    return Graph(spec.pos, spec.edges, spec.boundary.keys(), spec.boundary)


def moved(u, vertex, delta):
    out = {v: np.array(val, dtype=float) for v, val in u.items()}
    out[vertex] = out[vertex] + delta
    return out


def interior(spec):
    return [v for v in spec.ids if v not in spec.boundary]


@pytest.fixture(scope="module")
def curved():
    spec = inputs.grid("grid5", 5, inputs.curved(np.random.default_rng(3)))
    res = scalar.solve_scalar(to_graph(spec))
    return spec, res.values, res.stage_slopes


@pytest.fixture(scope="module")
def linear():
    spec = inputs.linear_grid("linear5", 5)
    return spec, scalar.solve_scalar(to_graph(spec)).values


@pytest.fixture(scope="module")
def two_sided():
    spec = inputs.two_sided("sides4", 4, np.random.default_rng(5))
    values, _ = vector.iterate_tight(to_graph(spec))
    return spec, values


def test_scalar_checks_accept_the_solution(curved, linear):
    spec, u, slopes = curved
    checks.scalar_extension(spec, u, slopes)
    checks.scalar_extension(linear[0], linear[1], None)


def test_boundary_agreement_rejects_moved_boundary(curved):
    spec, u, _ = curved
    with pytest.raises(CheckFailed):
        checks.boundary_agreement(spec, moved(u, sorted(spec.boundary)[0], 1e-9))


def test_defining_equation_rejects_moved_interior(curved):
    spec, u, _ = curved
    with pytest.raises(CheckFailed):
        checks.defining_equation(spec, moved(u, interior(spec)[0], 1e-6))


def test_maximum_principle_rejects_overshoot(curved):
    spec, u, _ = curved
    hi = max(val[0] for val in spec.boundary.values())
    x = interior(spec)[0]
    with pytest.raises(CheckFailed):
        checks.maximum_principle(spec, moved(u, x, hi + 1e-6 - u[x][0]))


def test_slopes_check_rejects_a_rising_stage(curved):
    _, _, slopes = curved
    bad = list(slopes)
    bad[len(bad) // 2] = bad[0] * 1.001
    with pytest.raises(CheckFailed):
        checks.slopes_nonincreasing("grid5", bad)


def test_geodesic_bound_rejects_a_steep_edge():
    # unit path 0 - 1 - 2 - 3 with f = 0, 3 at the ends: the extension is u = i
    spec = inputs.Spec("path4", ["a", "b", "c", "d"],
                       {"a": [0.0], "b": [1.0], "c": [2.0], "d": [3.0]},
                       [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
                       {"a": [0.0], "d": [3.0]})
    u = {v: np.array([float(i)]) for i, v in enumerate(spec.ids)}
    checks.geodesic_bound(spec, u)
    with pytest.raises(CheckFailed):
        checks.geodesic_bound(spec, moved(u, "b", 1e-6))


def test_linear_reproduction_rejects_a_small_error(linear):
    spec, u = linear
    checks.linear_reproduction(spec, u)
    with pytest.raises(CheckFailed):
        checks.linear_reproduction(spec, moved(u, interior(spec)[0], 1e-8))


def test_sweep_checks_accept_the_solution(two_sided):
    checks.sweep_solution(*two_sided)


def test_local_optimality_rejects_moved_interior(two_sided):
    spec, u = two_sided
    with pytest.raises(CheckFailed):
        checks.local_optimality(spec, moved(u, interior(spec)[0], np.array([1e-5, -1e-5])))


def test_boundary_hull_rejects_a_value_outside():
    # boundary values at the corners of a triangle; the interior vertex sits
    # just beyond the edge between two of them
    f = {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0]}
    spec = inputs.Spec("tri", ["a", "b", "c", "x"], {v: [0.0, 0.0] for v in "abcx"},
                       [("a", "x", 1.0), ("b", "x", 1.0), ("c", "x", 1.0)], f)
    inside = {**{v: np.array(val) for v, val in f.items()}, "x": np.array([0.5, 0.5])}
    checks.boundary_hull(spec, inside)
    with pytest.raises(CheckFailed):
        checks.boundary_hull(spec, moved(inside, "x", np.array([1e-6, 1e-6])))


@pytest.fixture(scope="module")
def query():
    q = next(q for q in inputs.kpoint_corpus(7) if q.m == 2 and len(q.points) >= 4)
    s = kpoint.LabeledPointSet(q.points, q.values)
    return q, kpoint.kpoint_vector(s, q.x), kpoint.kpoint_oracle(s, q.x)


def test_kpoint_checks_accept_the_answer(query):
    q, r, o = query
    checks.kpoint_answer(q, r.lam, r.point, o.lam, o.point)


def test_agreement_rejects_a_distant_oracle(query):
    q, r, o = query
    with pytest.raises(CheckFailed):
        checks.kernel_oracle_agreement(q, r.lam, r.point, o.lam + 1e-5, o.point)
    with pytest.raises(CheckFailed):
        checks.kernel_oracle_agreement(q, r.lam, r.point, o.lam, o.point + 1e-4)


def test_lip_constant_rejects_a_large_lam(query):
    q, r, _ = query
    diffs = [np.linalg.norm(q.values[i] - q.values[j]) / np.linalg.norm(q.points[i] - q.points[j])
             for i in range(len(q.points)) for j in range(i + 1, len(q.points))]
    with pytest.raises(CheckFailed):
        checks.below_lip_constant(q, max(diffs) + 1e-6)


def test_domination_rejects_a_small_lam(query):
    q, r, _ = query
    with pytest.raises(CheckFailed):
        checks.domination(q, r.lam * (1.0 - 1e-6), r.point)


def test_query_optimality_rejects_a_moved_point(query):
    q, r, _ = query
    with pytest.raises(CheckFailed):
        checks.query_optimality(q, r.point + np.array([1e-5, 2e-5]))


def test_cli_exit_code_check():
    checks.exit_code(["solve"], 0)
    with pytest.raises(CheckFailed):
        checks.exit_code(["solve"], 3, "error: verification failed")


def test_cli_verify_check_rejects_a_perturbed_result(tmp_path, linear):
    spec, u = linear
    graph_file, result_file, report_file = (tmp_path / n for n in ("g.json", "r.json", "v.json"))
    graph_file.write_text(json.dumps({
        "vertices": [{"id": v, "pos": spec.pos[v]} for v in spec.ids],
        "edges": [list(e) for e in spec.edges],
        "boundary": spec.boundary,
    }))

    def verify(values):
        result_file.write_text(json.dumps({"values": {v: list(val) for v, val in values.items()}}))
        cli.main(["verify", str(graph_file), str(result_file), "--output", str(report_file)])
        return json.loads(report_file.read_text())

    checks.verify_passed("linear5", verify(u))
    with pytest.raises(CheckFailed):
        checks.verify_passed("linear5", verify(moved(u, interior(spec)[0], 1e-3)))


def test_cli_identical_check_rejects_one_changed_byte():
    checks.identical("r", b'{"values": 1}\n', b'{"values": 1}\n')
    with pytest.raises(CheckFailed):
        checks.identical("r", b'{"values": 1}\n', b'{"values": 2}\n')
