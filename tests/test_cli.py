import json
import re
from pathlib import Path

import numpy as np
import pytest

from lipext.cli import _fmt, load_graph_file, main
from lipext.graph import lipschitz_ratio


def run(*argv):
    return main([str(a) for a in argv])


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def path_graph_file(tmp_path):
    out = tmp_path / "path.json"
    assert run("gen", "path", "--size", 4, "--output", out) == 0
    return str(out)


@pytest.fixture
def vector_graph_file(tmp_path):
    doc = {
        "vertices": [
            {"id": "a", "pos": [0.0]},
            {"id": "m", "pos": [1.0]},
            {"id": "b", "pos": [2.0]},
        ],
        "edges": [["a", "m"], ["m", "b"]],
        "boundary": {"a": [0.0, 0.0], "b": [1.0, 1.0]},
    }
    return write_json(tmp_path / "vec.json", doc)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_grid_counts(tmp_path):
    out = tmp_path / "grid.json"
    assert run("gen", "grid", "--size", 3, "--output", out) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 9
    assert len(doc["edges"]) == 12
    assert len(doc["boundary"]) == 8


def test_gen_path_is_standard_fixture(path_graph_file):
    doc = json.loads(open(path_graph_file).read())
    assert [v["id"] for v in doc["vertices"]] == ["v0", "v1", "v2", "v3"]
    assert doc["boundary"] == {"v0": [0.0], "v3": [3.0]}


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "random", "--size", 12, "--seed", 7, "--output", a) == 0
    assert run("gen", "random", "--size", 12, "--seed", 7, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_seed_for_random(tmp_path, capsys):
    assert run("gen", "random", "--size", 5) == 1
    assert "seed" in capsys.readouterr().err


def test_gen_rejects_bad_size(capsys):
    assert run("gen", "path", "--size", 1) == 1
    assert "BadParams" in capsys.readouterr().err


def test_gen_rejects_a_negative_seed(capsys):
    assert run("gen", "random", "--size", 5, "--seed", -1) == 1
    assert "BadParams" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "1e400", "1,-inf"])
def test_gen_rejects_a_non_finite_constant(tmp_path, capsys, value):
    out = tmp_path / "g.json"
    assert run("gen", "grid", "--size", 3, "--boundary", f"constant:{value}", "--output", out) == 1
    assert "BadParams" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_path_method(path_graph_file, tmp_path):
    out = tmp_path / "res.json"
    assert run("solve", "--input", path_graph_file, "--output", out) == 0
    doc = json.loads(out.read_text())
    assert doc["values"]["v1"] == [1.0]
    assert doc["values"]["v2"] == [2.0]
    assert doc["report"]["stage_slopes"] == [1.0]
    assert doc["report"]["converged"] is True
    assert doc["report"]["max_principle"] is True


def test_solve_iterate_agrees(path_graph_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", "--input", path_graph_file, "--method", "path", "--output", a) == 0
    assert run("solve", "--input", path_graph_file, "--method", "iterate",
               "--tol", 1e-12, "--output", b) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    for v in da["values"]:
        assert abs(da["values"][v][0] - db["values"][v][0]) <= 1e-6


def test_solve_path_rejects_vector(vector_graph_file, tmp_path, capsys):
    assert run("solve", "--input", vector_graph_file, "--method", "path",
               "--output", tmp_path / "x.json") == 1
    assert "MethodUnavailable" in capsys.readouterr().err


def test_solve_path_validates_vector_data_first(tmp_path, capsys):
    # an invalid m = 2 graph fails validation before the path method
    # looks at its value dimension
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [1.0]},
                     {"id": "b", "pos": [2.0]}],
        "edges": [["a", "m"], ["m", "b"]],
        "boundary": {"a": [0.0, 0.0], "b": [1.0, float("nan")]},
    }
    f = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--method", "path", "--output", out) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err and "NonFinite" in err and "MethodUnavailable" not in err
    assert not out.exists()


def test_solve_vector_iterate(vector_graph_file, tmp_path):
    out = tmp_path / "res.json"
    assert run("solve", "--input", vector_graph_file, "--method", "iterate",
               "--output", out) == 0
    doc = json.loads(out.read_text())
    assert doc["values"]["m"] == pytest.approx([0.5, 0.5], abs=1e-8)
    assert doc["report"]["max_principle"] is None
    assert doc["report"]["residual"] <= 1e-9


def test_solve_exit_2_on_budget(tmp_path, path_graph_file):
    out = tmp_path / "res.json"
    assert run("solve", "--input", path_graph_file, "--method", "iterate",
               "--tol", 1e-14, "--max-iter", 1, "--output", out) == 2
    doc = json.loads(out.read_text())
    assert doc["report"]["converged"] is False


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"),
                                         ("--tol", "inf"), ("--max-iter", "0"), ("--max-iter", "-5")])
def test_solve_rejects_a_bad_budget(tmp_path, capsys, path_graph_file, flag, value):
    # a bad argument (exit 1) found before any sweep runs, not a run of every
    # sweep that ends as not converged (exit 2)
    out = tmp_path / "res.json"
    assert run("solve", "--input", path_graph_file, "--method", "iterate", flag, value,
               "--output", out) == 1
    assert f"ParseError: {flag} must be" in capsys.readouterr().err
    assert not out.exists()


def test_readme_file_format_examples(tmp_path):
    # the README's graph file solves, and gives its result file example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### File formats"):]
    graph_doc, result_doc = re.findall(r"```json\n(.*?)```", section, re.S)[:2]
    graph_file = tmp_path / "readme.json"
    graph_file.write_text(graph_doc)
    out = tmp_path / "res.json"
    assert run("solve", "--input", graph_file, "--output", out) == 0
    assert json.loads(out.read_text()) == json.loads(result_doc)


def test_solve_invalid_graph(tmp_path, capsys):
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "b", "pos": [9.0]}],
        "edges": [],
        "boundary": {"a": [0.0]},
    }
    f = write_json(tmp_path / "bad.json", doc)
    assert run("solve", "--input", f, "--output", tmp_path / "x.json") == 1
    assert "Disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [["a"], [], ["a", "m", 1.0, 2.0], "am", {"a": "m"}, 5])
def test_solve_rejects_a_malformed_edge(tmp_path, capsys, edge):
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [1.0]}],
        "edges": [edge],
        "boundary": {"a": [0.0]},
    }
    f = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--output", out) == 1
    assert "error: ParseError" in capsys.readouterr().err
    assert not out.exists()


def _bad_graph(change):
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [1.0]}, {"id": "b", "pos": [2.0]}],
        "edges": [["a", "m", 1.0], ["m", "b", 1.0]],
        "boundary": {"a": [0.0], "b": [1.0]},
    }
    change(doc)
    return doc


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def change(doc):
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return change


def _delete(*keys):
    *keys, last = keys

    def change(doc):
        for k in keys:
            doc = doc[k]
        del doc[last]
    return change


# (command, the file it reads wrongly, the field named in the error)
BAD_FIELDS = {
    "boundary-true-list": ("solve", _bad_graph(_set("boundary", "b", [True])),
                           "the boundary value of vertex 'b' must be a number or a list of numbers, "
                           "not true"),
    "boundary-true": ("solve", _bad_graph(_set("boundary", "b", True)),
                      "the boundary value of vertex 'b' must be"),
    "boundary-string": ("solve", _bad_graph(_set("boundary", "b", ["1"])),
                        "the boundary value of vertex 'b' must be"),
    "length-true": ("solve", _bad_graph(_set("edges", 1, 2, True)),
                    "the length of edge 'm'-'b' must be a number or null, not true"),
    "length-list": ("solve", _bad_graph(_set("edges", 1, 2, [1.0])),
                    "the length of edge 'm'-'b' must be a number or null"),
    "pos-true": ("solve", _bad_graph(_set("vertices", 1, "pos", [True])),
                 "the position of vertex 'm' must be a number or a list of numbers, not true"),
    "pos-missing": ("solve", _bad_graph(_delete("vertices", 1, "pos")),
                    "vertex 'm' has no 'pos'"),
    "id-missing": ("solve", _bad_graph(_delete("vertices", 1, "id")), "vertex 1 has no 'id'"),
    "vertex-string": ("solve", _bad_graph(_set("vertices", 1, "m")),
                      "vertex 1 is not an object: it must be an object with 'id' and 'pos'"),
    "vertices-object": ("solve", _bad_graph(_set("vertices", {"a": [0.0]})),
                        "'vertices' and 'edges' must be lists and 'boundary' an object"),
    "edges-missing": ("solve", _bad_graph(_delete("edges")), "the file has no 'edges'"),
    "not-an-object": ("solve", [1, 2], "the file is not an object: it must be an object with 'vertices', 'edges'"),
    "verify-true": ("verify", {"values": {"a": [0.0], "m": [True], "b": [1.0]}},
                    "the value of vertex 'm' must be a number or a list of numbers, not true"),
    "verify-missing": ("verify", {"value": {}}, "the file has no 'values'"),
    "verify-list": ("verify", [{"a": [0.0]}], "the file is not an object: it must be an object with 'values'"),
    "points-true": ("kpoint", {"points": [[0.0], [True]], "values": [[0.0], [1.0]]},
                    "'points' must be a list of positions, each a list of numbers, not true"),
    "values-true": ("kpoint", {"points": [[0.0], [2.0]], "values": [[0.0], True]},
                    "'values' must be a list of values"),
    "points-missing": ("kpoint", {"values": [[0.0], [1.0]]}, "the file has no 'points'"),
    # JSON integers of 400 digits, beyond the float range
    "length-huge": ("solve", _bad_graph(_set("edges", 1, 2, 10**400)),
                    "the length of edge 'm'-'b' holds an integer too large for a float"),
    "pos-huge": ("solve", _bad_graph(_set("vertices", 1, "pos", [10**400])),
                 "the position of vertex 'm' holds an integer too large for a float"),
    "boundary-huge": ("solve", _bad_graph(_set("boundary", "b", [10**400])),
                      "the boundary value of vertex 'b' holds an integer too large for a float"),
    "verify-huge": ("verify", {"values": {"a": [0.0], "m": [10**400], "b": [1.0]}},
                    "the value of vertex 'm' holds an integer too large for a float"),
    "verify-huge-bare": ("verify", {"values": {"a": [0.0], "m": 10**400, "b": [1.0]}},
                         "the value of vertex 'm' holds an integer too large for a float"),
    "points-huge": ("kpoint", {"points": [[0.0], [10**400]], "values": [[0.0], [1.0]]},
                    "'points' holds an integer too large for a float"),
    "values-huge": ("kpoint", {"points": [[0.0], [2.0]], "values": [[0.0], [10**400]]},
                    "'values' holds an integer too large for a float"),
    # finite result values whose differences overflow: the bound that
    # validate puts on boundary data, 2 max|u| over the shortest edge
    "verify-overflow": ("verify", {"values": {"a": [0.0], "m": [1e308], "b": [1.0]}},
                        "ValueOverflow: result values up to 1e+308 in size overflow against "
                        "edge lengths in [1, 1]"),
    "verify-overflow-bare": ("verify", {"values": {"a": [0.0], "m": -1e308, "b": [1.0]}},
                             "ValueOverflow: result values up to 1e+308 in size"),
}


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_loaders_name_a_field_that_is_not_a_number(tmp_path, capsys, case):
    # JSON booleans are not read as 1.0, and a missing key or a wrong
    # container is named, with the shape expected there
    command, doc, message = BAD_FIELDS[case]
    f = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "out.json"
    graph = write_json(tmp_path / "g.json", _bad_graph(lambda doc: None))
    argv = {"solve": ("solve", "--input", f, "--method", "iterate", "--output", out),
            "verify": ("verify", graph, f, "--output", out),
            "kpoint": ("kpoint", "1", "--input", f, "--output", out)}[command]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {f}: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()


def test_solve_rejects_vertex_ids_equal_as_strings(tmp_path, capsys):
    # the graph keys vertices by str(id): 1 and "1" are one vertex
    doc = {
        "vertices": [{"id": 1, "pos": [0]}, {"id": "1", "pos": [5]}, {"id": "a", "pos": [1]},
                     {"id": "b", "pos": [2]}],
        "edges": [["1", "a"], ["a", "b"]],
        "boundary": {"1": [0], "b": [1]},
    }
    f = write_json(tmp_path / "dup.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--output", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: ParseError: {f}: vertex id '1' equals an earlier one as a string\n"
    assert not out.exists()


@pytest.mark.parametrize("boundary", [[], [["a", [0.0]]], "a", None])
def test_solve_rejects_a_boundary_that_is_not_an_object(tmp_path, capsys, boundary):
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [1.0]}],
        "edges": [["a", "m"]],
        "boundary": boundary,
    }
    f = write_json(tmp_path / "bad.json", doc)
    assert run("solve", "--input", f, "--output", tmp_path / "x.json") == 1
    assert "error: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["pos", "value", "length"])
def test_solve_rejects_non_finite(tmp_path, capsys, field):
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [1.0]},
                     {"id": "b", "pos": [2.0]}],
        "edges": [["a", "m", 1.0], ["m", "b", 1.0]],
        "boundary": {"a": [0.0], "b": [1.0]},
    }
    if field == "pos":
        doc["vertices"][1]["pos"] = [float("nan")]
    elif field == "value":
        doc["boundary"]["b"] = [float("nan")]
    else:
        doc["edges"][1][2] = float("inf")
    f = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--output", out) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err and "NonFinite" in err
    assert not out.exists()


def test_solve_rejects_overflowing_values(tmp_path, capsys):
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [1.0]},
                     {"id": "b", "pos": [2.0]}],
        "edges": [["a", "m"], ["m", "b"]],
        "boundary": {"a": [-1e308], "b": [1e308]},
    }
    f = write_json(tmp_path / "big.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--output", out) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err and "ValueOverflow" in err
    assert not out.exists()


def test_solve_rejects_overflowing_slopes(tmp_path, capsys):
    # f(b) - f(a) = 1.6e308 is finite, the slope 1.6e308 / 0.2 is not
    doc = {
        "vertices": [{"id": "a", "pos": [0.0]}, {"id": "m", "pos": [0.1]},
                     {"id": "b", "pos": [0.2]}],
        "edges": [["a", "m", 0.1], ["m", "b", 0.1]],
        "boundary": {"a": [-8e307], "b": [8e307]},
    }
    f = write_json(tmp_path / "steep.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--output", out) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err and "ValueOverflow" in err
    assert not out.exists()


def test_solve_rejects_nested_positions(tmp_path, capsys):
    # a position is a vector, as a boundary value is: [[x]] and [[x, y]] are
    # rejected
    for pos in ([[1.0]], [[1.0, 0.0]]):
        doc = {
            "vertices": [{"id": f"v{i}", "pos": [float(i), 0.0][:len(pos[0])]} for i in range(4)],
            "edges": [[f"v{i}", f"v{i + 1}"] for i in range(3)],
            "boundary": {"v0": [0.0], "v3": [3.0]},
        }
        doc["vertices"][1]["pos"] = pos
        f = write_json(tmp_path / "nested.json", doc)
        for method in ("path", "iterate"):
            out = tmp_path / f"x-{method}.json"
            assert run("solve", "--input", f, "--method", method, "--output", out) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ParseError") and "'v1' is not a vector" in err
            assert "Traceback" not in err and not out.exists()


def test_solve_and_verify_reject_empty_boundary_values(tmp_path, capsys):
    doc = {
        "vertices": [{"id": v, "pos": [float(i)]} for i, v in enumerate("abc")],
        "edges": [["a", "b"], ["b", "c"]],
        "boundary": {"a": [], "c": []},
    }
    f = write_json(tmp_path / "empty.json", doc)
    result = write_json(tmp_path / "r.json", {"values": {"a": [], "b": [], "c": []}})
    out = tmp_path / "x.json"
    for argv in (("solve", "--input", f, "--output", out),
                 ("solve", "--input", f, "--method", "iterate", "--output", out),
                 ("verify", f, result, "--output", out)):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError") and "EmptyValue" in err
        assert "Traceback" not in err and not out.exists()


def test_solve_rejects_nested_values(tmp_path, capsys):
    doc = {
        "vertices": [{"id": f"v{i}", "pos": [float(i)]} for i in range(4)],
        "edges": [[f"v{i}", f"v{i + 1}"] for i in range(3)],
        "boundary": {"v0": [[0.0]], "v3": [[3.0]]},
    }
    f = write_json(tmp_path / "nested.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--output", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("boundary", [
    # values that sum past the largest float: the sweep's starting centroid
    {"v0": [8e307], "v2": [8.5e307], "v5": [8.9e307]},
    # vector values whose squared differences overflow: the edge ratio
    {"v0": [1e200, 0.0], "v5": [-1e200, 0.0]},
])
def test_iterate_at_extreme_scale(tmp_path, capsys, boundary):
    doc = {
        "vertices": [{"id": f"v{i}", "pos": [float(i)]} for i in range(6)],
        "edges": [[f"v{i}", f"v{i + 1}"] for i in range(5)],
        "boundary": boundary,
    }
    f = write_json(tmp_path / "big.json", doc)
    out = tmp_path / "x.json"
    assert run("solve", "--input", f, "--method", "iterate", "--output", out) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())["report"]
    assert report["converged"] and 0.0 < report["geodesic_lip_ratio"] < float("inf")


@pytest.mark.parametrize("kind,size", [("grid", 8), ("grid", 12), ("path", 6), ("star", 5),
                                       ("random", 30)])
@pytest.mark.parametrize("boundary", ["linear-x", "linear-y", "corners"])
def test_path_ratio_is_lipschitz_ratio(tmp_path, kind, size, boundary):
    # the path method takes the verifier's edge ratio; its text must be what
    # lipschitz_ratio gives on the written values
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    argv = ["gen", kind, "--size", size, "--boundary", boundary, "--output", g]
    if kind == "random":
        argv += ["--seed", 11]
    assert run(*argv) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    text = r.read_text()
    values = json.loads(text)["values"]
    expected = _fmt(lipschitz_ratio(load_graph_file(str(g)), values))
    assert re.search(r'"geodesic_lip_ratio": ([^,}]+)', text).group(1) == expected


# ---------------------------------------------------------------------------
# kpoint
# ---------------------------------------------------------------------------

def test_kpoint_scalar_pair(tmp_path, capsys):
    f = write_json(tmp_path / "pts.json", {"points": [[0.0], [2.0]], "values": [[0.0], [4.0]]})
    assert run("kpoint", "1", "--input", f) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 2.0
    assert doc["point"] == [2.0]
    assert doc["active"] == [0, 1]


def test_kpoint_equilateral(tmp_path, capsys):
    r3 = np.sqrt(3) / 2
    pts = [[1.0, 0.0], [-0.5, r3], [-0.5, -r3]]
    f = write_json(tmp_path / "pts.json", {"points": pts, "values": pts})
    assert run("kpoint", "0,0", "--input", f) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == pytest.approx(1.0, abs=1e-9)
    assert doc["point"] == pytest.approx([0.0, 0.0], abs=1e-9)


@pytest.mark.parametrize("query", ["-0.5,0.3", "-.5,0.3"])
def test_kpoint_query_with_a_negative_first_coordinate(tmp_path, capsys, query):
    # the query is read as the argument, not as an unknown option, also
    # before --input; "--" is no longer needed
    f = write_json(tmp_path / "pts.json", {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                           "values": [[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]]})
    assert run("kpoint", query, "--input", f) == 0
    plain = capsys.readouterr().out
    assert run("kpoint", "--input", f, "--", "-0.5,0.3") == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["active"] == [0, 2]


def test_kpoint_check_flag(tmp_path, capsys):
    rng = np.random.default_rng(3)
    f = write_json(tmp_path / "pts.json", {
        "points": rng.uniform(-1, 1, (6, 2)).tolist(),
        "values": rng.uniform(-1, 1, (6, 2)).tolist(),
    })
    assert run("kpoint", "0.05,-0.02", "--input", f, "--check") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_gap"] <= 1e-6


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_kpoint_and_verify_reject_a_bad_tolerance(tmp_path, capsys, tol):
    f = write_json(tmp_path / "pts.json", {"points": [[0.0], [2.0]], "values": [[0.0], [4.0]]})
    assert run("kpoint", "1", "--input", f, "--tol", tol) == 1
    assert "ParseError: --tol must be" in capsys.readouterr().err
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    assert run("gen", "grid", "--size", 5, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    assert run("verify", g, r, "--tol", tol) == 1
    assert "ParseError: --tol must be" in capsys.readouterr().err


def test_kpoint_query_on_sample(tmp_path, capsys):
    f = write_json(tmp_path / "pts.json", {"points": [[0.0], [2.0]], "values": [[0.0], [4.0]]})
    assert run("kpoint", "2", "--input", f) == 1
    assert "QueryCoincidesWithSample" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["points", "values", "query"])
def test_kpoint_rejects_non_finite(tmp_path, capsys, field, bad):
    doc = {"points": [[0.0], [2.0]], "values": [[0.0, 1.0], [4.0, -1.0]]}
    query = "1"
    if field == "query":
        query = str(bad)
    else:
        doc[field][1][0] = bad
    f = write_json(tmp_path / "pts.json", doc)
    assert run("kpoint", query, "--input", f, "--check") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError") and "Traceback" not in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc,query", [
    # the query's offsets from the samples overflow
    ({"points": [[-1e308, 0.0], [1.0, 0.0], [0.0, 1.0]], "values": [[0.0], [1.0], [2.0]]},
     "1.7e308,0"),
    # the answer overflows: lam = 1e10 / 3e-300
    ({"points": [[0.0], [1e-300]], "values": [[0.0], [1e10]]}, "2e-300"),
    # the values' differences, or their sum, overflow
    ({"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
      "values": [[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]]}, "0.3,0.3"),
    ({"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
      "values": [[8e307, 1.0], [8.1e307, 0.0], [7.9e307, 2.0]]}, "0.3,0.3"),
])
def test_kpoint_rejects_overflow(tmp_path, capsys, doc, query):
    f = write_json(tmp_path / "pts.json", doc)
    assert run("kpoint", query, "--input", f, "--check") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError") and "Traceback" not in captured.err


@pytest.mark.parametrize("doc", [
    {"points": 3, "values": 4},
    {"points": [[1], [2]], "values": 5},
    {"points": [[[1]], [[2]]], "values": [[3], [4]]},
    {"points": [[1], [2]], "values": [[], []]},
], ids=["scalars", "scalar-values", "rank-3-points", "empty-values"])
def test_kpoint_rejects_ill_shaped_points_files(tmp_path, capsys, doc):
    f = write_json(tmp_path / "pts.json", doc)
    assert run("kpoint", "1", "--input", f, "--check") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError") and "Traceback" not in captured.err


def test_kpoint_dimension_mismatch(tmp_path, capsys):
    f = write_json(tmp_path / "pts.json", {"points": [[0.0], [2.0]], "values": [[0.0], [4.0]]})
    assert run("kpoint", "1,2", "--input", f) == 1
    assert capsys.readouterr().err.startswith("error: ParseError")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_roundtrip(tmp_path):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "grid", "--size", 5, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    assert run("verify", g, r) == 0


def test_verify_flags_corruption(tmp_path, capsys):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "path", "--size", 4, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    doc = json.loads(r.read_text())
    doc["values"]["v1"] = [2.9]
    write_json(r, doc)
    assert run("verify", g, r) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False
    assert out["residual_witness"] in {"v1", "v2"}


@pytest.mark.parametrize("value", [float("nan"), "x"])
def test_verify_rejects_unusable_value(tmp_path, capsys, value):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "path", "--size", 4, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    doc = json.loads(r.read_text())
    doc["values"]["v1"] = [value]
    write_json(r, doc)
    assert run("verify", g, r) == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[[1.0]], [[0.5, 0.5]], [[1.0], [2.0]]])
def test_verify_rejects_a_nested_value(tmp_path, capsys, value):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "path", "--size", 4, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    doc = json.loads(r.read_text())
    doc["values"]["v1"] = value
    write_json(r, doc)
    assert run("verify", g, r) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ParseError: {r}: vertex 'v1' has a value that is not a vector\n"
    assert captured.out == ""


@pytest.mark.parametrize("values", [[[1], [2]], 5])
def test_verify_rejects_values_that_are_not_an_object(tmp_path, capsys, values):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "path", "--size", 4, "--output", g) == 0
    write_json(r, {"values": values})
    assert run("verify", g, r) == 1
    assert "ParseError" in capsys.readouterr().err


def _path_result(tmp_path, change, order=reversed):
    """The graph and result files of the 4-vertex path v0 - v3, boundary
    {v0, v3}, the result's values changed by change and written in the
    given order of their ids."""
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    assert run("gen", "path", "--size", 4, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    doc = json.loads(r.read_text())
    change(doc["values"])
    doc["values"] = {v: doc["values"][v] for v in order(sorted(doc["values"]))}
    write_json(r, doc)
    return g, r


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(v1=[float("nan")], v2=[float("inf")]), "vertex 'v1' has a non-finite value"),
    (lambda d: d.update(v0=[0.5], v3=[2.0]),
     "boundary vertex 'v0' has a value other than the graph's"),
    (lambda d: d.update(v1=[float("nan")], v2=[[1.0]]), "vertex 'v2' has a value that is not a vector"),
], ids=["non-finite", "moved", "nested-first"])
def test_verify_names_the_first_vertex_in_id_order(tmp_path, capsys, change, message):
    # the file lists the values in reverse id order
    g, r = _path_result(tmp_path, change)
    assert run("verify", g, r) == 1
    assert capsys.readouterr().err == f"error: ParseError: {r}: {message}\n"


def test_verify_reads_bare_numbers_as_vectors(tmp_path, capsys):
    g, r = _path_result(tmp_path, lambda d: None)
    assert run("verify", g, r) == 0
    listed = capsys.readouterr().out
    _, r = _path_result(tmp_path, lambda d: d.update(v0=d["v0"][0], v2=d["v2"][0]))
    values = json.loads(r.read_text())["values"]
    assert type(values["v2"]) is int and type(values["v1"]) is list
    assert run("verify", g, r) == 0
    assert capsys.readouterr().out == listed


def test_verify_names_mixed_dimensions_sorted(tmp_path, capsys):
    g, r = _path_result(tmp_path, lambda d: d.update(v1=[0.5, 0.5, 0.5], v2=[0.5, 0.5]))
    assert run("verify", g, r) == 1
    assert capsys.readouterr().err == "error: DimensionMismatch: result dimensions [1, 2, 3] vs boundary 1\n"


@pytest.mark.parametrize("top", [1e308, 1e307])
def test_verify_rejects_result_values_that_overflow(tmp_path, capsys, top):
    # two adjacent interior values of +-top on the path of unit edges: at
    # 1e308 their difference overflows, and verify rejects them as validate
    # rejects such boundary data; at 1e307 every difference and ratio stays
    # finite, and the result fails its checks
    g, r = _path_result(tmp_path, lambda d: d.update(v1=[top], v2=[-top]))
    status = run("verify", g, r)
    captured = capsys.readouterr()
    if top == 1e308:
        assert status == 1 and captured.out == ""
        assert captured.err == (f"error: ParseError: {r}: ValueOverflow: result values up to "
                                "1e+308 in size overflow against edge lengths in [1, 1]\n")
    else:
        assert status == 3 and captured.err == ""
        out = json.loads(captured.out)
        assert out["interior_lip_ratio"] == 2e307 and not out["passed"]


def test_verify_rejects_a_ragged_value(tmp_path, capsys):
    g, r = _path_result(tmp_path, lambda d: d.update(v1=[[1.0], [2.0, 3.0]]))
    assert run("verify", g, r) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: ParseError: {r}: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_verify_vector_result(tmp_path, vector_graph_file, capsys):
    r = tmp_path / "r.json"
    assert run("solve", "--input", vector_graph_file, "--method", "iterate",
               "--output", r) == 0
    assert run("verify", vector_graph_file, r) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] <= 10 * 1e-9
    assert out["hull_ok"] is True


def test_verify_dimension_mismatch(tmp_path, vector_graph_file, capsys):
    r = tmp_path / "r.json"
    doc = {"values": {"a": [0.0], "m": [0.5], "b": [1.0]}}
    write_json(r, doc)
    assert run("verify", vector_graph_file, r) == 1


def _spur_path(tmp_path, ends, spur):
    """The path c - a - p - q - b with boundary {a, b, c}: c touches a only,
    so no interior value depends on it."""
    doc = {
        "vertices": [{"id": v, "pos": [float(x)]} for v, x in zip("capqb", range(5))],
        "edges": [["c", "a"], ["a", "p"], ["p", "q"], ["q", "b"]],
        "boundary": {"a": ends[0], "b": ends[1], "c": spur},
    }
    return write_json(tmp_path / "spur.json", doc)


@pytest.mark.parametrize("method, ends, spur, moved", [
    ("path", [[0.0], [1.0]], [0.5], [0.25]),
    ("iterate", [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.4, 0.6]),
], ids=["m1", "m2"])
def test_verify_rejects_a_moved_boundary_value(tmp_path, capsys, method, ends, spur, moved):
    # c's new value stays inside the data's range or hull and changes no
    # residual, so only the boundary check sees it
    g, r = _spur_path(tmp_path, ends, spur), tmp_path / "r.json"
    assert run("solve", "--input", g, "--method", method, "--output", r) == 0
    assert run("verify", g, r) == 0
    capsys.readouterr()
    doc = json.loads(r.read_text())
    doc["values"]["c"] = moved
    write_json(r, doc)
    assert run("verify", g, r) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and "boundary vertex 'c'" in err


def test_verify_accepts_a_negative_zero_boundary_value(tmp_path):
    # the result file writes -0.0 as -0, which reads back as 0.0
    g, r = _spur_path(tmp_path, [[-0.0], [1.0]], [0.5]), tmp_path / "r.json"
    assert run("solve", "--input", g, "--output", r) == 0
    assert '"a": [-0]' in r.read_text()
    assert run("verify", g, r) == 0


# ---------------------------------------------------------------------------
# round trips across generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,size", [("grid", 4), ("path", 6), ("star", 5), ("random", 14)])
@pytest.mark.parametrize("boundary", ["linear-x", "linear-y", "constant:0.4", "corners"])
def test_roundtrip_all_generators(tmp_path, kind, size, boundary):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    argv = ["gen", kind, "--size", size, "--boundary", boundary, "--output", g]
    if kind == "random":
        argv += ["--seed", 11]
    assert run(*argv) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    assert run("verify", g, r, "--output", tmp_path / "v.json") == 0


def test_roundtrip_constant_vector_boundary(tmp_path):
    # constant vector data leaves the boundary hull degenerate to a point;
    # the certificate must tolerate mean-rounding noise
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "random", "--size", 20, "--seed", 42,
               "--boundary", "constant:0.3,0.7", "--output", g) == 0
    assert run("solve", "--input", g, "--method", "iterate", "--output", r) == 0
    assert run("verify", g, r, "--output", tmp_path / "v.json") == 0


def test_roundtrip_tiny_grid_all_boundary(tmp_path):
    # 2x2 grid: every vertex is on the perimeter, the solve is an identity
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "grid", "--size", 2, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    assert run("verify", g, r) == 0


def test_roundtrip_large_grid(tmp_path):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    assert run("gen", "grid", "--size", 16, "--output", g) == 0
    assert run("solve", "--input", g, "--output", r) == 0
    assert run("verify", g, r, "--output", tmp_path / "v.json") == 0


def test_output_deterministic(tmp_path):
    g = tmp_path / "g.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("gen", "grid", "--size", 6, "--boundary", "corners", "--output", g) == 0
    assert run("solve", "--input", g, "--output", r1) == 0
    assert run("solve", "--input", g, "--output", r2) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_main_runs_many_commands_in_one_process(tmp_path, capsys):
    # main may be called again and again in one process: no call's
    # arguments or defaults reach the next, and each command gives what it
    # gave the first time, also after an argument error
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    pts = write_json(tmp_path / "pts.json", {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                             "values": [[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]]})
    commands = [
        ("gen", "grid", "--size", 5, "--boundary", "corners", "--output", g),
        ("solve", "--input", g, "--method", "iterate"),
        ("solve", "--input", g, "--output", r),
        ("kpoint", "-0.5,0.3", "--input", pts),
        ("verify", g, r),
        ("solve", "--method", "iterate"),  # no --input: argparse exits 2
        ("verify", g, r),
    ]

    def outcome(argv):
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, [f.read_bytes() for f in (g, r) if f.exists()]

    def outcomes():
        for f in (g, r):
            f.unlink(missing_ok=True)
        return [outcome(argv) for argv in commands]

    first = outcomes()
    assert [code for code, *_ in first] == [0, 0, 0, 0, 0, 2, 0]
    assert json.loads(first[1][1])["report"]["stage_slopes"] is None
    assert json.loads(r.read_text())["report"]["stage_slopes"]
    assert first[6] == first[4] and json.loads(first[4][1])["passed"] is True
    assert first[5][2].startswith("usage: lipext solve")
    assert outcomes() == first


def test_log_env_smoke(tmp_path, monkeypatch, path_graph_file):
    monkeypatch.setenv("LIPEXT_LOG", "debug")
    assert run("solve", "--input", path_graph_file, "--output", tmp_path / "r.json") == 0
