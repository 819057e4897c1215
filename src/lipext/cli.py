"""Command-line surface: generate, solve, query, verify.

Exit codes: 0 success, 1 input or validation error, 2 iteration did not
converge (partial result still written), 3 verification failure.  All
files are JSON with sorted keys and floats printed to 17 significant
digits, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import NoReturn

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    LipextError,
    NotConverged,
    ParseError,
)
# perfbench/tracing.py wraps validate and gauss_seidel_scalar here
from .graph import Graph, lipschitz_ratio, require_valid, validate, value_overflow  # noqa: F401
from .kpoint import LabeledPointSet, kpoint_oracle, kpoint_vector
from .scalar import (  # noqa: F401
    gauss_seidel_scalar,
    maximum_principle,
    solve_scalar,
    verify_extension,
)
from .vector import boundary_hull_gap, iterate_tight, residual

log = logging.getLogger("lipext.cli")

HULL_CHECK_TOL = 1e-8


# ---------------------------------------------------------------------------
# deterministic JSON emission
# ---------------------------------------------------------------------------

_FLOATS = frozenset((float, np.float64))  # the element types of a list of floats


def _fmt(obj) -> str:
    # floats first: most of a document is floats, and np.float64 is a float
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {float(obj)!r} in output")
        return f"{obj:.17g}"
    if isinstance(obj, (list, tuple)):
        if _FLOATS.issuperset(map(type, obj)) and all(map(math.isfinite, obj)):
            return "[" + ", ".join(map("{:.17g}".format, obj)) + "]"
        return "[" + ", ".join(map(_fmt, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, np.ndarray):
        return _fmt(list(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{_quote(str(k))}: {_fmt(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(obj, output: str | None) -> None:
    text = _fmt(obj) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _read(path: str, keys: tuple[str, ...]) -> list:
    """The values of keys in the JSON object of the file at path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return [_field(doc, key, path, "an object with " + ", ".join(map(repr, keys))) for key in keys]


def _field(obj, key: str, path: str, shape: str, what: str = "the file", name=None):
    """obj[key], obj being what (formatted with name) in the file at path,
    of the given shape."""
    if not isinstance(obj, dict) or key not in obj:
        found = f"has no {key!r}" if isinstance(obj, dict) else "is not an object"
        raise ParseError(f"{path}: {what.format(name)} {found}: it must be {shape}")
    return obj[key]


_NUMBER = frozenset((int, float))  # a JSON boolean's type is bool
_LENGTH = _NUMBER | {type(None)}
_LIST = frozenset((list,))


def _numbers(value, path: str, what: str, name=None, shape: str = "a number or a list of numbers"):
    """value, when it is a JSON number or a list of numbers nested to any
    depth, whose shape the caller checks.  Raises ParseError naming what
    (formatted with name) and its expected shape at a boolean, string,
    object or null, which numpy would read as a number or fail on with a
    bare message."""
    if type(value) is list:
        for item in value:
            if type(item) not in _NUMBER:
                _numbers(item, path, what, name, shape)
    elif type(value) not in _NUMBER:
        raise ParseError(f"{path}: {what.format(name)} must be {shape}, not {json.dumps(value)}")
    return value


def _vectors(values) -> bool:
    """Whether each of values is a list of JSON numbers: the loaders' quick
    type test, one pass over all the numbers, before the checks that name
    a fault."""
    return _LIST.issuperset(map(type, values)) and _NUMBER.issuperset(
        map(type, chain.from_iterable(values)))


def _floats(value, path: str, what: str) -> np.ndarray:
    """np.asarray(value, float), raising ParseError naming what at a JSON
    integer too large for a float, where numpy raises OverflowError."""
    try:
        return np.asarray(value, float)
    except OverflowError:
        raise ParseError(f"{path}: {what} holds an integer too large for a float") from None


def _name_overflow(path: str, positions: dict, edges: list, boundary: dict) -> None:
    """Raise the ParseError of the first JSON integer too large for a float
    in a graph file, if any, in the order `Graph` reads the fields."""
    for vid, pos in positions.items():
        _floats(pos, path, f"the position of vertex {vid!r}")
    for edge in edges:
        if isinstance(edge, list):
            _floats(edge[2:], path, f"the length of edge {edge[0]!r}-{edge[1]!r}")
    for vid, value in boundary.items():
        _floats(value, path, f"the boundary value of vertex {vid!r}")


def _lengths(edges: list) -> bool:
    """Whether every edge has a third item, its length, that is a JSON
    number or null: the quick type test of the edges, one pass over their
    third items.  False also where an edge has no length, which is valid."""
    try:
        return _LENGTH.issuperset(map(type, map(itemgetter(2), edges)))
    except (IndexError, KeyError, TypeError):  # an edge of two items, an object or a number
        return False


def load_graph_file(path: str) -> Graph:
    vertices, edges, boundary = _read(path, ("vertices", "edges", "boundary"))
    if not (isinstance(vertices, list) and isinstance(edges, list) and isinstance(boundary, dict)):
        raise ParseError(f"{path}: 'vertices' and 'edges' must be lists and 'boundary' an object")
    # each field is read with a quick type test; the loops below, which
    # name the first fault, run only where it fails
    try:
        positions = {v["id"]: v["pos"] for v in vertices}
    except (KeyError, TypeError):  # a vertex that is no object or lacks a key, an unhashable id
        positions = None
    if positions is None or len(positions) != len(vertices) or not _vectors(positions.values()):
        positions = {}
        vertex = "an object with 'id' and 'pos'"
        for i, v in enumerate(vertices):
            vid = _field(v, "id", path, vertex, "vertex {}", i)
            if isinstance(vid, (list, dict)):
                raise ParseError(f"{path}: the id of vertex {i} must be a string, "
                                 f"not {json.dumps(vid)}")
            positions[vid] = _numbers(_field(v, "pos", path, vertex, "vertex {!r}", vid), path,
                                      "the position of vertex {!r}", vid)
    if len(positions) != len(vertices):
        raise ParseError(f"{path}: duplicate vertex ids")
    if not _lengths(edges):
        for edge in edges:
            if isinstance(edge, list) and len(edge) == 3 and type(edge[2]) not in _LENGTH:
                raise ParseError(f"{path}: the length of edge {edge[0]!r}-{edge[1]!r} must be a "
                                 f"number or null, not {json.dumps(edge[2])}")
    if not _vectors(boundary.values()):
        for vid, value in boundary.items():
            _numbers(value, path, "the boundary value of vertex {!r}", vid)
    try:
        return Graph(positions, edges, boundary.keys(), boundary)
    except OverflowError:  # a JSON integer too large for a float
        _name_overflow(path, positions, edges, boundary)
        raise
    except (KeyError, TypeError, ValueError, LipextError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def graph_to_doc(g: Graph) -> dict:
    return {
        "vertices": [{"id": v, "pos": list(g.positions[v])} for v in g.ids],
        "edges": [[a, b, ln] for (a, b), ln in sorted(g.lengths.items())],
        "boundary": {v: list(g.boundary_values[v]) for v in sorted(g.omega)},
    }


def load_result_file(path: str) -> dict:
    values, = _read(path, ("values",))
    if not isinstance(values, dict):
        raise ParseError(f"{path}: values must be an object mapping vertex ids to values")
    if not _vectors(values.values()):
        for vid, value in values.items():
            _numbers(value, path, "the value of vertex {!r}", vid)
    return values


def load_points_file(path: str) -> LabeledPointSet:
    points, values = _read(path, ("points", "values"))
    _numbers(points, path, "'points'", shape="a list of positions, each a list of numbers")
    _numbers(values, path, "'values'", shape="a list of values, each a number or a list of numbers")
    try:
        return LabeledPointSet(_floats(points, path, "'points'"), _floats(values, path, "'values'"))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _boundary_fn(spec: str):
    if spec == "linear-x":
        return lambda p: [float(p[0])]
    if spec == "linear-y":
        return lambda p: [float(p[1]) if len(p) > 1 else 0.0]
    if spec.startswith("constant:"):
        try:
            vals = [float(t) for t in spec.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise BadParams(f"bad constant value in {spec!r}") from exc
        if not all(map(math.isfinite, vals)):
            raise BadParams(f"non-finite constant value in {spec!r}")
        return lambda p: list(vals)
    if spec == "corners":
        return None  # resolved against the bounding box, see below
    raise BadParams(f"unknown boundary function {spec!r}")


def _apply_boundary(fn_spec: str, vertices: dict, omega: list[str]) -> dict:
    fn = _boundary_fn(fn_spec)
    if fn is not None:
        return {v: fn(vertices[v]) for v in omega}
    pos = np.array([vertices[v] for v in vertices])
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    out = {}
    for v in omega:
        p = np.asarray(vertices[v], float)
        corner = all(p[i] in (lo[i], hi[i]) for i in range(len(p)))
        out[v] = [1.0 if corner else 0.0]
    return out


def generate(kind: str, size: int, seed: int | None, boundary: str) -> Graph:
    if size < 2:
        raise BadParams("size must be at least 2")
    if kind == "grid":
        h = 1.0 / (size - 1)
        vertices, edges, omega = {}, [], []
        for i in range(size):
            for j in range(size):
                vid = f"g{i:02d}_{j:02d}"
                vertices[vid] = [i * h, j * h]
                if i > 0:
                    edges.append((f"g{i-1:02d}_{j:02d}", vid))
                if j > 0:
                    edges.append((f"g{i:02d}_{j-1:02d}", vid))
                if i in (0, size - 1) or j in (0, size - 1):
                    omega.append(vid)
    elif kind == "path":
        width = len(str(size - 1))
        ids = [f"v{i:0{width}d}" for i in range(size)]
        vertices = {ids[i]: [float(i)] for i in range(size)}
        edges = [(ids[i], ids[i + 1]) for i in range(size - 1)]
        omega = [ids[0], ids[-1]]
    elif kind == "star":
        vertices, edges, omega = {"c": [0.0, 0.0]}, [], []
        width = len(str(size - 1))
        for i in range(size):
            ang = 2.0 * math.pi * i / size
            leaf = f"l{i:0{width}d}"
            vertices[leaf] = [math.cos(ang), math.sin(ang)]
            edges.append(("c", leaf, 1.0))
            omega.append(leaf)
    elif kind == "random":
        if seed is None:
            raise BadParams("random generator requires --seed")
        if seed < 0:
            raise BadParams(f"--seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        width = len(str(size - 1))
        ids = [f"v{i:0{width}d}" for i in range(size)]
        vertices = {v: [float(c) for c in rng.uniform(0, 1, 2)] for v in ids}
        order = rng.permutation(size)
        pairs = set()
        for k in range(1, size):
            a, b = int(order[k]), int(order[int(rng.integers(0, k))])
            pairs.add((min(a, b), max(a, b)))
        for _ in range(size // 2):
            a, b = int(rng.integers(0, size)), int(rng.integers(0, size))
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        edges = [(ids[a], ids[b]) for a, b in sorted(pairs)]
        n_bdy = int(rng.integers(1, max(2, size // 2 + 1)))
        omega = [ids[int(i)] for i in sorted(rng.choice(size, size=n_bdy, replace=False))]
    else:
        raise BadParams(f"unknown generator kind {kind!r}")
    boundary_values = _apply_boundary(boundary, vertices, omega)
    return Graph(vertices, edges, omega, boundary_values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _result_doc(g: Graph, values, *, residual_val, max_principle, ratio, stage_slopes,
                converged) -> dict:
    return {
        "values": {v: list(values[v]) for v in g.ids},
        "report": {
            "residual": residual_val,
            "max_principle": max_principle,
            "geodesic_lip_ratio": ratio,
            "stage_slopes": stage_slopes,
            "converged": converged,
        },
    }


def _check_budget(tol: float, max_iter: int = 1) -> None:
    """Reject a --tol that is not a positive finite number and a --max-iter
    below 1 as bad arguments (exit 1).  argparse's own errors exit 2, the
    not-converged code, so the commands check these themselves."""
    if not 0.0 < tol < math.inf:
        raise ParseError(f"--tol must be a positive finite number, got {tol}")
    if max_iter < 1:
        raise ParseError(f"--max-iter must be at least 1, got {max_iter}")


def cmd_solve(args) -> int:
    _check_budget(args.tol, args.max_iter)
    g = load_graph_file(args.input)
    # each solver validates g before anything else, and solve_scalar then
    # raises MethodUnavailable on vector data
    if args.method == "path":
        res = solve_scalar(g)
        values, resid, slopes, converged = res.values, res.report.residual, res.stage_slopes, True
        # the verifier's edge pass is lipschitz_ratio's, on the same values
        mp, ratio = res.report.max_principle_ok, res.report.interior_ratio
    else:
        try:
            values, report = iterate_tight(g, tol=args.tol, max_iter=args.max_iter)
        except NotConverged as exc:
            log.warning("solve did not converge: %s", exc)
            values, report = exc.values, exc.report
        resid, slopes, converged = report.final_residual, None, report.converged
        mp = maximum_principle(g, values)[0] if g.value_dim() == 1 else None
        ratio = lipschitz_ratio(g, values)
    doc = _result_doc(g, values, residual_val=resid, max_principle=mp, ratio=ratio,
                      stage_slopes=slopes, converged=converged)
    emit(doc, args.output)
    return 0 if converged else 2


def cmd_kpoint(args) -> int:
    _check_budget(args.tol)
    s = load_points_file(args.input)
    try:
        x = np.array([float(t) for t in args.query.split(",")])
    except ValueError as exc:
        raise ParseError(f"bad query {args.query!r}") from exc
    # ValueError: a non-finite query, one of the wrong dimension or scale, or
    # one whose answer overflows
    try:
        r = kpoint_vector(s, x, tol=args.tol)
        o = kpoint_oracle(s, x) if args.check else None
    except ValueError as exc:
        raise ParseError(f"bad query {args.query!r}: {exc}") from exc
    doc = {"lambda": r.lam, "point": list(r.point), "active": list(r.active)}
    if o is not None:
        doc["oracle_gap"] = max(abs(r.lam - o.lam), float(np.linalg.norm(r.point - o.point)))
    emit(doc, args.output)
    return 0


def cmd_gen(args) -> int:
    g = generate(args.kind, args.size, args.seed, args.boundary)
    emit(graph_to_doc(g), args.output)
    return 0


def _result_array(g: Graph, raw: dict, path: str) -> np.ndarray:
    """The result values raw as one (vertices, m) array, row i the value at
    g.ids[i], a bare number read as a 1-vector.  Raises ParseError at a
    value that is not a finite vector or a boundary value other than the
    graph's, and DimensionMismatch at values of another dimension than the
    boundary data's; a ParseError names the first such vertex in id order.
    Values too large for the edge lengths, by the bound that `validate`
    puts on boundary data, raise ParseError (ValueOverflow): the checks'
    differences and ratios would overflow."""
    try:
        vals = np.array([v if type(v) is list else [v] for v in map(raw.__getitem__, g.ids)],
                        dtype=float)
    except (ValueError, OverflowError):  # nested, of mixed dimension or out of range
        vals = None
    if vals is None or vals.ndim != 2:
        _name_unstacked(g, raw, path)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: vertex {g.ids[int(finite.argmin())]!r} has a non-finite value")
    m = g.value_dim()
    if vals.shape[1] != m:
        raise DimensionMismatch(f"result dimensions {[vals.shape[1]]} vs boundary {m}")
    # equal as floats, not bit for bit: the JSON output writes -0.0 as -0,
    # which reads back as 0.0
    rows = np.flatnonzero(g.indexed.boundary)
    moved = (vals[rows] != np.array([g.boundary_values[g.ids[i]] for i in rows])).any(axis=1)
    if moved.any():
        raise ParseError(f"{path}: boundary vertex {g.ids[rows[moved.argmax()]]!r} has a value "
                         "other than the graph's")
    lengths = g.indexed.edges[3]
    message = value_overflow(vals, lengths) if lengths.size else None
    if message is not None:
        raise ParseError(f"{path}: ValueOverflow: result {message}")
    return vals


def _name_unstacked(g: Graph, raw: dict, path: str) -> NoReturn:
    """Raise the error of result values that do not stack into one array:
    numpy's, at the first value in id order that it cannot read, then a
    nested value, then a non-finite one, then the values' dimensions."""
    try:
        values = [np.atleast_1d(_floats(raw[v], path, f"the value of vertex {v!r}"))
                  for v in g.ids]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    nested = next((v for v, val in zip(g.ids, values) if val.ndim > 1), None)
    if nested is not None:
        raise ParseError(f"{path}: vertex {nested!r} has a value that is not a vector")
    bad = next((v for v, val in zip(g.ids, values) if not np.isfinite(val).all()), None)
    if bad is not None:
        raise ParseError(f"{path}: vertex {bad!r} has a non-finite value")
    dims = sorted({val.shape[0] for val in values})
    raise DimensionMismatch(f"result dimensions {dims} vs boundary {g.value_dim()}")


def cmd_verify(args) -> int:
    _check_budget(args.tol)
    g = load_graph_file(args.graph)
    require_valid(g)
    raw = load_result_file(args.result)
    if set(raw) != set(g.ids):
        raise ParseError("result values do not cover exactly the graph vertices")
    values = dict(zip(g.ids, _result_array(g, raw, args.result)))
    m = g.value_dim()
    if m == 1:
        rep = verify_extension(g, values, tol=args.tol)
        out = {
            "passed": rep.passed,
            "residual": rep.residual,
            "residual_ok": rep.residual_ok,
            "residual_witness": rep.residual_witness,
            "max_principle_ok": rep.max_principle_ok,
            "max_principle_witness": rep.max_principle_witness,
            "geodesic_ok": rep.geodesic_ok,
            "geodesic_witness": list(rep.geodesic_witness) if rep.geodesic_witness else None,
            "interior_lip_ratio": rep.interior_ratio,
            "boundary_lip_ratio": rep.boundary_ratio,
        }
        emit(out, args.output)
        return 0 if rep.passed else 3
    resid = residual(g, values)
    resid_ok = resid <= 10.0 * args.tol
    gap, witness = boundary_hull_gap(g, values)
    hull_ok = gap <= HULL_CHECK_TOL
    out = {
        "passed": resid_ok and hull_ok,
        "residual": resid,
        "residual_ok": resid_ok,
        "hull_gap": gap,
        "hull_ok": hull_ok,
        "hull_witness": None if hull_ok else witness,
    }
    emit(out, args.output)
    return 0 if resid_ok and hull_ok else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by
    every later one, since a parse leaves no state in it: each `main` call
    parses its argv with the same parser."""
    p = argparse.ArgumentParser(prog="lipext", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="extend boundary data over a graph")
    ps.add_argument("--input", required=True)
    ps.add_argument("--output", default=None)
    ps.add_argument("--method", choices=["path", "iterate"], default="path")
    ps.add_argument("--tol", type=float, default=1e-10)
    ps.add_argument("--max-iter", type=int, default=100_000)
    ps.set_defaults(fn=cmd_solve)

    pk = sub.add_parser("kpoint", help="minimax value of labeled samples at a query point")
    # a query such as -0.5,0.3 is an argument, not an option: argparse takes
    # only plain negative numbers for arguments, and kpoint has no option
    # that starts with a digit
    pk._negative_number_matcher = re.compile(r"^-\.?\d")
    pk.add_argument("query", help="comma-separated query coordinates")
    pk.add_argument("--input", required=True)
    pk.add_argument("--output", default=None)
    pk.add_argument("--tol", type=float, default=1e-9)
    pk.add_argument("--check", action="store_true",
                    help="also run the exact epigraph oracle and report the gap")
    pk.set_defaults(fn=cmd_kpoint)

    pg = sub.add_parser("gen", help="generate a graph file")
    pg.add_argument("kind", choices=["grid", "path", "star", "random"])
    pg.add_argument("--size", type=int, required=True)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--boundary", default="linear-x",
                    help="linear-x | linear-y | constant:<v[,v,...]> | corners")
    pg.add_argument("--output", default=None)
    pg.set_defaults(fn=cmd_gen)

    pv = sub.add_parser("verify", help="check a result file against its graph")
    pv.add_argument("graph")
    pv.add_argument("result")
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.add_argument("--output", default=None)
    pv.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    level = os.environ.get("LIPEXT_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO), stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LipextError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
