"""Command-line surface: generate, solve, query, verify.

Exit codes: 0 success, 1 input or validation error, 2 iteration did not
converge (partial result still written), 3 verification failure.  All
files are JSON with sorted keys and floats printed to 17 significant
digits, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    LipextError,
    NotConverged,
    ParseError,
)
# perfbench/tracing.py wraps validate and gauss_seidel_scalar here
from .graph import Graph, lipschitz_ratio, require_valid, validate  # noqa: F401
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

def _fmt(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            raise ValueError(f"non-finite float {f!r} in output")
        return f"{f:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _fmt(list(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in items) + "}"
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

def load_graph_file(path: str) -> Graph:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        vertices = {v["id"]: v["pos"] for v in doc["vertices"]}
        if len(vertices) != len(doc["vertices"]):
            raise ParseError(f"{path}: duplicate vertex ids")
        edges = [tuple(e) for e in doc["edges"]]
        boundary = doc["boundary"]
        return Graph(vertices, edges, boundary.keys(), boundary)
    except ParseError:
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
    try:
        with open(path) as fh:
            doc = json.load(fh)
        doc["values"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return doc


def load_points_file(path: str) -> LabeledPointSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return LabeledPointSet(np.asarray(doc["points"], float), np.asarray(doc["values"], float))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
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


def cmd_solve(args) -> int:
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


def cmd_verify(args) -> int:
    g = load_graph_file(args.graph)
    require_valid(g)
    doc = load_result_file(args.result)
    raw = doc["values"]
    if set(raw) != set(g.ids):
        raise ParseError("result values do not cover exactly the graph vertices")
    try:
        values = {v: np.atleast_1d(np.asarray(raw[v], float)) for v in g.ids}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{args.result}: {exc}") from exc
    bad = [v for v in g.ids if not np.isfinite(values[v]).all()]
    if bad:
        raise ParseError(f"{args.result}: vertex {bad[0]!r} has a non-finite value")
    m = g.value_dim()
    dims = {v.shape[0] for v in values.values()}
    if dims != {m}:
        raise DimensionMismatch(f"result dimensions {sorted(dims)} vs boundary {m}")
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

def build_parser() -> argparse.ArgumentParser:
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
