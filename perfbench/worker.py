"""One workload in one fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
threads pinned to 1.  The worker imports lipext, builds the workload's
inputs from the seed, prints READY (run.py times set-up up to that line),
samples the machine's speed, then runs whole rounds of the workload's
operations until --seconds have passed and prints one JSON line with the
outcome and the metrics.  Times are scaled to the quiet machine's speed
(calibration.py); the line also carries them unscaled, under "wall".

With --trace 1 rounds alternate untraced and traced, and the metrics are
the per-layer ones of tracing.py plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from lipext import cli, graph, kpoint, scalar, vector

import calibration
import checks
import inputs
from tracing import LAYER_UNITS, Tracer, layer_metrics

CLASSES = ("S", "M", "L")
PERFBENCH = Path(__file__).resolve().parent
# lipext.cli.verify passes a vector result at residual <= 10 * tol, tol 1e-9,
# and a hull gap <= 1e-8; the program's own verifiers are held to the same.
VERIFY_RESIDUAL = 1e-9
VERIFY_HULL = 1e-8
# calibration samples: a burst at the start of each round, then one before
# and after each call, when this long has passed since the last sample
CALIB_BURST_S = 0.05
CALIB_EVERY_S = 0.02
SETUP_CALIB_S = 0.3


class Recorder:
    """Times each call into the program, counts failures, collects check
    verdicts.  Keys are tuples.  Times are kept per round, and between
    calls the machine's speed is sampled with calibration.py so that the
    run's times can be scaled to the quiet machine's speed."""

    def __init__(self):
        self.times: dict[tuple, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.calib: list[float] = []
        self.round = -1
        self.last_calib = 0.0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def new_round(self) -> None:
        self.round += 1
        self.calib.extend(calibration.burst(CALIB_BURST_S))
        self.last_calib = time.perf_counter()

    def _calibrate(self) -> None:
        if time.perf_counter() - self.last_calib >= CALIB_EVERY_S:
            self.calib.append(calibration.sample())
            self.last_calib = time.perf_counter()

    def call(self, key: tuple, fn, *args, **kwargs):
        """Run one operation; None if it raised (counted as failed)."""
        self.attempted += 1
        self._calibrate()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.failed += 1
            self.note(f"{key}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        self.times[key][self.round].append(elapsed)
        self._calibrate()
        return out

    def last(self, key: tuple) -> float:
        return self.times[key][self.round][-1]

    def skip(self, count: int = 1) -> None:
        """Operations that cannot run because the one they depend on failed."""
        self.attempted += count
        self.failed += count

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.correct = False
            self.note(f"check failed: {exc}")

    def require(self, ok: bool, text: str) -> None:
        if not ok:
            self.correct = False
            self.note(f"check failed: {text}")

    def op_times(self, key: tuple, slow: float) -> dict[int, float]:
        """The key's time in each round it ran (the mean over its calls in
        the round), divided by the slowdown."""
        return {r: statistics.fmean(ts) / slow for r, ts in self.times[key].items()}

    def batch(self, keys, slow: float) -> float:
        """Median over the rounds of the keys' summed time in a round."""
        per_key = [self.op_times(k, slow) for k in keys]
        if not per_key:
            return 0.0
        rounds = set.intersection(*(set(t) for t in per_key))
        return statistics.median(sum(t[r] for t in per_key) for r in rounds) if rounds else 0.0

    def op(self, key: tuple, slow: float) -> float:
        """Median over the rounds of one operation's time."""
        return statistics.median(self.op_times(key, slow).values())


def to_graph(spec: inputs.Spec) -> graph.Graph:
    return graph.Graph(spec.pos, spec.edges, spec.boundary.keys(), spec.boundary)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Builds its inputs from the seed in __init__; round() makes one round
    of calls through a Recorder."""

    LATENCY = "solve"                # key kind the latency percentiles are over


class ScalarPath(Workload):
    """solve_scalar (with its built-in verify_extension) on curved-boundary
    grids, one linear-boundary grid and random graphs of a fixed corpus."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        corpus = np.random.default_rng(inputs.SCALAR_CORPUS_SEED)
        graphs = {n: [inputs.move_values(inputs.random_graph(f"random{n}-{i}", corpus, n), rng)
                      for i in range(count)]
                  for n, count in ((30, 4), (80, 2), (120, 1))}
        specs = {
            "S": [inputs.grid("grid6", 6, inputs.curved(rng)),
                  inputs.linear_grid("linear8", 8)] + graphs[30],
            "M": [inputs.grid("grid10", 10, inputs.curved(rng))] + graphs[80],
            "L": [inputs.grid("grid14", 14, inputs.curved(rng))] + graphs[120],
        }
        self.items = [(cls, spec, to_graph(spec)) for cls in CLASSES for spec in specs[cls]]

    def round(self, rec: Recorder) -> None:
        for cls, spec, g in self.items:
            res = rec.call(("solve", cls, spec.name), scalar.solve_scalar, g)
            if res is None:
                rec.skip()
                continue
            rep = rec.call(("verify", spec.name), scalar.verify_extension, g, res.values)
            rec.require(res.report.passed and (rep is None or rep.passed),
                        f"{spec.name}: verify_extension rejects the solution")
            rec.check(checks.scalar_extension, spec, res.values, res.stage_slopes)


class Sweep(Workload):
    """gauss_seidel_scalar on curved-boundary grids (m = 1) and iterate_tight
    (m = 2) on a fixed C09-style random-graph corpus and on grids whose
    boundary has two components, vector data moved by a seeded isometry."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        corpus_rng = np.random.default_rng(inputs.SWEEP_CORPUS_SEED)
        corpus = [inputs.c09_graph(f"c09-{i}", corpus_rng) for i in range(12)]
        small = [s for s in corpus if len(s.ids) <= 12][:4]
        large = [s for s in corpus if len(s.ids) > 12][:2]
        specs = {
            "S": [inputs.grid("gs6", 6, inputs.curved(rng))]
                 + [inputs.move_values(s, rng) for s in small],
            "M": [inputs.grid("gs8", 8, inputs.curved(rng)), inputs.two_sided("sides5", 5, rng)]
                 + [inputs.move_values(s, rng) for s in large],
            "L": [inputs.grid("gs10", 10, inputs.curved(rng)), inputs.two_sided("sides7", 7, rng)],
        }
        self.items = [(cls, spec, to_graph(spec)) for cls in CLASSES for spec in specs[cls]]

    @staticmethod
    def _verify(g, values):
        return vector.residual(g, values), vector.boundary_hull_gap(g, values)[0]

    def round(self, rec: Recorder) -> None:
        for cls, spec, g in self.items:
            if spec.m == 1:
                res = rec.call(("solve", cls, spec.name), scalar.gauss_seidel_scalar, g)
                values = None if res is None else res.values
            else:
                res = rec.call(("solve", cls, spec.name), vector.iterate_tight, g)
                values = None if res is None else res[0]
            if values is None:
                rec.skip()
                continue
            verdict = rec.call(("verify", spec.name), self._verify, g, values)
            if verdict is not None:
                resid, gap = verdict
                rec.require(resid <= VERIFY_RESIDUAL and gap <= VERIFY_HULL,
                            f"{spec.name}: residual {resid:.3g}, hull gap {gap:.3g} over the CLI's limits")
            rec.check(checks.sweep_solution, spec, values)


class KpointCheck(Workload):
    """kpoint_vector then kpoint_oracle on the C06-style corpus, which is
    what `lipext kpoint --check` does per query."""

    LATENCY = "query"

    def __init__(self, seed: int, workdir: Path):
        self.items = [(q, kpoint.LabeledPointSet(q.points, q.values))
                      for q in inputs.kpoint_corpus(seed)]

    def round(self, rec: Recorder) -> None:
        for q, s in self.items:
            cls = CLASSES[q.m - 1]
            r = rec.call(("solve", cls, q.index), kpoint.kpoint_vector, s, q.x)
            if r is None:
                rec.skip()
                continue
            o = rec.call(("verify", q.index), kpoint.kpoint_oracle, s, q.x)
            if o is None:
                continue
            rec.times[("query", q.index)][rec.round].append(
                rec.last(("solve", cls, q.index)) + rec.last(("verify", q.index)))
            rec.check(checks.kpoint_answer, q, r.lam, r.point, o.lam, o.point)


class Cli(Workload):
    """`lipext gen -> solve -> verify` through lipext.cli.main(argv), with
    files, on a seeded random graph, a linear-boundary grid and a corners
    grid.  The commands run in this process: a fresh process per command
    would time the interpreter's start-up, which varies by half from one
    process to the next on a shared machine, far more than the commands
    themselves.  That start-up is this workload's setup_s instead."""

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.specs = {}
        gen = {
            "S": ["random", "--size", "30", "--seed", str(inputs.SCALAR_CORPUS_SEED),
                  "--boundary", "linear-x"],
            "M": ["grid", "--size", "8", "--boundary", "linear-y"],
            "L": ["grid", "--size", "12", "--boundary", "corners"],
        }
        for cls in CLASSES:
            self._run(["gen", *gen[cls], "--output", str(self.path(cls, "graph"))])
            if cls == "S":  # fixed structure; the seed moves the values
                move_values_in_file(self.path(cls, "graph"), np.random.default_rng(seed))
            self.specs[cls] = read_graph_doc(cls, self.path(cls, "graph"))
        # linear-y: f(x, y) = y
        self.specs["M"] = dataclasses.replace(self.specs["M"], linear=(0.0, 1.0, 0.0))

    def path(self, cls: str, what: str) -> Path:
        return self.dir / f"{cls}.{what}.json"

    @staticmethod
    def _run(argv) -> bool:
        """One lipext command; raises unless it exits with code 0."""
        checks.exit_code(argv, cli.main(argv), "")
        return True

    def round(self, rec: Recorder) -> None:
        for cls in CLASSES:
            graph_file = str(self.path(cls, "graph"))
            outs = [self.path(cls, f"result{k}") for k in (0, 1)]
            ran = [rec.call(("solve", cls), self._run,
                            ["solve", "--input", graph_file, "--output", str(out)])
                   for out in outs]
            if None in ran:
                rec.skip(2)
                continue
            first, second = (out.read_bytes() for out in outs)
            rec.check(checks.identical, f"cli {cls}", first, second)
            doc = json.loads(first)
            values = {v: np.asarray(val, dtype=float) for v, val in doc["values"].items()}
            rec.check(checks.scalar_extension, self.specs[cls], values, doc["report"]["stage_slopes"])
            report = self.path(cls, "verify")
            for _ in range(2):
                if rec.call(("verify", cls), self._run,
                            ["verify", graph_file, str(outs[0]), "--output", str(report)]):
                    rec.check(checks.verify_passed, f"cli {cls}", json.loads(report.read_text()))
            for out in (*outs, report):
                out.unlink(missing_ok=True)


def move_values_in_file(path: Path, rng: np.random.Generator) -> None:
    """Rewrite a lipext graph file's scalar boundary values as +-f + c."""
    doc = json.loads(path.read_text())
    sign, shift = float(rng.choice([-1.0, 1.0])), float(rng.uniform(-1.0, 1.0))
    doc["boundary"] = {v: [sign * float(val[0]) + shift] for v, val in doc["boundary"].items()}
    path.write_text(json.dumps(doc))


def read_graph_doc(name: str, path: Path) -> inputs.Spec:
    """The benchmark's own reading of a lipext graph file."""
    doc = json.loads(path.read_text())
    pos = {v["id"]: [float(c) for c in v["pos"]] for v in doc["vertices"]}
    edges = [(str(e[0]), str(e[1]), float(e[2])) for e in doc["edges"]]
    bdy = {v: [float(c) for c in val] for v, val in doc["boundary"].items()}
    return inputs.Spec(name, sorted(pos), pos, edges, bdy)


def end_to_end(workload, rec: Recorder, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics but setup_s (which run.py measures).  Keys are
    ("solve", class, ...), ("verify", ...) and, for kpoint-check,
    ("query", index); latency percentiles are over the workload's LATENCY
    keys."""
    slow = calibration.slowdown(rec.calib) if scaled else 1.0
    out = {f"solve_s.{cls}": rec.batch([k for k in rec.times if k[:2] == ("solve", cls)], slow)
           for cls in CLASSES}
    out["verify_s"] = rec.batch([k for k in rec.times if k[0] == "verify"], slow)
    per_op = sorted(rec.op(k, slow) for k in rec.times if k[0] == workload.LATENCY)
    out["query_ms.p50"] = 1e3 * percentile(per_op, 50)
    out["query_ms.p98"] = 1e3 * percentile(per_op, 98)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


WORKLOADS = {"scalar-path": ScalarPath, "sweep": Sweep, "kpoint-check": KpointCheck, "cli": Cli}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_rounds(workload, rec: Recorder, seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        rec.new_round()
        workload.round(rec)
        if time.perf_counter() >= deadline:
            return


def run_traced(workload, rec: Recorder, seconds: float) -> dict[str, float]:
    """Untraced and traced rounds in turn; each per-layer metric is its
    smallest value over the traced rounds, in wall time (not scaled)."""
    tracer = Tracer()
    untraced, traced, per_round = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        rec.new_round()
        t0 = time.perf_counter()
        workload.round(rec)
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        try:
            gc.collect()
            rec.new_round()
            t0 = time.perf_counter()
            workload.round(rec)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.remove()
        per_round.append(layer_metrics(*tracer.collect()))
        if time.perf_counter() >= deadline:
            break
    out = {name: min(r[name] for r in per_round) for name in per_round[0]}
    out.update(import_split())
    out["trace.untraced_round_s"] = min(untraced)
    out["trace.traced_round_s"] = min(traced)
    out["trace.overhead_s"] = out["trace.traced_round_s"] - out["trace.untraced_round_s"]
    return {name: out[name] for name in LAYER_UNITS}


IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_split(repeats: int = 3) -> dict[str, float]:
    """Cumulative import times of lipext and of scipy.optimize in a fresh
    interpreter, from `python -X importtime`, fastest of `repeats`."""
    totals, optimize = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lipext"],
                              capture_output=True, text=True, timeout=60, check=True)
        cumulative = {}
        for m in IMPORT_LINE.finditer(proc.stderr):
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        totals.append(cumulative["lipext"])
        optimize.append(cumulative.get("scipy.optimize", 0.0))
    return {"cli.import_s": min(totals), "cli.import_scipy_optimize_s": min(optimize)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after printing READY (a set-up time sample)")
    args = p.parse_args(argv)

    (PERFBENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=PERFBENCH / "_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        # the machine's speed just after set-up, to scale the set-up time
        setup_slowdown = calibration.slowdown(calibration.burst(SETUP_CALIB_S))
        if args.setup_only:
            print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
            return 0
        rec = Recorder()
        if args.trace:
            metrics = run_traced(workload, rec, args.seconds)
        else:
            run_rounds(workload, rec, args.seconds)
            metrics = end_to_end(workload, rec)
            wall = end_to_end(workload, rec, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for text in rec.notes:
        print(f"perfbench: {text}", file=sys.stderr)
    result = {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics, "setup_slowdown": setup_slowdown}
    if not args.trace:
        result["wall"] = wall
        result["slowdown"] = calibration.slowdown(rec.calib)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
