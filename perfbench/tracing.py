"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` replaces module attributes of lipext (and the scipy
routines lipext binds) with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans and result counts
are kept in memory; `Tracer.collect` turns the spans of one round into
per-name totals and self times (a span's duration minus that of its direct
children) and clears them.  `layer_metrics` maps those onto the per-layer
metrics named in BENCHMARK.json.

A wrapper is installed per binding, because lipext modules import each
other's functions by name: `lipext.scalar.validate` and
`lipext.vector.validate` are separate attributes of one function.  Spans
are named `<module>:<attribute>` after the binding that was called.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass


def _stages(counts, result) -> None:
    counts["stages"] += len(result.stage_slopes)


def _sweeps(counts, result) -> None:
    counts["sweeps"] += result[1].sweeps


def _kernel_exit(counts, result) -> None:
    size = len(result[2])
    counts["kernel_exit." + ("const" if size == 1 else "pair" if size == 2 else "simplex")] += 1


# (module, attribute, hook on the returned value)
BINDINGS = [
    ("graph", "validate", None),
    ("graph", "geodesic_distances_from", None),
    ("graph", "lipschitz_ratio", None),
    ("scalar", "validate", None),
    ("scalar", "solve_scalar", _stages),
    ("scalar", "apply_path", None),
    ("scalar", "finalize_components", None),
    ("scalar", "verify_extension", None),
    ("scalar", "gauss_seidel_scalar", None),
    ("scalar", "geodesic_distances_from", None),
    ("scalar", "pairwise_optimum", None),
    ("vector", "validate", None),
    ("vector", "iterate_tight", _sweeps),
    ("vector", "residual", None),
    ("vector", "boundary_hull_gap", None),
    ("vector", "minimax_kernel", _kernel_exit),
    ("vector", "nnls", None),
    ("kpoint", "minimax_kernel", _kernel_exit),
    ("kpoint", "pairwise_optimum", None),
    ("kpoint", "kpoint_oracle", None),
    ("kpoint", "minimize", None),
    ("kpoint", "nnls", None),
    ("cli", "validate", None),
    ("cli", "load_graph_file", None),
    ("cli", "load_result_file", None),
    ("cli", "emit", None),
    ("cli", "lipschitz_ratio", None),
    ("cli", "solve_scalar", _stages),
    ("cli", "gauss_seidel_scalar", None),
    ("cli", "verify_extension", None),
    ("cli", "iterate_tight", _sweeps),
    ("cli", "residual", None),
    ("cli", "boundary_hull_gap", None),
    ("cli", "kpoint_oracle", None),
]


@dataclass
class Stat:
    total: float = 0.0
    own: float = 0.0
    calls: int = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, hook in BINDINGS:
            module = importlib.import_module(f"lipext.{mod_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{mod_name}:{attr}", hook))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def collect(self) -> tuple[dict[str, Stat], Counter]:
        """Per-name totals and self times of the spans so far; clears them."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        stats: dict[str, Stat] = {}
        for i in range(n):
            s = stats.setdefault(self.names[i], Stat())
            dur = self.ends[i] - self.starts[i]
            s.total += dur
            s.own += dur - child[i]
            s.calls += 1
        counts = Counter(self.counts)
        for lst in (self.names, self.starts, self.ends, self.parents):
            lst.clear()
        self.counts.clear()
        return stats, counts


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "graph.validate_s": "s",
    "graph.validate_calls": "count",
    "graph.dijkstra_s": "s",
    "graph.dijkstra_calls": "count",
    "graph.lipschitz_ratio_s": "s",
    "scalar.search_s": "s",
    "scalar.stages": "count",
    "scalar.search_ms_per_stage": "ms",
    "scalar.apply_path_s": "s",
    "scalar.finalize_s": "s",
    "scalar.verify_s": "s",
    "scalar.verify_calls": "count",
    "scalar.gs_s": "s",
    "vector.iterate_s": "s",
    "vector.sweeps": "count",
    "vector.residual_s": "s",
    "vector.hull_gap_s": "s",
    "vector.nnls_calls": "count",
    "kpoint.kernel_s": "s",
    "kpoint.kernel_calls": "count",
    "kpoint.kernel_us_per_call": "us",
    "kpoint.kernel_exit.const": "count",
    "kpoint.kernel_exit.pair": "count",
    "kpoint.kernel_exit.simplex": "count",
    "kpoint.pairwise_s": "s",
    "kpoint.pairwise_calls": "count",
    "kpoint.oracle_s": "s",
    "kpoint.oracle_bisect_s": "s",
    "kpoint.oracle_polish_s": "s",
    "kpoint.oracle_polish_calls": "count",
    "kpoint.oracle_hull_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_optimize_s": "s",
    "cli.load_s": "s",
    "cli.emit_s": "s",
    "cli.ratio_s": "s",
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(stats: dict[str, Stat], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced round (all but cli.import_* and
    trace.*, which are measured apart)."""
    def total(*names):
        return sum(stats[n].total for n in names if n in stats)

    def own(*names):
        return sum(stats[n].own for n in names if n in stats)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    validate = ("graph:validate", "scalar:validate", "vector:validate", "cli:validate")
    dijkstra = ("graph:geodesic_distances_from", "scalar:geodesic_distances_from")
    verify = ("scalar:verify_extension", "cli:verify_extension")
    kernel = ("kpoint:minimax_kernel", "vector:minimax_kernel")
    pairwise = ("scalar:pairwise_optimum", "kpoint:pairwise_optimum")
    oracle = ("kpoint:kpoint_oracle", "cli:kpoint_oracle")
    search_s = own("scalar:solve_scalar", "cli:solve_scalar")
    kernel_s = total(*kernel)
    return {
        "graph.validate_s": total(*validate),
        "graph.validate_calls": calls(*validate),
        "graph.dijkstra_s": total(*dijkstra),
        "graph.dijkstra_calls": calls(*dijkstra),
        "graph.lipschitz_ratio_s": total("graph:lipschitz_ratio", "cli:lipschitz_ratio"),
        "scalar.search_s": search_s,
        "scalar.stages": counts["stages"],
        "scalar.search_ms_per_stage": 1e3 * search_s / counts["stages"] if counts["stages"] else 0.0,
        "scalar.apply_path_s": total("scalar:apply_path"),
        "scalar.finalize_s": total("scalar:finalize_components"),
        "scalar.verify_s": total(*verify),
        "scalar.verify_calls": calls(*verify),
        "scalar.gs_s": own("scalar:gauss_seidel_scalar", "cli:gauss_seidel_scalar"),
        "vector.iterate_s": own("vector:iterate_tight", "cli:iterate_tight"),
        "vector.sweeps": counts["sweeps"],
        "vector.residual_s": total("vector:residual", "cli:residual"),
        "vector.hull_gap_s": total("vector:boundary_hull_gap", "cli:boundary_hull_gap"),
        "vector.nnls_calls": calls("vector:nnls"),
        "kpoint.kernel_s": kernel_s,
        "kpoint.kernel_calls": calls(*kernel),
        "kpoint.kernel_us_per_call": 1e6 * kernel_s / calls(*kernel) if calls(*kernel) else 0.0,
        "kpoint.kernel_exit.const": counts["kernel_exit.const"],
        "kpoint.kernel_exit.pair": counts["kernel_exit.pair"],
        "kpoint.kernel_exit.simplex": counts["kernel_exit.simplex"],
        "kpoint.pairwise_s": total(*pairwise),
        "kpoint.pairwise_calls": calls(*pairwise),
        "kpoint.oracle_s": total(*oracle),
        "kpoint.oracle_bisect_s": own(*oracle),
        "kpoint.oracle_polish_s": total("kpoint:minimize"),
        "kpoint.oracle_polish_calls": calls("kpoint:minimize"),
        "kpoint.oracle_hull_s": total("kpoint:nnls"),
        "cli.load_s": total("cli:load_graph_file", "cli:load_result_file"),
        "cli.emit_s": total("cli:emit"),
        "cli.ratio_s": total("cli:lipschitz_ratio"),
    }
