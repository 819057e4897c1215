"""Reference figures for the README's baseline table.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/reference.py

Single large instances, timed once each (the kpoint corpus three times):
the solver ladders the workloads are scaled down from.  Takes about three
minutes on a 2-CPU machine.  Not part of the benchmark command.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from lipext import graph, kpoint, scalar, vector

import inputs
from worker import import_split, to_graph


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def curved_grid(n, m=1):
    fn = (lambda x, y: [x * x - y]) if m == 1 else (lambda x, y: [x, y * y])
    return to_graph(inputs.grid(f"grid{n}", n, fn))


def main() -> None:
    for n in (8, 16, 24, 32):
        g = curved_grid(n)
        res, total = timed(scalar.solve_scalar, g)
        _, check = timed(scalar.verify_extension, g, res.values)
        print(f"solve_scalar grid {n}x{n} (x^2-y): {total:.3f} s including "
              f"verify_extension {check:.3f} s, {len(res.stage_slopes)} stages")
    _, tr = timed(graph.lipschitz_ratio, g, res.values)
    print(f"grid 32x32: verify_extension {check:.2f} s, lipschitz_ratio {tr:.2f} s")
    _, t = timed(scalar.gauss_seidel_scalar, g)
    print(f"gauss_seidel_scalar grid 32x32 (x^2-y): {t:.2f} s")
    for n in (8, 16):
        (_, rep), t = timed(vector.iterate_tight, curved_grid(n, m=2))
        print(f"iterate_tight grid {n}x{n} m=2 (x, y^2): {t:.2f} s, {rep.sweeps} sweeps")
    split = import_split(repeats=1)
    print(f"import lipext {split['cli.import_s']:.3f} s, of which scipy.optimize "
          f"{split['cli.import_scipy_optimize_s']:.3f} s")
    corpus = [(kpoint.LabeledPointSet(q.points, q.values), q.x) for q in inputs.kpoint_corpus(None)]
    warm = kpoint.LabeledPointSet([[0.0], [1.0]], [[0.0], [1.0]])
    kpoint.kpoint_vector(warm, [0.5])
    kpoint.kpoint_oracle(warm, [0.5])
    for rep in range(3):
        ms = []
        for s, x in corpus:
            t0 = time.perf_counter()
            kpoint.kpoint_vector(s, x)
            kpoint.kpoint_oracle(s, x)
            ms.append(1e3 * (time.perf_counter() - t0))
        p50, p98 = np.percentile(ms, [50, 98])
        print(f"kpoint corpus pass {rep + 1}: p50 {p50:.1f} ms, p98 {p98:.1f} ms, max {max(ms):.1f} ms")


if __name__ == "__main__":
    main()
