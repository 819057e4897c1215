"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its stated tolerance.  Corpora are seeded, so
runs are reproducible.
"""

import gc
import time

import numpy as np
import pytest

from conftest import (
    assert_same_report,
    grid_graph,
    random_graph,
    reference_hull_gap,
    reference_verify_extension,
)
from lipext.geometry import Biquadratic, cayley_menger_points, solve_biquadratic

from lipext.kpoint import (
    LabeledPointSet,
    kpoint_oracle,
    kpoint_scalar,
    kpoint_vector,
    lip_constant,
)
from lipext.scalar import gauss_seidel_scalar, solve_scalar
from lipext.vector import boundary_hull_gap, iterate_tight, local_replacement_tightens


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scalar_corpus():
    """200 random connected graphs solved by the path algorithm, with times."""
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(200):
        g = random_graph(rng, max_vertices=60)
        t0 = time.perf_counter()
        res = solve_scalar(g)
        out.append((g, res, time.perf_counter() - t0))
    return out


@pytest.fixture(scope="module")
def kpoint_corpus():
    """500 random sample sets with query points, results and the kernel's
    and the oracle's times."""
    rng = np.random.default_rng(20260810)
    out = []
    # warm-up excludes library initialisation from the first measurement,
    # and collection pauses are kept out of the per-instance timings.  A
    # pair and a triple: the triple's oracle answer runs Newton on arrays,
    # which a pair exit never reaches
    triangle = [[1.0, 0.0], [-0.5, 0.75], [-0.5, -0.75]]
    for warm, x in ((LabeledPointSet([[0.0], [1.0]], [[0.0], [1.0]]), [0.5]),
                    (LabeledPointSet(triangle, triangle), [0.0, 0.0])):
        kpoint_vector(warm, x)
        assert len(kpoint_oracle(warm, x).active) == len(warm.values)
    gc.collect()
    gc.disable()
    try:
        for _ in range(500):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            size = int(rng.integers(1, 9))
            s = LabeledPointSet(rng.uniform(-1, 1, (size, n)), rng.uniform(-1, 1, (size, m)))
            x = rng.uniform(-1, 1, n)
            while min(np.linalg.norm(s.points - x, axis=1)) < 1e-3:
                x = rng.uniform(-1, 1, n)
            t0 = time.perf_counter()
            rv = kpoint_vector(s, x)
            t1 = time.perf_counter()
            ro = kpoint_oracle(s, x)
            out.append((s, x, rv, ro, t1 - t0, time.perf_counter() - t1))
    finally:
        gc.enable()
    return out


def test_c01_path_algorithm_exactness(scalar_corpus):
    worst = max(res.report.residual for _, res, _ in scalar_corpus)
    slowest = max(t for _, _, t in scalar_corpus)
    ok = worst <= 1e-9 and slowest < 1.0
    _report(1, "path algorithm exactness", ok,
            f"worst residual {worst:.2e}, slowest {slowest * 1e3:.0f} ms")


def test_verify_matches_reference_on_the_c01_corpus(scalar_corpus):
    # the limited boundary search reports what the unlimited one does
    for g, res, _ in scalar_corpus:
        assert_same_report(res.report, reference_verify_extension(g, res.values))


def test_c02_uniqueness_cross_check(scalar_corpus):
    worst = 0.0
    for g, res, _ in scalar_corpus:
        sweep = gauss_seidel_scalar(g, tol=1e-12)
        for v in g.ids:
            worst = max(worst, abs(res.values[v][0] - sweep.values[v][0]))
    _report(2, "uniqueness cross-check", worst <= 1e-6, f"worst vertex gap {worst:.2e}")


def test_sweep_solver_is_exact_on_the_c01_corpus(scalar_corpus):
    # the sweeps' exact finish: within 1e-12 of the path solver at the
    # default tolerance, where the sweeps alone stop up to ~1e-8 short
    worst = 0.0
    for g, res, _ in scalar_corpus:
        sweep = gauss_seidel_scalar(g)
        worst = max(worst, max(abs(res.values[v][0] - sweep.values[v][0]) for v in g.ids))
    assert worst <= 1e-12


def test_c03_slope_monotonicity(scalar_corpus):
    bad = 0
    for _, res, _ in scalar_corpus:
        slopes = res.stage_slopes
        if any(a < b for a, b in zip(slopes, slopes[1:])):
            bad += 1
    _report(3, "slope monotonicity", bad == 0, f"{bad} of {len(scalar_corpus)} runs violated")


def test_c04_maximum_principle_and_geodesic_bound(scalar_corpus):
    bad = [
        (res.report.max_principle_ok, res.report.geodesic_ok)
        for _, res, _ in scalar_corpus
        if not (res.report.max_principle_ok and res.report.geodesic_ok)
    ]
    _report(4, "maximum principle and geodesic bound", not bad,
            f"{len(bad)} of {len(scalar_corpus)} instances failed")


def test_c05_linear_reproduction_on_grids():
    worst = 0.0
    for n in (8, 16):
        g = grid_graph(n, boundary_fn=lambda x, y: x)
        res = solve_scalar(g)
        for vid, pos in g.positions.items():
            worst = max(worst, abs(res.values[vid][0] - pos[0]))
        # independent per-vertex check: pairwise enumeration over neighbors
        for x in g.interior():
            nb = g.neighbors(x)
            best, point = -1.0, None
            for i in range(len(nb)):
                wi, di = nb[i]
                for j in range(i + 1, len(nb)):
                    wj, dj = nb[j]
                    r = abs(res.values[wi][0] - res.values[wj][0]) / (di + dj)
                    if r > best:
                        best = r
                        point = (dj * res.values[wi][0] + di * res.values[wj][0]) / (di + dj)
            worst = max(worst, abs(res.values[x][0] - point))
    _report(5, "linear reproduction on grids", worst <= 1e-10, f"worst deviation {worst:.2e}")


def test_c06_kpoint_oracle_equivalence(kpoint_corpus):
    worst_lam = worst_point = worst_bound = slowest = 0.0
    worst_active = 0
    slow_at = slow_kernel = slow_oracle = 0
    for k, (s, x, rv, ro, t_kernel, t_oracle) in enumerate(kpoint_corpus):
        worst_lam = max(worst_lam, abs(rv.lam - ro.lam))
        worst_point = max(worst_point, float(np.linalg.norm(rv.point - ro.point)))
        worst_bound = max(worst_bound, rv.lam - lip_constant(s))
        worst_active = max(worst_active, len(rv.active) - (s.value_dim + 1))
        if t_kernel + t_oracle > slowest:
            slowest = t_kernel + t_oracle
            slow_at, slow_kernel, slow_oracle = k, t_kernel, t_oracle
    ok = (
        worst_lam <= 1e-6
        and worst_point <= 1e-5
        and worst_bound <= 1e-9
        and worst_active <= 0
        and slowest < 0.05
    )
    _report(6, "minimax kernel vs oracle", ok,
            f"lam gap {worst_lam:.2e}, point gap {worst_point:.2e}, "
            f"slowest {slowest * 1e3:.1f} ms at instance {slow_at}: "
            f"kernel {slow_kernel * 1e3:.1f} ms, oracle {slow_oracle * 1e3:.1f} ms")


def test_c07_scalar_consistency():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 9))
        s = LabeledPointSet(rng.uniform(-1, 1, (size, n)), rng.uniform(-1, 1, size))
        x = rng.uniform(-1, 1, n)
        while min(np.linalg.norm(s.points - x, axis=1)) < 1e-3:
            x = rng.uniform(-1, 1, n)
        rv = kpoint_vector(s, x)
        rs = kpoint_scalar(s, x)
        worst = max(worst, abs(rv.lam - rs.lam), abs(rv.point[0] - rs.point[0]))
    _report(7, "vector kernel matches scalar formula", worst <= 1e-9, f"worst gap {worst:.2e}")


def test_c08_local_replacement_tightens():
    rng = np.random.default_rng(4242)
    passed = total = 0
    while total < 100:
        m = 1 + total % 2
        g = random_graph(rng, max_vertices=16, m=m)
        interior = g.interior()
        if not interior:
            continue
        u = {v: g.boundary_values.get(v, rng.uniform(0, 1, m)) for v in g.ids}
        x = interior[int(rng.integers(0, len(interior)))]
        try:
            ok = local_replacement_tightens(g, u, x)
        except ValueError:
            continue  # replacement does not move the value; precondition unmet
        total += 1
        passed += bool(ok)
    _report(8, "single-vertex replacement tightens", passed == total, f"{passed}/{total}")


def test_c09_vector_solver_certificate():
    rng = np.random.default_rng(909)
    worst_resid = worst_hull = 0.0
    all_converged = True
    for _ in range(50):
        g = random_graph(rng, max_vertices=24, m=2)
        values, report = iterate_tight(g, tol=1e-10, max_iter=100_000)
        gap, witness = boundary_hull_gap(g, values)
        # the facet test and its nnls fallback give the per-value nnls
        # loop's gap and witness to the bit
        assert (gap, witness) == reference_hull_gap(g, values)
        all_converged &= report.converged
        worst_resid = max(worst_resid, report.final_residual)
        worst_hull = max(worst_hull, gap)
    ok = all_converged and worst_resid <= 1e-9 and worst_hull <= 1e-8
    _report(9, "vector solver certificate", ok,
            f"worst residual {worst_resid:.2e}, worst hull gap {worst_hull:.2e}")
    # the exact finish ends every graph at rounding level, where the sweeps
    # alone left residuals of up to 9e-11
    assert worst_resid <= 1e-14


def test_c10_geometry_kernel_values():
    pair = cayley_menger_points([[0.0], [1.0]])
    collinear = cayley_menger_points([[0.0], [1.0], [2.0]])
    triangle = cayley_menger_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    roots = solve_biquadratic(Biquadratic(1.0, -5.0, 4.0))
    ok = (
        abs(pair - 2.0) <= 1e-12
        and abs(collinear) <= 1e-12
        and abs(triangle + 4.0) <= 1e-12
        and roots == [1.0, 2.0]
    )
    _report(10, "geometry kernel reference values", ok,
            f"pair {pair:.3g}, collinear {collinear:.3g}, triangle {triangle:.3g}, "
            f"roots {roots}")
