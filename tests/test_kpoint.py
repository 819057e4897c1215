import logging
import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    _bits,
    assert_same_result,
    assert_simplex_paths_agree,
    random_graph,
    reference_distances,
    reference_kpoint_oracle,
    reference_kpoint_vector,
    reference_oracle_tail,
)
from lipext import kpoint, vector
from lipext.errors import NoCertifiedSubset, QueryCoincidesWithSample
from lipext.geometry import HULL_TOL, SIMPLEX_TOL, Biquadratic, is_simplex, solve_biquadratic
from lipext.kpoint import (
    CERT_TOL,
    CONSTANT_TOL,
    NOISE_TOL,
    KernelBlock,
    LabeledPointSet,
    _kkt_newton,
    certificate_check,
    kpoint_oracle,
    kpoint_scalar,
    kpoint_vector,
    lip_constant,
    minimax_kernel,
    minimize,
    pairwise_optimum,
    pair_candidate,
)


def scalar_set(positions, values):
    return LabeledPointSet(np.asarray(positions, float)[:, None], np.asarray(values, float))


@pytest.fixture
def equilateral():
    """Three samples at distance 1 from the origin with values on a circle."""
    points = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    values = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    return LabeledPointSet(points, values)


def random_instance(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    size = int(rng.integers(1, 9))
    points = rng.uniform(-1, 1, size=(size, n))
    values = rng.uniform(-1, 1, size=(size, m))
    x = rng.uniform(-1, 1, size=n)
    while min(np.linalg.norm(points - x, axis=1)) < 1e-3:
        x = rng.uniform(-1, 1, size=n)
    return LabeledPointSet(points, values), x


def c06_instances():
    """The 500 (points, values, query) instances of acceptance criterion C06."""
    rng = np.random.default_rng(20260810)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        size = int(rng.integers(1, 9))
        points, values = rng.uniform(-1, 1, (size, n)), rng.uniform(-1, 1, (size, m))
        x = rng.uniform(-1, 1, n)
        while min(np.linalg.norm(points - x, axis=1)) < 1e-3:
            x = rng.uniform(-1, 1, n)
        yield points, values, x


# ---------------------------------------------------------------------------
# lip_constant
# ---------------------------------------------------------------------------

def _scipy_optimize_loaded_after(code):
    """Whether scipy.optimize is loaded after running code in a fresh
    interpreter that imports lipext from this tree."""
    import lipext

    src = os.path.dirname(os.path.dirname(lipext.__file__))
    code += "\nimport sys; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_import_leaves_scipy_optimize_unloaded():
    # only the oracle's hull coordinates of three or more samples and the
    # vector solver's hull certificates load scipy.optimize, on first use
    assert not _scipy_optimize_loaded_after("import lipext, lipext.cli")


def test_pair_exit_kpoint_check_leaves_scipy_optimize_unloaded(tmp_path):
    # a query whose kernel and oracle both end with a pair: the oracle's
    # hull coordinates of two samples are in closed form, so
    # `lipext kpoint --check` never imports scipy.optimize
    f = tmp_path / "pts.json"
    f.write_text('{"points": [[0.0], [1.0], [3.0]], "values": [[0.0, 0.0], [2.0, 1.0], [2.5, 1.5]]}')
    s = LabeledPointSet([[0.0], [1.0], [3.0]], [[0.0, 0.0], [2.0, 1.0], [2.5, 1.5]])
    assert len(kpoint_vector(s, [0.4]).active) == len(kpoint_oracle(s, [0.4]).active) == 2
    code = f"from lipext.cli import main; assert main(['kpoint', '0.4', '--input', {str(f)!r}, '--check']) == 0"
    assert not _scipy_optimize_loaded_after(code)


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError):
        LabeledPointSet([[0.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])


def test_lip_two_points():
    assert lip_constant(scalar_set([0.0, 1.0], [0.0, 3.0])) == pytest.approx(3.0)


def test_lip_constant_values():
    assert lip_constant(scalar_set([0.0, 1.0, 5.0], [2.0, 2.0, 2.0])) == 0.0


def test_lip_three_points():
    # pairs: |0-1|/1 = 1, |1-4|/1 = 3, |0-4|/2 = 2
    assert lip_constant(scalar_set([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])) == pytest.approx(3.0)


def test_lip_singleton():
    assert lip_constant(scalar_set([0.0], [7.0])) == 0.0


def test_lip_constant_at_extreme_scales():
    # squared differences near 1e160 overflow and near 1e-160 lose their
    # digits to underflow
    rng = np.random.default_rng(61)
    for _ in range(10):
        s = random_instance(rng)[0]
        base = lip_constant(s)
        for scale in (1e-160, 1e160):
            scaled = LabeledPointSet(s.points, s.values * scale)
            assert lip_constant(scaled) == pytest.approx(scale * base, rel=1e-12)
            moved = LabeledPointSet(s.points / scale, s.values)
            assert lip_constant(moved) == pytest.approx(scale * base, rel=1e-12)


def test_lip_constant_matches_a_pair_loop_on_c06_corpus():
    for points, values, _ in c06_instances():
        best = 0.0
        for i, j in combinations(range(len(points)), 2):
            best = max(best, float(np.linalg.norm(values[i] - values[j]))
                       / float(np.linalg.norm(points[i] - points[j])))
        assert lip_constant(LabeledPointSet(points, values)) == pytest.approx(best, rel=1e-15)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["points", "values"])
def test_non_finite_samples_rejected(field, bad):
    data = {"points": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            "values": np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]])}
    data[field][1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        LabeledPointSet(data["points"], data["values"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [
    # differences overflow: the spread would read the data as constant
    [[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]],
    # one sign: the kernel's centre sum would overflow
    [[8e307, 1.0], [8.1e307, 0.0], [7.9e307, 2.0]],
])
def test_overflowing_samples_rejected(values):
    with pytest.raises(ValueError, match="overflow"):
        LabeledPointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], values)


@pytest.mark.filterwarnings("error")
def test_samples_just_inside_the_overflow_limit():
    # 3 max|f| is finite: kernel and oracle agree on the scaled answer
    values = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    points, x = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.3, 0.3]
    base = kpoint_vector(LabeledPointSet(points, values), x)
    s = LabeledPointSet(points, 5e307 * values)
    for r in (kpoint_vector(s, x), kpoint_oracle(s, x)):
        assert r.lam / 5e307 == pytest.approx(base.lam, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_query_rejected(bad):
    s = LabeledPointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                        [[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]])
    for fn in (kpoint_vector, kpoint_oracle):
        with pytest.raises(ValueError, match="finite"):
            fn(s, [0.4, bad])
    scalar = scalar_set([0.0, 2.0], [0.0, 4.0])
    with pytest.raises(ValueError, match="finite"):
        kpoint_scalar(scalar, [bad])


@pytest.mark.filterwarnings("error")
def test_overflowing_query_offsets_rejected():
    # finite positions and query whose difference overflows
    s = scalar_set([1e308, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="overflow"):
        kpoint_vector(s, [-1e308])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [[[0.0], [1e10]], [[0.0, 1.0], [1e10, 3.0]]])
def test_overflowing_answer_rejected(values):
    # finite samples and query, but lam is about 1e10 / 3e-300
    s = LabeledPointSet([[0.0], [1e-300]], values)
    for fn in (kpoint_vector, kpoint_oracle):
        with pytest.raises(ValueError, match="overflows"):
            fn(s, [2e-300])


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_positions_at_extreme_scales(scale):
    # squares of offsets near 1e160 overflow and near 1e-170 underflow
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    values = np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]])
    x = np.array([0.4, 0.3])
    base = LabeledPointSet(points, values)
    moved = LabeledPointSet(points * scale, values)
    for fn in (kpoint_vector, kpoint_oracle):
        expected = fn(base, x)
        r = fn(moved, x * scale)
        assert r.lam * scale == pytest.approx(expected.lam, rel=1e-12)
        assert np.allclose(r.point, expected.point, rtol=0.0, atol=1e-12)
        assert r.active == expected.active


# ---------------------------------------------------------------------------
# pair_candidate
# ---------------------------------------------------------------------------

def test_pair_scalar_midpoint():
    s = scalar_set([0.0, 2.0], [0.0, 4.0])
    point, lam = pair_candidate(s, 0, 1, [1.0])
    assert point == pytest.approx([2.0])
    assert lam == pytest.approx(2.0)


def test_pair_equal_values():
    s = scalar_set([0.0, 2.0], [5.0, 5.0])
    point, lam = pair_candidate(s, 0, 1, [0.5])
    assert point == pytest.approx([5.0])
    assert lam == 0.0


def test_pair_planar():
    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    point, lam = pair_candidate(s, 0, 1, [0.0, 0.0])
    assert point == pytest.approx([1.0, 0.0])
    assert lam == pytest.approx(1.0)


def test_pair_query_on_sample():
    s = scalar_set([0.0, 2.0], [0.0, 4.0])
    with pytest.raises(QueryCoincidesWithSample):
        pair_candidate(s, 0, 1, [2.0])


def test_pair_query_on_a_third_sample():
    # only samples i and j divide by their distance: a third may hold the query
    s = scalar_set([0.0, 1.0, 2.0], [0.0, 5.0, 4.0])
    point, lam = pair_candidate(s, 0, 2, [1.0])
    assert point == pytest.approx([2.0])
    assert lam == pytest.approx(2.0)


@pytest.mark.parametrize("x", [[0.5], [0.5, 0.2, 0.0], [[0.5, 0.2]], [math.nan, 0.2], [0.5, math.inf]])
def test_pair_rejects_a_bad_query(x):
    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="query"):
        pair_candidate(s, 0, 1, x)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (0, 2), (2, 0), (1, 1)])
def test_pair_rejects_a_bad_index(i, j):
    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="pair indices"):
        pair_candidate(s, i, j, [0.0, 0.5])


# ---------------------------------------------------------------------------
# kpoint_scalar
# ---------------------------------------------------------------------------

def test_scalar_three_samples():
    # unit distances, values 0, 10, 4: best pair (0, 10) with ratio 5
    s = LabeledPointSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 10.0, 4.0])
    r = kpoint_scalar(s, [0.0, 0.0])
    assert r.lam == pytest.approx(5.0)
    assert r.point == pytest.approx([5.0])
    assert r.active == (0, 1)


def test_scalar_constant():
    s = scalar_set([0.0, 1.0, 3.0], [2.5, 2.5, 2.5])
    r = kpoint_scalar(s, [2.0])
    assert r.lam == 0.0
    assert r.point == pytest.approx([2.5])


def test_scalar_singleton():
    r = kpoint_scalar(scalar_set([0.0], [7.0]), [3.0])
    assert r.lam == 0.0
    assert r.point == pytest.approx([7.0])


def test_pairwise_optimum_raw():
    point, ratio, pair = pairwise_optimum([0.0, 10.0, 4.0], [1.0, 1.0, 1.0])
    assert point == pytest.approx(5.0)
    assert ratio == pytest.approx(5.0)
    assert pair == (0, 1)


# ---------------------------------------------------------------------------
# kpoint_vector
# ---------------------------------------------------------------------------

def test_vector_pair_certified():
    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    r = kpoint_vector(s, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0)
    assert r.point == pytest.approx([1.0, 0.0])
    assert r.active == (0, 1)


def test_vector_equilateral_needs_triple(equilateral):
    r = kpoint_vector(equilateral, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(r.point, [0.0, 0.0], atol=1e-9)
    assert r.active == (0, 1, 2)
    assert r.max_violation <= 1e-9
    assert np.all(r.hull_coords >= -1e-9)


def test_vector_constant():
    s = LabeledPointSet([[0.0], [1.0]], [[3.0, 4.0], [3.0, 4.0]])
    r = kpoint_vector(s, [0.5])
    assert r.lam == 0.0
    assert r.point == pytest.approx([3.0, 4.0])


def test_vector_query_on_sample(equilateral):
    with pytest.raises(QueryCoincidesWithSample):
        kpoint_vector(equilateral, [1.0, 0.0])


# ---------------------------------------------------------------------------
# certificate_check
# ---------------------------------------------------------------------------

def test_certified_triple_passes(equilateral):
    r = kpoint_vector(equilateral, [0.0, 0.0])
    assert certificate_check(equilateral, [0.0, 0.0], r.lam, r.point, r.active)


def test_pair_fails_on_equilateral(equilateral):
    point, lam = pair_candidate(equilateral, 0, 1, [0.0, 0.0])
    assert not certificate_check(equilateral, [0.0, 0.0], lam, point, (0, 1))


def test_singleton_certificate_constant_data():
    s = LabeledPointSet([[0.0], [1.0]], [[2.0], [2.0]])
    assert certificate_check(s, [0.5], 0.0, [2.0], (0,))
    assert certificate_check(s, [0.5], 0.0, [2.0], (1,))


# ---------------------------------------------------------------------------
# kpoint_oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_named_examples(equilateral):
    r = kpoint_oracle(equilateral, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(r.point, [0.0, 0.0], atol=1e-5)

    s = LabeledPointSet([[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    r = kpoint_oracle(s, [0.0, 0.0])
    assert r.lam == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(r.point, [1.0, 0.0], atol=1e-5)


def test_oracle_upper_bound():
    rng = np.random.default_rng(17)
    for _ in range(40):
        s, x = random_instance(rng)
        r = kpoint_oracle(s, x)
        assert r.lam <= lip_constant(s) + 1e-7


def test_oracle_singleton():
    r = kpoint_oracle(scalar_set([0.0], [7.0]), [2.0])
    assert r.lam == 0.0
    assert r.point == pytest.approx([7.0])


def _max_ratio(values, d, y):
    return float(np.max(np.linalg.norm(y - values, axis=1) / d))


def test_polish_pivots_to_the_optimal_working_set():
    # C06 instances whose top-ranked samples are not the optimal active set,
    # with the polish started far from the optimum: the pivot has to swap
    # samples out of the working set
    instances = list(c06_instances())
    for index, active in ((117, (0, 1, 2)), (487, (1, 2, 5))):
        points, values, x = instances[index]
        d = np.linalg.norm(points - x, axis=1)
        kernel = kpoint_vector(LabeledPointSet(points, values), x)
        assert kernel.active == active
        far = np.full(values.shape[1], 10.0)
        top = np.argsort(-np.linalg.norm(far - values, axis=1) / d)[:len(active)]
        assert set(top.tolist()) != set(active)
        y = minimize(values, 1.0 / d, far)
        assert y is not None
        assert _max_ratio(values, d, y) == pytest.approx(kernel.lam, rel=1e-14)
        assert np.linalg.norm(y - kernel.point) <= 1e-14


def test_polish_starts_from_one_sample_on_clustered_values():
    # samples 0 and 1 have values 1.5e-8 apart: the pair ranked first
    # covers itself only to rounding error on the scale of its tiny t, and
    # no larger prefix gives a KKT point, so the pivot starts from the top
    # sample alone
    points = np.array([[-0.9341745818308291, 0.7149138663939072, 0.33627440212098136],
                       [0.6288427525544835, 0.09485206015403325, -0.5801475477565841],
                       [0.3249069240127087, -0.3090782375889569, 0.4471448053290301],
                       [-0.6830845926401636, 0.46936367580113214, -0.8776366257940378],
                       [-0.6535647813600789, 0.1571064846993797, 0.24926675835864476]])
    values = np.array([[0.136593124245071, 0.3749175032390673],
                       [0.13659320612616938, 0.3749175183277643],
                       [0.23849874009431238, -0.118337819949623],
                       [-0.12022763929779834, 0.26625585321189593],
                       [0.24955152363067268, -0.06651448403232263]])
    x = np.array([0.31382297521935665, -0.17854051598606735, 0.9609186318624017])
    d = np.linalg.norm(points - x, axis=1)
    kernel = kpoint_vector(LabeledPointSet(points, values), x)
    y = minimize(values, 1.0 / d, values.mean(axis=0))
    assert y is not None
    assert _max_ratio(values, d, y) == pytest.approx(kernel.lam, rel=1e-13)
    oracle = kpoint_oracle(LabeledPointSet(points, values), x)
    assert oracle.lam == pytest.approx(kernel.lam, rel=1e-13)


def test_oracle_resolves_a_near_collinear_triple():
    # the kernel's strict xfail case: values (-1, 0), (1, 0), (0, eps) at
    # distances (1, 1, f eps); the optimum is lam = 1 + 2.45e-11
    eps, f = 1e-5, 0.3
    s = LabeledPointSet([[-1.0], [1.0], [f * eps]], [[-1.0, 0.0], [1.0, 0.0], [0.0, eps]])
    r = kpoint_oracle(s, [0.0])
    assert 1.0 + 2.4e-11 <= r.lam <= 1.0 + 2.5e-11
    assert r.active == (0, 1, 2)


def test_kkt_pair_is_exact():
    # two rows in the polish's unit frame: the closed form puts y on the
    # segment where k_0 r_0 = k_1 r_1 = t, with positive multipliers
    rng = np.random.default_rng(83)
    tested = 0
    while tested < 200:
        m = int(rng.integers(1, 5))
        u, k = rng.uniform(-1, 1, (2, m)), rng.uniform(0.5, 2.0, 2)
        if np.linalg.norm(u[1] - u[0]) < 1.0:
            continue
        y, t, w = kpoint._kkt_pair(u.tolist(), k.tolist())
        y, w = np.array(y), np.array(w)
        r = np.linalg.norm(y - u, axis=1)
        assert w.min() > 0.0 and w.sum() == pytest.approx(1.0, rel=1e-15)
        # stationarity: the pulls w_i k_i n_i of the two rows cancel
        assert w[0] * k[0] == pytest.approx(w[1] * k[1], rel=1e-15)
        assert k * r == pytest.approx([t, t], rel=1e-15)
        tested += 1


def test_kkt_pair_rejects_coincident_rows():
    assert kpoint._kkt_pair([[0.5, -0.25], [0.5, -0.25]], [1.0, 2.0]) is None


def test_oracle_tail_matches_its_reference_on_c06_corpus(monkeypatch):
    # the one-pass tail with closed-form hull coordinates below three
    # samples, and the Newton budget, against the three-pass tail with nnls
    # coordinates and 40 Newton steps: the same lam, point, active set and
    # violation, bit for bit, and the same hull coordinates to rounding
    sizes = set()
    for points, values, x in c06_instances():
        s = LabeledPointSet(points, values)
        fast = kpoint_oracle(s, x)
        with monkeypatch.context() as mp:
            mp.setattr(kpoint, "_oracle_tail", reference_oracle_tail)
            mp.setattr(kpoint, "NEWTON_ITERS", 40)
            ref = kpoint_oracle(s, x)
        assert fast.active == ref.active
        for a, b in ((fast.lam, ref.lam), (fast.point, ref.point),
                     (fast.max_violation, ref.max_violation)):
            assert np.array_equal(_bits(a), _bits(b))
        hull = fast.hull_coords
        assert np.abs(hull - ref.hull_coords).max() <= 1e-12
        assert hull.min() >= 0.0 and hull.sum() == pytest.approx(1.0, abs=1e-12)
        sizes.add(len(fast.active))
    assert {1, 2, 3, 4} <= sizes


# one of the working sets that the polish meets in every round of the
# kpoint-check benchmark (seed 1, query 153): three rows whose ratio
# spheres k_i ||y - u_i|| = t have no common point, so Newton cannot converge
NO_EQUAL_RATIO = (
    np.array([[-0.2404457782367302, -0.4065493509430697],
              [0.402942445761304, -0.22444083309179466],
              [0.5553061765543238, 0.19907332568505665]]),
    np.array([1.4943185256415348, 1.0774023334529723, 1.1140243361249254]),
    np.array([-0.2146165917433754, 0.09363179606554797]),
)


def _counting_solve(monkeypatch):
    """Count np.linalg.solve calls, one per Newton step of _kkt_newton."""
    solve, calls = np.linalg.solve, []

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_kkt_newton_gives_up_within_its_budget(monkeypatch):
    calls = _counting_solve(monkeypatch)
    assert _kkt_newton(*NO_EQUAL_RATIO) is None
    assert 0 < len(calls) <= kpoint.NEWTON_ITERS


def test_certifying_newton_solves_use_at_most_half_the_budget(monkeypatch):
    # every Newton solve of three or more rows that gives nonnegative
    # multipliers on C06 converges within half of NEWTON_ITERS: a change
    # that slows convergence fails here before the budget cuts solves off
    calls = _counting_solve(monkeypatch)
    newton, steps = kpoint._kkt_newton, []

    def spy(u, k, y):
        calls.clear()
        sol = newton(u, k, y)
        if len(u) > 2 and sol is not None and sol[2].min() >= -kpoint.KKT_TOL:
            steps.append(len(calls))
        return sol

    monkeypatch.setattr(kpoint, "_kkt_newton", spy)
    for points, values, x in c06_instances():
        kpoint_oracle(LabeledPointSet(points, values), x)
    assert len(steps) > 50
    assert max(steps) <= kpoint.NEWTON_ITERS // 2


@pytest.mark.parametrize("polish", [
    lambda unit, k, y0: None,
    # a point far outside the samples' hull, which the ratio guard rejects
    lambda unit, k, y0: y0 + 10.0,
])
def test_oracle_keeps_its_start_without_a_polished_point(monkeypatch, caplog, polish):
    # when the polish's point is not kept, the oracle returns its start z0,
    # the steepest pair's weighted point, with lam its largest ratio: an
    # upper bound on the kernel's lam, not a match to the kernel's
    # tolerances.  A polish that returns z0 itself passes the guard, so it
    # gives the same point and lam without the warning.
    polishes, starts = [polish], []

    def spy(unit, k, y0):
        starts.append(y0)
        return polishes[-1](unit, k, y0)

    monkeypatch.setattr(kpoint, "minimize", spy)
    for p, v, x in list(c06_instances())[:60]:
        s = LabeledPointSet(p, v)
        d = np.linalg.norm(s.points - x, axis=1)
        starts.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lipext.kpoint"):
            ro = kpoint_oracle(s, x)
        if s.size == 1:
            # a single sample returns before the polish
            assert starts == [] and caplog.records == []
            continue
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "keeping the steepest pair's weighted point" in caplog.records[0].getMessage()
        polishes.append(lambda unit, k, y0: y0)
        kept = kpoint_oracle(s, x)
        polishes.pop()
        assert len(starts) == 2 and np.array_equal(starts[0], starts[1])
        assert np.array_equal(ro.point, kept.point) and ro.lam == kept.lam
        i, j = np.triu_indices(s.size, 1)
        a = int(np.argmax(np.linalg.norm(s.values[i] - s.values[j], axis=1) / (d[i] + d[j])))
        a, b = i[a], j[a]
        z0 = (d[b] * s.values[a] + d[a] * s.values[b]) / (d[a] + d[b])
        assert np.allclose(ro.point, z0, rtol=0.0, atol=1e-12)
        assert ro.lam == _max_ratio(s.values, d, ro.point)
        assert ro.lam >= kpoint_vector(s, x).lam * (1.0 - 1e-12)


def test_oracle_polish_certifies_every_c06_instance(monkeypatch, caplog):
    # the start is only a fallback: from the steepest pair's weighted point,
    # the polish gives a point the oracle's guard keeps on the whole C06
    # corpus, one that does not worsen the start's largest ratio
    minimize_impl, calls = kpoint.minimize, []

    def spy(unit, k, y0):
        z = minimize_impl(unit, k, y0)
        calls.append((unit, k, y0, z))
        return z

    monkeypatch.setattr(kpoint, "minimize", spy)
    with caplog.at_level(logging.WARNING, logger="lipext.kpoint"):
        for p, v, x in c06_instances():
            kpoint_oracle(LabeledPointSet(p, v), x)
    assert len(calls) > 400 and caplog.records == []
    for unit, k, y0, z in calls:
        assert z is not None
        worst = np.max(k * np.linalg.norm(z - unit, axis=1))
        assert worst <= np.max(k * np.linalg.norm(y0 - unit, axis=1)) * (1.0 + 1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_polish_returns_nothing_on_non_finite_input(bad):
    for which in range(3):
        args = [np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]]), np.ones(3), np.zeros(2)]
        args[which].flat[1] = bad
        assert minimize(*args) is None


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_oracle_at_extreme_scales(scale):
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    values = np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]])
    x = [0.4, 0.3]
    base = kpoint_oracle(LabeledPointSet(points, values), x)
    r = kpoint_oracle(LabeledPointSet(points, values * scale), x)
    assert r.lam / scale == pytest.approx(base.lam, rel=1e-12)
    assert np.allclose(r.point / scale, base.point, rtol=0.0, atol=1e-12)
    assert r.active == base.active


# ---------------------------------------------------------------------------
# the query path on floats against its numpy reference
# ---------------------------------------------------------------------------

def _assert_query_paths_agree(s, x):
    assert_same_result(kpoint_vector(s, x), reference_kpoint_vector(s, x))
    assert_same_result(kpoint_oracle(s, x), reference_kpoint_oracle(s, x))


def test_query_path_matches_its_numpy_reference_on_c06_corpus(caplog):
    with caplog.at_level(logging.WARNING, logger="lipext.kpoint"):
        for points, values, x in c06_instances():
            _assert_query_paths_agree(LabeledPointSet(points, values), x)
    assert caplog.records == []


def test_query_path_matches_its_numpy_reference_on_eight_scalar_samples():
    # numpy sums eight or more rows of one column pairwise: the oracle's
    # centre has to keep that order
    rng = np.random.default_rng(88)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        points, values = rng.uniform(-1, 1, (8, n)), rng.uniform(-1, 1, (8, 1))
        _assert_query_paths_agree(LabeledPointSet(points, values), rng.uniform(-1, 1, n))


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_query_path_matches_its_numpy_reference_at_extreme_scales(scale):
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    values = np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]])
    x = np.array([0.4, 0.3])
    _assert_query_paths_agree(LabeledPointSet(points, values * scale), x)
    _assert_query_paths_agree(LabeledPointSet(points * scale, values), x * scale)


def _same_distances(s, x):
    """kpoint._distances and its numpy reference: the same error, or the
    same bits."""
    try:
        expected = reference_distances(s, x)
    except (ValueError, QueryCoincidesWithSample) as exc:
        with pytest.raises(type(exc)) as got:
            kpoint._distances(s, x)
        assert str(got.value) == str(exc)
        return type(exc)
    got = kpoint._distances(s, x)
    assert type(got) is list and np.array_equal(_bits(got), _bits(expected))
    return None


@pytest.mark.filterwarnings("error")
def test_distances_match_their_numpy_reference():
    plane = LabeledPointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0], [2.0]])
    errors = [_same_distances(plane, x) for x in
              ([0.4, math.nan], [math.inf, 0.3], [0.4], [[0.4, 0.3]], [1.0, 0.0])]
    assert errors == [ValueError] * 4 + [QueryCoincidesWithSample]
    assert _same_distances(scalar_set([1e308, 0.0], [0.0, 1.0]), [-1e308]) is ValueError
    # offsets below and above OFFSET_RANGE are rescaled by a power of two
    rng = np.random.default_rng(89)
    for scale in (1e-200, 1e-300, 1.0, 1e200, 1e300):
        for n in (1, 2, 3):
            points = rng.uniform(-1, 1, (5, n)) * scale
            s = LabeledPointSet(points, rng.uniform(-1, 1, (5, 2)))
            assert _same_distances(s, rng.uniform(-1, 1, n) * scale) is None
            # a query on a sample, and one an offset of one ulp away
            assert _same_distances(s, points[2]) is QueryCoincidesWithSample
            assert _same_distances(s, np.nextafter(points[2], 2.0)) is None
    # large positions with a query a tiny offset away
    s = scalar_set([1e300, -1.0], [0.0, 1.0])
    assert _same_distances(s, [np.nextafter(1e300, 2e300)]) is None


def test_polish_skips_the_retry_only_on_sets_whose_spheres_share_no_point(monkeypatch):
    # Newton on NO_EQUAL_RATIO cannot converge, and its ratio spheres have
    # no common point; on C06 every set that the test rules out fails its
    # centroid retry too, so skipping that retry changes no result
    assert kpoint._share_no_point(*NO_EQUAL_RATIO[:2])
    u, k = NO_EQUAL_RATIO[0], np.ones(3)
    assert not kpoint._share_no_point(u, k)  # equal radii: the circumcentre
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert not kpoint._share_no_point(collinear, NO_EQUAL_RATIO[1])  # unsure
    test, skipped = kpoint._share_no_point, []

    def spy(u, k):
        out = test(u, k)
        if out:
            skipped.append(_kkt_newton(u, k, k @ u / k.sum()))
        return out

    monkeypatch.setattr(kpoint, "_share_no_point", spy)
    for points, values, x in c06_instances():
        kpoint_oracle(LabeledPointSet(points, values), x)
    assert skipped and all(sol is None for sol in skipped)


def test_oracle_never_above_kernel_on_c06_corpus():
    # the polish is exact: the oracle's lam does not exceed the kernel's
    # beyond rounding on any instance
    for points, values, x in c06_instances():
        s = LabeledPointSet(points, values)
        assert kpoint_oracle(s, x).lam <= kpoint_vector(s, x).lam * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# cross-validation properties
# ---------------------------------------------------------------------------

def test_vector_agrees_with_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        s, x = random_instance(rng)
        rv = kpoint_vector(s, x)
        ro = kpoint_oracle(s, x)
        assert abs(rv.lam - ro.lam) <= 1e-6
        assert np.linalg.norm(rv.point - ro.point) <= 1e-5


def test_vector_lam_below_lip():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s, x = random_instance(rng)
        assert kpoint_vector(s, x).lam <= lip_constant(s) + 1e-9


def test_vector_matches_scalar_for_m1():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 9))
        s = LabeledPointSet(rng.uniform(-1, 1, (size, n)), rng.uniform(-1, 1, size))
        x = rng.uniform(-1, 1, n)
        if min(np.linalg.norm(s.points - x, axis=1)) < 1e-3:
            continue
        rv = kpoint_vector(s, x)
        rs = kpoint_scalar(s, x)
        assert abs(rv.lam - rs.lam) <= 1e-9
        assert abs(rv.point[0] - rs.point[0]) <= 1e-9


def test_scale_and_translation_equivariance(equilateral):
    x = [0.0, 0.0]
    base = kpoint_vector(equilateral, x)
    # scaling by a power of two is exact in floating point
    scaled = LabeledPointSet(equilateral.points, equilateral.values * 4.0)
    r = kpoint_vector(scaled, x)
    assert r.lam == base.lam * 4.0
    assert np.array_equal(r.point, base.point * 4.0)
    shift = np.array([0.5, -0.25])
    shifted = LabeledPointSet(equilateral.points, equilateral.values + shift)
    r = kpoint_vector(shifted, x)
    assert r.lam == pytest.approx(base.lam, abs=1e-12)
    assert np.allclose(r.point, base.point + shift, atol=1e-9)


def test_scale_equivariance_random():
    rng = np.random.default_rng(37)
    for _ in range(30):
        s, x = random_instance(rng)
        base = kpoint_vector(s, x)
        sc = rng.uniform(0.3, 3.0)
        r = kpoint_vector(LabeledPointSet(s.points, s.values * sc), x)
        assert r.lam == pytest.approx(base.lam * sc, rel=1e-9, abs=1e-12)
        assert np.allclose(r.point, base.point * sc, rtol=1e-9, atol=1e-9)


def test_extreme_scales_and_offsets():
    # mixed value/distance scales must not corrupt the enumeration: the
    # substituted determinants are computed on normalized data
    rng = np.random.default_rng(53)
    for factor in (1e-8, 1e8):
        for _ in range(25):
            s, x = random_instance(rng)
            base = kpoint_vector(s, x)
            scaled = kpoint_vector(LabeledPointSet(s.points, s.values * factor), x)
            assert scaled.lam == pytest.approx(base.lam * factor, rel=1e-9)
            assert np.allclose(scaled.point, base.point * factor,
                               rtol=1e-9, atol=1e-9 * factor)
    for _ in range(25):
        s, x = random_instance(rng)
        base = kpoint_vector(s, x)
        offset = 1e8
        shifted = kpoint_vector(LabeledPointSet(s.points, s.values + offset), x)
        assert shifted.lam == pytest.approx(base.lam, rel=1e-7, abs=1e-7)
        assert np.allclose(shifted.point - offset, base.point, atol=1e-6)


def test_extreme_magnitudes():
    # squared differences of values near 1e160 overflow and near 1e-170
    # underflow; neither may make the data look constant
    rng = np.random.default_rng(59)
    for factor in (1e-200, 1e-160, 1e160, 1e200):
        for _ in range(25):
            s, x = random_instance(rng)
            base = kpoint_vector(s, x)
            scaled = kpoint_vector(LabeledPointSet(s.points, s.values * factor), x)
            assert scaled.lam == pytest.approx(base.lam * factor, rel=1e-9)
            assert np.allclose(scaled.point, base.point * factor,
                               rtol=1e-9, atol=1e-9 * factor)


def test_permutation_invariance():
    rng = np.random.default_rng(41)
    for _ in range(40):
        s, x = random_instance(rng)
        perm = rng.permutation(s.size)
        sp = LabeledPointSet(s.points[perm], s.values[perm])
        r1 = kpoint_vector(s, x)
        r2 = kpoint_vector(sp, x)
        assert r1.lam == pytest.approx(r2.lam, rel=1e-12, abs=1e-12)
        assert np.allclose(r1.point, r2.point, atol=1e-12)
        # active sets correspond through the permutation
        mapped = tuple(sorted(int(np.flatnonzero(perm == a)[0]) for a in r1.active))
        assert mapped == r2.active


def test_active_set_bounded():
    rng = np.random.default_rng(43)
    for _ in range(100):
        s, x = random_instance(rng)
        r = kpoint_vector(s, x)
        assert len(r.active) <= s.value_dim + 1


def test_result_invariants():
    rng = np.random.default_rng(47)
    for _ in range(60):
        s, x = random_instance(rng)
        r = kpoint_vector(s, x)
        d = np.linalg.norm(s.points - x, axis=1)
        scale = max(r.lam * d.max(), 1e-12)
        assert r.lam >= 0.0
        assert len(r.active) >= 1
        assert np.all(r.hull_coords >= -1e-9)
        for i in range(s.size):
            assert np.linalg.norm(r.point - s.values[i]) <= r.lam * d[i] + 1e-9 * scale
        for i in r.active:
            gap = abs(np.linalg.norm(r.point - s.values[i]) - r.lam * d[i])
            assert gap <= 1e-9 * scale


# ---------------------------------------------------------------------------
# minimax_kernel against the fully vectorised kernel it replaced
# ---------------------------------------------------------------------------

def _reference_kernel(values, dists, tol=CERT_TOL):
    """The former kernel: every pair evaluated at once in numpy, and the
    determinant stacks of every subset size built before any is tested."""
    raw_values = np.atleast_2d(np.asarray(values, dtype=float))
    raw_dists = np.asarray(dists, dtype=float)
    vmag = float(np.abs(raw_values).max())
    rdiff = raw_values[:, None, :] - raw_values[None, :, :]
    spread = float(np.sqrt(np.einsum("ijk,ijk->ij", rdiff, rdiff).max()))
    if spread <= CONSTANT_TOL * max(vmag, spread):
        return 0.0, raw_values[0].copy(), (0,), np.array([1.0]), 0.0
    center = raw_values.mean(axis=0)
    dscale = float(raw_dists.max())
    values = (raw_values - center) / spread
    dists = raw_dists / dscale
    n, m = values.shape
    dmax = float(dists.max())
    noise = NOISE_TOL

    def denorm(lam, point, active, coords, viol):
        return lam * spread / dscale, center + point * spread, active, coords, viol * spread

    diff = values[:, None, :] - values[None, :, :]
    vdist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dsum = dists[:, None] + dists[None, :]
    lam_ij = vdist / dsum
    cand = (dists[None, :, None] * values[:, None, :]
            + dists[:, None, None] * values[None, :, :]) / dsum[:, :, None]
    gap = cand[:, :, None, :] - values[None, None, :, :]
    viol_ij = np.max(
        np.sqrt(np.einsum("ijkl,ijkl->ijk", gap, gap)) - lam_ij[:, :, None] * dists[None, None, :],
        axis=2,
    )
    ok = viol_ij <= tol * lam_ij * dmax + noise
    ok[np.tril_indices(n)] = False
    if ok.any():
        i, j = divmod(int(np.flatnonzero(ok.ravel())[0]), n)
        coords = np.array([dists[j], dists[i]]) / (dists[i] + dists[j])
        return denorm(float(lam_ij[i, j]), cand[i, j].copy(), (i, j), coords,
                      float(viol_ij[i, j]))

    vsq = vdist * vdist
    by_size = {}
    for size in range(3, min(m + 1, n) + 1):
        subsets = list(combinations(range(n), size))
        stack = np.zeros((len(subsets), 4, size + 2, size + 2))
        for si, subset in enumerate(subsets):
            js = list(subset)
            block = vsq[np.ix_(js, js)]
            dj2 = dists[js] ** 2
            mm = stack[si, 0]
            mm[0, 1:-1] = 1.0
            mm[1:-1, 0] = 1.0
            mm[1:-1, 1:-1] = block
            mm[-1, -1] = 1.0
            for slot, mu in ((1, 0.0), (2, 1.0), (3, 2.0)):
                mm = stack[si, slot]
                mm[0, 1:] = 1.0
                mm[1:, 0] = 1.0
                mm[1, 2:] = mu * dj2
                mm[2:, 1] = mu * dj2
                mm[2:, 2:] = block
        by_size[size] = (subsets, np.linalg.det(stack))

    for simplex_tol in (SIMPLEX_TOL, 0.0):
        for size in range(3, min(m + 1, n) + 1):
            subsets, dets = by_size[size]
            for si, subset in enumerate(subsets):
                js = list(subset)
                gamma, d0, d1, d2 = dets[si]
                scale = float(vsq[np.ix_(js, js)].max())
                if scale == 0.0 or not abs(gamma) > simplex_tol * scale ** (size - 1):
                    continue
                a = 0.5 * (d2 - 2.0 * d1 + d0)
                bq = Biquadratic(a=a, b=d1 - d0 - a, c=d0)
                vals_j = values[js]
                base = vals_j[0]
                bmat = vals_j[1:] - base
                gram = 2.0 * (bmat @ bmat.T)
                bnorm2 = np.einsum("ij,ij->i", bmat, bmat)
                dj = dists[js]
                for lam in solve_biquadratic(bq):
                    if lam <= 0.0:
                        continue
                    rad = lam * dj
                    rhs = bnorm2 + rad[0] ** 2 - rad[1:] ** 2
                    try:
                        coef = np.linalg.solve(gram, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    y = base + coef @ bmat
                    lscale = max(float(rad.max()), math.sqrt(scale))
                    if abs(float(np.linalg.norm(y - base)) - rad[0]) > CERT_TOL * lscale:
                        continue
                    coords = np.concatenate([[1.0 - coef.sum()], coef])
                    if coords.min() < -HULL_TOL:
                        continue
                    viol = float(np.max(np.linalg.norm(y - values, axis=1) - lam * dists))
                    if viol <= tol * lam * dmax + noise:
                        return denorm(lam, y, subset, coords, viol)
    raise NoCertifiedSubset(f"no certified subset among {n} samples (m = {m})")


def _assert_matches_reference(values, dists):
    """Bit-identical results for m <= 2; for m = 3 the sums of squares may
    round differently, so lam and the point agree to 1e-12 relative.  The
    active set is the same in both cases."""
    ref = _reference_kernel(values, dists)
    got = minimax_kernel(values, dists)
    assert got[2] == ref[2]
    if np.atleast_2d(np.asarray(values)).shape[1] <= 2:
        assert got[0] == ref[0] and got[4] == ref[4]
        assert np.array_equal(got[1], ref[1]) and np.array_equal(got[3], ref[3])
    else:
        assert got[0] == pytest.approx(ref[0], rel=1e-12)
        assert np.linalg.norm(got[1] - ref[1]) <= 1e-12 * np.linalg.norm(ref[1])
    return got


def test_kernel_matches_reference_on_c06_corpus():
    for points, values, x in c06_instances():
        d = np.linalg.norm(points - x, axis=1)
        _assert_matches_reference(values, d)


def test_pair_block_rows_of_one_sample():
    # a row with one sample is its own optimum, bit for bit, also where the
    # padding repeats it: (d u + d u) / (d + d) rounds away from u in about
    # one case in nine
    rng = np.random.default_rng(5)
    for m in (1, 2):
        values = rng.uniform(-1, 1, (m, 200, 3))
        dists = rng.uniform(0.01, 2.0, (200, 3))
        values[:, 1:, 1:] = values[:, 1:, :1]
        dists[1:, 1:] = dists[1:, :1]
        count = np.ones(200, dtype=int)
        count[0] = 3
        points, certified = KernelBlock(dists, count).step(values)
        assert certified[1:].all()
        assert np.array_equal(points[1:], values[:, 1:, 0].T)


def _c09_sweep_calls():
    """The inputs of every kernel call iterate_tight makes on the C09 graphs,
    with the exact finish switched off (every sweep to the stop rule) and
    on (fewer sweeps, and the finish's freezes)."""
    calls = []

    def recording(values, dists, *args):
        calls.append(([np.array(v) for v in values], list(dists)))
        return minimax_kernel(values, dists, *args)

    for finish_at in (0.0, vector.FINISH_AT):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vector, "minimax_kernel", recording)
            mp.setattr(vector, "FINISH_AT", finish_at)
            rng = np.random.default_rng(909)
            for _ in range(50):
                vector.iterate_tight(random_graph(rng, max_vertices=24, m=2), tol=1e-10)
    return calls


def test_kernel_matches_reference_in_sweeps():
    exits = {1: 0, 2: 0, 3: 0}
    for values, dists in _c09_sweep_calls():
        exits[len(_assert_matches_reference(values, dists)[2])] += 1
    assert min(exits.values()) > 0, exits


def test_kernel_matches_reference_near_a_tie():
    # the pair (0, 1) certifies within the tolerance although (0, 2) is
    # steeper by a fraction of it: the first certified pair wins, not the
    # steepest
    for gap in (1e-10, 5e-10, 9e-10, 1.2e-9, 2e-9, 3e-9):
        values = np.array([[0.0], [2.0], [2.001 + gap]])
        got = _assert_matches_reference(values, np.array([1.0, 1.0, 1.001]))
        assert got[2] == ((0, 1) if gap < 1e-9 else (0, 2))


def test_kernel_matches_reference_in_relaxed_pass():
    # a needle triangle: the optimum needs all three samples, and their
    # bordered determinant is below the strict simplex threshold
    values = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 2.5e-8]])
    dists = np.array([1.0, 1.0, 7.5e-9])
    got = _assert_matches_reference(values, dists)
    assert got[2] == (0, 1, 2)
    assert not is_simplex(values)


def _near_collinear_grid():
    """Values (-1, 0), (1, 0), (offset, eps) at distances (1, 1, f * eps),
    ε in 1e-9...1e-3: needle triangles, some certified and some not."""
    for offset in (0.0, 0.3, -0.7):
        for eps in np.logspace(-9, -3, 61)[::3]:
            for f in np.linspace(0.05, 0.95, 19):
                yield np.array([[-1.0, 0.0], [1.0, 0.0], [offset, eps]]), np.array([1.0, 1.0, f * eps])


def test_kernel_matches_reference_on_near_collinear_grid():
    # the needle triangles that the reference certifies only in its relaxed
    # pass are among them, and so are cases where it certifies nothing
    certified = raised = needles = 0
    for values, dists in _near_collinear_grid():
        try:
            _reference_kernel(values, dists)
        except NoCertifiedSubset:
            with pytest.raises(NoCertifiedSubset):
                minimax_kernel(values, dists)
            raised += 1
            continue
        got = _assert_matches_reference(values, dists)
        certified += 1
        needles += len(got[2]) == 3 and not is_simplex(values)
    assert certified + raised >= 300
    assert min(certified, raised, needles) > 0, (certified, raised, needles)


@pytest.mark.xfail(raises=NoCertifiedSubset, strict=True)
def test_kernel_certifies_a_near_collinear_triple():
    # the quartic's root is nearly double here: lam = 1 + 2.45e-11 comes
    # back off by about 1e-8 and fails the certificate
    eps, f = 1e-5, 0.3
    values = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, eps]])
    lam, point, active, _, _ = minimax_kernel(values, np.array([1.0, 1.0, f * eps]))
    # by symmetry the optimum is (0, t) with t = eps - lam f eps on the
    # third sphere and sqrt(1 + t^2) = lam on the first two
    exact = 1.0
    for _ in range(5):
        exact = math.hypot(1.0, eps - exact * f * eps)
    assert active == (0, 1, 2)
    assert lam == pytest.approx(exact, rel=1e-13)
    assert point == pytest.approx([0.0, eps - exact * f * eps], abs=1e-15)


def test_kernel_matches_reference_at_degree_64():
    rng = np.random.default_rng(64)
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    radii = rng.uniform(0.3, 1.0, 64)
    offsets = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # linear data around the query: one steepest pair certifies
    got = _assert_matches_reference(offsets @ np.array([[2.0, 0.5], [-1.0, 1.5]]), radii)
    assert len(got[2]) == 2
    _assert_matches_reference(rng.uniform(-1, 1, (64, 1)), rng.uniform(0.2, 1.0, 64))


# ---------------------------------------------------------------------------
# the simplex phase: the stacked pass against the per-candidate reference
# ---------------------------------------------------------------------------

def test_simplex_paths_agree_on_c06_corpus():
    exits = set()
    for points, values, x in c06_instances():
        exits.add(len(assert_simplex_paths_agree(values, np.linalg.norm(points - x, axis=1))[2]))
    assert exits == {1, 2, 3, 4}


def test_simplex_paths_agree_in_sweeps():
    exits = set()
    for values, dists in _c09_sweep_calls():
        exits.add(len(assert_simplex_paths_agree(values, dists)[2]))
    assert exits == {1, 2, 3}


def test_simplex_paths_agree_on_near_collinear_grid():
    results = [assert_simplex_paths_agree(values, dists) for values, dists in _near_collinear_grid()]
    raised = sum(r is NoCertifiedSubset for r in results)
    assert 0 < raised < len(results)


def test_simplex_paths_agree_on_regular_polygons():
    # values on a regular polygon with an odd number of vertices, at equal
    # distances: every triangle that holds the centre certifies the centre,
    # and the lexicographically first such triangle wins on both paths
    for n in (5, 7):
        angles = 2.0 * np.pi * np.arange(n) / n
        values = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        got = assert_simplex_paths_agree(values, np.ones(n))
        assert got[2] == min(t for t in combinations(range(n), 3)
                             if max(t[1] - t[0], t[2] - t[1], n + t[0] - t[2]) < n / 2)


def test_simplex_paths_agree_where_pow_and_square_round_apart():
    # sphere_point squares rad[0] by C pow, and an array square rounds
    # apart from it on about 0.1 % of inputs (glibc 2.36, numpy 2.4); on
    # this draw the certified candidate's violation reads the difference
    rng = np.random.default_rng(12)
    for _ in range(2994):
        n, m = int(rng.integers(5, 9)), int(rng.integers(2, 4))
        values, dists = rng.uniform(-1, 1, (n, m)), rng.uniform(0.2, 1.0, n)
    assert assert_simplex_paths_agree(values, dists)[2] == (0, 2, 7)

